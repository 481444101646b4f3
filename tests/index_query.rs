//! Integration: the persistent feature index and the cross-clip query
//! engine built on it.
//!
//! * a stored index serves the *same bits* as cold extraction — across
//!   a process restart (file-backed reload) too;
//! * the cross-clip top-k is byte-identical at any thread count;
//! * a crash at any storage operation while an index is being written
//!   never damages the source clip, and the index afterwards is either
//!   absent (rebuildable) or fully valid — never torn.

use std::sync::Mutex;
use tsvr::core::{
    bags_from_dataset, build_index, bundle_from_clip, load_index, prepare_clip, rank_topk,
    ClipWindows, EventQuery, LearnerKind, PipelineOptions, RankedWindow, Scorer, ShardWindows,
};
use tsvr::sim::Scenario;
use tsvr::trajectory::{Dataset, WindowConfig};
use tsvr::viddb::{ClipMeta, FaultKind, FaultyStorage, MemStorage, VideoDb};

/// `set_threads` is process-global; tests that flip it serialize.
static THREADS: Mutex<()> = Mutex::new(());

fn meta(clip_id: u64) -> ClipMeta {
    ClipMeta {
        clip_id,
        name: format!("clip-{clip_id}"),
        location: "tunnel".into(),
        camera: format!("cam-{clip_id}"),
        start_time: clip_id * 60,
        frame_count: 400,
        width: 320,
        height: 240,
    }
}

/// Heuristic top 10 over `clips` as one shard.
fn heuristic_rank(clips: Vec<ClipWindows>) -> Vec<RankedWindow> {
    rank_topk(&[ShardWindows { shard: "-".into(), clips }], Scorer::Heuristic, 10)
}

/// Stores `n` prepared clips (ids 1..=n) with their feature indexes.
fn seeded_db(n: u64) -> (VideoDb, Vec<Dataset>) {
    let mut db = VideoDb::in_memory();
    let mut datasets = Vec::new();
    for id in 1..=n {
        let clip = prepare_clip(
            &Scenario::tunnel_small(10 + id),
            &PipelineOptions::default(),
        );
        db.put_clip(&bundle_from_clip(&clip, meta(id))).unwrap();
        build_index(&mut db, id, &clip.dataset).unwrap();
        datasets.push(clip.dataset);
    }
    (db, datasets)
}

/// One window reduced to comparable bits: (index, start_checkpoint,
/// frame span, per-TS (track_id, feature bit patterns)).
type WindowBits = (usize, usize, u64, u64, Vec<(u64, Vec<u64>)>);

fn dataset_bits(ds: &Dataset) -> Vec<WindowBits> {
    ds.windows
        .iter()
        .map(|w| {
            (
                w.index,
                w.start_checkpoint,
                w.start_frame,
                w.end_frame,
                w.sequences
                    .iter()
                    .map(|ts| {
                        (
                            ts.track_id,
                            ts.feature_vector().iter().map(|v| v.to_bits()).collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

fn ranking_bits(rs: &[RankedWindow]) -> Vec<(u64, u64, u64)> {
    rs.iter()
        .map(|r| (r.score.to_bits(), r.clip_id, r.window_index))
        .collect()
}

#[test]
fn index_serves_cold_extraction_bits_across_a_reload() {
    let mut path = std::env::temp_dir();
    path.push(format!("tsvr-index-reload-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let clip = prepare_clip(&Scenario::tunnel_small(77), &PipelineOptions::default());
    let wcfg = clip.dataset.config;
    {
        let mut db = VideoDb::open(&path).unwrap();
        db.put_clip(&bundle_from_clip(&clip, meta(1))).unwrap();
        build_index(&mut db, 1, &clip.dataset).unwrap();
        let served = load_index(&mut db, 1, &wcfg).unwrap().expect("fresh hit");
        assert_eq!(dataset_bits(&served), dataset_bits(&clip.dataset));
    }
    // A different process generation: reopen from disk only.
    let mut db = VideoDb::open(&path).unwrap();
    let served = load_index(&mut db, 1, &wcfg)
        .unwrap()
        .expect("index survives reopen");
    assert_eq!(dataset_bits(&served), dataset_bits(&clip.dataset));

    // And the ranking computed off it is the cold ranking, bit for bit.
    let cold = heuristic_rank(vec![ClipWindows {
        clip_id: 1,
        bags: bags_from_dataset(&clip.dataset),
    }]);
    let warm = heuristic_rank(vec![ClipWindows {
        clip_id: 1,
        bags: bags_from_dataset(&served),
    }]);
    assert_eq!(ranking_bits(&cold), ranking_bits(&warm));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cross_clip_topk_is_thread_count_invariant() {
    let _g = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let (mut db, _) = seeded_db(3);
    let wcfg = WindowConfig::default();

    let rank = |db: &mut VideoDb| {
        let clips: Vec<ClipWindows> = (1..=3)
            .map(|id| ClipWindows {
                clip_id: id,
                bags: bags_from_dataset(&load_index(db, id, &wcfg).unwrap().expect("fresh")),
            })
            .collect();
        let all: Vec<tsvr::mil::Bag> = clips.iter().flat_map(|c| c.bags.clone()).collect();
        let learner = LearnerKind::paper_weighted_rf().build_for(&all);
        let shards = [ShardWindows { shard: "-".into(), clips }];
        let heur = rank_topk(&shards, Scorer::Heuristic, 12);
        let learned = rank_topk(&shards, Scorer::Learner(&learner), 12);
        (ranking_bits(&heur), ranking_bits(&learned))
    };

    tsvr::par::set_threads(1);
    let seq = rank(&mut db);
    tsvr::par::set_threads(4);
    let par = rank(&mut db);
    tsvr::par::set_threads(0);
    assert_eq!(seq.0, par.0, "heuristic top-k diverged across thread counts");
    assert_eq!(seq.1, par.1, "learned top-k diverged across thread counts");
}

#[test]
fn crash_while_writing_index_never_damages_the_clip() {
    let clip = prepare_clip(&Scenario::tunnel_small(33), &PipelineOptions::default());
    let bundle = bundle_from_clip(&clip, meta(1));
    let wcfg = clip.dataset.config;

    // Fault-free run to find the storage-op window of the index write.
    let (storage, handle) = FaultyStorage::new(0);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    db.put_clip(&bundle).unwrap();
    db.sync().unwrap();
    let before_index = handle.op_count();
    build_index(&mut db, 1, &clip.dataset).unwrap();
    let after_index = handle.op_count();
    drop(db);
    assert!(after_index > before_index, "index write issued no storage ops");

    for crash_at in before_index..after_index {
        let (storage, handle) = FaultyStorage::new(1000 + crash_at);
        handle.schedule(crash_at, FaultKind::Crash);
        let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
        db.put_clip(&bundle).unwrap();
        db.sync().unwrap();
        // The crash fires somewhere inside the index append/sync.
        let crashed = build_index(&mut db, 1, &clip.dataset).is_err();
        assert!(crashed, "crash@{crash_at} did not surface");
        drop(db);

        // Reopen the surviving image: the synced clip is intact,
        // byte for byte.
        let image = handle.crash_image();
        let mut db = VideoDb::with_storage(Box::new(MemStorage::from_bytes(image)))
            .unwrap_or_else(|e| panic!("crash@{crash_at}: reopen failed: {e}"));
        let reloaded = db
            .load_clip(1)
            .unwrap_or_else(|e| panic!("crash@{crash_at}: clip lost: {e}"));
        assert_eq!(*reloaded, bundle, "crash@{crash_at}: clip data changed");

        // The index is absent or fully valid — never torn garbage —
        // and a rebuild always restores service.
        match load_index(&mut db, 1, &wcfg).unwrap() {
            Some(served) => {
                assert_eq!(
                    dataset_bits(&served),
                    dataset_bits(&clip.dataset),
                    "crash@{crash_at}: torn index served"
                );
            }
            None => {
                build_index(&mut db, 1, &clip.dataset)
                    .unwrap_or_else(|e| panic!("crash@{crash_at}: rebuild failed: {e}"));
                let served = load_index(&mut db, 1, &wcfg).unwrap().expect("rebuilt");
                assert_eq!(dataset_bits(&served), dataset_bits(&clip.dataset));
            }
        }
    }
}

#[test]
fn stale_index_is_rebuilt_not_served() {
    let (mut db, datasets) = seeded_db(1);
    let mut stale_cfg = WindowConfig::default();
    stale_cfg.features.sampling_rate += 1;
    assert!(
        load_index(&mut db, 1, &stale_cfg).unwrap().is_none(),
        "index for another configuration was served"
    );
    // The original configuration still hits.
    assert!(load_index(&mut db, 1, &datasets[0].config)
        .unwrap()
        .is_some());
}

#[test]
fn sessions_accept_index_backed_datasets_unchanged() {
    let (mut db, _) = seeded_db(2);
    let wcfg = WindowConfig::default();
    let event = EventQuery::accidents();
    let mut parts = Vec::new();
    for id in 1..=2 {
        let ds = load_index(&mut db, id, &wcfg).unwrap().expect("fresh");
        let bags = bags_from_dataset(&ds);
        let bundle = db.load_clip(id).unwrap();
        let labels = tsvr::core::labels_from_bundle(&bundle, &event);
        parts.push((id, bags, labels));
    }
    let index = tsvr::core::MultiClipIndex::from_parts(parts);
    let oracle = tsvr::mil::GroundTruthOracle::new(index.labels.clone());
    let cfg = tsvr::mil::SessionConfig {
        top_n: 5,
        feedback_rounds: 2,
        ..tsvr::mil::SessionConfig::default()
    };
    let (report, _) = tsvr::mil::RetrievalSession::new(
        &index.bags,
        LearnerKind::paper_ocsvm().build_for(&index.bags),
        &oracle,
        cfg,
    )
    .run();
    assert_eq!(report.accuracies.len(), 3);
    for &a in &report.accuracies {
        assert!((0.0..=1.0).contains(&a));
    }
}
