//! Integration: the scenario fleet behaves like production data.
//!
//! Four properties, one per test:
//!
//! 1. **Thread-count identity** — every fleet member runs the full
//!    pipeline (world → vision → features → bags) bit-identically with
//!    the parallel runtime pinned to 1 thread and to 4.
//! 2. **Crash-safe ingest** — a cross-camera fleet ingest into a
//!    [`ShardedDb`] survives a torn-tail crash at every op boundary:
//!    no shard is quarantined, recovery verifies clean, and synced
//!    clips serve byte-identically.
//! 3. **Oracle round trip through serve** — feeding a serve session the
//!    ground-truth oracle's labels through the `feedback` op produces
//!    exactly the ranking an in-process [`Session::run_rounds`] reaches
//!    with the same oracle.
//! 4. **Noise monotonicity** (property test on the in-tree harness) —
//!    expected precision@20 degrades monotonically in the label-noise
//!    rate and the all-noise session never panics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use tsvr::core::{
    bundle_from_clip, labels_from_bundle, prepare_clip, segment_from_dataset, ClipArtifacts,
    EventQuery, LearnerKind, PipelineOptions, Session,
};
use tsvr::mil::metrics::precision_at;
use tsvr::mil::oracle::NoisyOracle;
use tsvr::mil::{Bag, GroundTruthOracle, Oracle};
use tsvr::sim::{fleet, Scenario};
use tsvr::viddb::record::ClipBundle;
use tsvr::viddb::{ClipMeta, ShardedDb, VideoDb};
use tsvr_serve::{Envelope, Request, Response, Service, ServiceConfig};

/// A fleet member's scenario shortened for test budgets: the first
/// target incident (frame ~110) and the early distractors survive the
/// cut, the second strike does not.
fn short_scenario(name: &str, seed: u64) -> Scenario {
    let mut s = fleet::scenario(name, seed).expect("fleet member");
    s.total_frames = s.total_frames.min(280);
    s
}

fn meta_for(clip_id: u64, camera: &str, clip: &ClipArtifacts) -> ClipMeta {
    ClipMeta {
        clip_id,
        name: format!("fleet clip {clip_id}"),
        location: "fleet".into(),
        camera: camera.into(),
        start_time: 0,
        frame_count: clip.sim.frames.len() as u32,
        width: clip.sim.width,
        height: clip.sim.height,
    }
}

/// Two cached fleet clips from different members (and later, different
/// cameras) shared across the tests in this binary.
fn fleet_clips() -> &'static (ClipArtifacts, ClipArtifacts) {
    static CLIPS: OnceLock<(ClipArtifacts, ClipArtifacts)> = OnceLock::new();
    CLIPS.get_or_init(|| {
        (
            prepare_clip(
                &short_scenario("wrong_way", 2007),
                &PipelineOptions::default(),
            ),
            prepare_clip(
                &short_scenario("pedestrian", 2007),
                &PipelineOptions::default(),
            ),
        )
    })
}

#[test]
fn every_fleet_member_is_thread_count_invariant() {
    let saved = tsvr_par::current_threads();
    for m in fleet::members() {
        let scenario = short_scenario(m.name, 11);
        tsvr_par::set_threads(1);
        let a = prepare_clip(&scenario, &PipelineOptions::default());
        tsvr_par::set_threads(4);
        let b = prepare_clip(&scenario, &PipelineOptions::default());
        assert_eq!(a.sim.frames, b.sim.frames, "{}: frames diverged", m.name);
        assert_eq!(
            a.sim.incidents, b.sim.incidents,
            "{}: incidents diverged",
            m.name
        );
        assert_eq!(
            a.bags, b.bags,
            "{}: bags diverged across thread counts",
            m.name
        );
        assert_eq!(
            a.dataset.window_count(),
            b.dataset.window_count(),
            "{}: window count diverged",
            m.name
        );
    }
    tsvr_par::set_threads(saved);
}

/// One step of the cross-camera fleet ingest workload.
enum Op {
    PutA,
    IndexA,
    PutB,
    IndexB,
    Sync,
}

fn script() -> Vec<Op> {
    vec![
        Op::PutA,
        Op::IndexA,
        Op::Sync,
        Op::PutB,
        Op::IndexB,
        Op::Sync,
    ]
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tsvr-fleet-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Runs the first `upto` ops; returns clips known fully synced (the
/// strong survivors — unsynced ones are merely *allowed* to survive).
fn run_prefix(
    dir: &Path,
    upto: usize,
    a: &ClipBundle,
    b: &ClipBundle,
) -> BTreeMap<u64, ClipBundle> {
    let (clip_a, clip_b) = fleet_clips();
    let mut db = ShardedDb::open_with_bucket(dir, 3600).unwrap();
    let mut pending: BTreeMap<u64, ClipBundle> = BTreeMap::new();
    let mut synced = BTreeMap::new();
    for op in script().into_iter().take(upto) {
        match op {
            Op::PutA => {
                db.put_clip(a).unwrap();
                pending.insert(a.meta.clip_id, a.clone());
            }
            Op::IndexA => db
                .put_index(&segment_from_dataset(a.meta.clip_id, &clip_a.dataset))
                .unwrap(),
            Op::PutB => {
                db.put_clip(b).unwrap();
                pending.insert(b.meta.clip_id, b.clone());
            }
            Op::IndexB => db
                .put_index(&segment_from_dataset(b.meta.clip_id, &clip_b.dataset))
                .unwrap(),
            Op::Sync => {
                db.sync().unwrap();
                synced.append(&mut pending);
            }
        }
    }
    synced
}

#[test]
fn fleet_ingest_survives_crash_at_every_op() {
    let (clip_a, clip_b) = fleet_clips();
    let a = bundle_from_clip(clip_a, meta_for(1, "cam-a", clip_a));
    let b = bundle_from_clip(clip_b, meta_for(2, "cam-b", clip_b));
    let total = script().len();
    let mut tear_rng = 0x5eed_2007_u64;

    for k in 1..=total {
        let dir = temp_dir(&format!("sweep-{k}"));
        let synced = run_prefix(&dir, k, &a, &b);

        // Crash: tear the tail of a rotating victim file.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let victim = files[k % files.len()].clone();
        tear_rng ^= tear_rng << 13;
        tear_rng ^= tear_rng >> 7;
        tear_rng ^= tear_rng << 17;
        let len = std::fs::metadata(&victim).unwrap().len();
        let keep = len.saturating_sub(1 + tear_rng % 48);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(keep).unwrap();
        drop(f);
        let victim_name = victim.file_name().unwrap().to_str().unwrap().to_string();

        let mut db = ShardedDb::open_with_bucket(&dir, 3600)
            .unwrap_or_else(|e| panic!("crash point {k}: reopen failed: {e}"));
        assert!(
            db.quarantined_shards().is_empty(),
            "crash point {k}: torn tail quarantined a shard: {:?}",
            db.quarantined_shards()
        );
        for (file, report) in db.verify().unwrap() {
            assert!(
                report.is_clean(),
                "crash point {k}: {file} dirty: {report:?}"
            );
        }
        // Synced clips outside the torn file must serve byte-perfect;
        // clips inside it may only lose their tail records, never
        // serve corrupt data.
        for (id, want) in &synced {
            let in_victim = db
                .shard_of_clip(*id)
                .map(|f| f == victim_name)
                .unwrap_or(true);
            match db.load_clip(*id) {
                Ok(got) => assert_eq!(got, *want, "crash point {k}: clip {id} differs"),
                Err(e) => assert!(
                    in_victim,
                    "crash point {k}: clip {id} lost outside the torn file: {e}"
                ),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn oracle_labels_round_trip_through_serve_feedback() {
    let (clip, _) = fleet_clips();
    let query = EventQuery::for_kind(tsvr::sim::IncidentKind::WrongWay);
    let bundle = bundle_from_clip(clip, meta_for(1, "cam-a", clip));
    let labels = labels_from_bundle(&bundle, &query);
    assert!(labels.iter().any(|&l| l), "no relevant windows to label");

    let mut db = VideoDb::in_memory();
    db.put_clip(&bundle).unwrap();
    let service = Service::new(db, ServiceConfig::default());
    let ask = |req: Request| service.handle(&Envelope::new(req));

    let Response::Opened {
        session_id,
        windows,
        ..
    } = ask(Request::Open {
        clip_id: 1,
        query: query.name.into(),
        learner: "ocsvm".into(),
    })
    else {
        panic!("open failed")
    };
    assert_eq!(windows, clip.bags.len());

    // Serve the full initial page and answer the top of it with the
    // ground-truth oracle, exactly as the session protocol would.
    let top_n = 6;
    let Response::Page { ranking, .. } = ask(Request::Page {
        session_id,
        n: Some(windows),
    }) else {
        panic!("page failed")
    };
    let feedback: Vec<(u32, bool)> = ranking
        .iter()
        .take(top_n)
        .map(|&w| (w as u32, labels[w as usize]))
        .collect();
    let learned = ask(Request::Feedback {
        session_id,
        labels: feedback,
    });
    assert_eq!(
        learned,
        Response::Learned {
            session_id,
            round: 1
        }
    );
    let Response::Page {
        ranking: served, ..
    } = ask(Request::Page {
        session_id,
        n: Some(windows),
    })
    else {
        panic!("page failed")
    };

    // The in-process session with the same oracle must land on the
    // same post-feedback ranking.
    let oracle = GroundTruthOracle::new(labels);
    let ranking = final_ranking(LearnerKind::paper_ocsvm(), &clip.bags, &oracle, top_n, 1);
    let expect: Vec<u64> = ranking.iter().map(|&w| w as u64).collect();
    assert_eq!(
        served, expect,
        "serve feedback diverged from the in-process oracle session"
    );
}

/// The final ranking of an in-process session after `rounds` rounds in
/// which `oracle` labels the top `top_n`.
fn final_ranking(
    kind: LearnerKind,
    bags: &[Bag],
    oracle: &dyn Oracle,
    top_n: usize,
    rounds: usize,
) -> Vec<usize> {
    let mut session = Session::open(0, 0, "fleet", kind, Arc::new(bags.to_vec()));
    let report = session.run_rounds(oracle, top_n, rounds).unwrap();
    assert_eq!(report.rankings.len(), rounds + 1);
    session.ranking().to_vec()
}

/// Mean precision@20 (scored against the TRUE labels) over a few noise
/// seeds at one error rate.
fn mean_precision_under_noise(bags: &[Bag], labels: &[bool], rate: f64) -> f64 {
    let truth = GroundTruthOracle::new(labels.to_vec());
    let seeds = 5;
    let total: f64 = (0..seeds)
        .map(|seed| {
            let noisy = NoisyOracle::new(truth.clone(), rate, seed);
            let ranking = final_ranking(LearnerKind::paper_ocsvm(), bags, &noisy, 10, 2);
            precision_at(&ranking, labels, 20)
        })
        .sum();
    total / seeds as f64
}

#[test]
fn precision_degrades_monotonically_in_expectation_under_label_noise() {
    // Precision@20 is only order-sensitive when the pool is bigger
    // than the page, so rank both fleet clips together: the pedestrian
    // clip's windows are pure distractors for the wrong-way query.
    let (a, b) = fleet_clips();
    // Bag ids are dense pool indices (the feedback key), so the second
    // clip's windows continue after the first's, as
    // `MultiClipIndex::from_parts` numbers them.
    let mut bags = a.bags.clone();
    bags.extend(
        b.bags
            .iter()
            .map(|bag| Bag::new(a.bags.len() + bag.id, bag.instances.clone())),
    );
    let mut labels = a.labels(&EventQuery::for_kind(tsvr::sim::IncidentKind::WrongWay));
    labels.extend(std::iter::repeat_n(false, b.bags.len()));
    assert!(bags.len() > 20, "pool must exceed the page size");
    let rates = [0.0, 0.25, 0.5, 1.0];
    let means: Vec<f64> = rates
        .iter()
        .map(|&r| mean_precision_under_noise(&bags, &labels, r))
        .collect();
    eprintln!(
        "noise sweep: pool {} windows, {} relevant, means {means:?}",
        bags.len(),
        labels.iter().filter(|&&l| l).count()
    );
    for m in &means {
        assert!((0.0..=1.0).contains(m));
    }
    // Monotone in expectation: each step may wobble by a small seed
    // tolerance but never improve materially, and the all-noise end
    // must sit strictly below the clean end.
    for w in means.windows(2) {
        assert!(w[1] <= w[0] + 0.10, "noise increased precision: {means:?}");
    }
    assert!(
        *means.last().unwrap() < means[0],
        "all-noise matched clean retrieval: {means:?}"
    );
}

#[test]
fn all_noise_oracle_never_panics_across_structures() {
    // The adversarial edge case swept with the in-tree property
    // harness: every label inverted, across random feedback depths,
    // page sizes and learners — sessions must terminate with a valid
    // ranking, never panic.
    let (a, b) = fleet_clips();
    let truth_a =
        GroundTruthOracle::new(a.labels(&EventQuery::for_kind(tsvr::sim::IncidentKind::WrongWay)));
    let truth_b = GroundTruthOracle::new(
        b.labels(&EventQuery::for_kind(tsvr::sim::IncidentKind::Pedestrian)),
    );
    tsvr::sim::check::cases(12, |case, rng| {
        let (clip, truth) = if case % 2 == 0 {
            (a, &truth_a)
        } else {
            (b, &truth_b)
        };
        let rounds = 1 + (rng.next_u32() as usize % 3);
        let top_n = 1 + (rng.next_u32() as usize % clip.bags.len().min(25));
        let kind = if case % 3 == 0 {
            LearnerKind::paper_weighted_rf()
        } else {
            LearnerKind::paper_ocsvm()
        };
        let noisy = NoisyOracle::new(truth.clone(), 1.0, case);
        let last = final_ranking(kind, &clip.bags, &noisy, top_n, rounds);
        assert_eq!(last.len(), clip.bags.len());
        // Still a permutation of the bag ids.
        let mut seen = last.clone();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &b)| i == b));
    });
}
