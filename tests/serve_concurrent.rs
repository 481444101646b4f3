//! Concurrency and crash-safety properties of the retrieval service.
//!
//! 1. **Interleaving invariance** — N scripted clients running
//!    concurrently against one shared [`tsvr_serve::Service`] receive
//!    exactly the rankings they would get running alone against a fresh
//!    service over the same database. Session state is private per
//!    client; the only shared state (clip views) is read-only.
//!
//! 2. **Checkpoint durability** — with a crash injected at *every*
//!    storage operation in turn (the PR-3 [`FaultyStorage`] sweep), a
//!    feedback round the client saw acked (`learned`) is never lost:
//!    the reopened database replays to the exact post-round ranking the
//!    original session served.
//!
//! 3. **Warm plans are cold plans** — a served `query` reads clips
//!    through the views the service keeps; once every view is warm it
//!    decodes nothing, and it still answers exactly what a cold
//!    `Planner::run` on a freshly opened archive answers.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use tsvr_core::{
    build_index, bundle_from_clip, dataset_from_bundle, parse_query, prepare_clip, PipelineOptions,
    Planner, RankedWindow, Scorer,
};
use tsvr_serve::{Envelope, ErrorKind, Request, Response, Service, ServiceConfig};
use tsvr_sim::Scenario;
use tsvr_trajectory::WindowConfig;
use tsvr_viddb::record::ClipBundle;
use tsvr_viddb::{ClipMeta, FaultKind, FaultyStorage, MemStorage, ShardedDb, VideoDb};

/// Held by every test that reads clips: the warm-plan test counts the
/// process-wide `viddb.load_*` spans, which a concurrent test's reads
/// would move.
static CLIP_READS: Mutex<()> = Mutex::new(());

fn clip_reads() -> MutexGuard<'static, ()> {
    CLIP_READS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn make_bundle(clip_id: u64, seed: u64) -> ClipBundle {
    let clip = prepare_clip(&Scenario::tunnel_small(seed), &PipelineOptions::default());
    bundle_from_clip(
        &clip,
        ClipMeta {
            clip_id,
            name: format!("clip {clip_id}"),
            location: "tunnel-x".into(),
            camera: format!("cam-{clip_id}"),
            start_time: 1_167_609_600,
            frame_count: 400,
            width: clip.sim.width,
            height: clip.sim.height,
        },
    )
}

fn fresh_db(bundles: &[ClipBundle]) -> VideoDb {
    let mut db = VideoDb::in_memory();
    for b in bundles {
        db.put_clip(b).unwrap();
    }
    db
}

fn ask(service: &Service, req: Request) -> Response {
    service.handle(&Envelope::new(req))
}

/// One scripted client: open, three feedback rounds, collecting the
/// full ranking after every round (initial included). Labels are a
/// deterministic function of the served page and the client's salt, so
/// two runs that see the same rankings submit the same feedback.
fn run_client(service: &Service, clip_id: u64, learner: &str, salt: u64) -> Vec<Vec<u64>> {
    let Response::Opened {
        session_id,
        windows,
        ..
    } = ask(
        service,
        Request::Open {
            clip_id,
            query: "accident".into(),
            learner: learner.into(),
        },
    )
    else {
        panic!("open failed")
    };
    let mut rankings = Vec::new();
    for round in 1..=3usize {
        let Response::Page { ranking, .. } = ask(
            service,
            Request::Page {
                session_id,
                n: Some(windows),
            },
        ) else {
            panic!("page failed")
        };
        let labels: Vec<(u32, bool)> = ranking
            .iter()
            .take(6)
            .map(|&w| (w as u32, (w + salt).is_multiple_of(3)))
            .collect();
        rankings.push(ranking);
        let resp = ask(service, Request::Feedback { session_id, labels });
        assert_eq!(
            resp,
            Response::Learned { session_id, round },
            "feedback round {round} failed"
        );
    }
    let Response::Page { ranking, .. } = ask(
        service,
        Request::Page {
            session_id,
            n: Some(windows),
        },
    ) else {
        panic!("final page failed")
    };
    rankings.push(ranking);
    ask(service, Request::Close { session_id });
    rankings
}

#[test]
fn interleaved_sessions_match_solo_rankings() {
    let _reads = clip_reads();
    let bundles = vec![make_bundle(1, 41), make_bundle(2, 42)];
    // (clip, learner, salt): two clients per clip, mixed learners, so
    // sessions share clip views but never learner state.
    let clients: Vec<(u64, &str, u64)> = vec![
        (1, "ocsvm", 0),
        (1, "wrf", 1),
        (2, "ocsvm", 2),
        (2, "wrf", 3),
    ];

    // Solo reference: each client alone on a fresh service.
    let solo: Vec<Vec<Vec<u64>>> = clients
        .iter()
        .map(|&(clip, learner, salt)| {
            let service = Service::new(fresh_db(&bundles), ServiceConfig::default());
            run_client(&service, clip, learner, salt)
        })
        .collect();

    // Interleaved: all clients concurrently on one shared service.
    let service = Arc::new(Service::new(fresh_db(&bundles), ServiceConfig::default()));
    let barrier = Arc::new(Barrier::new(clients.len()));
    let handles: Vec<_> = clients
        .iter()
        .map(|&(clip, learner, salt)| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let learner = learner.to_string();
            std::thread::spawn(move || {
                barrier.wait();
                run_client(&service, clip, &learner, salt)
            })
        })
        .collect();
    let interleaved: Vec<Vec<Vec<u64>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (i, (alone, shared)) in solo.iter().zip(&interleaved).enumerate() {
        assert_eq!(
            alone, shared,
            "client {i} ({:?}) ranks differently when interleaved",
            clients[i]
        );
    }
}

/// The scripted crash workload: open one session on clip 1 and push
/// `rounds` feedback rounds, stopping at the first error. Returns the
/// number of *acked* rounds, each round's submitted labels, and the
/// ranking served after each acked round.
#[allow(clippy::type_complexity)]
fn drive_session(
    service: &Service,
    rounds: usize,
) -> (usize, Vec<Vec<(u32, bool)>>, Vec<Vec<u64>>, u64) {
    let (session_id, windows) = match ask(
        service,
        Request::Open {
            clip_id: 1,
            query: "accident".into(),
            learner: "ocsvm".into(),
        },
    ) {
        Response::Opened {
            session_id,
            windows,
            ..
        } => (session_id, windows),
        Response::Error(_) => return (0, Vec::new(), Vec::new(), 0),
        other => panic!("unexpected open response {other:?}"),
    };
    let mut acked = 0usize;
    let mut all_labels = Vec::new();
    let mut post_rankings = Vec::new();
    for _ in 1..=rounds {
        let ranking = match ask(
            service,
            Request::Page {
                session_id,
                n: Some(windows),
            },
        ) {
            Response::Page { ranking, .. } => ranking,
            Response::Error(_) => break,
            other => panic!("unexpected page response {other:?}"),
        };
        let labels: Vec<(u32, bool)> = ranking
            .iter()
            .take(6)
            .map(|&w| (w as u32, w.is_multiple_of(3)))
            .collect();
        match ask(
            service,
            Request::Feedback {
                session_id,
                labels: labels.clone(),
            },
        ) {
            Response::Learned { .. } => {
                acked += 1;
                all_labels.push(labels);
                // The post-round ranking this client can now observe.
                match ask(
                    service,
                    Request::Page {
                        session_id,
                        n: Some(windows),
                    },
                ) {
                    Response::Page { ranking, .. } => post_rankings.push(ranking),
                    Response::Error(e) => panic!("page after ack failed: {e}"),
                    other => panic!("unexpected response {other:?}"),
                }
            }
            Response::Error(e) => {
                assert_eq!(
                    e.kind,
                    ErrorKind::Storage,
                    "only storage errors are expected under crash injection: {e}"
                );
                break;
            }
            other => panic!("unexpected feedback response {other:?}"),
        }
    }
    (acked, all_labels, post_rankings, session_id)
}

#[test]
fn crash_at_every_op_never_loses_an_acked_round() {
    let _reads = clip_reads();
    // Seed image: one stored clip, synced.
    let bundle = make_bundle(1, 43);
    let seed_image = {
        let (storage, handle) = FaultyStorage::new(7);
        let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
        db.put_clip(&bundle).unwrap();
        db.sync().unwrap();
        handle.snapshot()
    };

    // Fault-free baseline: count storage ops and record expectations.
    let rounds = 3usize;
    let (total_ops, base_labels, base_rankings) = {
        let (storage, handle) = FaultyStorage::with_image(seed_image.clone(), 7);
        let db = VideoDb::with_storage(Box::new(storage)).unwrap();
        let service = Service::new(db, ServiceConfig::default());
        let (acked, labels, rankings, _) = drive_session(&service, rounds);
        assert_eq!(acked, rounds, "baseline must ack every round");
        (handle.op_count(), labels, rankings)
    };
    assert!(total_ops > 0);

    // Crash sweep: one run per storage operation, crash scheduled there.
    let fast = std::env::var("TSVR_CRASH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    let step = if fast { 7 } else { 1 };
    for k in (0..total_ops).step_by(step) {
        let (storage, handle) = FaultyStorage::with_image(seed_image.clone(), 7);
        handle.schedule(k, FaultKind::Crash);
        let acked = match VideoDb::with_storage(Box::new(storage)) {
            Ok(db) => {
                let service = Service::new(db, ServiceConfig::default());
                let (acked, labels, _, _) = drive_session(&service, rounds);
                assert_eq!(
                    labels,
                    base_labels[..acked],
                    "crash changed pre-crash behavior at op {k}"
                );
                acked
            }
            // Crash during the open-time scan: nothing was acked.
            Err(_) => 0,
        };
        assert!(handle.crashed(), "crash at op {k} never fired");

        // Power is gone; reopen the surviving image.
        let crash_image = handle.crash_image();
        let mut db = VideoDb::with_storage(Box::new(MemStorage::from_bytes(crash_image)))
            .unwrap_or_else(|e| panic!("reopen after crash at op {k} failed: {e}"));
        let stored_rounds = db
            .sessions_for_clip(1)
            .unwrap()
            .iter()
            .map(|r| r.feedback.len())
            .max()
            .unwrap_or(0);
        assert!(
            stored_rounds >= acked,
            "crash at op {k} lost acked feedback: {stored_rounds} stored < {acked} acked"
        );

        if acked > 0 {
            // Resume through the service over the reopened database and
            // check the served ranking equals what the original session
            // saw after its last acked round... unless the crash made a
            // *later*, never-acked round durable (legitimately "maybe
            // applied"), in which case it must match that round instead.
            let service = Service::new(db, ServiceConfig::default());
            let resumed = ask(
                &service,
                Request::Resume {
                    clip_id: 1,
                    session_id: 1,
                    learner: None,
                },
            );
            let Response::Opened {
                session_id, rounds, ..
            } = resumed
            else {
                panic!("resume after crash at op {k} failed: {resumed:?}")
            };
            assert_eq!(rounds, stored_rounds);
            let Response::Page { ranking, .. } = ask(
                &service,
                Request::Page {
                    session_id,
                    n: Some(base_rankings[0].len()),
                },
            ) else {
                panic!("page after resume failed")
            };
            assert_eq!(
                ranking,
                base_rankings[stored_rounds - 1],
                "crash at op {k}: resumed ranking diverges from round {stored_rounds}"
            );
        }
    }
}

/// The e2e benchmark's six query classes.
const CLASSES: [&str; 6] = [
    "all",
    "event = accident",
    "camera = cam-01",
    "camera = cam-02 and time in [3600, 7199] and vdiff >= 0.5",
    "camera in (cam-00, cam-03) and event = accident",
    "theta >= 1.0",
];

/// Samples recorded so far by the span histogram `name`.
fn span_count(name: &str) -> u64 {
    tsvr_obs::snapshot()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0, |h| h.count)
}

fn ranking_bits(ranking: &[RankedWindow]) -> Vec<(u64, u64, u64)> {
    ranking
        .iter()
        .map(|r| (r.clip_id, r.window_index, r.score.to_bits()))
        .collect()
}

#[test]
fn warm_served_plans_equal_cold_plans() {
    let _reads = clip_reads();
    let dir = std::env::temp_dir().join(format!("tsvr-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Eight clips on four cameras over two hour-long buckets; the
    // even-numbered ones carry a feature index, the rest are served
    // from their bundles.
    {
        let prepared = [41, 42]
            .map(|seed| prepare_clip(&Scenario::tunnel_small(seed), &PipelineOptions::default()));
        let mut db = ShardedDb::open(&dir).unwrap();
        for i in 0..8u64 {
            let clip = &prepared[(i % 2) as usize];
            let clip_id = i + 1;
            let bundle = bundle_from_clip(
                clip,
                ClipMeta {
                    clip_id,
                    name: format!("clip {clip_id}"),
                    location: "tunnel-x".into(),
                    camera: format!("cam-0{}", i % 4),
                    start_time: (i / 4) * 3600 + 60 * i,
                    frame_count: 400,
                    width: clip.sim.width,
                    height: clip.sim.height,
                },
            );
            db.put_clip(&bundle).unwrap();
            if clip_id.is_multiple_of(2) {
                let dataset = dataset_from_bundle(&bundle, WindowConfig::default());
                build_index(db.routed_shard(clip_id).unwrap(), clip_id, &dataset).unwrap();
            }
        }
        db.sync().unwrap();
    }
    let k = 20;
    let cold: Vec<_> = {
        let mut db = ShardedDb::open(&dir).unwrap();
        CLASSES
            .iter()
            .map(|expr| {
                let plan = Planner::new(k)
                    .run(&mut db, &parse_query(expr).unwrap(), Scorer::Heuristic)
                    .unwrap();
                (ranking_bits(&plan.ranking), plan.stats)
            })
            .collect()
    };
    assert!(!cold[0].0.is_empty(), "the archive has windows to rank");

    let service = Service::new(ShardedDb::open(&dir).unwrap(), ServiceConfig::default());
    let loads = || {
        (
            span_count("viddb.load_clip"),
            span_count("viddb.load_index"),
        )
    };
    let mut after_first_pass = None;
    for pass in 0..3 {
        for (class, expr) in CLASSES.iter().enumerate() {
            let resp = ask(
                &service,
                Request::Query {
                    expr: expr.to_string(),
                    k: Some(k),
                },
            );
            let Response::QueryResult {
                ranking,
                stats,
                degraded,
            } = resp
            else {
                panic!("pass {pass} {expr:?}: {resp:?}")
            };
            assert_eq!(
                ranking_bits(&ranking),
                cold[class].0,
                "pass {pass} {expr:?}: ranking"
            );
            assert_eq!(stats, cold[class].1, "pass {pass} {expr:?}: plan stats");
            assert!(degraded.is_empty());
            if class == 2 {
                // A session on an index-served clip, between queries.
                let Response::Opened { session_id, .. } = ask(
                    &service,
                    Request::Open {
                        clip_id: 2,
                        query: "accident".into(),
                        learner: "ocsvm".into(),
                    },
                ) else {
                    panic!("open failed")
                };
                let labels = vec![(0, true), (1, false)];
                assert!(matches!(
                    ask(&service, Request::Feedback { session_id, labels }),
                    Response::Learned { round: 1, .. }
                ));
                ask(&service, Request::Close { session_id });
            }
        }
        match after_first_pass {
            None => after_first_pass = Some(loads()),
            Some(first) => assert_eq!(loads(), first, "pass {pass} decoded clips again"),
        }
    }
    if tsvr_obs::is_enabled() {
        let (clips, indexes) = after_first_pass.unwrap();
        assert!(clips > 0 && indexes > 0, "the first pass read the archive");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
