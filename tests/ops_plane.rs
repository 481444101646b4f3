//! Live attribution properties of the serve ops plane.
//!
//! 1. **Sixteen attributable sessions** — a 16-session run against one
//!    shared [`tsvr_serve::Service`] is fully explainable afterwards
//!    through the protocol itself: labeled `stats` counters name every
//!    session and op, `trace` returns the span tree of a real request
//!    (by id and as "latest"), and a zero-threshold `slowlog` retained
//!    the traced requests.
//! 2. **Fault attribution** — a [`FaultyStorage`]-injected checkpoint
//!    failure produces an error response carrying the trace id of the
//!    failing request, and the flight-recorder dump written at the
//!    incident names that same trace in its header.
//!
//! Both tests mutate process-global observability state (registry,
//! slowlog, dump path), so they serialize on one mutex and reset the
//! registry up front.

use std::sync::{Arc, Barrier, Mutex};
use tsvr_core::{bundle_from_clip, prepare_clip, PipelineOptions};
use tsvr_serve::{Envelope, ErrorKind, Request, Response, Service, ServiceConfig};
use tsvr_sim::Scenario;
use tsvr_viddb::record::ClipBundle;
use tsvr_viddb::{ClipMeta, FaultKind, FaultyStorage, VideoDb};

static OBS_STATE: Mutex<()> = Mutex::new(());

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

fn ask(service: &Service, req: Request) -> Response {
    service.handle(&Envelope::new(req))
}

/// One session: open, one page, one feedback round, close. Returns the
/// session id the server assigned.
fn serve_one_session(service: &Service, clip_id: u64, learner: &str) -> u64 {
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
        .take(4)
        .map(|&w| (w as u32, w.is_multiple_of(3)))
        .collect();
    let resp = ask(service, Request::Feedback { session_id, labels });
    assert!(
        matches!(resp, Response::Learned { .. }),
        "feedback failed: {resp:?}"
    );
    ask(service, Request::Close { session_id });
    session_id
}

fn counter_value(snapshot: &tsvr_obs::Snapshot, name: &str) -> Option<u64> {
    snapshot
        .counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
}

#[test]
fn sixteen_sessions_are_fully_attributable_through_the_ops_plane() {
    let _guard = OBS_STATE.lock().unwrap();
    tsvr_obs::reset();
    tsvr_obs::trace::set_slow_threshold_ns(0); // retain every trace

    let mut db = VideoDb::in_memory();
    db.put_clip(&make_bundle(1, 41)).unwrap();
    db.put_clip(&make_bundle(2, 42)).unwrap();
    let service = Arc::new(Service::new(db, ServiceConfig::default()));

    // 4 clients x 4 sessions each, concurrently, over both clips and
    // both learners.
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4u64)
        .map(|client| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (0..4u64)
                    .map(|i| {
                        let clip = 1 + (client + i) % 2;
                        let learner = if i % 2 == 0 { "ocsvm" } else { "wrf" };
                        serve_one_session(&service, clip, learner)
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let session_ids: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(session_ids.len(), 16);

    // --- stats: every op and every session shows up, labeled.
    let Response::Stats { snapshot } = ask(&service, Request::Stats) else {
        panic!("stats failed")
    };
    if tsvr_obs::is_enabled() {
        for op in ["open", "page", "feedback", "close", "stats"] {
            let n = counter_value(&snapshot, &format!("serve.requests{{op={op}}}"))
                .unwrap_or_else(|| panic!("no serve.requests{{op={op}}} counter"));
            assert!(n >= 1, "op={op} counted {n}");
        }
        for &sid in &session_ids {
            let name = format!("serve.rounds.checkpointed{{session={sid}}}");
            assert_eq!(
                counter_value(&snapshot, &name),
                Some(1),
                "session {sid} round not attributed in stats"
            );
        }
        let lat = snapshot
            .histograms
            .iter()
            .find(|h| h.name == "serve.latency{op=feedback}")
            .expect("no labeled feedback latency histogram");
        assert!(lat.count >= 16, "feedback latency count {}", lat.count);
    } else {
        assert!(snapshot.counters.is_empty() && snapshot.histograms.is_empty());
    }

    // --- trace: the latest finished trace is retrievable, and fetching
    // it again by id returns the same tree.
    match ask(&service, Request::Trace { trace_id: None }) {
        Response::Trace { trace } => {
            assert!(tsvr_obs::is_enabled());
            assert!(
                trace.name.starts_with("serve.latency."),
                "unexpected root span {:?}",
                trace.name
            );
            let tree = trace.render_tree();
            assert!(tree.contains("serve.latency."), "tree: {tree}");
            let Response::Trace { trace: again } = ask(
                &service,
                Request::Trace {
                    trace_id: Some(trace.trace),
                },
            ) else {
                panic!("trace by id failed")
            };
            assert_eq!(again, trace, "trace changed between fetches");
        }
        Response::Error(e) => {
            assert!(!tsvr_obs::is_enabled(), "trace failed: {e}");
            assert_eq!(e.kind, ErrorKind::NotFound);
        }
        other => panic!("unexpected trace response {other:?}"),
    }
    // A bogus id is a NotFound error, not a panic or a wrong trace.
    match ask(
        &service,
        Request::Trace {
            trace_id: Some(u64::MAX >> 13),
        },
    ) {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::NotFound),
        other => panic!("bogus trace id returned {other:?}"),
    }

    // --- slowlog: at threshold 0 every traced request was retained.
    let Response::Slowlog {
        threshold_ns,
        entries,
    } = ask(&service, Request::Slowlog)
    else {
        panic!("slowlog failed")
    };
    if tsvr_obs::is_enabled() {
        assert_eq!(threshold_ns, 0);
        assert!(!entries.is_empty(), "zero-threshold slowlog is empty");
        // The setup's own prepare_clip roots may be retained too; the
        // served requests must be among the entries.
        assert!(
            entries.iter().any(|e| e.name.starts_with("serve.latency.")),
            "no serve request in slowlog: {:?}",
            entries.iter().map(|e| &e.name).collect::<Vec<_>>()
        );
    } else {
        assert!(entries.is_empty());
    }

    tsvr_obs::trace::set_slow_threshold_ns(u64::MAX);
}

#[test]
fn checkpoint_fault_errors_carry_the_trace_and_dump_the_flight_recorder() {
    let _guard = OBS_STATE.lock().unwrap();
    if !tsvr_obs::is_enabled() {
        return; // incidents and dumps compile to no-ops
    }
    tsvr_obs::reset();

    // Seed image: one stored clip, synced.
    let bundle = make_bundle(1, 43);
    let seed_image = {
        let (storage, handle) = FaultyStorage::new(7);
        let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
        db.put_clip(&bundle).unwrap();
        db.sync().unwrap();
        handle.snapshot()
    };

    // Fault-free run: find which storage ops belong to the feedback
    // checkpoint (everything after open+page).
    let drive = |service: &Service| -> Response {
        let Response::Opened {
            session_id,
            windows,
            ..
        } = ask(
            service,
            Request::Open {
                clip_id: 1,
                query: "accident".into(),
                learner: "ocsvm".into(),
            },
        )
        else {
            panic!("open failed")
        };
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
            .take(4)
            .map(|&w| (w as u32, w.is_multiple_of(3)))
            .collect();
        ask(service, Request::Feedback { session_id, labels })
    };
    let (ops_before_feedback, ops_total) = {
        let (storage, handle) = FaultyStorage::with_image(seed_image.clone(), 7);
        let db = VideoDb::with_storage(Box::new(storage)).unwrap();
        let service = Service::new(db, ServiceConfig::default());
        // Re-run drive() but capture the op count between page and
        // feedback: simplest is one extra fault-free run that stops
        // after page.
        let Response::Opened {
            session_id,
            windows,
            ..
        } = ask(
            &service,
            Request::Open {
                clip_id: 1,
                query: "accident".into(),
                learner: "ocsvm".into(),
            },
        )
        else {
            panic!("open failed")
        };
        let Response::Page { .. } = ask(
            &service,
            Request::Page {
                session_id,
                n: Some(windows),
            },
        ) else {
            panic!("page failed")
        };
        let before = handle.op_count();
        let resp = ask(
            &service,
            Request::Feedback {
                session_id,
                labels: vec![(0, true), (3, false)],
            },
        );
        assert!(
            matches!(resp, Response::Learned { .. }),
            "baseline: {resp:?}"
        );
        (before, handle.op_count())
    };
    assert!(
        ops_total > ops_before_feedback,
        "feedback performed no storage ops"
    );

    let dump_path =
        std::env::temp_dir().join(format!("tsvr-ops-plane-dump-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&dump_path);
    tsvr_obs::trace::set_dump_path(Some(dump_path.clone()));

    // Inject a sync failure at each checkpoint-phase op until one makes
    // the feedback round non-durable.
    let mut attributed = false;
    for fault_at in ops_before_feedback..ops_total {
        let _ = std::fs::remove_file(&dump_path);
        let (storage, handle) = FaultyStorage::with_image(seed_image.clone(), 7);
        handle.schedule(fault_at, FaultKind::SyncFail);
        let db = VideoDb::with_storage(Box::new(storage)).unwrap();
        let service = Service::new(db, ServiceConfig::default());
        let Response::Error(e) = drive(&service) else {
            continue; // fault landed on a retryable/reread op
        };
        assert_eq!(e.kind, ErrorKind::Storage, "unexpected error: {e}");
        let trace_id = e
            .trace
            .unwrap_or_else(|| panic!("storage error carries no trace id: {e}"));

        // The incident dumped the flight recorder, and the dump header
        // names the failing trace.
        let dump =
            std::fs::read_to_string(&dump_path).expect("checkpoint failure left no flight dump");
        let header = dump.lines().next().expect("empty flight dump");
        let parsed = tsvr_obs::json::Json::parse(header).expect("dump header is not JSON");
        assert_eq!(
            parsed.get("reason").and_then(tsvr_obs::json::Json::as_str),
            Some("serve.checkpoint.failed"),
            "header: {header}"
        );
        assert_eq!(
            parsed.get("trace").and_then(tsvr_obs::json::Json::as_u64),
            Some(trace_id),
            "dump does not name the failing trace: {header}"
        );
        // The recorder payload contains the checkpoint incident itself.
        assert!(
            dump.contains("serve.checkpoint.failed"),
            "incident missing from dump"
        );
        attributed = true;
        break;
    }
    assert!(
        attributed,
        "no injected fault in ops {ops_before_feedback}..{ops_total} surfaced as a checkpoint error"
    );

    tsvr_obs::trace::set_dump_path(None);
    let _ = std::fs::remove_file(&dump_path);
}
