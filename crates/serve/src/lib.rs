//! # tsvr-serve
//!
//! A std-only concurrent retrieval service over a `tsvr-viddb`
//! database, exposing the paper's full interactive protocol — open a
//! query, page through the ranking, submit relevance labels, re-rank,
//! and save/resume the session — to many clients at once.
//!
//! Three layers, one code path:
//!
//! * [`proto`] — the newline-delimited JSON wire grammar (requests,
//!   responses, typed errors), parsed with the in-tree
//!   [`tsvr_obs::json`] reader. Any client that can write one JSON line
//!   to a socket can drive a session — including `bash`'s `/dev/tcp`.
//! * [`service`] — [`Service::handle`]: session management, per-request
//!   deadlines, and the durability contract (a feedback round is acked
//!   only after its full-history checkpoint is synced to the database).
//!   Tests, benches, and the CLI call this directly in process.
//! * [`server`] — the TCP transport: bounded accept queue with an
//!   explicit `overloaded` error, fixed worker pool, graceful drain on
//!   `shutdown`.
//!
//! Rankings are deterministic: a session's responses are byte-identical
//! whether it runs alone on one thread or interleaved with other
//! sessions across the pool, because all shared state is per-clip
//! read-only bag data and each session's learner is private.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod server;
pub mod service;

pub use proto::{
    decode_request, decode_response, encode_request, encode_response, Envelope, ErrorKind,
    Request, Response, ServeError, SessionSummary,
};
pub use server::{Server, ServerConfig};
pub use service::{Service, ServiceConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tsvr_core::{bundle_from_clip, prepare_clip, PipelineOptions};
    use tsvr_sim::Scenario;
    use tsvr_viddb::{ClipMeta, VideoDb};

    fn seeded_db(clip_ids: &[u64]) -> VideoDb {
        let mut db = VideoDb::in_memory();
        for &id in clip_ids {
            let clip = prepare_clip(&Scenario::tunnel_small(60 + id), &PipelineOptions::default());
            let meta = ClipMeta {
                clip_id: id,
                name: format!("clip {id}"),
                location: "tunnel-x".into(),
                camera: format!("cam-{id}"),
                start_time: 1_167_609_600,
                frame_count: 400,
                width: clip.sim.width,
                height: clip.sim.height,
            };
            db.put_clip(&bundle_from_clip(&clip, meta)).unwrap();
        }
        db
    }

    fn ask(service: &Service, req: Request) -> Response {
        service.handle(&Envelope::new(req))
    }

    #[test]
    fn full_protocol_session_in_process() {
        let service = Service::new(seeded_db(&[1]), ServiceConfig::default());

        assert_eq!(ask(&service, Request::Ping), Response::Pong);

        let Response::Opened {
            session_id,
            windows,
            rounds,
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
        assert!(windows > 0);
        assert_eq!(rounds, 0);

        let Response::Page { ranking, round, .. } = ask(
            &service,
            Request::Page {
                session_id,
                n: Some(5),
            },
        ) else {
            panic!("page failed")
        };
        assert_eq!(round, 0);
        assert_eq!(ranking.len(), 5);

        let labels: Vec<(u32, bool)> = ranking.iter().map(|&w| (w as u32, w % 2 == 0)).collect();
        let resp = ask(
            &service,
            Request::Feedback {
                session_id,
                labels: labels.clone(),
            },
        );
        assert_eq!(
            resp,
            Response::Learned {
                session_id,
                round: 1
            }
        );

        // The ranking changed regime: round is now 1.
        let Response::Page { round, .. } = ask(
            &service,
            Request::Page {
                session_id,
                n: Some(5),
            },
        ) else {
            panic!("page failed")
        };
        assert_eq!(round, 1);

        // The listing shows the session as live with one round.
        let Response::Sessions { sessions } = ask(&service, Request::Sessions { clip_id: 1 })
        else {
            panic!("sessions failed")
        };
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].rounds, 1);
        assert!(sessions[0].live);

        // Close, then resume from the checkpoint: same id, same rounds.
        ask(&service, Request::Close { session_id });
        let Response::Opened { rounds, .. } = ask(
            &service,
            Request::Resume {
                clip_id: 1,
                session_id,
                learner: None,
            },
        ) else {
            panic!("resume failed")
        };
        assert_eq!(rounds, 1);
    }

    #[test]
    fn query_op_prunes_shards_and_reports_degraded_partial_results() {
        use tsvr_viddb::{ShardId, ShardedDb};
        let mut dir = std::env::temp_dir();
        dir.push(format!("tsvr-serve-query-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut victim = String::new();
        {
            let mut db = ShardedDb::open_with_bucket(&dir, 3600).unwrap();
            for (id, camera, start_time) in
                [(1, "cam-a", 0u64), (2, "cam-b", 0), (3, "cam-b", 7200)]
            {
                let clip =
                    prepare_clip(&Scenario::tunnel_small(60 + id), &PipelineOptions::default());
                let meta = ClipMeta {
                    clip_id: id,
                    name: format!("clip {id}"),
                    location: "tunnel-x".into(),
                    camera: camera.into(),
                    start_time,
                    frame_count: 400,
                    width: clip.sim.width,
                    height: clip.sim.height,
                };
                if id == 3 {
                    victim = ShardId::for_meta(&meta, db.bucket_secs()).file_name();
                }
                db.put_clip(&bundle_from_clip(&clip, meta)).unwrap();
            }
            db.sync().unwrap();
        }
        std::fs::write(dir.join(&victim), b"NOTADB!!").unwrap();
        let service = Service::new(ShardedDb::open(&dir).unwrap(), ServiceConfig::default());

        // Camera predicate prunes the other shards manifest-side.
        let Response::QueryResult {
            ranking,
            stats,
            degraded,
        } = ask(
            &service,
            Request::Query {
                expr: "camera = cam-a".into(),
                k: Some(5),
            },
        ) else {
            panic!("query failed")
        };
        assert!(!ranking.is_empty());
        assert!(stats.shards_pruned >= 1, "stats: {stats:?}");
        assert!(degraded.is_empty());

        // A query routed only to the quarantined shard returns a typed
        // partial-result report, not a silent empty ranking.
        let Response::QueryResult {
            ranking, degraded, ..
        } = ask(
            &service,
            Request::Query {
                expr: "camera = cam-b and time >= 7200".into(),
                k: Some(5),
            },
        ) else {
            panic!("query failed")
        };
        assert!(ranking.is_empty());
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].camera, "cam-b");

        // Parse errors are bad_request and carry did-you-mean.
        match ask(
            &service,
            Request::Query {
                expr: "event = acident".into(),
                k: None,
            },
        ) {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::BadRequest);
                assert!(e.message.contains("accident"), "{}", e.message);
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn typed_errors_for_bad_sessions_clips_and_learners() {
        let service = Service::new(seeded_db(&[1]), ServiceConfig::default());
        let kind_of = |resp: Response| match resp {
            Response::Error(e) => e.kind,
            other => panic!("expected error, got {other:?}"),
        };
        assert_eq!(
            kind_of(ask(
                &service,
                Request::Open {
                    clip_id: 99,
                    query: "accident".into(),
                    learner: String::new(),
                }
            )),
            ErrorKind::NotFound
        );
        assert_eq!(
            kind_of(ask(
                &service,
                Request::Open {
                    clip_id: 1,
                    query: "accident".into(),
                    learner: "magic".into(),
                }
            )),
            ErrorKind::BadRequest
        );
        assert_eq!(
            kind_of(ask(
                &service,
                Request::Page {
                    session_id: 42,
                    n: None
                }
            )),
            ErrorKind::NotFound
        );
        assert_eq!(
            kind_of(ask(
                &service,
                Request::Resume {
                    clip_id: 1,
                    session_id: 42,
                    learner: None,
                }
            )),
            ErrorKind::NotFound
        );
        // Out-of-range label windows are rejected before training.
        let Response::Opened { session_id, .. } = ask(
            &service,
            Request::Open {
                clip_id: 1,
                query: "accident".into(),
                learner: String::new(),
            },
        ) else {
            panic!("open failed")
        };
        assert_eq!(
            kind_of(ask(
                &service,
                Request::Feedback {
                    session_id,
                    labels: vec![(u32::MAX, true)],
                }
            )),
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn resume_through_mismatched_learner_is_typed() {
        let service = Service::new(seeded_db(&[1]), ServiceConfig::default());
        let Response::Opened { session_id, .. } = ask(
            &service,
            Request::Open {
                clip_id: 1,
                query: "accident".into(),
                learner: "ocsvm".into(),
            },
        ) else {
            panic!("open failed")
        };
        let Response::Page { ranking, .. } = ask(
            &service,
            Request::Page {
                session_id,
                n: Some(3),
            },
        ) else {
            panic!("page failed")
        };
        let labels = ranking.iter().map(|&w| (w as u32, true)).collect();
        assert!(matches!(
            ask(&service, Request::Feedback { session_id, labels }),
            Response::Learned { .. }
        ));
        // Resuming the stored OC-SVM session through weighted_rf must
        // refuse with the replay layer's typed mismatch.
        let resp = ask(
            &service,
            Request::Resume {
                clip_id: 1,
                session_id,
                learner: Some("wrf".into()),
            },
        );
        match resp {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::LearnerMismatch);
                assert!(e.message.contains("MIL_OneClassSVM"), "{}", e.message);
            }
            other => panic!("expected learner_mismatch, got {other:?}"),
        }
    }

    #[test]
    fn draining_rejects_new_sessions_but_answers_pings() {
        let service = Service::new(seeded_db(&[1]), ServiceConfig::default());
        assert_eq!(ask(&service, Request::Shutdown), Response::ShuttingDown);
        assert!(service.is_draining());
        assert_eq!(ask(&service, Request::Ping), Response::Pong);
        match ask(
            &service,
            Request::Open {
                clip_id: 1,
                query: "accident".into(),
                learner: String::new(),
            },
        ) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::ShuttingDown),
            other => panic!("expected shutting_down, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_is_reported_before_work_starts() {
        let service = Service::new(seeded_db(&[1]), ServiceConfig::default());
        // A zero... (clamped to 1ms) budget expires during the bag load.
        let env = Envelope {
            req: Request::Open {
                clip_id: 1,
                query: "accident".into(),
                learner: String::new(),
            },
            deadline_ms: Some(1),
        };
        // The clip load may beat a 1ms deadline on a fast machine, so
        // accept either outcome — but an explicit deadline must never
        // panic or hang, and a session must not be half-created.
        match service.handle(&env) {
            Response::Opened { session_id, .. } => {
                assert!(matches!(
                    ask(&service, Request::Page { session_id, n: None }),
                    Response::Page { .. }
                ));
            }
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::DeadlineExceeded),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// One TCP client connection, framed like the server: Nagle off,
    /// each request line sent with one `write_all`, one response line
    /// read back.
    fn tcp_client(addr: std::net::SocketAddr) -> impl FnMut(Request) -> Response {
        use std::io::{BufRead, Write};
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        move |req: Request| {
            let mut line = encode_request(&Envelope::new(req));
            line.push('\n');
            writer.write_all(line.as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            decode_response(&reply).unwrap()
        }
    }

    /// open → page → feedback → page over `call`, returning both pages
    /// as `(round, ranking)`. `salt` varies the labels, so concurrent
    /// sessions learn different models and a crossed wire shows.
    fn page_script(call: &mut dyn FnMut(Request) -> Response, salt: u64) -> Vec<(usize, Vec<u64>)> {
        let Response::Opened { session_id, .. } = call(Request::Open {
            clip_id: 1,
            query: "accident".into(),
            learner: String::new(),
        }) else {
            panic!("open failed")
        };
        let page = |call: &mut dyn FnMut(Request) -> Response| match call(Request::Page {
            session_id,
            n: Some(10),
        }) {
            Response::Page { round, ranking, .. } => (round, ranking),
            other => panic!("page failed: {other:?}"),
        };
        let first = page(call);
        let labels = first
            .1
            .iter()
            .take(6)
            .map(|&w| (w as u32, (w + salt).is_multiple_of(3)))
            .collect();
        let resp = call(Request::Feedback { session_id, labels });
        assert!(
            matches!(resp, Response::Learned { round: 1, .. }),
            "{resp:?}"
        );
        vec![first, page(call)]
    }

    /// `clients` TCP connections run [`page_script`] at the same time;
    /// each client's pages must equal the same script run through
    /// [`Service::handle`] on a fresh service.
    fn tcp_clients_match_in_process(clients: usize) {
        let service = Arc::new(Service::new(seeded_db(&[1]), ServiceConfig::default()));
        let reference = Service::new(seeded_db(&[1]), ServiceConfig::default());
        let server = Server::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerConfig {
                workers: clients + 1,
                queue_cap: 8,
            },
        )
        .unwrap();
        let addr = server.addr();

        let barrier = Arc::new(std::sync::Barrier::new(clients));
        let served: Vec<_> = (0..clients as u64)
            .map(|salt| {
                let mut send = tcp_client(addr);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    assert_eq!(send(Request::Ping), Response::Pong);
                    barrier.wait();
                    page_script(&mut send, salt)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        for (salt, pages) in served.iter().enumerate() {
            let expected = page_script(
                &mut |req| reference.handle(&Envelope::new(req)),
                salt as u64,
            );
            assert_eq!(
                pages, &expected,
                "{clients} clients: client {salt} diverged"
            );
        }

        assert_eq!(tcp_client(addr)(Request::Shutdown), Response::ShuttingDown);
        server.join();
        // After drain the listener is closed: connecting now fails.
        assert!(std::net::TcpStream::connect(addr).is_err());
    }

    #[test]
    fn tcp_round_trip_matches_in_process_ranking() {
        for clients in [1, 4] {
            tcp_clients_match_in_process(clients);
        }
    }

    #[test]
    fn overloaded_connections_get_an_explicit_error() {
        use std::io::BufRead;
        let service = Arc::new(Service::new(seeded_db(&[1]), ServiceConfig::default()));
        // One worker and a one-slot queue: the first connection pins the
        // worker, the second waits in queue, the third must be refused.
        let server = Server::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_cap: 1,
            },
        )
        .unwrap();
        let addr = server.addr();

        // A ping round trip guarantees the worker has taken this
        // connection off the queue before the next ones arrive.
        let mut pinned = tcp_client(addr);
        assert_eq!(pinned(Request::Ping), Response::Pong);
        let _queued = std::net::TcpStream::connect(addr).unwrap();
        // Give the accept thread time to queue it.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let refused = std::net::TcpStream::connect(addr).unwrap();
        let mut line = String::new();
        std::io::BufReader::new(refused).read_line(&mut line).unwrap();
        match decode_response(&line).unwrap() {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::Overloaded),
            other => panic!("expected overloaded, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn oversized_request_line_is_rejected_and_the_server_keeps_serving() {
        use std::io::{BufRead, Write};
        let service = Arc::new(Service::new(seeded_db(&[1]), ServiceConfig::default()));
        let server = Server::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_cap: 4,
            },
        )
        .unwrap();
        let addr = server.addr();

        // 2 MiB without a newline, sent from another thread: the server
        // stops reading at the cap and closes, so the write may fail.
        let flood = std::net::TcpStream::connect(addr).unwrap();
        let mut w = flood.try_clone().unwrap();
        let writer = std::thread::spawn(move || {
            let _ = w.write_all(&vec![b'x'; 2 << 20]);
        });
        let mut line = String::new();
        std::io::BufReader::new(flood).read_line(&mut line).unwrap();
        match decode_response(&line).unwrap() {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::BadRequest),
            other => panic!("expected bad_request, got {other:?}"),
        }
        writer.join().unwrap();

        // The one worker is free again: a new connection gets pong.
        assert_eq!(tcp_client(addr)(Request::Ping), Response::Pong);
        server.shutdown();
    }

    /// Regression test for the Nagle/delayed-ACK stall: a response
    /// written in two segments without `TCP_NODELAY` costs ~40 ms per
    /// round trip, while a framed one costs well under a millisecond on
    /// loopback.
    #[test]
    fn tcp_round_trips_do_not_stall() {
        let service = Arc::new(Service::new(seeded_db(&[1]), ServiceConfig::default()));
        let server = Server::start(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut send = tcp_client(server.addr());
        for _ in 0..5 {
            assert_eq!(send(Request::Ping), Response::Pong);
        }
        let mut round_trips: Vec<std::time::Duration> = (0..40)
            .map(|_| {
                let t = std::time::Instant::now();
                assert_eq!(send(Request::Ping), Response::Pong);
                t.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < std::time::Duration::from_millis(10),
            "median ping round trip {median:?}: responses are stalling"
        );
        server.shutdown();
    }
}
