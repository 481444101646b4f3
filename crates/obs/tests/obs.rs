//! Integration tests for the tsvr-obs probe layer.
//!
//! The registry and the runtime kill switch are process-global, so every
//! test that mutates them runs under one mutex; metric names are unique
//! per test so assertions never read another test's state.

use tsvr_obs::{bucket_bounds, bucket_index, BucketSnapshot, CounterSnapshot};
use tsvr_obs::{HistogramSnapshot, Snapshot, BUCKETS};

#[cfg(feature = "enabled")]
use std::sync::Mutex;

/// Serializes tests that touch the global registry or kill switch.
#[cfg(feature = "enabled")]
static GLOBAL: Mutex<()> = Mutex::new(());

#[cfg(feature = "enabled")]
fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn bucket_index_boundaries() {
    // Bucket 0 holds exactly 0; bucket k > 0 covers [2^(k-1), 2^k - 1].
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(2), 2);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 3);
    assert_eq!(bucket_index(7), 3);
    assert_eq!(bucket_index(8), 4);
    assert_eq!(bucket_index(1023), 10);
    assert_eq!(bucket_index(1024), 11);
    assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
}

#[test]
fn bucket_bounds_partition_u64() {
    // Bounds are contiguous, cover all of u64, and agree with the index
    // function at both edges of every bucket.
    let mut expected_lo = 0u64;
    for k in 0..BUCKETS {
        let (lo, hi) = bucket_bounds(k);
        assert_eq!(lo, expected_lo, "bucket {k} lower bound");
        assert!(hi >= lo);
        assert_eq!(bucket_index(lo), k, "lo of bucket {k} maps back");
        assert_eq!(bucket_index(hi), k, "hi of bucket {k} maps back");
        expected_lo = hi.wrapping_add(1);
    }
    assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
}

/// A snapshot with every field shape exercised (empty histogram, span
/// histogram, multi-bucket histogram, zero counter).
fn sample_snapshot() -> Snapshot {
    Snapshot {
        counters: vec![
            CounterSnapshot {
                name: "svm.kernel.evals".into(),
                value: 123_456,
            },
            CounterSnapshot {
                name: "vision.frames".into(),
                value: 0,
            },
        ],
        histograms: vec![
            HistogramSnapshot {
                name: "mil.round".into(),
                unit: "ns".into(),
                count: 4,
                sum: 1_000,
                min: 200,
                max: 350,
                buckets: vec![
                    BucketSnapshot {
                        lo: 128,
                        hi: 255,
                        count: 3,
                    },
                    BucketSnapshot {
                        lo: 256,
                        hi: 511,
                        count: 1,
                    },
                ],
            },
            HistogramSnapshot {
                name: "vision.blobs_per_frame".into(),
                unit: "count".into(),
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: vec![],
            },
        ],
    }
}

#[test]
fn snapshot_json_round_trips() {
    let snap = sample_snapshot();
    let text = snap.to_json();
    let back = Snapshot::from_json(&text).expect("round trip parse");
    assert_eq!(back, snap);
    // Serialization is deterministic.
    assert_eq!(back.to_json(), text);
}

#[test]
fn snapshot_rejects_foreign_documents() {
    assert!(Snapshot::from_json("{}").is_err(), "missing schema");
    assert!(
        Snapshot::from_json("{\"schema\": \"tsvr-obs/999\"}").is_err(),
        "wrong schema version"
    );
    assert!(Snapshot::from_json("not json at all").is_err());
    // An empty but well-formed snapshot parses.
    let empty = Snapshot::default();
    assert_eq!(Snapshot::from_json(&empty.to_json()).unwrap(), empty);
}

/// Tiny deterministic LCG so the corruption sweep needs no external
/// crates and reproduces bit-for-bit across runs.
fn lcg(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

#[test]
fn parser_survives_corrupted_snapshots() {
    // A snapshot whose metric names force every string-parser path:
    // short escapes, \u escapes (control chars), and multi-byte UTF-8.
    let snap = Snapshot {
        counters: vec![
            CounterSnapshot {
                name: "quoted \"name\" with \\ and \n and \t".into(),
                value: 42,
            },
            CounterSnapshot {
                name: "unicode café 🚗 θ\u{0008}\u{000c}".into(),
                value: u64::MAX,
            },
        ],
        histograms: sample_snapshot().histograms,
    };
    let text = snap.to_json();
    assert_eq!(
        Snapshot::from_json(&text).expect("nasty names round trip"),
        snap
    );

    // Property 1: the parser returns Ok or Err — never panics — at
    // every truncation point, including cuts that land mid-escape or
    // mid-multi-byte character (lossy re-decode keeps the &str contract
    // while still ending input at an arbitrary byte).
    let bytes = text.as_bytes();
    for cut in 0..bytes.len() {
        let s = String::from_utf8_lossy(&bytes[..cut]);
        let _ = Snapshot::from_json(&s);
    }

    // Property 2: seeded random byte corruption (1–4 flips per case)
    // anywhere in the document never panics either.
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for _ in 0..2000 {
        let mut mutated = bytes.to_vec();
        for _ in 0..(lcg(&mut state) % 4 + 1) {
            let i = lcg(&mut state) % mutated.len();
            mutated[i] = (lcg(&mut state) % 256) as u8;
        }
        let s = String::from_utf8_lossy(&mutated);
        let _ = Snapshot::from_json(&s);
    }
}

#[test]
fn histogram_snapshot_statistics() {
    let h = &sample_snapshot().histograms[0];
    assert_eq!(h.mean(), 250.0);
    // 4 samples: ranks 1-3 in [128,255], rank 4 in [256,511] (capped at max).
    assert_eq!(h.quantile(0.5), 255);
    assert_eq!(h.quantile(0.95), 350);
    let empty = &sample_snapshot().histograms[1];
    assert_eq!(empty.mean(), 0.0);
    assert_eq!(empty.quantile(0.5), 0);
}

#[test]
fn render_table_mentions_every_metric() {
    let table = sample_snapshot().render_table();
    assert!(table.contains("svm.kernel.evals"));
    assert!(table.contains("123456"));
    assert!(table.contains("mil.round"));
    assert!(table.contains("ns"));
    assert!(Snapshot::default()
        .render_table()
        .contains("(no metrics recorded)"));
}

#[cfg(feature = "enabled")]
mod enabled {
    use super::lock;
    use tsvr_obs::{set_enabled, snapshot};

    #[test]
    fn macros_register_and_accumulate() {
        let _g = lock();
        tsvr_obs::counter!("test.reg.counter").add(5);
        tsvr_obs::counter!("test.reg.counter").incr();
        tsvr_obs::histogram!("test.reg.hist").record(3);
        tsvr_obs::histogram!("test.reg.hist").record(300);
        {
            let _span = tsvr_obs::span!("test.reg.span");
            std::hint::black_box(0u64);
        }
        let snap = snapshot();
        let c = snap
            .counters
            .iter()
            .find(|c| c.name == "test.reg.counter")
            .expect("counter registered");
        assert_eq!(c.value, 6);
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.reg.hist")
            .expect("histogram registered");
        assert_eq!(h.unit, "count");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 303);
        assert_eq!(h.min, 3);
        assert_eq!(h.max, 300);
        // Samples 3 and 300 land in buckets [2,3] and [256,511].
        assert!(h.buckets.iter().any(|b| (b.lo, b.hi) == (2, 3)));
        assert!(h.buckets.iter().any(|b| (b.lo, b.hi) == (256, 511)));
        let s = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.reg.span")
            .expect("span histogram registered");
        assert_eq!(s.unit, "ns");
        assert_eq!(s.count, 1);
    }

    #[test]
    fn kill_switch_pauses_probes() {
        let _g = lock();
        let c = tsvr_obs::counter!("test.kill.counter");
        let h = tsvr_obs::histogram!("test.kill.hist");
        c.incr();
        set_enabled(false);
        c.add(100);
        h.record(7);
        {
            let _span = tsvr_obs::span!("test.kill.span");
        }
        set_enabled(true);
        c.incr();
        assert_eq!(c.get(), 2, "adds while disabled must be dropped");
        assert_eq!(h.count(), 0);
        let snap = snapshot();
        let span_count = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.kill.span")
            .map(|h| h.count)
            .unwrap_or(0);
        assert_eq!(span_count, 0, "span started while disabled recorded");
    }

    #[test]
    fn counters_are_thread_safe() {
        let _g = lock();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let before = tsvr_obs::counter!("test.mt.counter").get();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let c = tsvr_obs::counter!("test.mt.counter");
                    let h = tsvr_obs::histogram!("test.mt.hist");
                    for i in 0..PER_THREAD {
                        c.incr();
                        h.record(i % 17);
                    }
                });
            }
        });
        let c = tsvr_obs::counter!("test.mt.counter");
        assert_eq!(c.get() - before, THREADS as u64 * PER_THREAD);
        let h = tsvr_obs::histogram!("test.mt.hist");
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        // Bucket totals are consistent with the sample count.
        let total: u64 = (0..tsvr_obs::BUCKETS).map(|k| h.bucket(k)).sum();
        assert_eq!(total, h.count());
    }

    #[test]
    fn reset_race_drops_inflight_span_samples() {
        let _g = lock();
        tsvr_obs::set_enabled(true);
        tsvr_obs::reset();
        // Deterministic interleaving: the span is live when reset()
        // runs, and drops only after it returned. Its sample must be
        // discarded — recording it would resurrect pre-reset timing
        // into the freshly zeroed histogram.
        let started = std::sync::Barrier::new(2);
        let was_reset = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _span = tsvr_obs::tspan!("test.resetrace.span");
                started.wait();
                was_reset.wait();
            });
            started.wait();
            tsvr_obs::reset();
            was_reset.wait();
        });
        let count = |snap: &tsvr_obs::Snapshot| {
            snap.histograms
                .iter()
                .find(|h| h.name == "test.resetrace.span")
                .map(|h| h.count)
                .unwrap_or(0)
        };
        assert_eq!(
            count(&snapshot()),
            0,
            "span straddling reset() leaked its sample"
        );
        assert!(
            tsvr_obs::trace::latest().is_none(),
            "trace straddling reset() was resurrected"
        );
        // A span entirely after the reset records normally.
        {
            let _span = tsvr_obs::tspan!("test.resetrace.span");
        }
        assert_eq!(count(&snapshot()), 1);

        // Concurrent hammer: resets racing span starts/drops must never
        // corrupt histogram state (count is the number of surviving
        // samples; min/max/sum stay internally consistent).
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let stop = &stop;
            for _ in 0..4 {
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let _span = tsvr_obs::span!("test.resetrace.hammer");
                        std::hint::black_box(0u64);
                    }
                });
            }
            for _ in 0..200 {
                tsvr_obs::reset();
                std::thread::yield_now();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        tsvr_obs::reset();
        let snap = snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.resetrace.hammer")
            .expect("hammer histogram registered");
        assert_eq!(h.count, 0, "final reset left samples behind");
        assert_eq!((h.sum, h.min, h.max), (0, 0, 0));
    }

    #[test]
    fn flight_recorder_wraparound_under_concurrent_writers() {
        // Private ring (not the global one), small enough to wrap many
        // times. Each writer's payload is self-describing, so a torn
        // event — fields from two different writes — is detectable.
        use tsvr_obs::trace::{Event, EventKind, FlightRecorder};
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 1_000;
        let ring = FlightRecorder::with_capacity(64);
        std::thread::scope(|scope| {
            for t in 0..WRITERS {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        ring.record(Event {
                            seq: 0,
                            kind: EventKind::Span,
                            trace: t + 1,
                            span: i + 1,
                            parent: 0,
                            name: format!("writer{t}").into(),
                            detail: format!("{}:{}", t + 1, i + 1).into(),
                            start_ns: (t + 1) * 1_000_000 + (i + 1),
                            dur_ns: i + 1,
                        });
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), WRITERS * PER_WRITER);
        let events = ring.events();
        assert!(events.len() <= 64);
        assert!(!events.is_empty());
        let mut last_span_per_trace = std::collections::HashMap::new();
        let mut prev_seq = None;
        for e in &events {
            // Ascending, unique sequence numbers.
            assert!(prev_seq.is_none_or(|p| p < e.seq));
            prev_seq = Some(e.seq);
            // Untorn: every field agrees with the writer/iteration that
            // produced it.
            assert_eq!(e.name, format!("writer{}", e.trace - 1), "torn event {e:?}");
            assert_eq!(
                e.detail,
                format!("{}:{}", e.trace, e.span),
                "torn event {e:?}"
            );
            assert_eq!(e.start_ns, e.trace * 1_000_000 + e.span, "torn event {e:?}");
            assert_eq!(e.dur_ns, e.span, "torn event {e:?}");
            // Order within a trace: each writer recorded its spans in
            // ascending order, so surviving seqs must preserve it.
            if let Some(prev) = last_span_per_trace.insert(e.trace, e.span) {
                assert!(prev < e.span, "trace {} reordered", e.trace);
            }
        }
    }

    #[test]
    fn labeled_metrics_render_in_snapshots_with_bounded_cardinality() {
        let _g = lock();
        tsvr_obs::set_enabled(true);
        tsvr_obs::reset();
        tsvr_obs::counter_labeled("test.lbl.requests", "session=1").add(2);
        tsvr_obs::counter_labeled("test.lbl.requests", "session=2").incr();
        tsvr_obs::histogram_ns_labeled("test.lbl.latency", "op=page").record(1_000);
        let snap = snapshot();
        let value = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(value("test.lbl.requests{session=1}"), Some(2));
        assert_eq!(value("test.lbl.requests{session=2}"), Some(1));
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.lbl.latency{op=page}")
            .expect("labeled histogram registered");
        assert_eq!((h.unit.as_str(), h.count), ("ns", 1));
        // Hostile cardinality collapses into the `other` label instead
        // of growing the registry without bound.
        for i in 0..200 {
            tsvr_obs::counter_labeled("test.lbl.flood", &format!("k={i}")).incr();
        }
        let snap = snapshot();
        let flood: Vec<_> = snap
            .counters
            .iter()
            .filter(|c| c.name.starts_with("test.lbl.flood{"))
            .collect();
        assert!(
            flood.len() <= 65,
            "label cardinality unbounded: {} labels",
            flood.len()
        );
        let other = value_of(&snap, "test.lbl.flood{other}");
        assert!(other >= 1, "overflow labels must land in {{other}}");
    }

    fn value_of(snap: &tsvr_obs::Snapshot, name: &str) -> u64 {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    #[test]
    fn tspan_builds_hierarchical_traces_across_threads() {
        let _g = lock();
        tsvr_obs::set_enabled(true);
        tsvr_obs::reset();
        tsvr_obs::trace::set_slow_threshold_ns(0);
        {
            let root = tsvr_obs::tspan!("test.trace.root");
            let ctx = root.ctx();
            assert!(ctx.is_some());
            {
                let _child = tsvr_obs::tspan!("test.trace.child");
                tsvr_obs::trace::incident("test.trace.boom", "injected");
            }
            // Cross-thread propagation: a worker adopts the submitting
            // thread's context and its span joins the same trace.
            std::thread::scope(|scope| {
                let ctx = tsvr_obs::trace::current();
                scope.spawn(move || {
                    let _adopted = tsvr_obs::trace::adopt(ctx);
                    let _span = tsvr_obs::tspan!("test.trace.worker");
                });
            });
        }
        tsvr_obs::trace::set_slow_threshold_ns(u64::MAX);
        let t = tsvr_obs::trace::latest().expect("root span published a trace");
        assert_eq!(t.name, "test.trace.root");
        assert_eq!(tsvr_obs::trace::finished(t.trace), Some(t.clone()));
        let names: Vec<&str> = t.events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(
            names,
            vec![
                "test.trace.boom",
                "test.trace.child",
                "test.trace.worker",
                "test.trace.root"
            ],
            "incidents fire immediately, spans at completion, root last"
        );
        let root_ev = &t.events[3];
        assert_eq!(root_ev.parent, 0);
        for e in &t.events[..3] {
            assert_eq!(e.trace, root_ev.trace);
        }
        assert_eq!(t.events[1].parent, root_ev.span, "child hangs off root");
        assert_eq!(t.events[2].parent, root_ev.span, "worker hangs off root");
        assert_eq!(
            t.events[0].parent, t.events[1].span,
            "incident hangs off the span live when it fired"
        );
        // Root exceeded the zero threshold, so the slowlog kept it.
        assert!(tsvr_obs::trace::slowlog()
            .iter()
            .any(|s| s.trace == t.trace));
        // The flight recorder holds the same events.
        let recorded = tsvr_obs::trace::recorder_events();
        assert!(recorded.iter().any(|e| e.name == "test.trace.boom"));
        // The labeled incident counter ticked.
        assert_eq!(value_of(&snapshot(), "obs.incident{test.trace.boom}"), 1);
    }

    #[test]
    fn incident_dump_writes_parseable_flight_recording() {
        let _g = lock();
        tsvr_obs::set_enabled(true);
        tsvr_obs::reset();
        let mut path = std::env::temp_dir();
        path.push(format!("tsvr-flight-test-{}.ndjson", std::process::id()));
        tsvr_obs::trace::set_dump_path(Some(path.clone()));
        {
            let _root = tsvr_obs::tspan!("test.dump.root");
            tsvr_obs::trace::incident_dump("test.dump.quarantine", "clip 7 torn");
        }
        tsvr_obs::trace::set_dump_path(None);
        let text = std::fs::read_to_string(&path).expect("dump file written");
        let mut lines = text.lines();
        let header = tsvr_obs::json::Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(tsvr_obs::json::Json::as_str),
            Some("tsvr-flight/1")
        );
        assert_eq!(
            header.get("reason").and_then(tsvr_obs::json::Json::as_str),
            Some("test.dump.quarantine")
        );
        // The failing trace is named in the header.
        let named = header.get("trace").and_then(tsvr_obs::json::Json::as_u64);
        assert!(named.is_some_and(|t| t > 0), "dump header names no trace");
        let events: Vec<_> = lines
            .map(|l| tsvr_obs::trace::Event::parse_line(l).expect("event line parses"))
            .collect();
        assert!(events.iter().any(|e| e.name == "test.dump.quarantine"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_snapshot_emits_parseable_json() {
        let _g = lock();
        tsvr_obs::counter!("test.file.counter").incr();
        let mut path = std::env::temp_dir();
        path.push(format!("tsvr-obs-test-{}.json", std::process::id()));
        tsvr_obs::write_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let snap = tsvr_obs::Snapshot::from_json(&text).unwrap();
        assert!(snap.counters.iter().any(|c| c.name == "test.file.counter"));
        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(not(feature = "enabled"))]
mod disabled {
    #[test]
    fn probes_compile_to_inert_stubs() {
        assert!(!tsvr_obs::is_enabled());
        let c = tsvr_obs::counter!("noop.counter");
        c.add(10);
        c.incr();
        assert_eq!(c.get(), 0);
        let h = tsvr_obs::histogram!("noop.hist");
        h.record(42);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        {
            let _span = tsvr_obs::span!("noop.span");
        }
        tsvr_obs::set_enabled(true); // still inert
        assert!(!tsvr_obs::is_enabled());
        tsvr_obs::reset();
        let snap = tsvr_obs::snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
