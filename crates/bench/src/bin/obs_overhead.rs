//! Measures the wall-clock overhead of the tsvr-obs probes on the
//! retrieval hot path and writes `BENCH_obs_overhead.json`.
//!
//! The comparison runs inside one binary: the same OC-SVM retrieval
//! session is timed three ways — runtime kill switch on, on **with a
//! live request trace** (a root `tspan!` plus a retain-everything
//! slowlog, the worst-case serve configuration), and off
//! ([`tsvr_obs::set_enabled`]) — so all measurements share code, data,
//! and compiler flags.
//!
//! Probe cost is a handful of microseconds against a ~300µs workload —
//! far below the clock-frequency drift and scheduler interference a
//! sequential A-then-B-then-C comparison picks up over its multi-second
//! run (empirically ±10% between identical runs on a busy host). The
//! measurement is therefore **paired at iteration granularity**: each
//! round times one probes-off iteration, one probes-on, one traced, and
//! one more probes-off, all within ~1ms of each other, and the reported
//! overhead is the median of per-round differences against the round's
//! own bracketing baseline. Drift is linear over a millisecond (the
//! bracket averages it out) and interference spikes land on single
//! rounds (the median discards them). The acceptance target is < 2%
//! overhead for both the plain and the traced run; in a
//! `--no-default-features` build the probes are compiled out entirely
//! and all timings coincide.

use tsvr_bench::harness::{fast_mode, median, time_ns, Report};
use tsvr_bench::{clip1, paper_rounds, PAPER_SEED};
use tsvr_core::{prepare_clip, EventQuery, LearnerKind, PipelineOptions};
use tsvr_obs::json::Json;
use tsvr_sim::Scenario;

fn main() {
    // The paper's clip 1 at the paper's protocol: probe cost is a fixed
    // handful of atomics per round, so it must be measured against a
    // realistically sized session, not a toy one. `TSVR_BENCH_FAST=1`
    // (scripts/ci.sh) swaps in the small tunnel clip for a smoke run.
    let fast = fast_mode();
    let clip = if fast {
        eprintln!("preparing tunnel_small (fast mode)...");
        prepare_clip(
            &Scenario::tunnel_small(PAPER_SEED),
            &PipelineOptions::default(),
        )
    } else {
        eprintln!("preparing clip 1 (tunnel, 2504 frames)...");
        clip1(PAPER_SEED)
    };
    let accidents = EventQuery::accidents();
    let workload = || paper_rounds(&clip, &accidents, LearnerKind::paper_ocsvm());

    let plain = || {
        std::hint::black_box(workload());
    };
    let traced_run = || {
        // Worst-case serve configuration: the iteration is a traced
        // request (root span, nested span events, flight recorder) and
        // the slowlog threshold retains every finished trace.
        let _root = tsvr_obs::tspan!("bench.session");
        std::hint::black_box(workload());
    };

    // Warm up caches, the allocator, and the tracer.
    tsvr_obs::set_enabled(true);
    tsvr_obs::trace::set_slow_threshold_ns(0);
    for _ in 0..5 {
        plain();
        traced_run();
    }
    tsvr_obs::trace::set_slow_threshold_ns(u64::MAX);

    let rounds = if fast { 31 } else { 301 };
    eprintln!("{rounds} paired rounds (off / on / traced / off each)");
    let (mut d_on, mut d_traced, mut base) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        tsvr_obs::set_enabled(false);
        let off1 = time_ns(plain).0;
        tsvr_obs::set_enabled(true);
        let on = time_ns(plain).0;
        tsvr_obs::trace::set_slow_threshold_ns(0);
        let traced = time_ns(traced_run).0;
        tsvr_obs::trace::set_slow_threshold_ns(u64::MAX);
        tsvr_obs::set_enabled(false);
        let off2 = time_ns(plain).0;
        tsvr_obs::set_enabled(true);
        let off = (off1 + off2) / 2.0;
        d_on.push(on - off);
        d_traced.push(traced - off);
        base.push(off);
    }
    let off = median(&mut base);
    let on = off + median(&mut d_on);
    let traced = off + median(&mut d_traced);
    let overhead_pct = (on - off) / off * 100.0;
    let traced_pct = (traced - off) / off * 100.0;

    let compiled_in = cfg!(feature = "obs");
    println!(
        "probes {}: {on:.0} ns/iter on, {traced:.0} traced, {off:.0} off -> \
         {overhead_pct:+.2}% plain, {traced_pct:+.2}% traced \
         (median of {rounds} paired rounds)",
        if compiled_in {
            "compiled in"
        } else {
            "compiled out"
        },
    );
    // The acceptance number is 2%. A fast-mode smoke measures a few
    // short batches, where scheduler noise alone exceeds 2%, so it only
    // gates against gross regressions.
    let target = if fast { 25.0 } else { 2.0 };
    Report::new("obs_overhead")
        .mode(
            "workload",
            Json::Str("ocsvm session, paper clip 1, top 20, 4 rounds".into()),
        )
        .mode("probes_compiled_in", Json::Bool(compiled_in))
        .mode("rounds", Json::Num(rounds as f64))
        .metric("ns_per_iter_enabled", "ns", on)
        .metric("ns_per_iter_traced", "ns", traced)
        .metric("ns_per_iter_disabled", "ns", off)
        .metric("overhead_pct", "%", overhead_pct)
        .metric("overhead_traced_pct", "%", traced_pct)
        .metric("target_pct", "%", target)
        .finish(overhead_pct < target && traced_pct < target);
}
