//! Measures the `tsvr-par` runtime's effect on the pipeline hot loops
//! and writes `BENCH_parallel.json`.
//!
//! The same two workloads — clip preparation (render/segment/track +
//! feature extraction) and a full OC-SVM retrieval session (Gram +
//! batch bag scoring) — are timed with the worker pool pinned to one
//! thread and to `max(4, available_parallelism)` threads. Both runs
//! share code, data, and compiler flags; by the runtime's determinism
//! invariant they also produce bit-identical results, so the timings
//! compare exactly the same computation.
//!
//! Measurement is **paired**: each round times the 1-thread and
//! n-thread configurations back to back and the reported speedup is
//! the median of the per-round ratios. Sequential A-then-B timing let
//! slow drift (thermal, page cache, scheduler mood) show up as a fake
//! 5% "regression" on single-core hosts; pairing cancels drift because
//! both configurations see the same machine state within a round.
//!
//! The acceptance target depends on the host, and the parity escape
//! hatch exists **only** for true single-core hosts, where a speedup
//! is physically impossible (the runtime's sequential fallback clamps
//! the pool to the hardware). Any host with two or more hardware
//! threads must show a real speedup. On top of the target, every host
//! must satisfy the no-slowdown rule: threads=n is never more than 2%
//! slower than threads=1 on either workload. The report's host record
//! and `pass_rule` let a reader tell an algorithmic regression from a
//! starved host.
//!
//! `TSVR_BENCH_FAST=1` switches to the small tunnel clip and fewer
//! rounds (used by `scripts/ci.sh`).

use tsvr_bench::harness::{fast_mode, host, median, time_ns, Report};
use tsvr_bench::{paper_rounds, PAPER_SEED};
use tsvr_core::{prepare_clip, EventQuery, LearnerKind, PipelineOptions};
use tsvr_obs::json::Json;
use tsvr_sim::Scenario;

fn main() {
    let fast = fast_mode();
    let (scenario, clip_name, rounds) = if fast {
        (Scenario::tunnel_small(PAPER_SEED), "tunnel_small", 3usize)
    } else {
        (
            Scenario::tunnel_paper(PAPER_SEED),
            "tunnel_paper (2504 frames)",
            7usize,
        )
    };
    let available = host().available_parallelism;
    let many = available.max(4);
    eprintln!(
        "host parallelism: {available}; comparing 1 thread vs {many} threads on {clip_name} \
         ({rounds} paired rounds)"
    );

    let opts = PipelineOptions::default();
    let prepare = || prepare_clip(&scenario, &opts);

    let clip = prepare();
    let accidents = EventQuery::accidents();
    let session = || paper_rounds(&clip, &accidents, LearnerKind::paper_ocsvm());

    // Warm both configurations before measuring so first-touch costs
    // (lazy thread-count resolution, allocator growth) hit no round.
    tsvr_par::set_threads(1);
    drop(prepare());
    drop(session());
    tsvr_par::set_threads(many);
    drop(prepare());
    drop(session());

    let mut prep_1s = Vec::with_capacity(rounds);
    let mut prep_ns = Vec::with_capacity(rounds);
    let mut sess_1s = Vec::with_capacity(rounds);
    let mut sess_ns = Vec::with_capacity(rounds);
    let mut prep_ratios = Vec::with_capacity(rounds);
    let mut sess_ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        tsvr_par::set_threads(1);
        let p1 = time_ns(prepare).0;
        tsvr_par::set_threads(many);
        let pn = time_ns(prepare).0;
        tsvr_par::set_threads(1);
        let s1 = time_ns(session).0;
        tsvr_par::set_threads(many);
        let sn = time_ns(session).0;
        eprintln!(
            "round {round}: prepare {:.0}ms -> {:.0}ms, session {:.0}ms -> {:.0}ms",
            p1 / 1e6,
            pn / 1e6,
            s1 / 1e6,
            sn / 1e6
        );
        prep_1s.push(p1);
        prep_ns.push(pn);
        sess_1s.push(s1);
        sess_ns.push(sn);
        prep_ratios.push(p1 / pn);
        sess_ratios.push(s1 / sn);
    }
    tsvr_par::set_threads(0); // restore env/auto selection

    let prep_1 = median(&mut prep_1s);
    let prep_n = median(&mut prep_ns);
    let sess_1 = median(&mut sess_1s);
    let sess_n = median(&mut sess_ns);
    let prep_speedup = median(&mut prep_ratios);
    let sess_speedup = median(&mut sess_ratios);

    // Parity is only a legitimate outcome when the hardware cannot run
    // two threads at once. Multi-core hosts must show a real speedup.
    let (target, pass_rule) = match available {
        1 => (0.98, "parity"),
        2..=3 => (1.2, "speedup"),
        _ => (2.0, "speedup"),
    };
    // Regression gate on every host: n threads may never be more than
    // 2% slower than one thread — the sequential fallback guarantees
    // the parallel entry points cost nothing when forking can't win.
    // Fast mode gates only gross prepare regressions (>15%): its rounds
    // are ~0.4s with sub-millisecond sessions, where host noise alone
    // exceeds the real 2% target (same policy as the obs_overhead
    // smoke); the full-mode run enforces the tight rule.
    let (pass, no_slowdown) = if fast {
        let ok = prep_speedup >= 0.85;
        (ok, ok)
    } else {
        let no_slowdown = prep_speedup >= 0.98 && sess_speedup >= 0.98;
        (prep_speedup >= target && no_slowdown, no_slowdown)
    };
    println!(
        "prepare_clip: {prep_speedup:.2}x with {many} threads; session: {sess_speedup:.2}x \
         ({pass_rule} target {target}x, no_slowdown={no_slowdown})"
    );

    Report::new("parallel")
        .mode(
            "workload",
            Json::Str(format!(
                "prepare_clip + ocsvm session on {clip_name}, accidents query"
            )),
        )
        .mode("rounds", Json::Num(rounds as f64))
        .mode("threads_compared", Json::Num(many as f64))
        .mode("pass_rule", Json::Str(pass_rule.into()))
        .metric("prepare_ns_threads_1", "ns", prep_1)
        .metric("prepare_ns_threads_n", "ns", prep_n)
        .metric("prepare_speedup", "x", prep_speedup)
        .metric("session_ns_threads_1", "ns", sess_1)
        .metric("session_ns_threads_n", "ns", sess_n)
        .metric("session_speedup", "x", sess_speedup)
        .metric("target_speedup", "x", target)
        .finish(pass);
}
