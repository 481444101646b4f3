//! Measures the kernel-layer restructuring and writes
//! `BENCH_kernels.json`.
//!
//! Four components, each timed **paired** against its pre-change
//! baseline (the naive implementation each optimization replaced) with
//! a bit-identity assert, so a speedup can never be bought with a
//! changed result:
//!
//! * **gram** — [`Kernel::gram`]'s flat-SoA fused evaluation vs the
//!   per-pair scalar `Kernel::eval` upper-triangle loop it replaced.
//! * **decision** — [`OneClassModel::decision_batch`]'s blocked fused
//!   expansion vs a per-support-vector scalar loop, at 1 thread and at
//!   `max(4, available_parallelism)` threads (all three bit-identical).
//! * **dtw** — the rolling two-row [`dtw_distance`] vs the full-matrix
//!   DP it replaced.
//! * **memo** — an [`OcSvmMilLearner`] driven through the paper's
//!   feedback rounds with cross-round Gram memoization vs the
//!   from-scratch retrain (`without_gram_memo`), rankings byte-equal
//!   at 1 and n threads. This is the per-round re-rank latency the
//!   issue targets; the no-memo timing in the JSON *is* the recorded
//!   pre-change baseline.
//!
//! `TSVR_BENCH_FAST=1` shrinks problem sizes and rounds and gates only
//! on identity (CI smoke); the full run also gates on measured
//! speedups.

use tsvr_bench::harness::{fast_mode, host, median, time_ns, Report};
use tsvr_core::median_heuristic_gamma;
use tsvr_mil::session::rank_scores;
use tsvr_mil::{Bag, Instance, Learner, OcSvmMilLearner};
use tsvr_obs::json::Json;
use tsvr_sim::Vec2;
use tsvr_svm::{Kernel, OneClassModel, OneClassSvm};
use tsvr_trajectory::dtw::dtw_distance;

/// Deterministic xorshift feature vectors in the pipeline's dim-9
/// normalized range.
fn synth_vectors(n: usize, dim: usize, salt: u64) -> Vec<Vec<f64>> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ salt;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
}

/// The pre-change Gram construction: scalar `eval` per pair over the
/// upper triangle, mirrored.
fn naive_gram(kernel: Kernel, data: &[Vec<f64>]) -> Vec<f64> {
    let n = data.len();
    let mut g = vec![0.0; n * n];
    for i in 0..n {
        for j in i..n {
            let k = kernel.eval(&data[i], &data[j]);
            g[i * n + j] = k;
            g[j * n + i] = k;
        }
    }
    g
}

/// The pre-change decision function: scalar `eval` per support vector.
fn naive_decision_batch(m: &OneClassModel, xs: &[Vec<f64>]) -> Vec<f64> {
    xs.iter()
        .map(|x| {
            let mut s = 0.0;
            for (a, sv) in m.coeffs.iter().zip(&m.support) {
                s += a * m.kernel.eval(sv, x);
            }
            s - m.rho
        })
        .collect()
}

/// The pre-change DTW: full n×m cost/steps matrices.
fn naive_dtw(a: &[Vec2], b: &[Vec2]) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return f64::INFINITY;
    }
    let idx = |i: usize, j: usize| i * m + j;
    let mut cost = vec![f64::INFINITY; n * m];
    let mut steps = vec![0u32; n * m];
    cost[idx(0, 0)] = a[0].dist(b[0]);
    steps[idx(0, 0)] = 1;
    for i in 0..n {
        for j in 0..m {
            if i == 0 && j == 0 {
                continue;
            }
            let local = a[i].dist(b[j]);
            let mut best = f64::INFINITY;
            let mut best_steps = 0;
            if i > 0 && cost[idx(i - 1, j)] < best {
                best = cost[idx(i - 1, j)];
                best_steps = steps[idx(i - 1, j)];
            }
            if j > 0 && cost[idx(i, j - 1)] < best {
                best = cost[idx(i, j - 1)];
                best_steps = steps[idx(i, j - 1)];
            }
            if i > 0 && j > 0 && cost[idx(i - 1, j - 1)] < best {
                best = cost[idx(i - 1, j - 1)];
                best_steps = steps[idx(i - 1, j - 1)];
            }
            cost[idx(i, j)] = best + local;
            steps[idx(i, j)] = best_steps + 1;
        }
    }
    cost[idx(n - 1, m - 1)] / steps[idx(n - 1, m - 1)] as f64
}

/// A synthetic MIL database shaped like a prepared clip (dim-9
/// trajectory-sequence vectors, MIL max scoring): `n_hot` bags carry
/// accident-like instances, the rest only quiet traffic. Sized so the
/// cumulative training set across four feedback rounds reaches the
/// regime where Gram construction dominates retraining — real clips
/// hold a handful of relevant windows, too few to measure.
fn synth_database(n_bags: usize, n_hot: usize) -> (Vec<Bag>, Vec<bool>) {
    let mut bags = Vec::with_capacity(n_bags);
    let mut labels = Vec::with_capacity(n_bags);
    for i in 0..n_bags {
        let j = (i as f64 * 0.618).fract() * 0.05;
        let quiet = Instance::new(
            (i * 10) as u64,
            vec![
                vec![0.02 + j, 0.01, 0.0],
                vec![0.01, 0.03 + j, 0.01],
                vec![0.0, 0.02, 0.02 + j],
            ],
        );
        let mut instances = vec![quiet];
        let hot = i < n_hot;
        if hot {
            for v in 0..2u64 {
                let k = j + v as f64 * 0.013;
                instances.push(Instance::new(
                    (i * 10) as u64 + 1 + v,
                    vec![
                        vec![0.05, 0.1 + k, 0.02],
                        vec![0.3 + k, 0.8 - k, 0.6],
                        vec![0.2, 0.3 + k, 0.1],
                    ],
                ));
            }
        }
        bags.push(Bag::new(i, instances));
        labels.push(hot);
    }
    (bags, labels)
}

fn synth_polyline(len: usize, salt: u64) -> Vec<Vec2> {
    (0..len)
        .map(|i| {
            let t = i as f64 / len as f64;
            let wob = ((salt % 7) as f64 + 1.0) * t * 6.0;
            Vec2::new(t * 40.0 + wob.sin(), 10.0 * t * t + wob.cos())
        })
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) -> bool {
    if a.len() != b.len() {
        eprintln!("IDENTITY FAIL ({what}): lengths {} vs {}", a.len(), b.len());
        return false;
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() {
            eprintln!("IDENTITY FAIL ({what}): index {i}: {x} vs {y}");
            return false;
        }
    }
    true
}

/// Replays the paper's feedback schedule against the clip database and
/// returns (total learn ns, final ranking).
fn drive_rounds(
    mut learner: OcSvmMilLearner,
    bags: &[tsvr_mil::Bag],
    schedule: &[Vec<(usize, bool)>],
) -> (f64, Vec<usize>) {
    let mut learn_ns = 0.0;
    for fb in schedule {
        let (ns, ()) = time_ns(|| learner.learn(bags, fb));
        learn_ns += ns;
    }
    let ranking = rank_scores(bags, &learner.score_all(bags));
    (learn_ns, ranking)
}

fn main() {
    let fast = fast_mode();
    let (rounds, gram_n, probe_n, dtw_len, db_bags, db_hot) = if fast {
        (3usize, 64usize, 200usize, 60usize, 80usize, 24usize)
    } else {
        (7usize, 160usize, 2000usize, 1024usize, 240usize, 64usize)
    };
    let many = host().available_parallelism.max(4);
    eprintln!(
        "kernels bench: {rounds} paired rounds, gram n={gram_n}, {probe_n} probes, \
         dtw len={dtw_len}, {db_bags}-bag database ({db_hot} relevant), threads 1 vs {many}"
    );

    let (bags, labels) = synth_database(db_bags, db_hot);
    let gamma = median_heuristic_gamma(&bags);
    let kernel = Kernel::Rbf { gamma };

    // --- gram: SoA fused vs scalar upper-triangle ---------------------
    let gram_data = synth_vectors(gram_n, 9, 0xA1);
    tsvr_par::set_threads(1);
    let mut gram_naive_ns = Vec::new();
    let mut gram_soa_ns = Vec::new();
    let mut gram_identical = true;
    for _ in 0..rounds {
        let (t_naive, g_naive) = time_ns(|| naive_gram(kernel, &gram_data));
        let (t_soa, g_soa) = time_ns(|| kernel.gram(&gram_data));
        gram_identical &= assert_bits_eq(&g_naive, &g_soa, "gram");
        gram_naive_ns.push(t_naive);
        gram_soa_ns.push(t_soa);
    }
    let gram_ns_naive = median(&mut gram_naive_ns);
    let gram_ns_soa = median(&mut gram_soa_ns);
    let gram_speedup = gram_ns_naive / gram_ns_soa;
    println!("gram {gram_n}x{gram_n}: scalar {gram_ns_naive:.0}ns -> SoA {gram_ns_soa:.0}ns ({gram_speedup:.2}x), identical={gram_identical}");

    // --- decision: fused block expansion vs scalar loop ---------------
    let train = synth_vectors(96, 9, 0xB2);
    let probes = synth_vectors(probe_n, 9, 0xC3);
    let model = OneClassSvm::new(kernel, 0.2)
        .fit(&train)
        .expect("fit decision-bench model");
    let mut dec_naive_ns = Vec::new();
    let mut dec_1_ns = Vec::new();
    let mut dec_n_ns = Vec::new();
    let mut dec_identical = true;
    for _ in 0..rounds {
        tsvr_par::set_threads(1);
        let (t_naive, d_naive) = time_ns(|| naive_decision_batch(&model, &probes));
        let (t_1, d_1) = time_ns(|| model.decision_batch(&probes));
        tsvr_par::set_threads(many);
        let (t_n, d_n) = time_ns(|| model.decision_batch(&probes));
        dec_identical &= assert_bits_eq(&d_naive, &d_1, "decision threads=1");
        dec_identical &= assert_bits_eq(&d_naive, &d_n, "decision threads=n");
        dec_naive_ns.push(t_naive);
        dec_1_ns.push(t_1);
        dec_n_ns.push(t_n);
    }
    tsvr_par::set_threads(1);
    let decision_ns_naive = median(&mut dec_naive_ns);
    let decision_ns_1 = median(&mut dec_1_ns);
    let decision_ns_n = median(&mut dec_n_ns);
    let decision_speedup = decision_ns_naive / decision_ns_1;
    println!(
        "decision {probe_n} probes x {} SVs: scalar {decision_ns_naive:.0}ns -> fused {decision_ns_1:.0}ns ({decision_speedup:.2}x), identical={dec_identical}",
        model.support.len()
    );

    // --- dtw: rolling two-row vs full matrix --------------------------
    // Long trajectories are the point of the restructure: a full
    // dtw_len² matrix overflows cache where two rolling rows stay
    // resident. Fast mode shrinks below that regime, so it gates on
    // identity only.
    let n_paths = if fast { 8 } else { 4 };
    let paths: Vec<Vec<Vec2>> = (0..n_paths).map(|s| synth_polyline(dtw_len, s)).collect();
    let all_pairs = |d: fn(&[Vec2], &[Vec2]) -> f64| -> Vec<f64> {
        let mut out = Vec::new();
        for a in &paths {
            for b in &paths {
                out.push(d(a, b));
            }
        }
        out
    };
    let mut dtw_naive_ns = Vec::new();
    let mut dtw_roll_ns = Vec::new();
    let mut dtw_identical = true;
    for _ in 0..rounds {
        let (t_full, d_full) = time_ns(|| all_pairs(naive_dtw));
        let (t_roll, d_roll) = time_ns(|| all_pairs(dtw_distance));
        dtw_identical &= assert_bits_eq(&d_full, &d_roll, "dtw");
        dtw_naive_ns.push(t_full);
        dtw_roll_ns.push(t_roll);
    }
    let dtw_ns_naive = median(&mut dtw_naive_ns);
    let dtw_ns_rolling = median(&mut dtw_roll_ns);
    let dtw_speedup = dtw_ns_naive / dtw_ns_rolling;
    println!("dtw {}x{dtw_len}-pt pairs: full-matrix {dtw_ns_naive:.0}ns -> rolling {dtw_ns_rolling:.0}ns ({dtw_speedup:.2}x), identical={dtw_identical}", paths.len() * paths.len());

    // --- memo: cross-round Gram memoization vs from-scratch -----------
    // The paper's protocol: label the top 20 of the current ranking
    // each round. The schedule is fixed from the heuristic ranking so
    // both learners replay identical feedback.
    let bags = &bags;
    let initial = rank_scores(bags, &tsvr_mil::heuristic::bag_scores(bags));
    let schedule: Vec<Vec<(usize, bool)>> = (0..4)
        .map(|r| {
            initial
                .iter()
                .skip(r * 20)
                .take(20)
                .map(|&b| (b, labels[b]))
                .collect()
        })
        .collect();
    let make = || OcSvmMilLearner::new(kernel);
    // Identity across memoization and thread count.
    tsvr_par::set_threads(1);
    let (_, rank_memo_1) = drive_rounds(make(), bags, &schedule);
    let (_, rank_fresh_1) = drive_rounds(make().without_gram_memo(), bags, &schedule);
    tsvr_par::set_threads(many);
    let (_, rank_memo_n) = drive_rounds(make(), bags, &schedule);
    tsvr_par::set_threads(1);
    let memo_identical =
        rank_memo_1 == rank_fresh_1 && rank_memo_1 == rank_memo_n;
    if !memo_identical {
        eprintln!("IDENTITY FAIL (memo): rankings differ across memoization/threads");
    }
    let mut memo_ns_v = Vec::new();
    let mut fresh_ns_v = Vec::new();
    for _ in 0..rounds {
        let (t_fresh, _) = drive_rounds(make().without_gram_memo(), bags, &schedule);
        let (t_memo, _) = drive_rounds(make(), bags, &schedule);
        fresh_ns_v.push(t_fresh);
        memo_ns_v.push(t_memo);
    }
    tsvr_par::set_threads(0); // restore env/auto selection
    let memo_ns = median(&mut memo_ns_v);
    let memo_ns_baseline = median(&mut fresh_ns_v);
    let memo_speedup = memo_ns_baseline / memo_ns;
    println!("memo 4-round retrain: from-scratch {memo_ns_baseline:.0}ns -> memoized {memo_ns:.0}ns ({memo_speedup:.2}x), identical={memo_identical}");

    // Identity always gates (through the report). The full run also
    // gates on measured wins: the memoized retrain (the per-round
    // re-rank latency) must beat the recorded from-scratch baseline,
    // and no component may regress beyond noise.
    // The dtw gate is a regression guard only: the rolling rewrite is
    // a memory-footprint change (O(m) resident vs O(n·m)) and times
    // neutral where the local sqrt dominates.
    let gates = fast
        || (memo_speedup >= 1.10
            && gram_speedup >= 1.0
            && decision_speedup >= 1.0
            && dtw_speedup >= 0.85);

    Report::new("kernels")
        .mode(
            "workload",
            Json::Str(format!(
                "gram/decision/dtw micro + 4-round ocsvm retrain on a \
                 {db_bags}-bag synthetic database ({db_hot} relevant)"
            )),
        )
        .mode("rounds", Json::Num(rounds as f64))
        .mode("gram_n", Json::Num(gram_n as f64))
        .mode("decision_probes", Json::Num(probe_n as f64))
        .metric("gram_ns_naive", "ns", gram_ns_naive)
        .metric("gram_ns_soa", "ns", gram_ns_soa)
        .metric("gram_speedup", "x", gram_speedup)
        .metric("decision_ns_naive", "ns", decision_ns_naive)
        .metric("decision_ns_threads_1", "ns", decision_ns_1)
        .metric("decision_ns_threads_n", "ns", decision_ns_n)
        .metric("decision_speedup", "x", decision_speedup)
        .metric("dtw_ns_naive", "ns", dtw_ns_naive)
        .metric("dtw_ns_rolling", "ns", dtw_ns_rolling)
        .metric("dtw_speedup", "x", dtw_speedup)
        .metric("memo_ns_baseline", "ns", memo_ns_baseline)
        .metric("memo_ns", "ns", memo_ns)
        .metric("memo_speedup", "x", memo_speedup)
        .identity("gram_bit_identical", gram_identical)
        .identity("decision_bit_identical", dec_identical)
        .identity("dtw_bit_identical", dtw_identical)
        .identity("memo_rankings_identical", memo_identical)
        .finish(gates);
}
