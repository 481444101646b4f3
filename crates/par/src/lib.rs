//! # tsvr-par
//!
//! A zero-dependency, std-only parallel runtime for the retrieval
//! pipeline's hot loops: per-frame segmentation, the O(tracks² ×
//! checkpoints) neighbor-distance pass, Gram matrix construction, and
//! batch bag scoring.
//!
//! ## Design
//!
//! Every entry point is a *scoped* fork-join over borrowed data
//! ([`std::thread::scope`]), so no `'static` bounds leak into callers.
//! Work is split into chunks that workers claim from a shared atomic
//! cursor (work stealing by competition rather than deques), which keeps
//! ragged workloads — e.g. triangular Gram rows — balanced without any
//! queue data structure.
//!
//! ## Determinism invariant
//!
//! Parallel results are **bit-identical** to the sequential ones: each
//! output element is a pure function of its input element, and
//! [`par_map`] reassembles chunk results in input order before
//! returning. No reduction ever happens in thread-completion order.
//! Callers that fold over the returned `Vec` therefore reduce in exactly
//! the order the sequential loop would have.
//!
//! ## Configuration
//!
//! The worker count resolves, in priority order: [`set_threads`] (the
//! CLI's `--threads` flag calls this), the `TSVR_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. A value of 1
//! disables spawning entirely — every entry point then runs inline on
//! the calling thread.
//!
//! Whatever the resolved count, forking is capped by the detected
//! hardware parallelism and skipped outright when the work is too small
//! to amortize a spawn — so a `--threads 4` request on a single-core
//! host degrades gracefully to the sequential path instead of paying
//! for context switches (the *sequential fallback*).
//!
//! ## Cost-hinted fallback
//!
//! Spawning a scoped worker costs tens of microseconds ([`FORK_COST_NS`]).
//! A fork whose per-worker slice is smaller than that *loses* time to
//! parallelism, which is invisible to the plain entry points because
//! they cannot know how expensive one item is. The `*_est` variants
//! ([`par_map_est`], [`par_map_index_est`]) take a caller-supplied
//! per-item cost estimate in nanoseconds; the planner then sizes the
//! pool so every spawned worker carries at least
//! [`MIN_WORK_PER_WORKER_NS`] of estimated work and runs inline when
//! even two workers cannot be fed. The estimate only steers the fork
//! decision — results are bit-identical either way, because the
//! sequential path is the reference.
//!
//! ## Tracing
//!
//! Workers adopt the forking thread's [`tsvr_obs::trace`] context: when
//! the fork happens inside a request trace, every chunk records a
//! `par.chunk` span into that trace, so a `trace <id>` tree shows the
//! fan-out.
//!
//! ## Observability
//!
//! With the `obs` feature the runtime records under `par.*`:
//! `par.tasks` (chunks executed), `par.par_calls` / `par.seq_calls`
//! (parallel vs inline entry counts), and the `par.queue_wait` /
//! `par.task` nanosecond histograms (time from fork to chunk pickup,
//! and per-chunk execution time).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-global thread-count override; 0 = no override.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count for all subsequent parallel calls.
///
/// Takes precedence over `TSVR_THREADS` and the detected parallelism.
/// `set_threads(1)` forces fully sequential execution; `set_threads(0)`
/// clears the override.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// The `TSVR_THREADS` value at first use (the environment is read once;
/// later mutations of the variable do not retune a running process).
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("TSVR_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// The worker count parallel calls will use right now: the
/// [`set_threads`] override, else `TSVR_THREADS`, else
/// [`std::thread::available_parallelism`].
pub fn current_threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o >= 1 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    hw_threads()
}

/// Detected hardware parallelism, probed once. Fork-join never spawns
/// more workers than this: the pipeline is CPU-bound, so oversubscribing
/// a small host (e.g. `--threads 4` on one core) only buys context
/// switches — measured ~5× slower than inline on a 1-thread host.
fn hw_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count a fork over `work_items` items actually gets: the
/// resolved thread count, clamped by hardware parallelism and by the
/// rule that each worker must have at least [`MIN_FORK_ITEMS`] items.
/// With a per-item cost estimate, the pool is additionally sized so
/// each spawned worker carries at least [`MIN_WORK_PER_WORKER_NS`] of
/// estimated work; a call whose total estimated work cannot feed two
/// workers runs inline. Without one (the plain entry points), the
/// item-count rule alone decides, preserving the historical fork
/// policy. A result of 1 means "run inline" — the sequential fallback.
fn plan_workers(work_items: usize, est_item_ns: Option<u64>) -> usize {
    let cap = current_threads()
        .min(hw_threads())
        .min(work_items / MIN_FORK_ITEMS)
        .max(1);
    let Some(est) = est_item_ns else { return cap };
    if cap <= 1 {
        return 1;
    }
    let total_ns = est.saturating_mul(work_items as u64);
    let by_work = (total_ns / MIN_WORK_PER_WORKER_NS) as usize;
    if by_work < 2 {
        return 1;
    }
    cap.min(by_work)
}

/// Minimum items per worker before forking pays for itself; with fewer
/// the spawn cost dominates and the call runs inline.
const MIN_FORK_ITEMS: usize = 2;

/// Measured cost of forking one scoped worker (spawn + first chunk
/// pickup + join share) on commodity hardware — tens of microseconds.
/// The calibration constant behind [`MIN_WORK_PER_WORKER_NS`].
pub const FORK_COST_NS: u64 = 50_000;

/// Minimum *estimated* work per spawned worker before a cost-hinted
/// call forks: 5× [`FORK_COST_NS`], so the spawn overhead stays under
/// ~20% even when the estimate is optimistic by a small factor.
pub const MIN_WORK_PER_WORKER_NS: u64 = 5 * FORK_COST_NS;

/// Target chunks per worker: enough granularity that one slow chunk
/// cannot serialize the join, few enough that per-chunk bookkeeping
/// stays invisible.
const CHUNKS_PER_WORKER: usize = 8;

fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * CHUNKS_PER_WORKER).max(1)
}

#[cfg(feature = "obs")]
mod probes {
    use std::sync::OnceLock;
    use tsvr_obs::{Counter, Histogram};

    pub fn tasks() -> &'static Counter {
        static C: OnceLock<&'static Counter> = OnceLock::new();
        C.get_or_init(|| tsvr_obs::counter("par.tasks"))
    }
    pub fn par_calls() -> &'static Counter {
        static C: OnceLock<&'static Counter> = OnceLock::new();
        C.get_or_init(|| tsvr_obs::counter("par.par_calls"))
    }
    pub fn seq_calls() -> &'static Counter {
        static C: OnceLock<&'static Counter> = OnceLock::new();
        C.get_or_init(|| tsvr_obs::counter("par.seq_calls"))
    }
    pub fn queue_wait() -> &'static Histogram {
        static H: OnceLock<&'static Histogram> = OnceLock::new();
        H.get_or_init(|| tsvr_obs::histogram_ns("par.queue_wait"))
    }
    pub fn task() -> &'static Histogram {
        static H: OnceLock<&'static Histogram> = OnceLock::new();
        H.get_or_init(|| tsvr_obs::histogram_ns("par.task"))
    }
}

#[cfg(feature = "obs")]
fn record_chunk(fork: Instant, picked: Instant, done: Instant) {
    if !tsvr_obs::is_enabled() {
        return;
    }
    probes::tasks().incr();
    probes::queue_wait().record((picked - fork).as_nanos() as u64);
    probes::task().record((done - picked).as_nanos() as u64);
}

#[cfg(not(feature = "obs"))]
fn record_chunk(_fork: Instant, _picked: Instant, _done: Instant) {}

fn record_call(parallel: bool) {
    #[cfg(feature = "obs")]
    if tsvr_obs::is_enabled() {
        if parallel {
            probes::par_calls().incr();
        } else {
            probes::seq_calls().incr();
        }
    }
    #[cfg(not(feature = "obs"))]
    let _ = parallel;
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// `f` receives the item's index and a reference to it. The returned
/// vector is bit-identical to the sequential
/// `items.iter().enumerate().map(...).collect()` — chunks execute on
/// whichever worker grabs them first, but results are reassembled in
/// index order.
///
/// ```
/// let squares = tsvr_par::par_map(&[1.0f64, 2.0, 3.0], |_, x| x * x);
/// assert_eq!(squares, vec![1.0, 4.0, 9.0]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed(items.len(), None, |i| f(i, &items[i]))
}

/// Cost-hinted [`par_map`]: `est_item_ns` is the caller's rough
/// estimate of one item's cost in nanoseconds. Cheap items (estimated
/// total below two workers' worth of [`MIN_WORK_PER_WORKER_NS`]) run
/// inline instead of paying the fork cost; expensive items fork exactly
/// like [`par_map`]. The hint never changes the result — only whether
/// threads are spawned to compute it.
///
/// ```
/// // A ~5ns/item map: the hint keeps it inline on any host.
/// let out = tsvr_par::par_map_est(&[1.0f64, 2.0, 3.0], 5, |_, x| x * x);
/// assert_eq!(out, vec![1.0, 4.0, 9.0]);
/// ```
pub fn par_map_est<T, R, F>(items: &[T], est_item_ns: u64, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed(items.len(), Some(est_item_ns), |i| f(i, &items[i]))
}

/// Index-space variant of [`par_map`]: maps `f` over `0..n`, preserving
/// order. Useful when the "items" are rows of a matrix or other
/// structures not naturally a slice.
pub fn par_map_index<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_indexed(n, None, f)
}

/// Cost-hinted [`par_map_index`]; see [`par_map_est`] for the fork
/// heuristic the estimate drives.
pub fn par_map_index_est<R, F>(n: usize, est_item_ns: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_indexed(n, Some(est_item_ns), f)
}

fn run_indexed<R, F>(n: usize, est_item_ns: Option<u64>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = plan_workers(n, est_item_ns);
    if threads <= 1 {
        record_call(false);
        return (0..n).map(f).collect();
    }
    record_call(true);

    let chunk = chunk_size(n, threads);
    let nchunks = n.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(nchunks));
    let fork = Instant::now();
    // Hand the submitting thread's trace context to every worker, so
    // chunk spans land in the request's trace instead of starting one.
    let ctx = tsvr_obs::trace::current();

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let _adopted = tsvr_obs::trace::adopt(ctx);
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= nchunks {
                        break;
                    }
                    let picked = Instant::now();
                    let _span = ctx.map(|_| tsvr_obs::tspan!("par.chunk"));
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(n);
                    let out: Vec<R> = (lo..hi).map(&f).collect();
                    record_chunk(fork, picked, Instant::now());
                    done.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((c, out));
                }
            });
        }
    });

    let mut parts = done.into_inner().unwrap_or_else(|e| e.into_inner());
    parts.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(n);
    for (_, mut part) in parts {
        out.append(&mut part);
    }
    out
}

/// Runs `f` over disjoint mutable chunks of `data` in parallel.
///
/// `data` is split into runs of at most `chunk_len` elements; `f`
/// receives each run's starting offset and the run itself. Chunk
/// boundaries are identical to the sequential
/// `data.chunks_mut(chunk_len)` split, so any per-element computation
/// is bit-identical to the sequential pass.
pub fn par_for_chunks<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n = data.len();
    let nchunks = n.div_ceil(chunk_len);
    let threads = current_threads().min(hw_threads()).min(nchunks);
    if threads <= 1 {
        record_call(false);
        for (c, run) in data.chunks_mut(chunk_len).enumerate() {
            f(c * chunk_len, run);
        }
        return;
    }
    record_call(true);

    // Queue of (offset, chunk) pairs; workers pop until empty. The
    // mutable borrows are disjoint by construction of `chunks_mut`.
    let queue: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
        data.chunks_mut(chunk_len)
            .enumerate()
            .map(|(c, run)| (c * chunk_len, run))
            .rev() // pop() then serves chunks in ascending offset order
            .collect(),
    );
    let fork = Instant::now();
    let ctx = tsvr_obs::trace::current();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let _adopted = tsvr_obs::trace::adopt(ctx);
                loop {
                    let item = queue.lock().unwrap_or_else(|e| e.into_inner()).pop();
                    let Some((offset, run)) = item else { break };
                    let picked = Instant::now();
                    let _span = ctx.map(|_| tsvr_obs::tspan!("par.chunk"));
                    f(offset, run);
                    record_chunk(fork, picked, Instant::now());
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that touch the process-global thread override.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` with the override forced to `n`, restoring it after.
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let prev = OVERRIDE.load(Ordering::Relaxed);
        set_threads(n);
        let r = f();
        set_threads(prev);
        r
    }

    #[test]
    fn par_map_preserves_order_and_values() {
        let _g = lock();
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 7] {
            let par = with_threads(threads, || par_map(&items, |_, &x| x * x + 1));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_passes_indices() {
        let _g = lock();
        let items = vec![10u64; 257];
        let got = with_threads(4, || par_map(&items, |i, &x| i as u64 + x));
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as u64 + 10);
        }
    }

    #[test]
    fn par_map_float_reduction_is_bit_identical() {
        let _g = lock();
        // Catastrophic-cancellation-prone values: any reordering of the
        // fold would change the bits.
        let items: Vec<f64> = (0..2048)
            .map(|i| (i as f64 * 0.7311).sin() * 10f64.powi(i % 13 - 6))
            .collect();
        let seq: Vec<f64> = items.iter().map(|x| (x * 1.000000119).exp_m1()).collect();
        let par = with_threads(8, || par_map(&items, |_, x| (x * 1.000000119).exp_m1()));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn par_map_index_matches_range_map() {
        let _g = lock();
        let seq: Vec<usize> = (0..77).map(|i| i * 3).collect();
        let par = with_threads(3, || par_map_index(77, |i| i * 3));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _g = lock();
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u32], |_, &x| x * 2), vec![10]);
        assert_eq!(par_map_index(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn par_for_chunks_touches_every_element_once() {
        let _g = lock();
        for threads in [1, 4] {
            let mut data = vec![0u64; 1003];
            with_threads(threads, || {
                par_for_chunks(&mut data, 17, |offset, run| {
                    for (i, v) in run.iter_mut().enumerate() {
                        *v += (offset + i) as u64 + 1;
                    }
                })
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "threads = {threads}");
            }
        }
    }

    #[test]
    fn par_for_chunks_offsets_match_sequential_split() {
        let _g = lock();
        let offsets = Mutex::new(Vec::new());
        let mut data = vec![0u8; 100];
        with_threads(4, || {
            par_for_chunks(&mut data, 23, |offset, run| {
                offsets
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((offset, run.len()));
            })
        });
        let mut got = offsets.into_inner().unwrap_or_else(|e| e.into_inner());
        got.sort_unstable();
        assert_eq!(got, vec![(0, 23), (23, 23), (46, 23), (69, 23), (92, 8)]);
    }

    #[test]
    fn all_workers_participate_under_load() {
        let _g = lock();
        // With enough chunks and a non-trivial payload, more than one
        // distinct thread should execute tasks (not a strict guarantee,
        // but with 64 chunks and 4 workers the odds of one thread
        // winning every race are nil).
        let ids = Mutex::new(std::collections::HashSet::new());
        let items = vec![0u64; 4096];
        with_threads(4, || {
            par_map(&items, |_, _| {
                ids.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(std::thread::current().id());
                std::hint::black_box((0..500u64).sum::<u64>())
            })
        });
        assert!(!ids.lock().unwrap().is_empty());
    }

    #[test]
    fn sequential_fallback_clamps_oversubscription() {
        let _g = lock();
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        with_threads(hw * 8, || {
            // Requesting more workers than the hardware has never forks
            // wider than the hardware.
            assert!(plan_workers(100_000, None) <= hw);
            // Tiny work always runs inline, whatever was requested.
            assert_eq!(plan_workers(0, None), 1);
            assert_eq!(plan_workers(1, None), 1);
            // 3 items / MIN_FORK_ITEMS(2) per worker -> 1 worker: inline.
            assert_eq!(plan_workers(3, None), 1);
        });
        // And results stay correct under heavy oversubscription.
        let items: Vec<u64> = (0..300).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * 7).collect();
        let par = with_threads(hw * 8, || par_map(&items, |_, &x| x * 7));
        assert_eq!(par, seq);
    }

    #[test]
    fn cost_hint_keeps_cheap_work_inline() {
        let _g = lock();
        with_threads(8, || {
            // 1000 items at 10ns each = 10µs total: far below two
            // workers' minimum slice, so the planner stays inline even
            // though the item-count rule alone would fork.
            assert!(plan_workers(1000, None) > 1 || hw_threads() == 1);
            assert_eq!(plan_workers(1000, Some(10)), 1);
            // Zero-cost items never fork.
            assert_eq!(plan_workers(1_000_000, Some(0)), 1);
            // Expensive items fork as wide as the unhinted plan allows.
            let heavy = plan_workers(1000, Some(10_000_000));
            assert_eq!(heavy, plan_workers(1000, None));
            // Mid-range work is capped so each worker keeps a full
            // minimum slice: 100 items × 10µs = 1ms -> at most 4 workers.
            let mid = plan_workers(100, Some(10_000));
            assert!(mid <= 4, "mid-range plan spawned {mid} workers");
        });
    }

    #[test]
    fn cost_hint_never_changes_results() {
        let _g = lock();
        let items: Vec<f64> = (0..512).map(|i| (i as f64 * 0.31).cos()).collect();
        let seq: Vec<f64> = items.iter().map(|x| (x * 1.0000007).exp_m1()).collect();
        for threads in [1, 4] {
            for est in [0, 10, 1_000_000] {
                let got = with_threads(threads, || {
                    par_map_est(&items, est, |_, x| (x * 1.0000007).exp_m1())
                });
                for (a, b) in seq.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads {threads} est {est}");
                }
                let got = with_threads(threads, || {
                    par_map_index_est(items.len(), est, |i| (items[i] * 1.0000007).exp_m1())
                });
                for (a, b) in seq.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads {threads} est {est}");
                }
            }
        }
    }

    #[test]
    fn cost_hint_overflow_is_saturating() {
        let _g = lock();
        with_threads(4, || {
            // A pathological estimate must not overflow the total-work
            // product; it saturates and forks at the unhinted width.
            let w = plan_workers(usize::MAX, Some(u64::MAX));
            assert_eq!(w, plan_workers(usize::MAX, None));
        });
    }

    #[test]
    fn set_threads_roundtrip() {
        let _g = lock();
        let prev = OVERRIDE.load(Ordering::Relaxed);
        set_threads(3);
        assert_eq!(current_threads(), 3);
        set_threads(0);
        assert!(current_threads() >= 1);
        set_threads(prev);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let _g = lock();
        let items: Vec<u32> = (0..100).collect();
        let hit = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_threads(4, || {
                par_map(&items, |_, &x| {
                    hit.fetch_add(1, Ordering::Relaxed);
                    if x == 57 {
                        panic!("worker failure");
                    }
                    x
                })
            })
        }));
        assert!(result.is_err(), "worker panic must not be swallowed");
    }

    #[test]
    fn chunk_size_sane() {
        assert_eq!(chunk_size(1, 8), 1);
        assert!(chunk_size(1000, 4) >= 1);
        assert!(chunk_size(1000, 4) * 4 * CHUNKS_PER_WORKER >= 1000);
    }
}
