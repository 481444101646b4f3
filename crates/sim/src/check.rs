//! A tiny seeded-RNG property-test harness.
//!
//! The workspace must build and test fully offline, so instead of an
//! external property-testing framework each crate's `tests/proptests.rs`
//! drives its invariant checks through [`cases`]: a fixed number of
//! deterministic cases, each with its own [`Pcg32`] derived from the
//! case index. Failures are ordinary panics; the harness wraps them so
//! the panic message names the failing case index, which is enough to
//! reproduce it exactly (same index ⇒ same RNG stream, forever).
//!
//! ```
//! use tsvr_sim::check;
//!
//! check::cases(64, |case, rng| {
//!     let x = rng.uniform(0.0, 100.0);
//!     assert!(x >= 0.0 && x < 100.0, "case {case}: x = {x}");
//! });
//! ```

use crate::rng::Pcg32;

/// Base seed mixed into every per-case RNG; changing it reshuffles all
/// generated inputs at once.
pub const HARNESS_SEED: u64 = 0x7375_7276_6569_6c00; // "surveil"

/// Run `n` deterministic property cases.
///
/// Each case receives its index and a fresh [`Pcg32`] seeded from
/// [`HARNESS_SEED`] and the index, so any failure reproduces in
/// isolation. Panics (assertion failures) propagate after an eprintln
/// naming the case.
pub fn cases<F: FnMut(u64, &mut Pcg32)>(n: u64, mut f: F) {
    for case in 0..n {
        let mut rng = Pcg32::new(
            HARNESS_SEED ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            case,
        );
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f(case, &mut rng);
        }));
        if let Err(payload) = outcome {
            eprintln!("property case {case}/{n} failed (seed derives from case index)");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A vector of `len` floats uniform in `[lo, hi)`.
pub fn vec_f64(rng: &mut Pcg32, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.uniform(lo, hi)).collect()
}

/// A vector of `len` booleans, each set with probability `p`.
pub fn vec_bool(rng: &mut Pcg32, len: usize, p: f64) -> Vec<bool> {
    (0..len).map(|_| rng.chance(p)).collect()
}

/// A length in `[lo, hi)` — convenience for sizing generated inputs.
pub fn len_in(rng: &mut Pcg32, lo: usize, hi: usize) -> usize {
    lo + rng.uniform_usize(hi - lo)
}
