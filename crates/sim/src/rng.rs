//! Deterministic pseudo-random number generation.
//!
//! The whole evaluation pipeline must be reproducible from a single seed
//! (the paper's clips are fixed footage; our substitute must be equally
//! fixed given a scenario). PCG32 (O'Neill 2014, `PCG-XSH-RR`) is small,
//! statistically solid for simulation purposes, and has a trivially
//! portable implementation — which keeps the `rand` crate out of the
//! library's dependency graph entirely.

/// A PCG-XSH-RR 64/32 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

/// The stream id [`Pcg32::seeded`] uses — the stream every scenario ran
/// on before per-scenario streams existed. The paper-calibrated presets
/// pin this stream so their worlds replay byte-identically forever.
pub const DEFAULT_STREAM: u64 = 0xda3e39cb94b95bdb;

/// Derives an independent RNG stream id from a scenario name (FNV-1a
/// 64). Fleet scenarios key their stream on their own name, so adding a
/// new fleet member — or reordering the registry — can never perturb
/// another scenario's trajectories: the (seed, name) pair alone fixes
/// the world.
pub fn split_stream(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Pcg32 {
    /// Creates a generator from a seed and a stream id. Distinct stream
    /// ids yield independent sequences for the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Creates a generator from a seed on the default stream.
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, DEFAULT_STREAM)
    }

    /// Next raw 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next raw 64-bit output (two 32-bit draws).
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, bound)` via Lemire rejection; panics on
    /// `bound == 0`.
    pub fn uniform_u32(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "uniform_u32 bound must be positive");
        // Rejection sampling to remove modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            if r >= threshold {
                return r % bound;
            }
        }
    }

    /// Uniform usize in `[0, bound)`; panics on `bound == 0`.
    pub fn uniform_usize(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        assert!(bound <= u32::MAX as usize, "bound too large");
        self.uniform_u32(bound as u32) as usize
    }

    /// Standard normal draw via Box–Muller (one value per call; the
    /// paired value is discarded for simplicity).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Avoid ln(0).
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Exponential inter-arrival draw with the given rate (events per
    /// unit time). Used for Poisson vehicle spawning.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Bernoulli draw with success probability `p` (clamped to \[0,1\]).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.uniform_usize(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Pcg32::seeded(42);
        let mut b = Pcg32::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::seeded(1);
        let mut b = Pcg32::seeded(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = Pcg32::new(7, 1);
        let mut b = Pcg32::new(7, 2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::seeded(3);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Pcg32::seeded(4);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
        assert_eq!(rng.uniform(3.0, 3.0), 3.0);
        assert_eq!(rng.uniform(5.0, 1.0), 5.0);
    }

    #[test]
    fn uniform_u32_unbiased_coverage() {
        let mut rng = Pcg32::seeded(5);
        let mut counts = [0usize; 7];
        for _ in 0..7000 {
            counts[rng.uniform_u32(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "count {c} outside expectation");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Pcg32::seeded(6);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Pcg32::seeded(7);
        let n = 20_000;
        let rate = 0.5;
        let m = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((m - 2.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg32::seeded(8);
        assert!((0..100).all(|_| rng.chance(1.5)));
        assert!((0..100).all(|_| !rng.chance(-0.5)));
    }

    #[test]
    fn split_streams_are_distinct_and_stable() {
        // The derivation is pure: same name, same stream, forever.
        assert_eq!(
            split_stream("near_miss_brake"),
            split_stream("near_miss_brake")
        );
        // Distinct fleet names land on distinct streams (and none on the
        // legacy default stream, which the presets reserve).
        let names = [
            "near_miss_brake",
            "near_miss_swerve",
            "occlusion_merge",
            "shockwave",
            "wrong_way",
            "pedestrian",
            "handoff",
        ];
        let streams: std::collections::HashSet<u64> =
            names.iter().map(|n| split_stream(n)).collect();
        assert_eq!(streams.len(), names.len());
        assert!(!streams.contains(&DEFAULT_STREAM));
        // Same seed, different stream: independent sequences.
        for name in names {
            let mut a = Pcg32::new(2007, split_stream(name));
            let mut b = Pcg32::new(2007, DEFAULT_STREAM);
            let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
            assert!(same < 4, "stream for {name} shadows the default stream");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg32::seeded(9);
        let mut xs: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(xs, (0..20).collect::<Vec<_>>()); // astronomically unlikely
    }
}
