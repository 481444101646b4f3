//! Mercer kernels (paper Eq. 5–6).
//!
//! The batch entry points ([`Kernel::gram_block`],
//! [`Kernel::gram_extend_block`], [`Kernel::eval_block`]) run over a
//! [`FeatureBlock`] — one contiguous row-major buffer — so the distance
//! loops stream memory linearly, and split the RBF/Laplacian evaluation
//! into a distance pass followed by a vectorizable `exp` pass over the
//! whole output row. Both restructurings preserve the exact per-element
//! arithmetic of [`Kernel::eval`], so every batch value is bit-identical
//! to the corresponding scalar call.

use crate::block::FeatureBlock;
use crate::SvmError;
use tsvr_linalg::vecops;

/// A kernel function `K(u, v) = θ(u) · θ(v)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Linear kernel `u · v`.
    Linear,
    /// Gaussian RBF `exp(−γ ||u−v||²)`.
    ///
    /// The paper's Eq. 6 prints `exp(||u−v||/2σ)`; the standard Gaussian
    /// with `γ = 1/(2σ²)` is the intended kernel (see crate docs).
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
    /// Laplacian `exp(−||u−v|| / σ)` — the alternative literal reading
    /// of Eq. 6 with the sign fixed.
    Laplacian {
        /// Width parameter σ.
        sigma: f64,
    },
    /// Polynomial `(γ u·v + c₀)^d`.
    Polynomial {
        /// Scale γ.
        gamma: f64,
        /// Offset c₀.
        coef0: f64,
        /// Degree d.
        degree: u32,
    },
    /// Sigmoid `tanh(γ u·v + c₀)` (not Mercer for all parameters; kept
    /// for completeness).
    Sigmoid {
        /// Scale γ.
        gamma: f64,
        /// Offset c₀.
        coef0: f64,
    },
}

impl Kernel {
    /// Gaussian RBF parameterized by the paper's σ: `γ = 1/(2σ²)`.
    pub fn rbf_sigma(sigma: f64) -> Result<Kernel, SvmError> {
        if sigma <= 0.0 || !sigma.is_finite() {
            return Err(SvmError::InvalidKernelParam(format!("sigma = {sigma}")));
        }
        Ok(Kernel::Rbf {
            gamma: 1.0 / (2.0 * sigma * sigma),
        })
    }

    /// Validates kernel parameters.
    pub fn validate(&self) -> Result<(), SvmError> {
        let bad = |msg: String| Err(SvmError::InvalidKernelParam(msg));
        match *self {
            Kernel::Linear => Ok(()),
            Kernel::Rbf { gamma } => {
                if gamma > 0.0 && gamma.is_finite() {
                    Ok(())
                } else {
                    bad(format!("gamma = {gamma}"))
                }
            }
            Kernel::Laplacian { sigma } => {
                if sigma > 0.0 && sigma.is_finite() {
                    Ok(())
                } else {
                    bad(format!("sigma = {sigma}"))
                }
            }
            Kernel::Polynomial { gamma, degree, .. } => {
                if gamma > 0.0 && degree >= 1 {
                    Ok(())
                } else {
                    bad(format!("gamma = {gamma}, degree = {degree}"))
                }
            }
            Kernel::Sigmoid { gamma, .. } => {
                if gamma > 0.0 {
                    Ok(())
                } else {
                    bad(format!("gamma = {gamma}"))
                }
            }
        }
    }

    /// Evaluates `K(u, v)`.
    #[inline]
    pub fn eval(&self, u: &[f64], v: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => vecops::dot(u, v),
            Kernel::Rbf { gamma } => (-gamma * vecops::sq_dist(u, v)).exp(),
            Kernel::Laplacian { sigma } => (-vecops::dist(u, v) / sigma).exp(),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * vecops::dot(u, v) + coef0).powi(degree as i32),
            Kernel::Sigmoid { gamma, coef0 } => (gamma * vecops::dot(u, v) + coef0).tanh(),
        }
    }

    /// Rough cost of one [`eval`](Self::eval) call in nanoseconds — a
    /// fused multiply-add per dimension plus a transcendental where the
    /// kernel has one. Drives the fork decision of the cost-hinted
    /// [`tsvr_par`] entry points; only the spawn heuristic depends on
    /// it, never a result.
    pub fn est_eval_ns(&self, dim: usize) -> u64 {
        let d = dim as u64;
        match *self {
            Kernel::Linear => d + 2,
            _ => d + 20,
        }
    }

    /// Writes `K(u, block.row(j))` for every row `j` into `out`
    /// (`out.len() == block.len()`). RBF and Laplacian run as a fused
    /// distance pass followed by one `exp` pass over the whole buffer —
    /// the exact operations `eval` applies per element, reordered across
    /// elements only, so each value is bit-identical to the scalar call.
    pub fn eval_block(&self, block: &FeatureBlock, u: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), block.len());
        self.eval_rows(block, u, 0, out);
    }

    /// `K(u, block.row(first + k))` into `out[k]` — the one fused pass
    /// behind every batch entry point. The kernel is matched once per
    /// call, not per element: RBF/Laplacian run a distance loop then an
    /// `exp` loop over `out`.
    fn eval_rows(&self, block: &FeatureBlock, u: &[f64], first: usize, out: &mut [f64]) {
        let rows = (first..first + out.len()).map(|j| block.row(j));
        match *self {
            Kernel::Rbf { gamma } => {
                for (o, v) in out.iter_mut().zip(rows) {
                    *o = vecops::sq_dist(u, v);
                }
                for o in out.iter_mut() {
                    *o = (-gamma * *o).exp();
                }
            }
            Kernel::Laplacian { sigma } => {
                for (o, v) in out.iter_mut().zip(rows) {
                    *o = vecops::sq_dist(u, v);
                }
                // `vecops::dist` is `sq_dist(..).sqrt()`, so the split
                // pass applies the same sqrt-then-exp per element.
                for o in out.iter_mut() {
                    *o = (-o.sqrt() / sigma).exp();
                }
            }
            _ => {
                for (o, v) in out.iter_mut().zip(rows) {
                    *o = self.eval(u, v);
                }
            }
        }
    }

    /// [`gram_block`](Self::gram_block) over nested rows.
    ///
    /// # Panics
    /// If the rows are ragged. Trainers validate their input first
    /// ([`crate::OneClassSvm::fit`] returns
    /// [`SvmError::DimensionMismatch`]); callers holding unvalidated
    /// rows pack them with [`FeatureBlock::from_rows`] themselves.
    pub fn gram(&self, data: &[Vec<f64>]) -> Vec<f64> {
        self.gram_block(&packed(data))
    }

    /// Precomputes the full Gram matrix of a block's rows (row-major,
    /// `n x n`). The block is contiguous, so the distance loops run
    /// cache-linearly. Upper-triangle rows are evaluated in parallel on
    /// the [`tsvr_par`] runtime and mirrored sequentially; every entry
    /// is the same `eval(i, j)` the sequential double loop computes, so
    /// the matrix is bit-identical regardless of the thread count.
    pub fn gram_block(&self, block: &FeatureBlock) -> Vec<f64> {
        // Anchor rows per parallel task. Batching rows amortizes the
        // one scratch allocation per task — per-row tasks spent ~10%
        // of small-matrix gram time in the allocator.
        const ROW_CHUNK: usize = 8;
        let n = block.len();
        tsvr_obs::counter!("svm.kernel.evals").add((n * (n + 1) / 2) as u64);
        let nchunks = n.div_ceil(ROW_CHUNK);
        let span = |c: usize| (c * ROW_CHUNK, (c * ROW_CHUNK + ROW_CHUNK).min(n));
        // Chunk c holds rows lo..hi concatenated; row i is K(i, j) for
        // j in i..n. Fork hint: the average task is ROW_CHUNK half-rows.
        let est = (ROW_CHUNK as u64) * (n as u64 / 2 + 1) * self.est_eval_ns(block.dim());
        let chunks: Vec<Vec<f64>> = tsvr_par::par_map_index_est(nchunks, est, |c| {
            let (lo, hi) = span(c);
            let total: usize = (lo..hi).map(|i| n - i).sum();
            let mut buf = vec![0.0; total];
            let mut off = 0;
            for i in lo..hi {
                let len = n - i;
                self.eval_rows(block, block.row(i), i, &mut buf[off..off + len]);
                off += len;
            }
            buf
        });
        let mut g = vec![0.0; n * n];
        for (c, buf) in chunks.iter().enumerate() {
            let (lo, hi) = span(c);
            let mut off = 0;
            for i in lo..hi {
                for (k, &v) in buf[off..off + (n - i)].iter().enumerate() {
                    let j = i + k;
                    g[i * n + j] = v;
                    g[j * n + i] = v;
                }
                off += n - i;
            }
        }
        g
    }

    /// [`gram_extend_block`](Self::gram_extend_block) over nested rows;
    /// panics on ragged rows like [`gram`](Self::gram).
    pub fn gram_extend(&self, data: &[Vec<f64>], old: &[f64], old_n: usize) -> Vec<f64> {
        self.gram_extend_block(&packed(data), old, old_n)
    }

    /// Grows a Gram matrix incrementally: `old` must be this kernel's
    /// `old_n × old_n` Gram over the block's first `old_n` rows; the
    /// result is the full `n × n` Gram over the block, computing only
    /// the entries that involve a new row (`j >= old_n`) and copying the
    /// rest. New entries use the same per-element arithmetic as
    /// [`gram_block`](Self::gram_block) (`K(u, v)` and `K(v, u)` are
    /// bit-identical for every kernel here: `x·y`, `(x−y)²` and `|x−y|`
    /// are all IEEE-commutative), so the result is bit-identical to a
    /// full recomputation — including NaN payloads, which flow through
    /// the same operations either way. A mismatched `old` shape falls
    /// back to the full computation.
    pub fn gram_extend_block(&self, block: &FeatureBlock, old: &[f64], old_n: usize) -> Vec<f64> {
        let n = block.len();
        if old_n > n || old.len() != old_n * old_n {
            return self.gram_block(block);
        }
        let new_pairs = n * (n + 1) / 2 - old_n * (old_n + 1) / 2;
        tsvr_obs::counter!("svm.kernel.evals").add(new_pairs as u64);
        let mut g = vec![0.0; n * n];
        for i in 0..old_n {
            g[i * n..i * n + old_n].copy_from_slice(&old[i * old_n..(i + 1) * old_n]);
        }
        // One task per new row j, holding K(j, 0..=j).
        let est = (n as u64 / 2 + 1) * self.est_eval_ns(block.dim());
        let rows: Vec<Vec<f64>> = tsvr_par::par_map_index_est(n - old_n, est, |k| {
            let j = old_n + k;
            let mut row = vec![0.0; j + 1];
            self.eval_rows(block, block.row(j), 0, &mut row);
            row
        });
        for (k, row) in rows.iter().enumerate() {
            let j = old_n + k;
            for (i, &v) in row.iter().enumerate() {
                g[j * n + i] = v;
                g[i * n + j] = v;
            }
        }
        g
    }
}

/// Packs nested rows for the infallible `gram` entry points.
fn packed(data: &[Vec<f64>]) -> FeatureBlock {
    FeatureBlock::from_rows(data).expect("kernel rows share one dimensionality")
}

#[cfg(test)]
mod tests {
    use super::*;

    const U: [f64; 3] = [1.0, 2.0, 3.0];
    const V: [f64; 3] = [0.0, 2.0, 4.0];

    #[test]
    fn linear_is_dot() {
        assert_eq!(Kernel::Linear.eval(&U, &V), 16.0);
    }

    #[test]
    fn rbf_properties() {
        let k = Kernel::Rbf { gamma: 0.5 };
        // K(x,x) = 1.
        assert!((k.eval(&U, &U) - 1.0).abs() < 1e-12);
        // Symmetric, in (0,1], decreasing with distance.
        assert_eq!(k.eval(&U, &V), k.eval(&V, &U));
        let near = k.eval(&U, &[1.1, 2.0, 3.0]);
        let far = k.eval(&U, &[5.0, 2.0, 3.0]);
        assert!(near > far);
        assert!(far > 0.0 && near <= 1.0);
    }

    #[test]
    fn rbf_sigma_conversion() {
        let k = Kernel::rbf_sigma(2.0).unwrap();
        let Kernel::Rbf { gamma } = k else { panic!() };
        assert!((gamma - 1.0 / 8.0).abs() < 1e-12);
        assert!(Kernel::rbf_sigma(0.0).is_err());
        assert!(Kernel::rbf_sigma(-1.0).is_err());
        assert!(Kernel::rbf_sigma(f64::NAN).is_err());
    }

    #[test]
    fn laplacian_properties() {
        let k = Kernel::Laplacian { sigma: 1.0 };
        assert!((k.eval(&U, &U) - 1.0).abs() < 1e-12);
        let d = tsvr_linalg::vecops::dist(&U, &V);
        assert!((k.eval(&U, &V) - (-d).exp()).abs() < 1e-12);
    }

    #[test]
    fn polynomial_known_value() {
        let k = Kernel::Polynomial {
            gamma: 1.0,
            coef0: 1.0,
            degree: 2,
        };
        assert_eq!(k.eval(&U, &V), 289.0); // (16+1)^2
    }

    #[test]
    fn sigmoid_bounded() {
        let k = Kernel::Sigmoid {
            gamma: 0.1,
            coef0: 0.0,
        };
        let v = k.eval(&U, &V);
        assert!((-1.0..=1.0).contains(&v));
    }

    #[test]
    fn validate_rejects_bad_params() {
        assert!(Kernel::Rbf { gamma: -1.0 }.validate().is_err());
        assert!(Kernel::Rbf {
            gamma: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(Kernel::Laplacian { sigma: 0.0 }.validate().is_err());
        assert!(Kernel::Polynomial {
            gamma: 1.0,
            coef0: 0.0,
            degree: 0
        }
        .validate()
        .is_err());
        assert!(Kernel::Linear.validate().is_ok());
        assert!(Kernel::Rbf { gamma: 0.5 }.validate().is_ok());
    }

    /// Deterministic pseudo-random vectors, with NaN/∞ planted when
    /// `poison` is set — the batch paths must carry them bit-exactly.
    fn random_rows(n: usize, dim: usize, salt: u64, poison: bool) -> Vec<Vec<f64>> {
        let mut state = salt.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| {
                        if poison && i % 5 == 3 && d == i % dim {
                            f64::NAN
                        } else {
                            next() * 3.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn all_kernels() -> Vec<Kernel> {
        vec![
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.7 },
            Kernel::Laplacian { sigma: 1.3 },
            Kernel::Polynomial {
                gamma: 0.5,
                coef0: 1.0,
                degree: 3,
            },
            Kernel::Sigmoid {
                gamma: 0.2,
                coef0: 0.1,
            },
        ]
    }

    #[test]
    fn gram_is_bit_identical_to_scalar_eval() {
        for poison in [false, true] {
            let data = random_rows(17, 5, 42, poison);
            for k in all_kernels() {
                let g = k.gram(&data);
                for i in 0..17 {
                    for j in i..17 {
                        let expected = k.eval(&data[i], &data[j]);
                        assert_eq!(
                            g[i * 17 + j].to_bits(),
                            expected.to_bits(),
                            "{k:?} entry ({i},{j}) poison={poison}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gram_extend_matches_full_recompute() {
        for poison in [false, true] {
            let data = random_rows(23, 4, 7, poison);
            for k in all_kernels() {
                // Grow the matrix in several steps, as the retraining
                // loop does, and compare against from-scratch at each.
                let mut g = k.gram(&data[..5]);
                for &upto in &[9, 14, 23] {
                    let old_n = (g.len() as f64).sqrt() as usize;
                    g = k.gram_extend(&data[..upto], &g, old_n);
                    let full = k.gram(&data[..upto]);
                    assert_eq!(g.len(), full.len());
                    for (a, b) in g.iter().zip(&full) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{k:?} poison={poison}");
                    }
                }
            }
        }
    }

    #[test]
    fn gram_extend_rejects_mismatched_old_shape() {
        let data = random_rows(6, 3, 9, false);
        let k = Kernel::Rbf { gamma: 0.5 };
        // Wrong length and old_n > n both fall back to the full gram.
        let full = k.gram(&data);
        assert_eq!(k.gram_extend(&data, &[0.0; 5], 2), full);
        assert_eq!(k.gram_extend(&data, &vec![0.0; 49], 7), full);
    }

    #[test]
    fn eval_block_matches_scalar_eval() {
        let data = random_rows(11, 6, 3, true);
        let block = crate::block::FeatureBlock::from_rows(&data).unwrap();
        let probe = &data[4];
        for k in all_kernels() {
            let mut out = vec![0.0; data.len()];
            k.eval_block(&block, probe, &mut out);
            for (j, o) in out.iter().enumerate() {
                assert_eq!(o.to_bits(), k.eval(probe, &data[j]).to_bits(), "{k:?} row {j}");
            }
        }
    }

    #[test]
    fn gram_matrix_symmetric_unit_diagonal() {
        let data = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0]];
        let k = Kernel::Rbf { gamma: 0.3 };
        let g = k.gram(&data);
        for i in 0..3 {
            assert!((g[i * 3 + i] - 1.0).abs() < 1e-12);
            for j in 0..3 {
                assert_eq!(g[i * 3 + j], g[j * 3 + i]);
            }
        }
    }
}
