//! Flat, row-major feature storage for the kernel hot paths.
//!
//! The pipeline hands feature rows around as `Vec<Vec<f64>>` — one heap
//! allocation per row, scattered across the heap in insertion order.
//! Pairwise-distance loops (Gram construction, batch decision values)
//! touch every row once per anchor, so the scattered layout turns an
//! arithmetic-bound loop into a pointer-chasing one. [`FeatureBlock`]
//! packs the same rows into one contiguous buffer so those loops stream
//! cache lines linearly; the per-element arithmetic is untouched, which
//! keeps every kernel value bit-identical to the nested-`Vec` path.

use crate::SvmError;

/// A dense `n × dim` matrix of feature rows in one contiguous,
/// row-major allocation.
#[derive(Debug, Clone, Default)]
pub struct FeatureBlock {
    data: Vec<f64>,
    dim: usize,
    n: usize,
}

impl FeatureBlock {
    /// Packs `rows` into a block. Every row must share one
    /// dimensionality; a ragged input is a [`SvmError::DimensionMismatch`].
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<FeatureBlock, SvmError> {
        let n = rows.len();
        let dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(n * dim);
        for r in rows {
            if r.len() != dim {
                return Err(SvmError::DimensionMismatch {
                    expected: dim,
                    got: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(FeatureBlock { data, dim, n })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th feature row.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_rows_contiguously() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let b = FeatureBlock::from_rows(&rows).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.dim(), 2);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(b.row(i), r.as_slice());
        }
    }

    #[test]
    fn empty_input_is_an_empty_block() {
        let b = FeatureBlock::from_rows(&[]).unwrap();
        assert!(b.is_empty());
        assert_eq!(b.dim(), 0);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            FeatureBlock::from_rows(&rows),
            Err(SvmError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        // Every trainer reports the same typed error instead of packing.
        let svm = crate::OneClassSvm::new(crate::Kernel::Rbf { gamma: 0.5 }, 0.5);
        let mismatch = |r: Result<crate::OneClassModel, SvmError>| {
            matches!(
                r,
                Err(SvmError::DimensionMismatch {
                    expected: 2,
                    got: 1
                })
            )
        };
        assert!(mismatch(svm.fit(&rows)));
        assert!(mismatch(svm.fit_with_gram(&rows, &[0.0; 4])));
    }

    #[test]
    fn nan_payloads_survive_packing() {
        let rows = vec![vec![f64::NAN, 1.0], vec![2.0, f64::NEG_INFINITY]];
        let b = FeatureBlock::from_rows(&rows).unwrap();
        assert_eq!(b.row(0)[0].to_bits(), f64::NAN.to_bits());
        assert_eq!(b.row(1)[1], f64::NEG_INFINITY);
    }
}
