//! Property-based tests for the numerical kernels, driven by the
//! in-tree seeded harness (`tsvr_sim::check`).

use tsvr_linalg::decomp::{solve, solve_least_squares, Cholesky, Lu};
use tsvr_linalg::eigen::symmetric_eigen;
use tsvr_linalg::polyfit;
use tsvr_linalg::stats::{covariance_matrix, MinMaxScaler};
use tsvr_linalg::{vecops, Matrix};
use tsvr_sim::check::{self, vec_f64};
use tsvr_sim::Pcg32;

/// A well-conditioned square matrix: random entries plus a large
/// diagonal boost (diagonally dominant).
fn dominant_matrix(rng: &mut Pcg32, n: usize) -> Matrix {
    let data = vec_f64(rng, n * n, -1.0, 1.0);
    let mut m = Matrix::from_vec(n, n, data).unwrap();
    for i in 0..n {
        m[(i, i)] += n as f64 + 1.0;
    }
    m
}

fn vector(rng: &mut Pcg32, n: usize) -> Vec<f64> {
    vec_f64(rng, n, -10.0, 10.0)
}

#[test]
fn lu_solve_residual_small() {
    check::cases(256, |case, rng| {
        let a = dominant_matrix(rng, 4);
        let b = vector(rng, 4);
        let x = solve(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8, "case {case}: {got} vs {want}");
        }
    });
}

#[test]
fn lu_inverse_roundtrip() {
    check::cases(256, |case, rng| {
        let a = dominant_matrix(rng, 3);
        let inv = Lu::factorize(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(
            prod.approx_eq(&Matrix::identity(3), 1e-8),
            "case {case}: A * A^-1 != I"
        );
    });
}

#[test]
fn qr_least_squares_residual_orthogonal() {
    check::cases(256, |case, rng| {
        let c0 = vector(rng, 6);
        let c1 = vector(rng, 6);
        let b = vector(rng, 6);
        // A 6x3 design with an intercept column keeps rank issues rare;
        // rank-deficient draws just skip the check.
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![1.0, c0[i], c1[i]]).collect();
        let a = Matrix::from_rows(&rows).unwrap();
        if let Ok(x) = solve_least_squares(&a, &b) {
            let ax = a.matvec(&x).unwrap();
            let r: Vec<f64> = b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
            let atr = a.transpose().matvec(&r).unwrap();
            let scale = 1.0 + a.max_abs() * vecops::norm2(&b);
            for v in atr {
                assert!(v.abs() < 1e-6 * scale, "case {case}: A^T r = {v}");
            }
        }
    });
}

#[test]
fn cholesky_matches_lu_on_spd() {
    check::cases(256, |case, rng| {
        let a = dominant_matrix(rng, 4);
        let b = vector(rng, 4);
        // Make SPD: S = A A^T + I (dominant A keeps it well conditioned).
        let s = a
            .matmul(&a.transpose())
            .unwrap()
            .add(&Matrix::identity(4))
            .unwrap();
        let x1 = Cholesky::factorize(&s).unwrap().solve(&b).unwrap();
        let x2 = solve(&s, &b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-6, "case {case}: {u} vs {v}");
        }
    });
}

#[test]
fn eigen_reconstructs_symmetric() {
    check::cases(128, |case, rng| {
        let a = dominant_matrix(rng, 4);
        let s = a.matmul(&a.transpose()).unwrap();
        let e = symmetric_eigen(&s).unwrap();
        // Eigenvalues sorted descending.
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "case {case}: not sorted");
        }
        // Orthonormal vectors.
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        assert!(
            vtv.approx_eq(&Matrix::identity(4), 1e-7),
            "case {case}: V^T V != I"
        );
        // Reconstruction.
        let mut d = Matrix::zeros(4, 4);
        for i in 0..4 {
            d[(i, i)] = e.values[i];
        }
        let recon = e
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!(
            recon.approx_eq(&s, 1e-6 * (1.0 + s.max_abs())),
            "case {case}: V D V^T != S"
        );
    });
}

#[test]
fn polyfit_recovers_exact_polynomials() {
    check::cases(256, |case, rng| {
        let n_coeffs = check::len_in(rng, 1, 5);
        let coeffs = vec_f64(rng, n_coeffs, -2.0, 2.0);
        let n_extra = rng.uniform_usize(10);
        let truth = polyfit::Polynomial::new(coeffs.clone());
        let degree = coeffs.len() - 1;
        let n = degree + 1 + n_extra;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let p = polyfit::fit(&xs, &ys, degree).unwrap();
        for &x in &xs {
            let scale = 1.0 + truth.eval(x).abs();
            assert!(
                (p.eval(x) - truth.eval(x)).abs() < 1e-6 * scale,
                "case {case}: mismatch at x = {x}"
            );
        }
    });
}

#[test]
fn polyfit_derivative_matches_finite_difference() {
    check::cases(256, |case, rng| {
        let n_coeffs = check::len_in(rng, 2, 5);
        let coeffs = vec_f64(rng, n_coeffs, -2.0, 2.0);
        let x = rng.uniform(-3.0, 3.0);
        let p = polyfit::Polynomial::new(coeffs);
        let d = p.derivative();
        let h = 1e-6;
        let fd = (p.eval(x + h) - p.eval(x - h)) / (2.0 * h);
        assert!(
            (d.eval(x) - fd).abs() < 1e-4 * (1.0 + fd.abs()),
            "case {case}: derivative mismatch at x = {x}"
        );
    });
}

#[test]
fn covariance_diagonal_nonnegative() {
    check::cases(256, |case, rng| {
        let n_rows = check::len_in(rng, 2, 20);
        let rows: Vec<Vec<f64>> = (0..n_rows).map(|_| vector(rng, 3)).collect();
        let cov = covariance_matrix(&rows).unwrap();
        for i in 0..3 {
            assert!(cov[(i, i)] >= -1e-12, "case {case}: negative variance");
        }
        // Symmetry.
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (cov[(i, j)] - cov[(j, i)]).abs() < 1e-12,
                    "case {case}: not symmetric"
                );
            }
        }
    });
}

#[test]
fn minmax_transform_in_unit_box() {
    check::cases(256, |case, rng| {
        let n_rows = check::len_in(rng, 1, 20);
        let rows: Vec<Vec<f64>> = (0..n_rows).map(|_| vector(rng, 3)).collect();
        let probe = vector(rng, 3);
        let s = MinMaxScaler::fit(&rows).unwrap();
        for v in s.transform(&probe) {
            assert!((0.0..=1.0).contains(&v), "case {case}: probe out of box");
        }
        for r in &rows {
            for v in s.transform(r) {
                assert!((0.0..=1.0).contains(&v), "case {case}: row out of box");
            }
        }
    });
}

#[test]
fn matmul_associative() {
    check::cases(128, |case, rng| {
        let a = dominant_matrix(rng, 3);
        let b = dominant_matrix(rng, 3);
        let c = dominant_matrix(rng, 3);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(
            left.approx_eq(&right, 1e-6 * (1.0 + left.max_abs())),
            "case {case}: (AB)C != A(BC)"
        );
    });
}

#[test]
fn transpose_reverses_product() {
    check::cases(128, |case, rng| {
        let a = dominant_matrix(rng, 3);
        let b = dominant_matrix(rng, 3);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-9), "case {case}: (AB)^T != B^T A^T");
    });
}

#[test]
fn vecops_triangle_inequality() {
    check::cases(256, |case, rng| {
        let a = vector(rng, 4);
        let b = vector(rng, 4);
        let c = vector(rng, 4);
        let ab = vecops::dist(&a, &b);
        let bc = vecops::dist(&b, &c);
        let ac = vecops::dist(&a, &c);
        assert!(ac <= ab + bc + 1e-9, "case {case}: triangle violated");
    });
}

#[test]
fn vecops_cauchy_schwarz() {
    check::cases(256, |case, rng| {
        let a = vector(rng, 5);
        let b = vector(rng, 5);
        let d = vecops::dot(&a, &b).abs();
        let bound = vecops::norm2(&a) * vecops::norm2(&b);
        assert!(d <= bound + 1e-9, "case {case}: |<a,b>| > |a||b|");
    });
}
