//! Property-based tests for feature extraction and windowing, driven by
//! the in-tree seeded harness (`tsvr_sim::check`).

use tsvr_sim::check;
use tsvr_sim::{Aabb, Pcg32, Vec2};
use tsvr_trajectory::checkpoint::{build_series, Alpha, FeatureConfig};
use tsvr_trajectory::dtw::{dtw_distance, normalize_shape, resample, shape_distance};
use tsvr_trajectory::{Dataset, WindowConfig};
use tsvr_vision::{Track, TrackPoint};

fn track_from(id: u64, start: u32, steps: &[(f64, f64)]) -> Track {
    let mut pos = Vec2::new(50.0, 100.0);
    let mut points = Vec::new();
    for (i, &(dx, dy)) in steps.iter().enumerate() {
        pos = pos + Vec2::new(dx, dy);
        points.push(TrackPoint {
            frame: start + i as u32,
            centroid: pos,
            mbr: Aabb::from_corners(pos, pos),
            coasted: false,
        });
    }
    Track {
        id,
        points,
        stats: Default::default(),
    }
}

fn steps(rng: &mut Pcg32, n: usize, dx: (f64, f64), dy: (f64, f64)) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| (rng.uniform(dx.0, dx.1), rng.uniform(dy.0, dy.1)))
        .collect()
}

fn path(rng: &mut Pcg32, n: usize, lo: f64, hi: f64) -> Vec<Vec2> {
    (0..n)
        .map(|_| Vec2::new(rng.uniform(lo, hi), rng.uniform(lo, hi)))
        .collect()
}

#[test]
fn alphas_are_always_finite_and_nonnegative() {
    check::cases(48, |case, rng| {
        let n = check::len_in(rng, 20, 120);
        let s = steps(rng, n, (-4.0, 6.0), (-2.0, 2.0));
        let start = rng.uniform_u32(20);
        let t = track_from(1, start, &s);
        let series = build_series(&[t], &FeatureConfig::default());
        for ts in &series {
            for a in &ts.alphas {
                assert!(
                    a.inv_mdist.is_finite() && a.inv_mdist >= 0.0,
                    "case {case}: inv_mdist {}",
                    a.inv_mdist
                );
                assert!(
                    a.vdiff.is_finite() && a.vdiff >= 0.0,
                    "case {case}: vdiff {}",
                    a.vdiff
                );
                assert!(a.theta.is_finite(), "case {case}: theta not finite");
                assert!(
                    (0.0..=std::f64::consts::PI).contains(&a.theta),
                    "case {case}: theta {}",
                    a.theta
                );
            }
        }
    });
}

#[test]
fn normalized_alpha_in_unit_cube() {
    check::cases(128, |case, rng| {
        let a = Alpha {
            inv_mdist: rng.uniform(0.0, 10.0),
            vdiff: rng.uniform(0.0, 50.0),
            theta: rng.uniform(0.0, 4.0),
        };
        let n = a.normalized(&FeatureConfig::default());
        for v in n {
            assert!((0.0..=1.0).contains(&v), "case {case}: {v} out of cube");
        }
    });
}

#[test]
fn mdist_is_symmetric_between_two_tracks() {
    check::cases(48, |case, rng| {
        let n = check::len_in(rng, 30, 60);
        let steps_a = steps(rng, n, (0.5, 5.0), (-1.0, 1.0));
        let offset_y = rng.uniform(5.0, 60.0);
        let a = track_from(1, 0, &steps_a);
        let b = {
            let mut t = track_from(2, 0, &steps_a);
            for p in &mut t.points {
                p.centroid.y += offset_y;
            }
            t
        };
        let series = build_series(&[a, b], &FeatureConfig::default());
        assert_eq!(series.len(), 2, "case {case}");
        for (x, y) in series[0].alphas.iter().zip(&series[1].alphas) {
            assert!(
                (x.inv_mdist - y.inv_mdist).abs() < 1e-12,
                "case {case}: mdist asymmetric"
            );
        }
    });
}

#[test]
fn windows_have_exact_size_and_full_coverage() {
    check::cases(48, |case, rng| {
        let len = 30 + rng.uniform_u32(170);
        let window = check::len_in(rng, 2, 6);
        let s: Vec<(f64, f64)> = (0..len).map(|_| (3.0, 0.0)).collect();
        let t = track_from(1, 0, &s);
        let cfg = WindowConfig {
            window_size: window,
            stride: window,
            features: FeatureConfig::default(),
        };
        let ds = Dataset::build(&[t], cfg);
        for w in &ds.windows {
            for ts in &w.sequences {
                assert_eq!(ts.alphas.len(), window, "case {case}");
                assert_eq!(ts.feature_vector().len(), window * 3, "case {case}");
            }
            // Frame span matches window_size * rate.
            assert_eq!(
                (w.end_frame - w.start_frame + 1) as usize,
                window * 5,
                "case {case}"
            );
        }
        assert_eq!(ds.feature_dim(), window * 3, "case {case}");
    });
}

#[test]
fn stride_one_windows_nest_stride_w_windows() {
    check::cases(32, |case, rng| {
        let len = 60 + rng.uniform_u32(90);
        let s: Vec<(f64, f64)> = (0..len).map(|_| (2.5, 0.0)).collect();
        let t = track_from(1, 0, &s);
        let dense = Dataset::build(
            std::slice::from_ref(&t),
            WindowConfig {
                stride: 1,
                ..WindowConfig::default()
            },
        );
        let sparse = Dataset::build(&[t], WindowConfig::default());
        // Every sparse window start appears among the dense ones.
        let dense_starts: Vec<u64> = dense.windows.iter().map(|w| w.start_frame).collect();
        for w in &sparse.windows {
            assert!(
                dense_starts.contains(&w.start_frame),
                "case {case}: start {} not nested",
                w.start_frame
            );
        }
        assert!(
            dense.window_count() >= sparse.window_count(),
            "case {case}: dense has fewer windows"
        );
    });
}

#[test]
fn dtw_identity_and_symmetry() {
    check::cases(96, |case, rng| {
        let na = check::len_in(rng, 2, 30);
        let a = path(rng, na, -50.0, 50.0);
        let nb = check::len_in(rng, 2, 30);
        let b = path(rng, nb, -50.0, 50.0);
        assert!(dtw_distance(&a, &a) < 1e-9, "case {case}: d(a,a) != 0");
        let d1 = dtw_distance(&a, &b);
        let d2 = dtw_distance(&b, &a);
        assert!((d1 - d2).abs() < 1e-9, "case {case}: not symmetric");
        assert!(d1 >= 0.0, "case {case}: negative distance");
    });
}

#[test]
fn resample_endpoints_and_count() {
    check::cases(96, |case, rng| {
        let n = check::len_in(rng, 2, 20);
        let p = path(rng, n, -100.0, 100.0);
        let k = check::len_in(rng, 2, 40);
        let r = resample(&p, k);
        assert_eq!(r.len(), k, "case {case}");
        assert!(r[0].dist(p[0]) < 1e-6, "case {case}: start moved");
        assert!(
            r[k - 1].dist(*p.last().unwrap()) < 1e-6,
            "case {case}: end moved"
        );
    });
}

#[test]
fn shape_distance_invariant_to_similarity_transform() {
    check::cases(96, |case, rng| {
        let n = check::len_in(rng, 3, 15);
        let a = path(rng, n, -20.0, 20.0);
        // Skip degenerate all-same-point paths.
        let total: f64 = a.windows(2).map(|w| w[0].dist(w[1])).sum();
        if total <= 1.0 {
            return;
        }
        let scale = rng.uniform(0.2, 5.0);
        let tx = rng.uniform(-200.0, 200.0);
        let ty = rng.uniform(-200.0, 200.0);
        let b: Vec<Vec2> = a.iter().map(|&p| p * scale + Vec2::new(tx, ty)).collect();
        let d = shape_distance(&a, &b, 24);
        assert!(d < 1e-6, "case {case}: shape distance {d}");
    });
}

#[test]
fn normalize_shape_unit_length() {
    check::cases(96, |case, rng| {
        let m = check::len_in(rng, 2, 15);
        let p = path(rng, m, -30.0, 30.0);
        let total: f64 = p.windows(2).map(|w| w[0].dist(w[1])).sum();
        if total <= 0.5 {
            return;
        }
        let n = normalize_shape(&p, 16);
        assert!(n[0].dist(Vec2::ZERO) < 1e-9, "case {case}: not at origin");
        let len: f64 = n.windows(2).map(|w| w[0].dist(w[1])).sum();
        assert!(
            (len - 1.0).abs() < 1e-6,
            "case {case}: unit length, got {len}"
        );
    });
}
