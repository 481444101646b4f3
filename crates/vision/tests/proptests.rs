//! Property-based tests for the vision stack, driven by the in-tree
//! seeded harness (`tsvr_sim::check`).

use tsvr_sim::check;
use tsvr_sim::Pcg32;
use tsvr_vision::blob::extract_blobs;
use tsvr_vision::frame::Mask;
use tsvr_vision::hungarian;

/// Brute-force optimal assignment cost.
fn brute_force(cost: &[Vec<f64>]) -> f64 {
    fn rec(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>) -> f64 {
        if row == cost.len() {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for c in 0..cost[0].len() {
            if !used[c] {
                used[c] = true;
                best = best.min(cost[row][c] + rec(cost, row + 1, used));
                used[c] = false;
            }
        }
        best
    }
    rec(cost, 0, &mut vec![false; cost[0].len()])
}

fn cost_matrix(rng: &mut Pcg32, rows: usize, cols: usize) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| check::vec_f64(rng, cols, 0.0, 100.0))
        .collect()
}

fn random_mask(rng: &mut Pcg32, w: u32, h: u32) -> Mask {
    let bits = check::vec_bool(rng, (w * h) as usize, 0.5);
    let mut mask = Mask::empty(w, h);
    mask.as_mut_slice().copy_from_slice(&bits);
    mask
}

#[test]
fn hungarian_matches_brute_force() {
    check::cases(128, |case, rng| {
        let rows = check::len_in(rng, 1, 5);
        let cols = check::len_in(rng, rows, 6);
        let cost = cost_matrix(rng, rows, cols);
        let assignment = hungarian::assign(&cost);
        let got = hungarian::total_cost(&cost, &assignment);
        let want = brute_force(&cost);
        assert!(
            (got - want).abs() < 1e-9,
            "case {case}: got {got}, optimal {want}"
        );
        // Injective.
        let mut seen = std::collections::HashSet::new();
        for &c in &assignment {
            assert!(seen.insert(c), "case {case}: column reused");
        }
    });
}

#[test]
fn hungarian_invariant_under_row_constant_shift() {
    check::cases(128, |case, rng| {
        let cost = cost_matrix(rng, 3, 4);
        let shift = rng.uniform(0.0, 50.0);
        // Adding a constant to one row must not change the optimal
        // assignment structure (classic LAP invariance).
        let a1 = hungarian::assign(&cost);
        let mut shifted = cost.clone();
        for v in &mut shifted[1] {
            *v += shift;
        }
        let a2 = hungarian::assign(&shifted);
        let c1 = hungarian::total_cost(&cost, &a1);
        let c2 = hungarian::total_cost(&cost, &a2);
        assert!(
            (c1 - c2).abs() < 1e-9,
            "case {case}: assignment cost changed: {c1} vs {c2}"
        );
    });
}

#[test]
fn blobs_partition_the_mask() {
    check::cases(128, |case, rng| {
        let mask = random_mask(rng, 20, 15);
        let blobs = extract_blobs(&mask, 1, None);
        // Total blob area equals the number of set pixels.
        let total: usize = blobs.iter().map(|b| b.area).sum();
        assert_eq!(total, mask.count(), "case {case}");
        for b in &blobs {
            // Centroid inside the MBR; MBR inside the image.
            assert!(b.mbr.contains(b.centroid), "case {case}: centroid outside");
            assert!(
                b.mbr.min.x >= 0.0 && b.mbr.max.x < 20.0,
                "case {case}: MBR x outside image"
            );
            assert!(
                b.mbr.min.y >= 0.0 && b.mbr.max.y < 15.0,
                "case {case}: MBR y outside image"
            );
            // Area can't exceed the MBR box.
            assert!(
                b.area as f64 <= b.width() * b.height() + 1e-9,
                "case {case}: area beyond MBR"
            );
            assert!(
                b.fill_ratio() > 0.0 && b.fill_ratio() <= 1.0,
                "case {case}: fill ratio {}",
                b.fill_ratio()
            );
        }
    });
}

#[test]
fn min_area_only_filters() {
    check::cases(128, |case, rng| {
        let mask = random_mask(rng, 16, 16);
        let min_area = check::len_in(rng, 1, 20);
        let all = extract_blobs(&mask, 1, None);
        let filtered = extract_blobs(&mask, min_area, None);
        // Filtering never invents blobs, and keeps exactly those big enough.
        assert_eq!(
            filtered.len(),
            all.iter().filter(|b| b.area >= min_area).count(),
            "case {case}"
        );
    });
}

#[test]
fn majority_filter_matches_neighborhood_definition() {
    check::cases(128, |case, rng| {
        let mask = random_mask(rng, 12, 12);
        let cleaned = mask.majority_filter(5);
        // Definition check on every pixel: output set iff >= 5 of the
        // 3x3 neighborhood (self included) were set in the input. This
        // both removes isolated noise and fills single-pixel holes.
        for y in 0..12u32 {
            for x in 0..12u32 {
                let mut n = 0;
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let (nx, ny) = (x as i64 + dx, y as i64 + dy);
                        if nx >= 0
                            && ny >= 0
                            && nx < 12
                            && ny < 12
                            && mask.get(nx as u32, ny as u32)
                        {
                            n += 1;
                        }
                    }
                }
                assert_eq!(cleaned.get(x, y), n >= 5, "case {case}: pixel ({x}, {y})");
            }
        }
    });
}
