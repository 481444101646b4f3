//! The initial (feedback-free) query heuristic of §5.3.
//!
//! Before any relevance feedback exists, a bag's relevance is scored by
//! event-specific heuristics: the score of a sampling point is "the
//! square sum of all the three features in the feature vector
//! `α_i = [1/mdist_i, vdiff_i, θ_i]`"; a TS scores as its highest
//! sampling point, and a VS as its highest TS:
//! `S_v = max(S_T1, …, S_Tn)`, `S_Ti = max(S_a1, …, S_an)`.

use crate::bag::{Bag, Instance};

/// Squared-sum score of one sampling point.
///
/// Non-finite features (NaN from a degenerate upstream computation, ∞
/// from an unvalidated `1/mdist`) are skipped rather than propagated:
/// one corrupt feature must not poison the whole ranking, and a point
/// score is always finite.
pub fn point_score(row: &[f64]) -> f64 {
    row.iter().filter(|x| x.is_finite()).map(|x| x * x).sum()
}

/// Score of a trajectory sequence: its best sampling point.
pub fn instance_score(instance: &Instance) -> f64 {
    instance
        .points
        .iter()
        .map(|p| point_score(p))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Score of a video sequence: its best trajectory sequence. Empty bags
/// score `-inf` (they can never be retrieved).
pub fn bag_score(bag: &Bag) -> f64 {
    bag.instances
        .iter()
        .map(instance_score)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Scores every bag; the batch equivalent of [`bag_score`], fanned out
/// over the [`tsvr_par`] runtime (order-preserving, so the result is
/// bit-identical to the sequential map). The per-bag cost hint — a few
/// tens of nanoseconds per feature row, sampled from the first bags —
/// keeps small or sparse databases on the sequential fast path instead
/// of paying the fork-join setup for sub-microsecond work.
pub fn bag_scores(bags: &[Bag]) -> Vec<f64> {
    let rows = bags
        .iter()
        .take(8)
        .map(|b| b.instances.iter().map(|i| i.points.len()).sum::<usize>())
        .max()
        .unwrap_or(0);
    let est = (rows as u64).saturating_mul(40).max(40);
    tsvr_par::par_map_est(bags, est, |_, b| bag_score(b))
}

/// Maps a NaN score to `-inf` so descending rankings (higher = better)
/// stay total under [`f64::total_cmp`] without letting an undefined
/// score win — the workspace-wide NaN→lowest ranking convention.
pub fn nan_to_lowest(score: f64) -> f64 {
    if score.is_nan() {
        f64::NEG_INFINITY
    } else {
        score
    }
}

/// Maps a NaN distance to `+inf` so ascending orderings (lower = better)
/// stay total without letting an undefined distance rank best — the
/// dual of [`nan_to_lowest`] for distance-like keys.
pub fn nan_to_highest(dist: f64) -> f64 {
    if dist.is_nan() {
        f64::INFINITY
    } else {
        dist
    }
}

/// Index of the highest-scoring instance in a bag, if any.
///
/// Comparison uses [`f64::total_cmp`]: even if a score were non-finite
/// the ordering stays total, where `partial_cmp(...).unwrap()` would
/// panic the whole retrieval loop on a single NaN.
pub fn best_instance(bag: &Bag) -> Option<usize> {
    (0..bag.instances.len()).max_by(|&a, &b| {
        instance_score(&bag.instances[a]).total_cmp(&instance_score(&bag.instances[b]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Instance {
        Instance::new(1, vec![vec![0.01, 0.02, 0.0]; 3])
    }

    fn hot() -> Instance {
        Instance::new(
            2,
            vec![
                vec![0.0, 0.0, 0.0],
                vec![0.3, 0.9, 0.8], // accident checkpoint
                vec![0.1, 0.1, 0.0],
            ],
        )
    }

    #[test]
    fn point_score_is_square_sum() {
        assert!((point_score(&[0.3, 0.9, 0.8]) - (0.09 + 0.81 + 0.64)).abs() < 1e-12);
        assert_eq!(point_score(&[]), 0.0);
    }

    #[test]
    fn instance_takes_max_point() {
        assert!((instance_score(&hot()) - 1.54).abs() < 1e-12);
    }

    #[test]
    fn bag_takes_max_instance() {
        let b = Bag::new(0, vec![quiet(), hot()]);
        assert!((bag_score(&b) - 1.54).abs() < 1e-12);
        assert_eq!(best_instance(&b), Some(1));
    }

    #[test]
    fn hot_bag_outranks_quiet_bag() {
        let hot_bag = Bag::new(0, vec![quiet(), hot()]);
        let quiet_bag = Bag::new(1, vec![quiet(), quiet()]);
        assert!(bag_score(&hot_bag) > bag_score(&quiet_bag));
    }

    #[test]
    fn empty_bag_scores_neg_infinity() {
        let b = Bag::new(0, vec![]);
        assert_eq!(bag_score(&b), f64::NEG_INFINITY);
        assert_eq!(best_instance(&b), None);
    }

    #[test]
    fn nan_and_infinite_features_do_not_panic_or_poison() {
        // Regression: a single NaN α-feature used to panic best_instance
        // via partial_cmp(...).unwrap().
        let poisoned = Instance::new(
            7,
            vec![
                vec![f64::NAN, 0.2, 0.1],
                vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN],
            ],
        );
        let s = instance_score(&poisoned);
        assert!(s.is_finite(), "poisoned instance score {s}");
        assert!((point_score(&[f64::NAN, 0.2, 0.1]) - 0.05).abs() < 1e-12);
        assert_eq!(
            point_score(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]),
            0.0
        );

        let b = Bag::new(0, vec![poisoned, hot(), quiet()]);
        assert!(bag_score(&b).is_finite());
        // The hot instance still wins over the corrupt one.
        assert_eq!(best_instance(&b), Some(1));
    }

    #[test]
    fn bag_scores_matches_bag_score() {
        let bags = vec![
            Bag::new(0, vec![quiet(), hot()]),
            Bag::new(1, vec![quiet()]),
            Bag::new(2, vec![]),
        ];
        let batch = bag_scores(&bags);
        let seq: Vec<f64> = bags.iter().map(bag_score).collect();
        assert_eq!(batch, seq);
    }
}
