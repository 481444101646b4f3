//! Property-based tests for the MIL framework invariants, driven by the
//! in-tree seeded harness (`tsvr_sim::check`).

use tsvr_mil::session::{rank_by, rank_scores};
use tsvr_mil::{heuristic, metrics, Bag, GroundTruthOracle, Instance, Oracle};
use tsvr_sim::check;
use tsvr_sim::Pcg32;

/// A database of bags with 1..4 instances of 3-D rows.
fn bag_db(rng: &mut Pcg32) -> Vec<Bag> {
    let n_bags = check::len_in(rng, 1, 20);
    (0..n_bags)
        .map(|id| {
            let n_instances = check::len_in(rng, 1, 4);
            let instances = (0..n_instances)
                .map(|k| {
                    let n_rows = check::len_in(rng, 1, 4);
                    let rows = (0..n_rows)
                        .map(|_| check::vec_f64(rng, 3, 0.0, 1.0))
                        .collect();
                    Instance::new(k as u64, rows)
                })
                .collect();
            Bag::new(id, instances)
        })
        .collect()
}

#[test]
fn rank_by_is_a_permutation() {
    check::cases(128, |case, rng| {
        let bags = bag_db(rng);
        let ranking = rank_by(&bags, heuristic::bag_score);
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..bags.len()).collect::<Vec<_>>(), "case {case}");
        // Scores are non-increasing along the ranking.
        for w in ranking.windows(2) {
            assert!(
                heuristic::bag_score(&bags[w[0]]) >= heuristic::bag_score(&bags[w[1]])
                    || w[0] < w[1], // equal scores tie-break by id
                "case {case}: ranking not sorted by score"
            );
        }
    });
}

#[test]
fn heuristic_bag_score_equals_best_instance() {
    check::cases(128, |case, rng| {
        let bags = bag_db(rng);
        for bag in &bags {
            let s = heuristic::bag_score(bag);
            let best = bag
                .instances
                .iter()
                .map(heuristic::instance_score)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((s - best).abs() < 1e-12, "case {case}: {s} vs best {best}");
            // Adding a quiet instance never changes the score downward.
            let mut bigger = bag.clone();
            bigger
                .instances
                .push(Instance::new(99, vec![vec![0.0, 0.0, 0.0]]));
            assert!(
                heuristic::bag_score(&bigger) >= s,
                "case {case}: score dropped"
            );
        }
    });
}

#[test]
fn instance_score_monotone_under_scaling() {
    check::cases(128, |case, rng| {
        let n_rows = check::len_in(rng, 1, 5);
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| check::vec_f64(rng, 3, 0.0, 1.0))
            .collect();
        let k = rng.uniform(1.0, 3.0);
        let a = Instance::new(0, rows.clone());
        let scaled = Instance::new(
            0,
            rows.iter()
                .map(|r| r.iter().map(|x| x * k).collect())
                .collect(),
        );
        assert!(
            heuristic::instance_score(&scaled) >= heuristic::instance_score(&a) - 1e-12,
            "case {case}: scaling decreased score"
        );
    });
}

/// Bags whose rows are randomly poisoned with NaN/±∞ — the shape of
/// upstream feature corruption (unvalidated `1/mdist`, degenerate
/// angles).
fn poisoned_bag_db(rng: &mut Pcg32) -> Vec<Bag> {
    let n_bags = check::len_in(rng, 1, 16);
    (0..n_bags)
        .map(|id| {
            let n_instances = check::len_in(rng, 1, 4);
            let instances = (0..n_instances)
                .map(|k| {
                    let n_rows = check::len_in(rng, 1, 4);
                    let rows = (0..n_rows)
                        .map(|_| {
                            let mut row = check::vec_f64(rng, 3, -2.0, 2.0);
                            for x in row.iter_mut() {
                                if rng.chance(0.2) {
                                    *x = match rng.uniform_usize(3) {
                                        0 => f64::NAN,
                                        1 => f64::INFINITY,
                                        _ => f64::NEG_INFINITY,
                                    };
                                }
                            }
                            row
                        })
                        .collect();
                    Instance::new(k as u64, rows)
                })
                .collect();
            Bag::new(id, instances)
        })
        .collect()
}

#[test]
fn adversarial_features_keep_scores_finite_and_ranking_total() {
    check::cases(128, |case, rng| {
        let bags = poisoned_bag_db(rng);
        for bag in &bags {
            // Regression (NaN-safe ranking): scoring skips non-finite
            // features instead of propagating them, and best_instance
            // uses a total comparator instead of panicking.
            let s = heuristic::bag_score(bag);
            assert!(s.is_finite(), "case {case}: bag score {s}");
            assert!(
                heuristic::best_instance(bag).is_some(),
                "case {case}: no best instance in non-empty bag"
            );
        }
        // The batch scorer is bit-identical to the per-bag scorer.
        let batch = heuristic::bag_scores(&bags);
        for (b, bag) in batch.iter().zip(&bags) {
            assert_eq!(
                b.to_bits(),
                heuristic::bag_score(bag).to_bits(),
                "case {case}: batch/single mismatch"
            );
        }
        // The ranking is a permutation even on poisoned scores.
        let ranking = rank_by(&bags, heuristic::bag_score);
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..bags.len()).collect::<Vec<_>>(), "case {case}");
        // rank_scores stays total when fed raw NaN/±∞ scores directly.
        let raw: Vec<f64> = (0..bags.len())
            .map(|_| match rng.uniform_usize(5) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.uniform(-1.0, 1.0),
            })
            .collect();
        let ranking = rank_scores(&bags, &raw);
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..bags.len()).collect::<Vec<_>>(), "case {case}");
    });
}

#[test]
fn accuracy_bounds_and_consistency() {
    check::cases(128, |case, rng| {
        let n_labels = check::len_in(rng, 1, 40);
        let labels = check::vec_bool(rng, n_labels, 0.5);
        let n = check::len_in(rng, 1, 25);
        let ranking: Vec<usize> = (0..labels.len()).collect();
        let acc = metrics::accuracy_at(&ranking, &labels, n);
        assert!((0.0..=1.0).contains(&acc), "case {case}: acc {acc}");
        assert!(
            acc <= metrics::accuracy_ceiling(&labels, n) + 1e-12,
            "case {case}: above ceiling"
        );
        let recall = metrics::recall_at(&ranking, &labels, n);
        assert!(
            (0.0..=1.0).contains(&recall),
            "case {case}: recall {recall}"
        );
        // Full-length recall is 1 when any relevant exist.
        let full = metrics::recall_at(&ranking, &labels, labels.len());
        if labels.iter().any(|&l| l) {
            assert!(
                (full - 1.0).abs() < 1e-12,
                "case {case}: full recall {full}"
            );
        } else {
            assert_eq!(full, 0.0, "case {case}");
        }
    });
}

#[test]
fn average_precision_is_maximal_for_perfect_ranking() {
    check::cases(128, |case, rng| {
        let n_labels = check::len_in(rng, 1, 30);
        let labels = check::vec_bool(rng, n_labels, 0.5);
        if !labels.iter().any(|&l| l) {
            return; // degenerate draw: AP undefined without positives
        }
        // Perfect ranking: all relevant first.
        let mut perfect: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
        perfect.extend((0..labels.len()).filter(|&i| !labels[i]));
        let ap_perfect = metrics::average_precision(&perfect, &labels);
        assert!(
            (ap_perfect - 1.0).abs() < 1e-12,
            "case {case}: perfect AP {ap_perfect}"
        );
        // Any other ranking scores no higher.
        let identity: Vec<usize> = (0..labels.len()).collect();
        assert!(
            metrics::average_precision(&identity, &labels) <= ap_perfect + 1e-12,
            "case {case}: identity beats perfect"
        );
    });
}

#[test]
fn oracle_counts_match_labels() {
    check::cases(128, |case, rng| {
        let n_labels = rng.uniform_usize(50);
        let labels = check::vec_bool(rng, n_labels, 0.5);
        let o = GroundTruthOracle::new(labels.clone());
        assert_eq!(
            o.relevant_count(),
            labels.iter().filter(|&&l| l).count(),
            "case {case}"
        );
        for (i, &l) in labels.iter().enumerate() {
            assert_eq!(o.label(i), l, "case {case}: label {i}");
        }
    });
}
