//! The learner interface and the ranking rule of a retrieval session
//! (paper §5.3, Fig. 6).
//!
//! A session ranks every Video Sequence, shows the top `n` to the user,
//! lets the [`Learner`] update on the labels and re-ranks the whole
//! database with the learner's scores. The round loop itself, and its
//! per-round accuracy report, is `tsvr_core::Session`.

use crate::bag::Bag;

/// A retrieval learner driven by bag-level relevance feedback.
///
/// `Send + Sync` are supertraits so trained learners can live inside
/// a concurrent session manager (`tsvr-serve`) and be shared across
/// scatter-gather query threads (`tsvr-core::multiclip`): every
/// learner here is plain owned data, so the bounds cost implementors
/// nothing.
pub trait Learner: Send + Sync {
    /// Incorporates labeled bags. `feedback` holds `(bag_id, relevant)`
    /// pairs; bags the learner has already seen may repeat.
    fn learn(&mut self, bags: &[Bag], feedback: &[(usize, bool)]);

    /// Scores a bag; higher means more relevant.
    fn score(&self, bag: &Bag) -> f64;

    /// Scores every bag of a database; `result[i]` corresponds to
    /// `bags[i]`. The default is the sequential map; learners whose
    /// scoring is expensive (kernel expansions) override this to batch
    /// the work, with the contract that every returned value is
    /// bit-identical to the matching [`Learner::score`] call.
    fn score_all(&self, bags: &[Bag]) -> Vec<f64> {
        bags.iter().map(|b| self.score(b)).collect()
    }

    /// Display name for reports.
    fn name(&self) -> &'static str;
}

/// Ranks bag ids by descending score; ties and NaNs resolve by bag id so
/// rankings are deterministic.
pub fn rank_by(bags: &[Bag], score: impl FnMut(&Bag) -> f64) -> Vec<usize> {
    let scores: Vec<f64> = bags.iter().map(score).collect();
    rank_scores(bags, &scores)
}

/// Ranks bag ids by precomputed scores (`scores[i]` belongs to
/// `bags[i]`), descending. The comparator is total: NaN sorts with
/// `-inf` (never panics on a corrupt score) and exact ties resolve by
/// bag id, so rankings are deterministic.
pub fn rank_scores(bags: &[Bag], scores: &[f64]) -> Vec<usize> {
    assert_eq!(bags.len(), scores.len(), "one score per bag");
    let mut scored: Vec<(usize, f64)> = bags
        .iter()
        .zip(scores)
        .map(|(b, &s)| (b.id, if s.is_nan() { f64::NEG_INFINITY } else { s }))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.into_iter().map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::Instance;
    use crate::heuristic;

    /// `n_hot` bags carry an accident-like instance, the rest only
    /// quiet traffic.
    fn database(n_bags: usize, n_hot: usize) -> Vec<Bag> {
        (0..n_bags)
            .map(|i| {
                let j = (i as f64 * 0.618).fract() * 0.05;
                let mut instances = vec![Instance::new(
                    (i * 10) as u64,
                    vec![vec![0.02 + j, 0.01, 0.0], vec![0.01, 0.03 + j, 0.01]],
                )];
                if i < n_hot {
                    let hot = vec![vec![0.05, 0.1, 0.02], vec![0.3 + j, 0.8 + j, 0.6]];
                    instances.push(Instance::new((i * 10 + 1) as u64, hot));
                }
                Bag::new(i, instances)
            })
            .collect()
    }

    #[test]
    fn rank_by_orders_descending_deterministically() {
        let bags = database(10, 3);
        let r = rank_by(&bags, heuristic::bag_score);
        assert_eq!(r.len(), 10);
        // Hot bags first.
        assert!(r[0] < 3 && r[1] < 3 && r[2] < 3);
        // Ties (identical quiet bags would tie) resolve by id: ranking
        // is reproducible.
        let r2 = rank_by(&bags, heuristic::bag_score);
        assert_eq!(r, r2);
    }

    #[test]
    fn tied_scores_rank_deterministically_by_id() {
        // All-identical bags: every learner scores them equally.
        let quiet = Instance::new(0, vec![vec![0.1, 0.1, 0.1]]);
        let bags: Vec<Bag> = (0..6).map(|i| Bag::new(i, vec![quiet.clone()])).collect();
        let r = rank_by(&bags, heuristic::bag_score);
        assert_eq!(r, vec![0, 1, 2, 3, 4, 5]);
    }
}
