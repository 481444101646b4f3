//! The proposed learner: One-class SVM over the trajectory sequences of
//! relevant bags (paper §5.2–5.3).
//!
//! After each feedback round the training set is extended with "the
//! highest scored TSs in the 'relevant' VSs" (§5.3): for every newly
//! labeled relevant Video Sequence, its top-scoring Trajectory Sequence
//! plus any other TS scoring at least `collect_ratio` of the bag's top
//! score (multi-vehicle accidents contribute several genuinely relevant
//! TSs; quiet background traffic scores orders of magnitude lower and is
//! excluded). With `h` relevant VSs contributing `H` collected TSs, at
//! least one TS per relevant VS is genuinely relevant, so the expected
//! fraction of mislabeled ("outlier") TSs in the training set is at most
//! `1 − h/H`; Eq. 9 sets the One-class SVM's outlier parameter to
//!
//! ```text
//! δ = 1 − (h/H + z)
//! ```
//!
//! with a small `z` (0.05 in the paper) absorbing multi-vehicle
//! accidents, where more than one TS per relevant VS is genuine.

use crate::bag::Bag;
use crate::heuristic;
use crate::session::Learner;
use std::collections::HashSet;
use tsvr_svm::{FeatureBlock, Kernel, OneClassModel, OneClassSvm, SvmError};

/// The true median of an ascending-sorted, non-empty slice: the middle
/// element for odd lengths, the mean of the two middle elements for
/// even lengths (not the upper-middle shortcut, which biases γ low on
/// even-sized training sets).
fn true_median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The One-class-SVM MIL learner.
#[derive(Debug, Clone)]
pub struct OcSvmMilLearner {
    /// Kernel for the One-class SVM (paper: RBF).
    pub kernel: Kernel,
    /// When set, an RBF kernel's γ is re-derived from the training set
    /// at each retraining with the median heuristic:
    /// `γ = scale / median(‖x_i − x_j‖²)`. The paper does not report its
    /// kernel width; the median heuristic is the standard way to keep
    /// the kernel matched to the data's scale as the training set grows.
    pub adaptive_gamma: Option<f64>,
    /// The `z` adjustment of Eq. 9 (paper: 0.05).
    pub z: f64,
    /// Bounds applied to δ so the SVM stays well-posed.
    pub delta_clamp: (f64, f64),
    /// A TS joins the training set when its heuristic score reaches
    /// this fraction of its bag's top score (1.0 = strictly the single
    /// best TS per relevant bag).
    pub collect_ratio: f64,
    /// Absolute heuristic-score floor for collection. A relevant bag
    /// whose event vehicle was lost by the tracker contains only quiet
    /// trajectories; collecting its "best" TS would anchor the one-class
    /// ball on the quiet cluster and invert the ranking. Such bags
    /// contribute nothing (and do not count toward `h`).
    pub min_collect_score: f64,
    relevant_bags: usize,
    training: Vec<Vec<f64>>,
    seen: HashSet<usize>,
    model: Option<OneClassModel>,
    /// Every pairwise squared distance among `training[..dists_upto]`
    /// above the degeneracy floor, appended incrementally as training
    /// vectors arrive so the median heuristic never rescans the full
    /// O(H²) set.
    pair_dists: Vec<f64>,
    /// How many training vectors `pair_dists` already covers.
    dists_upto: usize,
    /// When set (the default), the training Gram matrix is memoized
    /// across feedback rounds: each retraining only evaluates the
    /// kernel rows of vectors collected since the previous round.
    gram_memo: bool,
    /// The memoized `gram_n × gram_n` Gram matrix over
    /// `training[..gram_n]`, valid for `gram_kernel`.
    gram_cache: Vec<f64>,
    /// How many training vectors `gram_cache` covers.
    gram_n: usize,
    /// The kernel `gram_cache` was computed with. Any change (e.g. an
    /// adaptive-γ re-derivation) invalidates the cache: kernel values
    /// are kernel-dependent, so stale rows cannot be extended.
    gram_kernel: Option<Kernel>,
}

impl OcSvmMilLearner {
    /// Creates the learner with the paper's defaults (`z = 0.05`).
    pub fn new(kernel: Kernel) -> OcSvmMilLearner {
        OcSvmMilLearner {
            kernel,
            adaptive_gamma: None,
            z: 0.05,
            delta_clamp: (0.02, 0.8),
            collect_ratio: 0.85,
            min_collect_score: 0.08,
            relevant_bags: 0,
            training: Vec::new(),
            seen: HashSet::new(),
            model: None,
            pair_dists: Vec::new(),
            dists_upto: 0,
            gram_memo: true,
            gram_cache: Vec::new(),
            gram_n: 0,
            gram_kernel: None,
        }
    }

    /// Disables the cross-round Gram memoization, forcing every
    /// retraining to recompute the full kernel matrix from scratch.
    /// Exists for verification and benchmarking: the memoized and
    /// from-scratch paths must rank bit-identically.
    pub fn without_gram_memo(mut self) -> Self {
        self.gram_memo = false;
        self
    }

    /// Sets `z` (builder style).
    pub fn with_z(mut self, z: f64) -> Self {
        self.z = z;
        self
    }

    /// Enables the training-set median-heuristic γ (re-derived at each
    /// retraining). The preferred calibration is the *database*-level
    /// median heuristic computed by the retrieval engine before the
    /// session (see `tsvr-core`), which also covers unlabeled data.
    pub fn with_adaptive_gamma(mut self, scale: f64) -> Self {
        self.adaptive_gamma = Some(scale);
        self
    }

    /// Extends the pairwise-distance cache to cover every training
    /// vector: each vector added since the last retraining contributes
    /// its distances to all earlier vectors, exactly the pairs a full
    /// upper-triangle rescan would have produced.
    fn extend_pair_dists(&mut self) {
        for j in self.dists_upto..self.training.len() {
            let b = &self.training[j];
            for a in &self.training[..j] {
                let d = tsvr_linalg::vecops::sq_dist(a, b);
                if d > 1e-12 {
                    self.pair_dists.push(d);
                }
            }
        }
        self.dists_upto = self.training.len();
    }

    /// The kernel the next training run will use. Under the adaptive
    /// median heuristic the training-set pairwise distances come from
    /// the incrementally maintained cache, and the median is the true
    /// one (mean of the two middle elements for even-length lists).
    fn effective_kernel(&mut self) -> Kernel {
        match (self.kernel, self.adaptive_gamma) {
            (Kernel::Rbf { gamma }, Some(scale)) => {
                self.extend_pair_dists();
                if self.pair_dists.is_empty() {
                    return Kernel::Rbf { gamma };
                }
                let mut dists = self.pair_dists.clone();
                dists.sort_by(|a, b| a.total_cmp(b));
                let median = true_median(&dists);
                Kernel::Rbf {
                    gamma: scale / median,
                }
            }
            (k, _) => k,
        }
    }

    /// The current Eq. 9 outlier fraction, if any training data exists.
    pub fn delta(&self) -> Option<f64> {
        if self.training.is_empty() {
            return None;
        }
        let h = self.relevant_bags as f64;
        let cap_h = self.training.len() as f64;
        let raw = 1.0 - (h / cap_h + self.z);
        Some(raw.clamp(self.delta_clamp.0, self.delta_clamp.1))
    }

    /// Cumulative training-set size (the paper's `H`).
    pub fn training_size(&self) -> usize {
        self.training.len()
    }

    /// Cumulative relevant-bag count (the paper's `h`).
    pub fn relevant_bag_count(&self) -> usize {
        self.relevant_bags
    }

    /// The trained model, once at least one relevant bag was observed.
    pub fn model(&self) -> Option<&OneClassModel> {
        self.model.as_ref()
    }

    /// Brings the memoized Gram matrix up to date with `training` for
    /// `kernel`. A kernel change (adaptive γ re-derivation — including
    /// the NaN-γ degenerate case, where `PartialEq` reports inequality)
    /// recomputes from scratch; otherwise only the rows of vectors
    /// collected since the last round are evaluated, exactly the
    /// PR-5 pairwise-distance-cache strategy extended to the full
    /// retraining loop. Cache validity is independent of whether the
    /// subsequent SMO fit converges. Ragged training rows are a
    /// [`SvmError::DimensionMismatch`] and leave the cache untouched.
    fn update_gram(&mut self, kernel: Kernel) -> Result<(), SvmError> {
        let block = FeatureBlock::from_rows(&self.training)?;
        let n = block.len();
        if self.gram_kernel != Some(kernel) {
            self.gram_cache = kernel.gram_block(&block);
            self.gram_kernel = Some(kernel);
        } else if self.gram_n < n {
            self.gram_cache = kernel.gram_extend_block(&block, &self.gram_cache, self.gram_n);
        }
        self.gram_n = n;
        Ok(())
    }
}

impl Learner for OcSvmMilLearner {
    fn learn(&mut self, bags: &[Bag], feedback: &[(usize, bool)]) {
        for &(bag_id, relevant) in feedback {
            if self.seen.contains(&bag_id) {
                continue; // the user re-confirmed an earlier label
            }
            if !relevant {
                // One-class training uses relevant samples only;
                // irrelevant TSs are treated as outliers implicitly —
                // the label is consumed, just as a deliberate no-op.
                self.seen.insert(bag_id);
                continue;
            }
            // A bag id the database does not (yet) hold is unusable
            // feedback, not consumed feedback: the same label must
            // still count in a later round, e.g. after a re-ingest
            // repairs the tracker output. Do NOT mark it seen.
            let Some(bag) = bags.iter().find(|b| b.id == bag_id) else {
                continue;
            };
            // Collect the highest-scored TSs of this relevant VS.
            let scores: Vec<f64> = bag
                .instances
                .iter()
                .map(heuristic::instance_score)
                .collect();
            let top = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if top < self.min_collect_score {
                // Event vehicle untracked: unusable feedback. Leave the
                // bag unseen so the label is honored once the bag's
                // trajectories are repaired.
                continue;
            }
            self.seen.insert(bag_id);
            self.relevant_bags += 1;
            for (inst, &s) in bag.instances.iter().zip(&scores) {
                if s >= (top * self.collect_ratio).max(self.min_collect_score) {
                    self.training.push(inst.concat());
                }
            }
        }

        if let Some(delta) = self.delta() {
            let kernel = self.effective_kernel();
            let svm = OneClassSvm::new(kernel, delta);
            let fitted = if self.gram_memo {
                self.update_gram(kernel)
                    .and_then(|()| svm.fit_with_gram(&self.training, &self.gram_cache))
            } else {
                svm.fit(&self.training)
            };
            match fitted {
                Ok(m) => self.model = Some(m),
                Err(_) => {
                    // Keep the previous model; the session degrades to
                    // the heuristic ranking rather than panicking.
                }
            }
        }
    }

    fn score(&self, bag: &Bag) -> f64 {
        match &self.model {
            Some(m) => bag
                .instances
                .iter()
                .map(|i| m.decision(&i.concat()))
                .fold(f64::NEG_INFINITY, f64::max),
            // Before any relevant feedback, fall back to the initial
            // heuristic (this matches the session protocol: round 0 is
            // always the heuristic).
            None => heuristic::bag_score(bag),
        }
    }

    fn score_all(&self, bags: &[Bag]) -> Vec<f64> {
        match &self.model {
            Some(m) => {
                // Flatten every instance of the database into one batch
                // so the kernel expansions fan out across worker
                // threads; the per-bag MIL max then folds in instance
                // order, keeping the result bit-identical to `score`.
                let xs: Vec<Vec<f64>> = bags
                    .iter()
                    .flat_map(|b| b.instances.iter().map(|i| i.concat()))
                    .collect();
                let decisions = m.decision_batch(&xs);
                let mut off = 0;
                bags.iter()
                    .map(|b| {
                        let n = b.instances.len();
                        let s = decisions[off..off + n]
                            .iter()
                            .copied()
                            .fold(f64::NEG_INFINITY, f64::max);
                        off += n;
                        s
                    })
                    .collect()
            }
            None => heuristic::bag_scores(bags),
        }
    }

    fn name(&self) -> &'static str {
        "MIL_OneClassSVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::Instance;

    /// A bag whose single instance has the given constant rows.
    fn bag(id: usize, rows: Vec<Vec<f64>>) -> Bag {
        Bag::new(id, vec![Instance::new(id as u64, rows)])
    }

    fn hot_rows(level: f64) -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0, 0.0],
            vec![level, level * 0.8, level * 0.5],
            vec![level * 0.2, 0.1, 0.0],
        ]
    }

    fn quiet_rows(jitter: f64) -> Vec<Vec<f64>> {
        vec![
            vec![0.01 + jitter, 0.0, 0.01],
            vec![0.02, 0.01 + jitter, 0.0],
            vec![0.0, 0.02, 0.01],
        ]
    }

    fn rbf() -> Kernel {
        Kernel::Rbf { gamma: 2.0 }
    }

    #[test]
    fn delta_matches_equation_nine() {
        let mut l = OcSvmMilLearner::new(rbf());
        assert_eq!(l.delta(), None);
        // Two relevant bags: a single-vehicle accident and a
        // two-vehicle accident with background traffic.
        let bags = vec![
            bag(0, hot_rows(0.9)),
            Bag::new(
                1,
                vec![
                    Instance::new(10, hot_rows(0.8)),
                    Instance::new(11, hot_rows(0.78)), // second involved vehicle
                    Instance::new(12, quiet_rows(0.01)), // bystander, excluded
                ],
            ),
        ];
        l.learn(&bags, &[(0, true), (1, true)]);
        assert_eq!(l.relevant_bag_count(), 2);
        assert_eq!(l.training_size(), 3);
        // δ = 1 - (2/3 + 0.05) = 0.2833…
        assert!((l.delta().unwrap() - (1.0 - (2.0 / 3.0 + 0.05))).abs() < 1e-12);
    }

    #[test]
    fn quiet_instances_excluded_from_training() {
        let mut l = OcSvmMilLearner::new(rbf());
        let bags = vec![Bag::new(
            0,
            vec![
                Instance::new(1, hot_rows(0.9)),
                Instance::new(2, quiet_rows(0.0)),
                Instance::new(3, quiet_rows(0.02)),
            ],
        )];
        l.learn(&bags, &[(0, true)]);
        assert_eq!(l.training_size(), 1);
    }

    #[test]
    fn delta_clamped_when_all_singletons() {
        let mut l = OcSvmMilLearner::new(rbf());
        let bags = vec![bag(0, hot_rows(0.9)), bag(1, hot_rows(0.85))];
        l.learn(&bags, &[(0, true), (1, true)]);
        // Raw δ = 1 - (2/2 + 0.05) = -0.05 -> clamped to the floor.
        assert!((l.delta().unwrap() - 0.02).abs() < 1e-12);
        assert!(l.model().is_some());
    }

    #[test]
    fn irrelevant_feedback_not_added_to_training() {
        let mut l = OcSvmMilLearner::new(rbf());
        let bags = vec![bag(0, hot_rows(0.9)), bag(1, quiet_rows(0.0))];
        l.learn(&bags, &[(0, true), (1, false)]);
        assert_eq!(l.training_size(), 1);
        assert_eq!(l.relevant_bag_count(), 1);
    }

    #[test]
    fn repeated_feedback_is_idempotent() {
        let mut l = OcSvmMilLearner::new(rbf());
        let bags = vec![bag(0, hot_rows(0.9))];
        l.learn(&bags, &[(0, true)]);
        l.learn(&bags, &[(0, true)]);
        assert_eq!(l.training_size(), 1);
        assert_eq!(l.relevant_bag_count(), 1);
    }

    #[test]
    fn feedback_for_missing_bag_is_not_consumed() {
        // Round 1 labels a bag id the database does not hold (tracker
        // output lost); the label must not be permanently consumed.
        let mut l = OcSvmMilLearner::new(rbf());
        l.learn(&[], &[(7, true)]);
        assert_eq!(l.training_size(), 0);
        assert_eq!(l.relevant_bag_count(), 0);
        // Round 2: re-ingest repaired the clip and the bag now exists;
        // the identical feedback must be honored.
        let bags = vec![bag(7, hot_rows(0.9))];
        l.learn(&bags, &[(7, true)]);
        assert_eq!(l.training_size(), 1);
        assert_eq!(l.relevant_bag_count(), 1);
    }

    #[test]
    fn feedback_below_collect_floor_is_not_consumed() {
        // Round 1: the relevant bag's event vehicle was untracked, so
        // its best TS scores below `min_collect_score` — unusable.
        let mut l = OcSvmMilLearner::new(rbf());
        let broken = vec![bag(3, quiet_rows(0.0))];
        l.learn(&broken, &[(3, true)]);
        assert_eq!(l.training_size(), 0);
        assert_eq!(l.relevant_bag_count(), 0);
        // Round 2: re-ingest restored the hot trajectory; the same
        // label must now train the model instead of being ignored.
        let repaired = vec![bag(3, hot_rows(0.9))];
        l.learn(&repaired, &[(3, true)]);
        assert_eq!(l.training_size(), 1);
        assert_eq!(l.relevant_bag_count(), 1);
        assert!(l.model().is_some());
    }

    #[test]
    fn irrelevant_label_is_consumed_and_idempotent() {
        let mut l = OcSvmMilLearner::new(rbf());
        let bags = vec![bag(0, hot_rows(0.9)), bag(1, quiet_rows(0.0))];
        l.learn(&bags, &[(1, false)]);
        // A re-confirmed irrelevant label stays a no-op.
        l.learn(&bags, &[(1, false)]);
        assert_eq!(l.training_size(), 0);
    }

    #[test]
    fn adaptive_gamma_matches_from_scratch_median() {
        // The incrementally cached pairwise distances must yield
        // exactly the γ a from-scratch O(H²) rescan with the true
        // median would, across several retraining rounds.
        let mut l = OcSvmMilLearner::new(rbf()).with_adaptive_gamma(1.0);
        let bags: Vec<Bag> = (0..8)
            .map(|i| bag(i, hot_rows(0.5 + 0.05 * i as f64)))
            .collect();
        for round in 0..4 {
            let fb: Vec<(usize, bool)> = (round * 2..round * 2 + 2).map(|i| (i, true)).collect();
            l.learn(&bags, &fb);
            let Kernel::Rbf { gamma } = l.effective_kernel() else {
                panic!("adaptive RBF learner must stay RBF");
            };
            // From-scratch reference over the same training set.
            let mut dists = Vec::new();
            for (i, a) in l.training.iter().enumerate() {
                for b in l.training.iter().skip(i + 1) {
                    let d = tsvr_linalg::vecops::sq_dist(a, b);
                    if d > 1e-12 {
                        dists.push(d);
                    }
                }
            }
            dists.sort_by(|a, b| a.total_cmp(b));
            let expected = 1.0 / true_median(&dists);
            assert_eq!(
                gamma.to_bits(),
                expected.to_bits(),
                "round {round}: cached γ {gamma} != from-scratch γ {expected}"
            );
        }
    }

    #[test]
    fn true_median_of_even_list_averages_middle_pair() {
        assert_eq!(true_median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(true_median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(true_median(&[4.0]), 4.0);
    }

    #[test]
    fn scores_follow_heuristic_before_training() {
        let l = OcSvmMilLearner::new(rbf());
        let hot = bag(0, hot_rows(0.9));
        let quiet = bag(1, quiet_rows(0.0));
        assert!(l.score(&hot) > l.score(&quiet));
    }

    #[test]
    fn after_training_relevant_like_bags_score_higher() {
        let mut l = OcSvmMilLearner::new(rbf());
        // Train on several hot bags.
        let train: Vec<Bag> = (0..6)
            .map(|i| bag(i, hot_rows(0.8 + 0.02 * i as f64)))
            .collect();
        let fb: Vec<(usize, bool)> = (0..6).map(|i| (i, true)).collect();
        l.learn(&train, &fb);
        assert!(l.model().is_some());
        let similar = bag(100, hot_rows(0.83));
        let dissimilar = bag(101, quiet_rows(0.0));
        assert!(
            l.score(&similar) > l.score(&dissimilar),
            "similar {} vs dissimilar {}",
            l.score(&similar),
            l.score(&dissimilar)
        );
    }

    #[test]
    fn multi_instance_bag_scored_by_best_instance() {
        let mut l = OcSvmMilLearner::new(rbf());
        let train: Vec<Bag> = (0..6).map(|i| bag(i, hot_rows(0.8))).collect();
        let fb: Vec<(usize, bool)> = (0..6).map(|i| (i, true)).collect();
        l.learn(&train, &fb);
        // A bag holding one hot and one quiet instance scores like the
        // hot one (MIL max rule).
        let mixed = Bag::new(
            50,
            vec![
                Instance::new(1, quiet_rows(0.0)),
                Instance::new(2, hot_rows(0.8)),
            ],
        );
        let hot_only = bag(51, hot_rows(0.8));
        assert!((l.score(&mixed) - l.score(&hot_only)).abs() < 1e-9);
    }

    #[test]
    fn score_all_is_bit_identical_to_score() {
        let db = vec![
            bag(100, hot_rows(0.83)),
            bag(101, quiet_rows(0.0)),
            Bag::new(
                102,
                vec![
                    Instance::new(1, quiet_rows(0.01)),
                    Instance::new(2, hot_rows(0.7)),
                ],
            ),
            Bag::new(103, vec![]), // empty bag: -inf on both paths
        ];
        // Untrained learner (heuristic path).
        let mut l = OcSvmMilLearner::new(rbf());
        let batch = l.score_all(&db);
        let single: Vec<f64> = db.iter().map(|b| l.score(b)).collect();
        assert_eq!(batch.len(), single.len());
        for (a, b) in batch.iter().zip(&single) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Trained learner (kernel-expansion path).
        let train: Vec<Bag> = (0..6)
            .map(|i| bag(i, hot_rows(0.8 + 0.02 * i as f64)))
            .collect();
        let fb: Vec<(usize, bool)> = (0..6).map(|i| (i, true)).collect();
        l.learn(&train, &fb);
        assert!(l.model().is_some());
        let batch = l.score_all(&db);
        let single: Vec<f64> = db.iter().map(|b| l.score(b)).collect();
        for (a, b) in batch.iter().zip(&single) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ragged_training_rows_keep_the_model_and_the_gram_cache() {
        let mut l = OcSvmMilLearner::new(rbf());
        let mut bags: Vec<Bag> = (0..3).map(|i| bag(i, hot_rows(0.6))).collect();
        // A fourth relevant bag whose instance has one row more, so its
        // concatenated vector is longer than every other training row.
        let mut long = hot_rows(0.7);
        long.push(vec![0.3, 0.2, 0.1]);
        bags.push(bag(3, long));
        l.learn(&bags, &[(0, true), (1, true)]);
        // Score the well-formed bags only: a model cannot score rows of
        // another dimensionality either.
        let scores = l.score_all(&bags[..3]);
        let (cache, cached_n) = (l.gram_cache.clone(), l.gram_n);
        l.learn(&bags, &[(3, true)]);
        assert_eq!(l.training_size(), 3, "the ragged row was collected");
        assert!(matches!(
            l.update_gram(rbf()),
            Err(SvmError::DimensionMismatch {
                expected: 9,
                got: 12
            })
        ));
        assert_eq!((l.gram_cache.clone(), l.gram_n), (cache, cached_n));
        let after = l.score_all(&bags[..3]);
        assert!(scores
            .iter()
            .zip(&after)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn memoized_gram_ranks_bit_identical_to_recompute() {
        // Feed identical feedback to a memoizing learner and a
        // from-scratch learner across several rounds; every score must
        // be bit-identical, fixed kernel and adaptive γ alike.
        for adaptive in [false, true] {
            let make = || {
                let l = OcSvmMilLearner::new(rbf());
                if adaptive {
                    l.with_adaptive_gamma(1.0)
                } else {
                    l
                }
            };
            let mut memo = make();
            let mut fresh = make().without_gram_memo();
            let bags: Vec<Bag> = (0..8)
                .map(|i| bag(i, hot_rows(0.5 + 0.05 * i as f64)))
                .collect();
            for round in 0..4 {
                let fb: Vec<(usize, bool)> =
                    (round * 2..round * 2 + 2).map(|i| (i, true)).collect();
                memo.learn(&bags, &fb);
                fresh.learn(&bags, &fb);
                let a = memo.score_all(&bags);
                let b = fresh.score_all(&bags);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "round {round} adaptive={adaptive}: memo {x} vs fresh {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn learner_reports_name() {
        let l = OcSvmMilLearner::new(rbf());
        assert_eq!(l.name(), "MIL_OneClassSVM");
    }

    #[test]
    fn z_shifts_delta() {
        let mut a = OcSvmMilLearner::new(rbf()).with_z(0.0);
        let mut b = OcSvmMilLearner::new(rbf()).with_z(0.2);
        let bags = vec![Bag::new(
            0,
            vec![
                Instance::new(1, hot_rows(0.9)),
                Instance::new(2, hot_rows(0.85)),
            ],
        )];
        a.learn(&bags, &[(0, true)]);
        b.learn(&bags, &[(0, true)]);
        // Both hot TSs are collected: H = 2, h = 1.
        // δ_a = 1 - 0.5 = 0.5; δ_b = 1 - 0.7 = 0.3.
        assert!((a.delta().unwrap() - 0.5).abs() < 1e-12);
        assert!((b.delta().unwrap() - 0.3).abs() < 1e-12);
    }
}
