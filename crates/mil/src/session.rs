//! The interactive retrieval session (paper §5.3, Fig. 6).
//!
//! Protocol per query:
//!
//! 1. **Initial round** — rank every Video Sequence by the event
//!    heuristic (no feedback exists yet) and record accuracy@n.
//! 2. **Feedback rounds** — show the top `n` bags to the oracle
//!    (standing in for the user), collect relevant/irrelevant labels,
//!    let the learner update, re-rank the whole database with the
//!    learner's scores and record accuracy@n. The paper runs four
//!    feedback rounds (First…Fourth) with `n = 20`.

use crate::bag::Bag;
use crate::error::MilError;
use crate::heuristic;
use crate::metrics;
use crate::oracle::Oracle;

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

impl Learner for Box<dyn Learner> {
    fn learn(&mut self, bags: &[Bag], feedback: &[(usize, bool)]) {
        (**self).learn(bags, feedback)
    }
    fn score(&self, bag: &Bag) -> f64 {
        (**self).score(bag)
    }
    fn score_all(&self, bags: &[Bag]) -> Vec<f64> {
        (**self).score_all(bags)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A borrowed learner drives a session too, so a caller that owns the
/// learner (a live `tsvr_core::Session`) keeps it after `run`.
impl<L: Learner + ?Sized> Learner for &mut L {
    fn learn(&mut self, bags: &[Bag], feedback: &[(usize, bool)]) {
        (**self).learn(bags, feedback)
    }
    fn score(&self, bag: &Bag) -> f64 {
        (**self).score(bag)
    }
    fn score_all(&self, bags: &[Bag]) -> Vec<f64> {
        (**self).score_all(bags)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Session parameters.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Results per page shown to the user (paper: 20).
    pub top_n: usize,
    /// Number of feedback rounds after the initial query (paper: 4).
    pub feedback_rounds: usize,
    /// When true, the initial ranking uses the learner's own scores
    /// instead of the event heuristic — for learners seeded before the
    /// session starts (query by example, a model restored from a stored
    /// session). The paper's protocol is `false`.
    pub initial_from_learner: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            top_n: 20,
            feedback_rounds: 4,
            initial_from_learner: false,
        }
    }
}

/// Result of one session: accuracies and rankings per round (index 0 is
/// the initial round).
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Learner display name.
    pub learner: &'static str,
    /// Accuracy@n per round (`feedback_rounds + 1` entries).
    pub accuracies: Vec<f64>,
    /// Full ranking per round.
    pub rankings: Vec<Vec<usize>>,
    /// Number of relevant bags according to the oracle.
    pub relevant_total: usize,
    /// The accuracy ceiling imposed by relevant-bag scarcity.
    pub ceiling: f64,
}

impl SessionReport {
    /// The last round's ranking. A freshly [`RetrievalSession::run`]
    /// report always holds at least the initial round, but a report
    /// deserialized from a stored session may have been persisted with
    /// zero completed rounds — that state is a typed error here, not a
    /// panic.
    pub fn final_ranking(&self) -> Result<&[usize], MilError> {
        self.rankings
            .last()
            .map(Vec::as_slice)
            .ok_or(MilError::EmptyRanking)
    }

    /// The last round's accuracy@n, with the same zero-round guard as
    /// [`SessionReport::final_ranking`].
    pub fn final_accuracy(&self) -> Result<f64, MilError> {
        self.accuracies.last().copied().ok_or(MilError::EmptyRanking)
    }
}

/// Drives one learner through an interactive session.
pub struct RetrievalSession<'a, L: Learner, O: Oracle> {
    bags: &'a [Bag],
    learner: L,
    oracle: &'a O,
    config: SessionConfig,
}

impl<'a, L: Learner, O: Oracle> RetrievalSession<'a, L, O> {
    /// Creates a session over a bag database.
    ///
    /// ```
    /// use tsvr_mil::{
    ///     Bag, GroundTruthOracle, Instance, OcSvmMilLearner, RetrievalSession, SessionConfig,
    /// };
    /// use tsvr_svm::Kernel;
    ///
    /// // Two quiet bags and one with an accident-like instance.
    /// let hot = Instance::new(0, vec![vec![0.1, 0.9, 0.4]]);
    /// let quiet = |k| Instance::new(k, vec![vec![0.02, 0.01, 0.0]]);
    /// let bags = vec![
    ///     Bag::new(0, vec![quiet(1)]),
    ///     Bag::new(1, vec![quiet(2), hot]),
    ///     Bag::new(2, vec![quiet(3)]),
    /// ];
    /// let oracle = GroundTruthOracle::new(vec![false, true, false]);
    ///
    /// let session = RetrievalSession::new(
    ///     &bags,
    ///     OcSvmMilLearner::new(Kernel::Rbf { gamma: 2.0 }),
    ///     &oracle,
    ///     SessionConfig { top_n: 1, feedback_rounds: 1, ..SessionConfig::default() },
    /// );
    /// let (report, _) = session.run();
    /// assert_eq!(report.rankings[0][0], 1); // the accident bag ranks first
    /// assert_eq!(report.accuracies, vec![1.0, 1.0]);
    /// ```
    pub fn new(bags: &'a [Bag], learner: L, oracle: &'a O, config: SessionConfig) -> Self {
        RetrievalSession {
            bags,
            learner,
            oracle,
            config,
        }
    }

    /// Runs the full protocol and returns the per-round report (and the
    /// trained learner for inspection).
    pub fn run(mut self) -> (SessionReport, L) {
        let _session_span = tsvr_obs::tspan!("mil.session");
        let labels: Vec<bool> = (0..self.bags.len()).map(|i| self.oracle.label(i)).collect();
        let n = self.config.top_n;

        let mut rankings = Vec::with_capacity(self.config.feedback_rounds + 1);
        let mut accuracies = Vec::with_capacity(self.config.feedback_rounds + 1);

        // Initial round: heuristic scores for every learner, matching
        // the paper ("the initial accuracies of the two methods are the
        // same since the same retrieval algorithm is used") — unless the
        // learner arrives pre-seeded (query by example).
        let initial = if self.config.initial_from_learner {
            rank_scores(self.bags, &self.learner.score_all(self.bags))
        } else {
            rank_scores(self.bags, &heuristic::bag_scores(self.bags))
        };
        let initial_accuracy = metrics::accuracy_at(&initial, &labels, n);
        tsvr_obs::histogram!("mil.accuracy_at_n_pct").record((initial_accuracy * 100.0) as u64);
        accuracies.push(initial_accuracy);
        // Thread the current ranking through the loop directly instead
        // of reading it back via `rankings.last().unwrap()` — the loop
        // then has no rank-selection unwrap at all.
        let mut current = initial;

        for _ in 0..self.config.feedback_rounds {
            let _round_span = tsvr_obs::tspan!("mil.round");
            let feedback: Vec<(usize, bool)> = current
                .iter()
                .take(n)
                .map(|&b| (b, self.oracle.label(b)))
                .collect();
            self.learner.learn(self.bags, &feedback);
            let ranking = rank_scores(self.bags, &self.learner.score_all(self.bags));
            let accuracy = metrics::accuracy_at(&ranking, &labels, n);
            tsvr_obs::histogram!("mil.accuracy_at_n_pct").record((accuracy * 100.0) as u64);
            tsvr_obs::counter!("mil.feedback.labels").add(feedback.len() as u64);
            accuracies.push(accuracy);
            rankings.push(std::mem::replace(&mut current, ranking));
        }
        rankings.push(current);

        let relevant_total = labels.iter().filter(|&&l| l).count();
        let report = SessionReport {
            learner: self.learner.name(),
            accuracies,
            rankings,
            relevant_total,
            ceiling: metrics::accuracy_ceiling(&labels, n),
        };
        (report, self.learner)
    }
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
    use crate::ocsvm::OcSvmMilLearner;
    use crate::oracle::GroundTruthOracle;
    use crate::weighted_rf::{Normalization, WeightedRfLearner};
    use tsvr_svm::Kernel;

    /// A synthetic database: `n_hot` bags carry an accident-like
    /// instance, the rest only quiet traffic. Deterministic jitter makes
    /// bags distinct.
    fn database(n_bags: usize, n_hot: usize) -> (Vec<Bag>, Vec<bool>) {
        let mut bags = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_bags {
            let j = (i as f64 * 0.618).fract() * 0.05;
            let quiet = Instance::new(
                (i * 10) as u64,
                vec![
                    vec![0.02 + j, 0.01, 0.0],
                    vec![0.01, 0.03 + j, 0.01],
                    vec![0.0, 0.02, 0.02 + j],
                ],
            );
            let mut instances = vec![quiet];
            let hot = i < n_hot;
            if hot {
                instances.push(Instance::new(
                    (i * 10 + 1) as u64,
                    vec![
                        vec![0.05, 0.1, 0.02],
                        vec![0.3 + j, 0.8 + j, 0.6],
                        vec![0.2, 0.3, 0.1 + j],
                    ],
                ));
            }
            bags.push(Bag::new(i, instances));
            labels.push(hot);
        }
        (bags, labels)
    }

    #[test]
    fn rank_by_orders_descending_deterministically() {
        let (bags, _) = database(10, 3);
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
    fn ocsvm_session_improves_or_holds_accuracy() {
        let (bags, labels) = database(60, 8);
        let oracle = GroundTruthOracle::new(labels);
        let cfg = SessionConfig {
            top_n: 10,
            feedback_rounds: 4,
            ..SessionConfig::default()
        };
        let learner = OcSvmMilLearner::new(Kernel::Rbf { gamma: 2.0 });
        let (report, trained) = RetrievalSession::new(&bags, learner, &oracle, cfg).run();
        assert_eq!(report.accuracies.len(), 5);
        assert_eq!(report.rankings.len(), 5);
        // All 8 hot bags fit in the top 10: ceiling 0.8.
        assert!((report.ceiling - 0.8).abs() < 1e-12);
        // The easy separable case should end at the ceiling.
        let last = *report.accuracies.last().unwrap();
        assert!(
            last >= report.accuracies[0],
            "accuracy regressed: {:?}",
            report.accuracies
        );
        assert!(last >= 0.7, "final accuracy {last}");
        assert!(trained.model().is_some());
    }

    #[test]
    fn weighted_rf_session_runs_and_reports() {
        let (bags, labels) = database(40, 5);
        let oracle = GroundTruthOracle::new(labels);
        let cfg = SessionConfig {
            top_n: 10,
            feedback_rounds: 3,
            ..SessionConfig::default()
        };
        let learner = WeightedRfLearner::new(Normalization::Percentage);
        let (report, _) = RetrievalSession::new(&bags, learner, &oracle, cfg).run();
        assert_eq!(report.accuracies.len(), 4);
        assert_eq!(report.learner, "Weighted_RF");
        assert_eq!(report.relevant_total, 5);
    }

    #[test]
    fn initial_round_identical_across_learners() {
        // Paper: "the initial accuracies of the two methods are the same
        // since the same retrieval algorithm is used in the initial
        // round."
        let (bags, labels) = database(50, 6);
        let oracle = GroundTruthOracle::new(labels);
        let cfg = SessionConfig {
            top_n: 10,
            feedback_rounds: 1,
            ..SessionConfig::default()
        };
        let (ra, _) = RetrievalSession::new(
            &bags,
            OcSvmMilLearner::new(Kernel::Rbf { gamma: 2.0 }),
            &oracle,
            cfg,
        )
        .run();
        let (rb, _) = RetrievalSession::new(
            &bags,
            WeightedRfLearner::new(Normalization::Percentage),
            &oracle,
            cfg,
        )
        .run();
        assert_eq!(ra.rankings[0], rb.rankings[0]);
        assert_eq!(ra.accuracies[0], rb.accuracies[0]);
    }

    #[test]
    fn session_with_no_relevant_bags_degrades_gracefully() {
        let (bags, labels) = database(20, 0);
        let oracle = GroundTruthOracle::new(labels);
        let (report, _) = RetrievalSession::new(
            &bags,
            OcSvmMilLearner::new(Kernel::Rbf { gamma: 2.0 }),
            &oracle,
            SessionConfig::default(),
        )
        .run();
        assert!(report.accuracies.iter().all(|&a| a == 0.0));
        assert_eq!(report.relevant_total, 0);
        assert_eq!(report.ceiling, 0.0);
    }

    #[test]
    fn top_n_larger_than_database_is_safe() {
        let (bags, labels) = database(5, 2);
        let oracle = GroundTruthOracle::new(labels);
        let cfg = SessionConfig {
            top_n: 50,
            feedback_rounds: 2,
            ..SessionConfig::default()
        };
        let (report, _) = RetrievalSession::new(
            &bags,
            OcSvmMilLearner::new(Kernel::Rbf { gamma: 2.0 }),
            &oracle,
            cfg,
        )
        .run();
        // Accuracy is diluted by the empty page slots but well-defined.
        assert!((report.accuracies[0] - 2.0 / 50.0).abs() < 1e-12);
        assert_eq!(report.rankings[0].len(), 5);
    }

    #[test]
    fn tied_scores_rank_deterministically_by_id() {
        // All-identical bags: every learner scores them equally.
        let quiet = Instance::new(0, vec![vec![0.1, 0.1, 0.1]]);
        let bags: Vec<Bag> = (0..6).map(|i| Bag::new(i, vec![quiet.clone()])).collect();
        let r = rank_by(&bags, heuristic::bag_score);
        assert_eq!(r, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn learner_initial_mode_uses_learner_scores() {
        let (bags, labels) = database(20, 4);
        let oracle = GroundTruthOracle::new(labels);
        // Pre-train a learner on known feedback, then start a session in
        // learner-initial mode: round 0 must differ from the heuristic.
        let mut learner = OcSvmMilLearner::new(Kernel::Rbf { gamma: 6.0 });
        let fb: Vec<(usize, bool)> = (0..8).map(|i| (i, i < 4)).collect();
        learner.learn(&bags, &fb);
        let cfg = SessionConfig {
            top_n: 5,
            feedback_rounds: 0,
            initial_from_learner: true,
        };
        let (report, _) = RetrievalSession::new(&bags, learner, &oracle, cfg).run();
        let heuristic_ranking = rank_by(&bags, heuristic::bag_score);
        assert_ne!(report.rankings[0], heuristic_ranking);
    }

    #[test]
    fn final_ranking_and_accuracy_guard_empty_reports() {
        let (bags, labels) = database(20, 3);
        let oracle = GroundTruthOracle::new(labels);
        let (report, _) = RetrievalSession::new(
            &bags,
            OcSvmMilLearner::new(Kernel::Rbf { gamma: 2.0 }),
            &oracle,
            SessionConfig::default(),
        )
        .run();
        assert_eq!(
            report.final_ranking().expect("rounds ran"),
            report.rankings.last().expect("rounds ran").as_slice()
        );
        assert_eq!(
            report.final_accuracy().expect("rounds ran"),
            *report.accuracies.last().expect("rounds ran")
        );
        // A zero-round resumed report (e.g. restored from storage)
        // yields a typed error rather than panicking.
        let empty = SessionReport {
            learner: "MIL_OneClassSVM",
            accuracies: Vec::new(),
            rankings: Vec::new(),
            relevant_total: 0,
            ceiling: 0.0,
        };
        assert_eq!(empty.final_ranking(), Err(MilError::EmptyRanking));
        assert_eq!(empty.final_accuracy(), Err(MilError::EmptyRanking));
    }

    #[test]
    fn zero_feedback_rounds_is_initial_only() {
        let (bags, labels) = database(20, 3);
        let oracle = GroundTruthOracle::new(labels);
        let cfg = SessionConfig {
            top_n: 5,
            feedback_rounds: 0,
            ..SessionConfig::default()
        };
        let (report, _) = RetrievalSession::new(
            &bags,
            OcSvmMilLearner::new(Kernel::Rbf { gamma: 2.0 }),
            &oracle,
            cfg,
        )
        .run();
        assert_eq!(report.accuracies.len(), 1);
    }
}
