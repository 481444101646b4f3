//! Live retrieval sessions: the paper's interactive protocol (§5.3) as
//! one type that the service, the CLI, session replay and the paper's
//! experiments all drive.
//!
//! The initial page ranks by the event heuristic; each later round
//! labels the top of the page, retrains the learner and re-ranks. A
//! session persists so the system stays customized for its user (§1):
//! [`Session::feedback`] returns the full-history [`SessionRow`] the
//! caller stores, and [`Session::resume`] replays it through a fresh
//! (deterministic) learner to the exact ranking the session last had.
//! [`Session::run_rounds`] is the paper's simulated user (§6): an
//! oracle labels each page through that same `feedback`, and the
//! rounds' accuracies come back as a [`SessionReport`].

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::pipeline::LearnerKind;
use tsvr_mil::metrics::{accuracy_at, accuracy_ceiling};
use tsvr_mil::session::rank_scores;
use tsvr_mil::{heuristic, Bag, Learner, Oracle};
use tsvr_viddb::SessionRow;

/// Why a session could not be resumed or take a feedback round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The stored session was trained with a different learner than the
    /// one requested for replay: feeding e.g. OC-SVM feedback through
    /// `weighted_rf` would silently produce a wrong model, so the
    /// mismatch is a typed error instead.
    LearnerMismatch {
        /// Learner name recorded in the [`SessionRow`].
        stored: String,
        /// Learner the caller asked to replay through.
        requested: &'static str,
    },
    /// The stored session names a learner no shipped kind reports, and
    /// the caller did not pick one.
    UnknownLearner {
        /// Learner name recorded in the [`SessionRow`].
        stored: String,
    },
    /// A label names a window the clip does not have, or one past the
    /// `u32` ids session rows store.
    WindowOutOfRange {
        /// The offending window id.
        window: usize,
        /// Windows in the session's clip.
        windows: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::LearnerMismatch { stored, requested } => write!(
                f,
                "session was trained with learner {stored:?} but replay was requested \
                 through {requested:?}; replaying feedback through a different learner \
                 would yield a wrong model"
            ),
            SessionError::UnknownLearner { stored } => {
                write!(f, "stored session uses unknown learner {stored:?}")
            }
            SessionError::WindowOutOfRange { window, windows } => write!(
                f,
                "label window {window} out of range (clip has {windows} windows)"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// The accounting of one [`Session::run_rounds`] call. Index 0 of
/// `rankings` and `accuracies` is the page the session had before the
/// first round; index `r` is the page after round `r`.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Learner display name.
    pub learner: &'static str,
    /// Accuracy@n per page against the oracle's labels (`rounds + 1`
    /// entries).
    pub accuracies: Vec<f64>,
    /// Full ranking per page (`rounds + 1` entries).
    pub rankings: Vec<Vec<usize>>,
    /// Per round, the relevant labels on windows the session had not
    /// labelled before (`rounds` entries). The paper's OC-SVM skips
    /// windows it has seen and trains on relevant ones only, so a round
    /// with none leaves its ranking where it was: the feedback fixed
    /// point.
    pub new_relevant: Vec<usize>,
    /// Number of relevant windows according to the oracle.
    pub relevant_total: usize,
    /// The accuracy ceiling imposed by relevant-window scarcity.
    pub ceiling: f64,
}

/// One live retrieval session: the learner, the clip's bags, the
/// current ranking, and its checkpoint row (id, clip, query, learner
/// name and the full feedback history).
pub struct Session {
    /// `accuracies` stays empty; callers that measure them fill them in.
    row: SessionRow,
    learner: Box<dyn Learner>,
    bags: Arc<Vec<Bag>>,
    /// Every window, best first.
    ranking: Vec<usize>,
}

impl Session {
    /// Opens a fresh session; its first page is the heuristic ranking.
    pub fn open(
        session_id: u64,
        clip_id: u64,
        query: impl Into<String>,
        kind: LearnerKind,
        bags: Arc<Vec<Bag>>,
    ) -> Session {
        let learner = kind.build_for(&bags);
        let mut session = Session::unranked(session_id, clip_id, query.into(), learner, bags);
        session.rank_by_heuristic();
        session
    }

    /// Opens a session around a learner that arrives trained — query by
    /// example, say — so its first page ranks by that learner instead
    /// of the heuristic. [`Session::resume`] rebuilds learners from
    /// their kind alone, so the seed does not survive a stored row.
    pub fn seeded(
        session_id: u64,
        clip_id: u64,
        query: impl Into<String>,
        learner: Box<dyn Learner>,
        bags: Arc<Vec<Bag>>,
    ) -> Session {
        let mut session = Session::unranked(session_id, clip_id, query.into(), learner, bags);
        session.rerank();
        session
    }

    /// Rebuilds a stored session by replaying its feedback through a
    /// fresh learner of `kind` (`None`: the learner the row names).
    /// The bags must be the clip the session was recorded against. A
    /// `kind` whose learner differs from the stored one is
    /// [`SessionError::LearnerMismatch`].
    pub fn resume(
        row: &SessionRow,
        kind: Option<LearnerKind>,
        bags: Arc<Vec<Bag>>,
    ) -> Result<Session, SessionError> {
        let kind = kind
            .or_else(|| LearnerKind::from_learner_name(&row.learner))
            .ok_or_else(|| SessionError::UnknownLearner {
                stored: row.learner.clone(),
            })?;
        if row.learner != kind.learner_name() {
            return Err(SessionError::LearnerMismatch {
                stored: row.learner.clone(),
                requested: kind.learner_name(),
            });
        }
        let learner = kind.build_for(&bags);
        let mut session = Session::unranked(
            row.session_id,
            row.clip_id,
            row.query.clone(),
            learner,
            bags,
        );
        for round in &row.feedback {
            let labels: Vec<(usize, bool)> = round.iter().map(|&(w, r)| (w as usize, r)).collect();
            session.learn(&labels)?;
        }
        if session.rounds() == 0 {
            session.rank_by_heuristic();
        } else {
            session.rerank();
        }
        Ok(session)
    }

    /// Applies one round of relevance labels: learns, re-ranks, and
    /// returns the full-history checkpoint row for the caller to
    /// persist. A label outside the clip is rejected before training,
    /// leaving the session untouched.
    pub fn feedback(&mut self, labels: &[(usize, bool)]) -> Result<&SessionRow, SessionError> {
        self.learn(labels)?;
        self.rerank();
        Ok(&self.row)
    }

    /// Runs `rounds` more feedback rounds in which `oracle` labels the
    /// top `top_n` of each page (the paper's simulated user, §6: top 20,
    /// four rounds). Each round goes through [`Session::feedback`], so
    /// it is checked, learned and appended to the history exactly as a
    /// served round is. The report's index 0 is the page the session
    /// had before the first round.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tsvr_core::{prepare_clip, EventQuery, LearnerKind, PipelineOptions, Session};
    /// use tsvr_mil::GroundTruthOracle;
    /// use tsvr_sim::Scenario;
    ///
    /// let clip = prepare_clip(&Scenario::tunnel_small(7), &PipelineOptions::default());
    /// let query = EventQuery::accidents();
    /// let oracle = GroundTruthOracle::new(clip.labels(&query));
    /// let kind = LearnerKind::paper_ocsvm();
    /// let mut session = Session::open(1, 1, query.name, kind, Arc::new(clip.bags));
    /// let report = session.run_rounds(&oracle, 5, 2)?;
    /// assert_eq!(report.accuracies.len(), 3); // the first page, then two rounds
    /// assert_eq!(session.rounds(), 2);
    /// # Ok::<(), tsvr_core::SessionError>(())
    /// ```
    pub fn run_rounds(
        &mut self,
        oracle: &dyn Oracle,
        top_n: usize,
        rounds: usize,
    ) -> Result<SessionReport, SessionError> {
        let _session_span = tsvr_obs::tspan!("mil.session");
        let labels: Vec<bool> = (0..self.bags.len()).map(|w| oracle.label(w)).collect();
        let accuracy = |ranking: &[usize]| {
            let accuracy = accuracy_at(ranking, &labels, top_n);
            tsvr_obs::histogram!("mil.accuracy_at_n_pct").record((accuracy * 100.0) as u64);
            accuracy
        };
        let mut labelled = vec![false; self.bags.len()];
        for &(window, _) in self.row.feedback.iter().flatten() {
            labelled[window as usize] = true;
        }
        let mut report = SessionReport {
            learner: self.learner_name(),
            accuracies: vec![accuracy(&self.ranking)],
            rankings: vec![self.ranking.clone()],
            new_relevant: Vec::with_capacity(rounds),
            relevant_total: labels.iter().filter(|&&l| l).count(),
            ceiling: accuracy_ceiling(&labels, top_n),
        };
        for _ in 0..rounds {
            let _round_span = tsvr_obs::tspan!("mil.round");
            let page: Vec<(usize, bool)> = self
                .page(top_n)
                .iter()
                .map(|&w| (w, oracle.label(w)))
                .collect();
            self.feedback(&page)?;
            // `feedback` checked every window against the clip.
            let new_relevant = page
                .iter()
                .filter(|&&(w, relevant)| !std::mem::replace(&mut labelled[w], true) && relevant)
                .count();
            report.accuracies.push(accuracy(&self.ranking));
            tsvr_obs::counter!("mil.feedback.labels").add(page.len() as u64);
            report.rankings.push(self.ranking.clone());
            report.new_relevant.push(new_relevant);
        }
        Ok(report)
    }

    /// Checks a round's labels against the clip and narrows them to the
    /// `u32` window ids session rows store: the one place that
    /// conversion happens.
    pub fn check_labels(&self, labels: &[(usize, bool)]) -> Result<Vec<(u32, bool)>, SessionError> {
        let windows = self.bags.len();
        labels
            .iter()
            .map(|&(window, relevant)| match u32::try_from(window) {
                Ok(id) if window < windows => Ok((id, relevant)),
                _ => Err(SessionError::WindowOutOfRange { window, windows }),
            })
            .collect()
    }

    /// The session's full-history checkpoint row.
    pub fn row(&self) -> &SessionRow {
        &self.row
    }

    /// The top `n` windows of the current ranking (fewer when the clip
    /// is smaller).
    pub fn page(&self, n: usize) -> &[usize] {
        &self.ranking[..n.min(self.ranking.len())]
    }

    /// Every window, best first.
    pub fn ranking(&self) -> &[usize] {
        &self.ranking
    }

    /// Completed feedback rounds.
    pub fn rounds(&self) -> usize {
        self.row.feedback.len()
    }

    /// The session's id.
    pub fn session_id(&self) -> u64 {
        self.row.session_id
    }

    /// The clip the session retrieves from.
    pub fn clip_id(&self) -> u64 {
        self.row.clip_id
    }

    /// The query name the session was opened with.
    pub fn query(&self) -> &str {
        &self.row.query
    }

    /// The learner's display name (the name session rows store).
    pub fn learner_name(&self) -> &'static str {
        self.learner.name()
    }

    /// The clip's bags, one per window.
    pub fn bags(&self) -> &[Bag] {
        &self.bags
    }

    /// A session with no rounds and no ranking yet; callers rank it.
    fn unranked(
        session_id: u64,
        clip_id: u64,
        query: String,
        learner: Box<dyn Learner>,
        bags: Arc<Vec<Bag>>,
    ) -> Session {
        Session {
            row: SessionRow {
                session_id,
                clip_id,
                query,
                learner: learner.name().into(),
                feedback: Vec::new(),
                accuracies: Vec::new(),
            },
            learner,
            bags,
            ranking: Vec::new(),
        }
    }

    /// Checks a round's labels, trains on them and appends them to the
    /// history.
    fn learn(&mut self, labels: &[(usize, bool)]) -> Result<(), SessionError> {
        let round = self.check_labels(labels)?;
        self.learner.learn(&self.bags, labels);
        self.row.feedback.push(round);
        Ok(())
    }

    /// The protocol's first page, before any feedback.
    fn rank_by_heuristic(&mut self) {
        self.ranking = rank_scores(&self.bags, &heuristic::bag_scores(&self.bags));
    }

    /// Every page after the first (and a seeded session's first).
    fn rerank(&mut self) {
        self.ranking = rank_scores(&self.bags, &self.learner.score_all(&self.bags));
    }
}

/// Each session's latest checkpoint, keyed by session id. Rows carry
/// the full feedback history, so the row with the most rounds is the
/// latest state; among equals the later append (later in `rows`) wins.
pub fn latest_checkpoints(rows: impl IntoIterator<Item = SessionRow>) -> BTreeMap<u64, SessionRow> {
    let mut latest: BTreeMap<u64, SessionRow> = BTreeMap::new();
    for row in rows {
        if latest
            .get(&row.session_id)
            .is_none_or(|prev| row.feedback.len() >= prev.feedback.len())
        {
            latest.insert(row.session_id, row);
        }
    }
    latest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare_clip, PipelineOptions};
    use crate::query::EventQuery;
    use tsvr_mil::{GroundTruthOracle, Instance, Normalization, OcSvmMilLearner};
    use tsvr_sim::Scenario;
    use tsvr_svm::Kernel;

    /// A tunnel clip's bags and its accident oracle.
    fn clip(seed: u64) -> (Arc<Vec<Bag>>, GroundTruthOracle) {
        let clip = prepare_clip(&Scenario::tunnel_small(seed), &PipelineOptions::default());
        let oracle = GroundTruthOracle::new(clip.labels(&EventQuery::accidents()));
        (Arc::new(clip.bags), oracle)
    }

    /// A synthetic database: `n_hot` bags carry an accident-like
    /// instance, the rest only quiet traffic. Deterministic jitter makes
    /// bags distinct.
    fn database(n_bags: usize, n_hot: usize) -> (Arc<Vec<Bag>>, GroundTruthOracle) {
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
        (Arc::new(bags), GroundTruthOracle::new(labels))
    }

    /// An OC-SVM with a fixed kernel width, for the synthetic bags.
    const OCSVM: LearnerKind = LearnerKind::OcSvm {
        gamma: 2.0,
        z: 0.05,
    };

    fn open(kind: LearnerKind, bags: &Arc<Vec<Bag>>) -> Session {
        Session::open(1, 1, "accident", kind, Arc::clone(bags))
    }

    fn row(learner: &str, feedback: Vec<Vec<(u32, bool)>>) -> SessionRow {
        SessionRow {
            session_id: 4,
            clip_id: 1,
            query: "accident".into(),
            learner: learner.into(),
            feedback,
            accuracies: vec![],
        }
    }

    #[test]
    fn ocsvm_session_improves_or_holds_accuracy() {
        let (bags, oracle) = database(60, 8);
        let report = open(OCSVM, &bags).run_rounds(&oracle, 10, 4).unwrap();
        assert_eq!(report.accuracies.len(), 5);
        assert_eq!(report.rankings.len(), 5);
        assert_eq!(report.new_relevant.len(), 4);
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
    }

    #[test]
    fn weighted_rf_session_runs_and_reports() {
        let (bags, oracle) = database(40, 5);
        let kind = LearnerKind::WeightedRf(Normalization::Percentage);
        let report = open(kind, &bags).run_rounds(&oracle, 10, 3).unwrap();
        assert_eq!(report.accuracies.len(), 4);
        assert_eq!(report.learner, "Weighted_RF");
        assert_eq!(report.relevant_total, 5);
    }

    #[test]
    fn initial_round_identical_across_learners() {
        // Paper: "the initial accuracies of the two methods are the same
        // since the same retrieval algorithm is used in the initial
        // round."
        let (bags, oracle) = database(50, 6);
        let ra = open(OCSVM, &bags).run_rounds(&oracle, 10, 1).unwrap();
        let rb = open(LearnerKind::WeightedRf(Normalization::Percentage), &bags)
            .run_rounds(&oracle, 10, 1)
            .unwrap();
        assert_eq!(ra.rankings[0], rb.rankings[0]);
        assert_eq!(ra.accuracies[0], rb.accuracies[0]);
    }

    #[test]
    fn session_with_no_relevant_bags_degrades_gracefully() {
        let (bags, oracle) = database(20, 0);
        let report = open(OCSVM, &bags).run_rounds(&oracle, 20, 4).unwrap();
        assert!(report.accuracies.iter().all(|&a| a == 0.0));
        assert_eq!(report.relevant_total, 0);
        assert_eq!(report.ceiling, 0.0);
        assert_eq!(report.new_relevant, vec![0; 4]);
    }

    #[test]
    fn top_n_larger_than_database_is_safe() {
        let (bags, oracle) = database(5, 2);
        let report = open(OCSVM, &bags).run_rounds(&oracle, 50, 2).unwrap();
        // Accuracy is diluted by the empty page slots but well-defined.
        assert!((report.accuracies[0] - 2.0 / 50.0).abs() < 1e-12);
        assert_eq!(report.rankings[0].len(), 5);
        // Round 1 labels every window; round 2 has nothing new.
        assert_eq!(report.new_relevant, vec![2, 0]);
    }

    #[test]
    fn seeded_first_page_differs_from_the_heuristic_page() {
        let (bags, oracle) = database(20, 4);
        // Pre-train a learner on known feedback, then seed a session
        // with it: its first page must differ from the heuristic's.
        let mut learner = OcSvmMilLearner::new(Kernel::Rbf { gamma: 6.0 });
        let fb: Vec<(usize, bool)> = (0..8).map(|i| (i, i < 4)).collect();
        learner.learn(&bags, &fb);
        let mut seeded = Session::seeded(1, 1, "accident", Box::new(learner), Arc::clone(&bags));
        let report = seeded.run_rounds(&oracle, 5, 0).unwrap();
        assert_eq!(report.rankings[0], seeded.ranking());
        assert_ne!(report.rankings[0], open(OCSVM, &bags).ranking());
    }

    #[test]
    fn zero_feedback_rounds_is_initial_only() {
        let (bags, oracle) = database(20, 3);
        let mut session = open(OCSVM, &bags);
        let report = session.run_rounds(&oracle, 5, 0).unwrap();
        assert_eq!(report.accuracies.len(), 1);
        assert!(report.new_relevant.is_empty());
        assert_eq!(session.rounds(), 0);
    }

    #[test]
    fn run_rounds_is_feedback_by_hand() {
        let (bags, oracle) = clip(64);
        let (top_n, rounds) = (5, 3);
        let mut live = open(LearnerKind::paper_ocsvm(), &bags);
        let report = live.run_rounds(&oracle, top_n, rounds).unwrap();

        // The same oracle labels fed through `feedback` by hand.
        let mut by_hand = open(LearnerKind::paper_ocsvm(), &bags);
        let labels = oracle.labels();
        let mut rankings = vec![by_hand.ranking().to_vec()];
        for _ in 0..rounds {
            let page: Vec<(usize, bool)> = by_hand
                .page(top_n)
                .iter()
                .map(|&w| (w, labels[w]))
                .collect();
            by_hand.feedback(&page).unwrap();
            rankings.push(by_hand.ranking().to_vec());
        }
        assert_eq!(report.rankings, rankings);
        let accuracies: Vec<f64> = rankings
            .iter()
            .map(|r| accuracy_at(r, labels, top_n))
            .collect();
        assert_eq!(report.accuracies, accuracies);
        assert_eq!(live.row().feedback, by_hand.row().feedback);
        assert_eq!(live.ranking(), report.rankings[rounds].as_slice());

        // Its row resumes to its final ranking.
        let resumed = Session::resume(live.row(), None, bags).unwrap();
        assert_eq!(resumed.ranking(), report.rankings[rounds].as_slice());
    }

    #[test]
    fn rounds_without_new_relevant_labels_leave_the_ranking() {
        // The feedback fixed point: the paper's OC-SVM skips windows it
        // has seen, and δ = 1 − (h/H + z) moves only when a relevant
        // window is collected, so a round that labels no new relevant
        // window re-ranks to the previous page. That page is then
        // labelled already, so every later round repeats it.
        let (bags, oracle) = clip(61);
        let report = open(LearnerKind::paper_ocsvm(), &bags)
            .run_rounds(&oracle, 5, 6)
            .unwrap();
        let first_fixed = report
            .new_relevant
            .iter()
            .position(|&new| new == 0)
            .expect("a round without new relevant labels");
        for (round, &new) in report.new_relevant.iter().enumerate() {
            if new == 0 {
                assert_eq!(
                    report.rankings[round + 1],
                    report.rankings[round],
                    "round {} labelled nothing new but moved the ranking",
                    round + 1
                );
            }
        }
        assert!(report.new_relevant[first_fixed..]
            .iter()
            .all(|&new| new == 0));
        assert!(report.new_relevant.iter().sum::<usize>() <= report.relevant_total);
    }

    #[test]
    fn resume_reproduces_the_original_final_ranking() {
        let (bags, oracle) = clip(61);
        let mut original = open(LearnerKind::paper_ocsvm(), &bags);
        let report = original.run_rounds(&oracle, 5, 3).unwrap();

        // Resume in a "new process": the ranking is the original's.
        let session =
            Session::resume(original.row(), Some(LearnerKind::paper_ocsvm()), bags).unwrap();
        assert_eq!(
            session.ranking(),
            report.rankings.last().unwrap().as_slice(),
            "resumed learner ranks differently from the original session"
        );
        assert_eq!(session.rounds(), 3);
        assert_eq!(session.row().feedback, original.row().feedback);
    }

    #[test]
    fn resume_through_wrong_learner_is_a_typed_error() {
        let (bags, _) = clip(61);
        let row = row("MIL_OneClassSVM", vec![vec![(0, true)]]);
        // An OC-SVM session resumed through weighted_rf must refuse, not
        // silently build a wrong model.
        let err = match Session::resume(
            &row,
            Some(LearnerKind::paper_weighted_rf()),
            Arc::clone(&bags),
        ) {
            Err(e) => e,
            Ok(_) => panic!("mismatched learner kind resumed without error"),
        };
        assert_eq!(
            err,
            SessionError::LearnerMismatch {
                stored: "MIL_OneClassSVM".into(),
                requested: "Weighted_RF",
            }
        );
        assert!(err.to_string().contains("MIL_OneClassSVM"));
        // The matching kind, or the row's own, resumes fine.
        assert!(Session::resume(&row, Some(LearnerKind::paper_ocsvm()), Arc::clone(&bags)).is_ok());
        assert!(Session::resume(&row, None, Arc::clone(&bags)).is_ok());
        // A row naming no shipped learner needs an explicit kind.
        assert_eq!(
            Session::resume(&self::row("NotALearner", vec![]), None, bags).err(),
            Some(SessionError::UnknownLearner {
                stored: "NotALearner".into()
            })
        );
    }

    #[test]
    fn continuing_a_session_does_not_regress() {
        let (bags, oracle) = clip(62);
        let mut original = open(LearnerKind::paper_ocsvm(), &bags);
        let report = original.run_rounds(&oracle, 5, 2).unwrap();

        let mut resumed = Session::resume(original.row(), None, bags).unwrap();
        let continued = resumed.run_rounds(&oracle, 5, 2).unwrap();
        // The continued session starts where the stored one ended.
        let stored_final = *report.accuracies.last().unwrap();
        assert!(
            continued.accuracies[0] >= stored_final - 1e-9,
            "restore lost quality: {} vs {}",
            continued.accuracies[0],
            stored_final
        );
        assert_eq!(continued.accuracies.len(), 3);
        assert_eq!(resumed.rounds(), 4);
        // Windows the stored rounds labelled are not new again.
        assert!(
            report.new_relevant.iter().sum::<usize>()
                + continued.new_relevant.iter().sum::<usize>()
                <= report.relevant_total
        );
    }

    #[test]
    fn resume_with_empty_feedback_is_the_heuristic_page() {
        let (bags, _) = clip(63);
        let session =
            Session::resume(&row("MIL_OneClassSVM", vec![]), None, Arc::clone(&bags)).unwrap();
        let heuristic = rank_scores(&bags, &heuristic::bag_scores(&bags));
        assert_eq!(session.ranking(), heuristic.as_slice());
        let opened = Session::open(9, 1, "accident", LearnerKind::paper_ocsvm(), bags);
        assert_eq!(opened.ranking(), heuristic.as_slice());
    }

    #[test]
    fn out_of_range_labels_are_rejected_before_training() {
        let (bags, _) = clip(61);
        let windows = bags.len();
        let mut session = Session::open(1, 1, "accident", LearnerKind::paper_ocsvm(), bags);
        let before = session.ranking().to_vec();
        for window in [windows, u32::MAX as usize + 1, usize::MAX] {
            assert_eq!(
                session.feedback(&[(0, true), (window, false)]).err(),
                Some(SessionError::WindowOutOfRange { window, windows })
            );
        }
        assert_eq!(session.rounds(), 0);
        assert_eq!(session.ranking(), before.as_slice());
        // A stored row naming a window the clip lacks is refused too.
        let bad = row("MIL_OneClassSVM", vec![vec![(windows as u32, true)]]);
        assert!(matches!(
            Session::resume(&bad, None, Arc::new(session.bags().to_vec())),
            Err(SessionError::WindowOutOfRange { .. })
        ));
        let checkpoint = session.feedback(&[(0, true)]).unwrap();
        assert_eq!(checkpoint.feedback, vec![vec![(0, true)]]);
        assert_eq!(checkpoint.learner, "MIL_OneClassSVM");
    }

    #[test]
    fn latest_checkpoint_prefers_more_rounds_then_the_later_append() {
        let mk = |id: u64, rounds: usize, tag: &str| SessionRow {
            session_id: id,
            clip_id: 1,
            query: tag.into(),
            learner: "MIL_OneClassSVM".into(),
            feedback: vec![vec![(0, true)]; rounds],
            accuracies: vec![],
        };
        let latest = latest_checkpoints(vec![
            mk(2, 1, "a"),
            mk(1, 2, "b"),
            mk(2, 3, "c"),
            mk(1, 2, "d"),
            mk(2, 2, "e"),
        ]);
        assert_eq!(latest.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(latest[&1].query, "d", "equal rounds: the later append wins");
        assert_eq!(latest[&2].query, "c", "more rounds win over a later append");
    }
}
