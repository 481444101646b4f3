//! Live retrieval sessions: the paper's interactive protocol (§5.3) as
//! one type that the service, the CLI and session replay all drive.
//!
//! The initial page ranks by the event heuristic; each later round
//! labels the top of the page, retrains the learner and re-ranks. A
//! session persists so the system stays customized for its user (§1):
//! [`Session::feedback`] returns the full-history [`SessionRow`] the
//! caller stores, and [`Session::resume`] replays it through a fresh
//! (deterministic) learner to the exact ranking the session last had.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::pipeline::LearnerKind;
use tsvr_mil::session::rank_scores;
use tsvr_mil::{heuristic, Bag, Learner, Oracle, RetrievalSession, SessionConfig, SessionReport};
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
        let mut session = Session::unranked(session_id, clip_id, query.into(), kind, bags);
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
        let mut session =
            Session::unranked(row.session_id, row.clip_id, row.query.clone(), kind, bags);
        for round in &row.feedback {
            let labels: Vec<(usize, bool)> = round.iter().map(|&(w, r)| (w as usize, r)).collect();
            session.learn(&labels)?;
        }
        session.rerank();
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
    /// top `top_n` of each page (the paper's simulated user, §6),
    /// through [`RetrievalSession`] and the session's own learner, and
    /// appends each round to the history. Index 0 of the report is the
    /// page the session had before the first round.
    pub fn run_rounds(
        &mut self,
        oracle: &impl Oracle,
        top_n: usize,
        rounds: usize,
    ) -> Result<SessionReport, SessionError> {
        let config = SessionConfig {
            top_n,
            feedback_rounds: rounds,
            initial_from_learner: self.ranks_by_learner(),
        };
        let (report, _) =
            RetrievalSession::new(self.bags.as_slice(), &mut self.learner, oracle, config).run();
        for page in &report.rankings[..rounds] {
            let labels: Vec<(usize, bool)> = page
                .iter()
                .take(top_n)
                .map(|&w| (w, oracle.label(w)))
                .collect();
            let round = self.check_labels(&labels)?;
            self.row.feedback.push(round);
        }
        self.ranking.clone_from(&report.rankings[rounds]);
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

    /// A session with no rounds and no ranking yet; callers rerank.
    fn unranked(
        session_id: u64,
        clip_id: u64,
        query: String,
        kind: LearnerKind,
        bags: Arc<Vec<Bag>>,
    ) -> Session {
        let learner = kind.build_for(&bags);
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

    /// The protocol's ranking rule: the event heuristic until the first
    /// feedback round, the learner's scores after.
    fn ranks_by_learner(&self) -> bool {
        self.rounds() > 0
    }

    fn rerank(&mut self) {
        let scores = if self.ranks_by_learner() {
            self.learner.score_all(&self.bags)
        } else {
            heuristic::bag_scores(&self.bags)
        };
        self.ranking = rank_scores(&self.bags, &scores);
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
    use crate::pipeline::{prepare_clip, run_session, ClipArtifacts, PipelineOptions};
    use crate::query::EventQuery;
    use tsvr_mil::GroundTruthOracle;
    use tsvr_sim::Scenario;

    fn clip(seed: u64) -> (ClipArtifacts, Arc<Vec<Bag>>) {
        let clip = prepare_clip(&Scenario::tunnel_small(seed), &PipelineOptions::default());
        let bags = Arc::new(clip.bags.clone());
        (clip, bags)
    }

    /// The checkpoint row an independent batch session would have
    /// stored after `rounds` oracle-labelled rounds.
    fn session_row_from(
        report: &SessionReport,
        oracle: &GroundTruthOracle,
        top_n: usize,
        rounds: usize,
    ) -> SessionRow {
        SessionRow {
            session_id: 1,
            clip_id: 1,
            query: "accident".into(),
            learner: report.learner.into(),
            feedback: report
                .rankings
                .iter()
                .take(rounds)
                .map(|r| {
                    r.iter()
                        .take(top_n)
                        .map(|&w| (u32::try_from(w).unwrap(), oracle.label(w)))
                        .collect()
                })
                .collect(),
            accuracies: report.accuracies.clone(),
        }
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
    fn resume_reproduces_the_original_final_ranking() {
        let (clip, bags) = clip(61);
        let query = EventQuery::accidents();
        let oracle = GroundTruthOracle::new(clip.labels(&query));
        let cfg = SessionConfig {
            top_n: 5,
            feedback_rounds: 3,
            ..SessionConfig::default()
        };
        let report = run_session(&clip, &query, LearnerKind::paper_ocsvm(), cfg);
        let row = session_row_from(&report, &oracle, cfg.top_n, cfg.feedback_rounds);

        // Resume in a "new process": the ranking is the batch session's.
        let session = Session::resume(&row, Some(LearnerKind::paper_ocsvm()), bags).unwrap();
        assert_eq!(
            session.ranking(),
            report.rankings.last().unwrap().as_slice(),
            "resumed learner ranks differently from the original session"
        );
        assert_eq!(session.rounds(), 3);
        assert_eq!(session.row().feedback, row.feedback);
    }

    #[test]
    fn resume_through_wrong_learner_is_a_typed_error() {
        let (_, bags) = clip(61);
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
        let (clip, bags) = clip(62);
        let query = EventQuery::accidents();
        let oracle = GroundTruthOracle::new(clip.labels(&query));
        let cfg = SessionConfig {
            top_n: 5,
            feedback_rounds: 2,
            ..SessionConfig::default()
        };
        let report = run_session(&clip, &query, LearnerKind::paper_ocsvm(), cfg);
        let row = session_row_from(&report, &oracle, cfg.top_n, cfg.feedback_rounds);

        let continued = Session::resume(&row, None, bags)
            .unwrap()
            .run_rounds(&oracle, 5, 2)
            .unwrap();
        // The continued session starts where the stored one ended.
        let stored_final = *report.accuracies.last().unwrap();
        assert!(
            continued.accuracies[0] >= stored_final - 1e-9,
            "restore lost quality: {} vs {}",
            continued.accuracies[0],
            stored_final
        );
        assert_eq!(continued.accuracies.len(), 3);
    }

    #[test]
    fn resume_with_empty_feedback_is_the_heuristic_page() {
        let (_, bags) = clip(63);
        let session =
            Session::resume(&row("MIL_OneClassSVM", vec![]), None, Arc::clone(&bags)).unwrap();
        let heuristic = rank_scores(&bags, &heuristic::bag_scores(&bags));
        assert_eq!(session.ranking(), heuristic.as_slice());
        let opened = Session::open(9, 1, "accident", LearnerKind::paper_ocsvm(), bags);
        assert_eq!(opened.ranking(), heuristic.as_slice());
    }

    #[test]
    fn oracle_rounds_match_the_batch_session() {
        let (clip, bags) = clip(64);
        let query = EventQuery::accidents();
        let oracle = GroundTruthOracle::new(clip.labels(&query));
        let cfg = SessionConfig {
            top_n: 5,
            feedback_rounds: 3,
            ..SessionConfig::default()
        };
        let batch = run_session(&clip, &query, LearnerKind::paper_ocsvm(), cfg);
        let mut live = Session::open(1, 1, "accident", LearnerKind::paper_ocsvm(), bags);
        let report = live
            .run_rounds(&oracle, cfg.top_n, cfg.feedback_rounds)
            .unwrap();
        assert_eq!(report.rankings, batch.rankings);
        assert_eq!(report.accuracies, batch.accuracies);
        assert_eq!(report.relevant_total, batch.relevant_total);
        assert_eq!(
            live.row().feedback,
            session_row_from(&batch, &oracle, cfg.top_n, cfg.feedback_rounds).feedback
        );
    }

    #[test]
    fn out_of_range_labels_are_rejected_before_training() {
        let (_, bags) = clip(61);
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
