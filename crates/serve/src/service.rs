//! The in-process service: session management, checkpointing, and the
//! one `handle` entry point every transport shares.
//!
//! ## Durability contract
//!
//! A `learned` response is only sent after the round's checkpoint — a
//! full-history [`SessionRow`] — has been appended **and synced** to the
//! database. Crash the process at any storage operation and every round
//! the client was told about is replayable via [`tsvr_core::replay_session`];
//! rounds that never got their `learned` ack may be lost, which is
//! exactly the at-most-once promise a client can reason about. Because
//! every checkpoint row carries the complete feedback history, a single
//! successful checkpoint also re-persists any earlier round whose own
//! checkpoint write failed transiently.
//!
//! ## Concurrency model
//!
//! One mutex per session serializes that client's requests; different
//! sessions only contend on three short-held maps (database handle,
//! clip cache, session table). The expensive work — scoring every bag —
//! runs outside all service locks except the owning session's, and fans
//! out internally on the bounded [`tsvr_par`] pool via
//! [`Learner::score_all`]. Lock order is `session state → db`; nothing
//! acquires a session lock while holding the db lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::proto::{Envelope, ErrorKind, Request, Response, ServeError, SessionSummary};
use tsvr_core::{bags_from_bundle, bags_from_dataset, LearnerKind};
use tsvr_mil::session::rank_scores;
use tsvr_mil::{heuristic, Bag, Learner};
use tsvr_trajectory::checkpoint::FeatureConfig;
use tsvr_trajectory::WindowConfig;
use tsvr_viddb::{DbError, SessionRow, ShardedDb};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Page size when a `page` request omits `n` (paper: 20).
    pub default_top_n: usize,
    /// Deadline applied when a request carries none, in milliseconds.
    /// `0` disables the default deadline.
    pub default_deadline_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            default_top_n: 20,
            default_deadline_ms: 30_000,
        }
    }
}

/// One live session's state. Owned by its mutex; the learner inside is
/// exactly what a replay of the recorded feedback would rebuild.
struct SessionState {
    clip_id: u64,
    query: String,
    learner: Box<dyn Learner>,
    bags: Arc<Vec<Bag>>,
    /// Full feedback history, one inner vec per completed round.
    feedback: Vec<Vec<(u32, bool)>>,
    /// Current full ranking (heuristic before any feedback, learner
    /// scores after).
    ranking: Vec<usize>,
}

/// The concurrent retrieval service. Wrap it in an [`Arc`] and call
/// [`Service::handle`] from any number of threads; the TCP server in
/// [`crate::server`] is one such caller, tests and the CLI are others.
pub struct Service {
    db: Mutex<ShardedDb>,
    /// Per-clip bag cache: loaded once (index-served when fresh),
    /// shared read-only by every session on the clip.
    clips: Mutex<HashMap<u64, Arc<Vec<Bag>>>>,
    sessions: Mutex<HashMap<u64, Arc<Mutex<SessionState>>>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    cfg: ServiceConfig,
}

/// Parses a learner spec: the CLI's short names, a stored learner
/// display name, or empty for the paper default.
fn learner_kind_from_spec(spec: &str) -> Option<LearnerKind> {
    Some(match spec {
        "" | "ocsvm" => LearnerKind::paper_ocsvm(),
        "wrf" => LearnerKind::paper_weighted_rf(),
        "misvm" => LearnerKind::MiSvm { c: 10.0 },
        "dd" => LearnerKind::DiverseDensity { scale: 8.0 },
        "emdd" => LearnerKind::EmDd { scale: 8.0 },
        other => LearnerKind::from_learner_name(other)?,
    })
}

/// Builds an error response, stamping it with the current trace id so a
/// client holding only the error line can pull the request's span tree
/// via `{"op":"trace","trace_id":N}`.
fn err(kind: ErrorKind, message: impl Into<String>) -> Response {
    tsvr_obs::counter!("serve.errors").incr();
    let trace = tsvr_obs::trace::current().map(|c| c.trace);
    Response::Error(ServeError::new(kind, message).with_trace(trace))
}

fn db_err(e: &DbError) -> Response {
    match e {
        DbError::ClipNotFound(id) => err(ErrorKind::NotFound, format!("clip {id} not stored")),
        DbError::ClipQuarantined(id) => err(
            ErrorKind::Storage,
            format!("clip {id} is quarantined; repair or compact the database"),
        ),
        other => err(ErrorKind::Storage, other.to_string()),
    }
}

/// A request's time budget, measured from service entry.
#[derive(Clone, Copy)]
struct Deadline {
    started: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    fn new(env: &Envelope, cfg: &ServiceConfig) -> Deadline {
        let ms = env.deadline_ms.unwrap_or(cfg.default_deadline_ms);
        Deadline {
            started: Instant::now(),
            budget: (ms > 0).then(|| Duration::from_millis(ms)),
        }
    }

    /// `Some(error)` once the budget is spent. Checked before each
    /// expensive stage; a round whose training already started always
    /// runs to completion (and checkpoints), so the deadline bounds
    /// queue + startup cost without ever leaving a half-applied round.
    fn check(&self) -> Option<Response> {
        let budget = self.budget?;
        if self.started.elapsed() < budget {
            return None;
        }
        tsvr_obs::counter!("serve.deadline_exceeded").incr();
        tsvr_obs::trace::incident(
            "serve.deadline_exceeded",
            &format!("budget {budget:?} spent before the work started"),
        );
        Some(err(
            ErrorKind::DeadlineExceeded,
            format!("deadline of {budget:?} expired before the work started"),
        ))
    }
}

impl Service {
    /// Wraps an open archive — a [`ShardedDb`], or a
    /// [`tsvr_viddb::VideoDb`] served as its one-shard view. New session
    /// ids continue after the largest persisted one, so resumed and
    /// fresh sessions never collide.
    pub fn new(db: impl Into<ShardedDb>, cfg: ServiceConfig) -> Service {
        let db = db.into();
        let next = db.max_session_id() + 1;
        Service {
            db: Mutex::new(db),
            clips: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(next),
            draining: AtomicBool::new(false),
            cfg,
        }
    }

    /// Whether [`Request::Shutdown`] has been received (or
    /// [`Service::begin_drain`] called): new sessions are refused and
    /// transports should close connections after their in-flight
    /// request.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts the drain without a protocol request (process signal,
    /// test teardown).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Handles one request. This is the single code path behind every
    /// transport; the TCP server adds framing and queueing around it,
    /// nothing else.
    pub fn handle(&self, env: &Envelope) -> Response {
        let deadline = Deadline::new(env, &self.cfg);
        tsvr_obs::counter!("serve.requests").incr();
        let op = env.req.op_name();
        tsvr_obs::counter_labeled("serve.requests", &format!("op={op}")).incr();
        // Retrieval ops become trace roots (each arm is its own probe
        // site, so every name is static). Ops-plane requests — ping,
        // stats, trace, slowlog — stay untraced so `trace` with no id
        // always answers with the latest *real* request.
        let _traced = match &env.req {
            Request::Open { .. } => Some(tsvr_obs::tspan!("serve.latency.open")),
            Request::Resume { .. } => Some(tsvr_obs::tspan!("serve.latency.resume")),
            Request::Page { .. } => Some(tsvr_obs::tspan!("serve.latency.page")),
            Request::Feedback { .. } => Some(tsvr_obs::tspan!("serve.latency.feedback")),
            Request::Query { .. } => Some(tsvr_obs::tspan!("serve.latency.query")),
            _ => None,
        };
        let _plain = match &env.req {
            Request::Sessions { .. } | Request::Close { .. } | Request::Shutdown => {
                Some(tsvr_obs::span!("serve.latency.other"))
            }
            _ => None,
        };
        let labeled_t0 = tsvr_obs::is_enabled().then(Instant::now);
        let resp = match &env.req {
            Request::Open {
                clip_id,
                query,
                learner,
            } => self.open(*clip_id, query, learner, deadline),
            Request::Resume {
                clip_id,
                session_id,
                learner,
            } => self.resume(*clip_id, *session_id, learner.as_deref(), deadline),
            Request::Page { session_id, n } => self.page(*session_id, *n),
            Request::Feedback { session_id, labels } => {
                self.feedback(*session_id, labels, deadline)
            }
            Request::Query { expr, k } => self.query(expr, *k, deadline),
            Request::Sessions { clip_id } => self.list_sessions(*clip_id),
            Request::Close { session_id } => self.close(*session_id),
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats {
                snapshot: tsvr_obs::snapshot(),
            },
            Request::Trace { trace_id } => Self::trace_of(*trace_id),
            Request::Slowlog => Response::Slowlog {
                threshold_ns: tsvr_obs::trace::slow_threshold_ns(),
                entries: tsvr_obs::trace::slowlog(),
            },
            Request::Shutdown => {
                self.begin_drain();
                Response::ShuttingDown
            }
        };
        // Per-op latency with a label dimension (`serve.latency{op=x}`),
        // alongside the per-endpoint histograms the spans feed.
        if let Some(t0) = labeled_t0 {
            tsvr_obs::histogram_ns_labeled("serve.latency", &format!("op={op}"))
                .record(t0.elapsed().as_nanos() as u64);
        }
        resp
    }

    /// Answers a `trace` request from the retained recent-trace buffer.
    fn trace_of(trace_id: Option<u64>) -> Response {
        let found = match trace_id {
            Some(id) => tsvr_obs::trace::finished(id),
            None => tsvr_obs::trace::latest(),
        };
        match found {
            Some(trace) => Response::Trace { trace },
            None => err(
                ErrorKind::NotFound,
                match trace_id {
                    Some(id) => format!(
                        "trace {id} not retained (buffer keeps the last {} traces)",
                        tsvr_obs::trace::RECENT_CAP
                    ),
                    None => "no completed traces (server built without obs, or no traced \
                             request has finished yet)"
                        .to_string(),
                },
            ),
        }
    }

    /// The clip's bag database: cached, else served from its stored
    /// feature index when fresh, else rebuilt from the archived bundle.
    /// All three paths yield bit-identical bags (PR-4 invariant), and
    /// none re-runs vision work.
    fn clip_bags(&self, clip_id: u64) -> Result<Arc<Vec<Bag>>, Response> {
        if let Some(bags) = self.clips.lock().unwrap().get(&clip_id) {
            return Ok(Arc::clone(bags));
        }
        // Load outside the cache lock; a racing load computes the same
        // value, and the first insert wins.
        let bags = {
            let mut db = self.db.lock().unwrap();
            let wcfg = WindowConfig::default();
            let vdb = db.routed_shard(clip_id).map_err(|e| db_err(&e))?;
            match tsvr_core::load_index(vdb, clip_id, &wcfg) {
                Ok(Some(ds)) => bags_from_dataset(&ds),
                Ok(None) => {
                    let bundle = vdb.load_clip(clip_id).map_err(|e| db_err(&e))?;
                    bags_from_bundle(&bundle, &FeatureConfig::default())
                }
                Err(e) => return Err(db_err(&e)),
            }
        };
        let bags = Arc::new(bags);
        Ok(Arc::clone(
            self.clips
                .lock()
                .unwrap()
                .entry(clip_id)
                .or_insert_with(|| Arc::clone(&bags)),
        ))
    }

    fn session(&self, session_id: u64) -> Result<Arc<Mutex<SessionState>>, Response> {
        self.sessions
            .lock()
            .unwrap()
            .get(&session_id)
            .cloned()
            .ok_or_else(|| {
                err(
                    ErrorKind::NotFound,
                    format!("no live session {session_id} (open or resume it first)"),
                )
            })
    }

    fn open(&self, clip_id: u64, query: &str, learner: &str, deadline: Deadline) -> Response {
        if self.is_draining() {
            return err(ErrorKind::ShuttingDown, "server is draining");
        }
        let Some(kind) = learner_kind_from_spec(learner) else {
            return err(ErrorKind::BadRequest, format!("unknown learner {learner:?}"));
        };
        let bags = match self.clip_bags(clip_id) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        if let Some(resp) = deadline.check() {
            return resp;
        }
        let learner = kind.build_for(&bags);
        let ranking = rank_scores(&bags, &heuristic::bag_scores(&bags));
        let session_id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let state = SessionState {
            clip_id,
            query: query.to_string(),
            learner,
            bags,
            feedback: Vec::new(),
            ranking,
        };
        let windows = state.bags.len();
        let name = state.learner.name().to_string();
        self.sessions
            .lock()
            .unwrap()
            .insert(session_id, Arc::new(Mutex::new(state)));
        tsvr_obs::counter!("serve.sessions.opened").incr();
        tsvr_obs::counter_labeled("serve.sessions.opened", &format!("session={session_id}"))
            .incr();
        Response::Opened {
            session_id,
            clip_id,
            windows,
            rounds: 0,
            learner: name,
        }
    }

    fn resume(
        &self,
        clip_id: u64,
        session_id: u64,
        learner: Option<&str>,
        deadline: Deadline,
    ) -> Response {
        if self.is_draining() {
            return err(ErrorKind::ShuttingDown, "server is draining");
        }
        // Checkpoints carry full history, so the row with the most
        // rounds is the latest state; among equals, the later append
        // wins.
        let row = {
            let mut db = self.db.lock().unwrap();
            let rows = match db.sessions_for_clip(clip_id) {
                Ok(rows) => rows,
                Err(e) => return db_err(&e),
            };
            match rows
                .into_iter()
                .enumerate()
                .filter(|(_, r)| r.session_id == session_id)
                .max_by_key(|(i, r)| (r.feedback.len(), *i))
            {
                Some((_, row)) => row,
                None => {
                    return err(
                        ErrorKind::NotFound,
                        format!("no stored session {session_id} for clip {clip_id}"),
                    )
                }
            }
        };
        let kind = match learner {
            Some(spec) => match learner_kind_from_spec(spec) {
                Some(k) => k,
                None => return err(ErrorKind::BadRequest, format!("unknown learner {spec:?}")),
            },
            None => match LearnerKind::from_learner_name(&row.learner) {
                Some(k) => k,
                None => {
                    tsvr_obs::trace::incident(
                        "serve.learner.mismatch",
                        &format!("session {session_id}: stored learner {:?} unknown", row.learner),
                    );
                    return err(
                        ErrorKind::LearnerMismatch,
                        format!("stored session uses unknown learner {:?}", row.learner),
                    )
                }
            },
        };
        let bags = match self.clip_bags(clip_id) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        if let Some(resp) = deadline.check() {
            return resp;
        }
        let learner = match tsvr_core::replay_session(&bags, &row, kind) {
            Ok(l) => l,
            Err(e) => {
                tsvr_obs::trace::incident(
                    "serve.learner.mismatch",
                    &format!("session {session_id}: replay refused: {e}"),
                );
                return err(ErrorKind::LearnerMismatch, e.to_string());
            }
        };
        // Reproduce the exact post-round ranking the original session
        // last served: heuristic before any feedback, learner scores
        // after.
        let ranking = if row.feedback.is_empty() {
            rank_scores(&bags, &heuristic::bag_scores(&bags))
        } else {
            rank_scores(&bags, &learner.score_all(&bags))
        };
        let rounds = row.feedback.len();
        let name = learner.name().to_string();
        let state = SessionState {
            clip_id,
            query: row.query.clone(),
            learner,
            bags,
            feedback: row.feedback.clone(),
            ranking,
        };
        let windows = state.bags.len();
        self.sessions
            .lock()
            .unwrap()
            .insert(session_id, Arc::new(Mutex::new(state)));
        // Fresh ids must never collide with a resumed one.
        self.next_id.fetch_max(session_id + 1, Ordering::SeqCst);
        tsvr_obs::counter!("serve.sessions.resumed").incr();
        Response::Opened {
            session_id,
            clip_id,
            windows,
            rounds,
            learner: name,
        }
    }

    fn page(&self, session_id: u64, n: Option<usize>) -> Response {
        let state = match self.session(session_id) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let state = state.lock().unwrap();
        let n = n.unwrap_or(self.cfg.default_top_n).min(state.ranking.len());
        Response::Page {
            session_id,
            round: state.feedback.len(),
            ranking: state.ranking[..n].iter().map(|&w| w as u64).collect(),
        }
    }

    fn feedback(&self, session_id: u64, labels: &[(u32, bool)], deadline: Deadline) -> Response {
        let state = match self.session(session_id) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let mut state = state.lock().unwrap();
        if labels
            .iter()
            .any(|&(w, _)| (w as usize) >= state.bags.len())
        {
            return err(
                ErrorKind::BadRequest,
                format!("label window out of range (clip has {} windows)", state.bags.len()),
            );
        }
        if let Some(resp) = deadline.check() {
            return resp;
        }
        let feedback: Vec<(usize, bool)> =
            labels.iter().map(|&(w, r)| (w as usize, r)).collect();
        {
            let _span = tsvr_obs::tspan!("serve.learn");
            let SessionState {
                learner,
                bags,
                ranking,
                ..
            } = &mut *state;
            let bags: &[Bag] = bags.as_slice();
            learner.learn(bags, &feedback);
            *ranking = rank_scores(bags, &learner.score_all(bags));
        }
        state.feedback.push(labels.to_vec());
        // Durability point: the `learned` ack goes out only after the
        // full-history checkpoint is appended AND synced.
        let row = SessionRow {
            session_id,
            clip_id: state.clip_id,
            query: state.query.clone(),
            learner: state.learner.name().into(),
            feedback: state.feedback.clone(),
            accuracies: Vec::new(),
        };
        {
            let _span = tsvr_obs::tspan!("serve.checkpoint");
            let mut db = self.db.lock().unwrap();
            if let Err(e) = db.put_session(&row).and_then(|()| db.sync()) {
                // The in-memory session is ahead of disk; the next
                // successful checkpoint carries this round too, because
                // rows hold the full history. A lost checkpoint is the
                // incident the flight recorder exists for: dump it.
                tsvr_obs::counter!("serve.checkpoint.failed").incr();
                tsvr_obs::trace::incident_dump(
                    "serve.checkpoint.failed",
                    &format!("session {session_id} round {}: {e}", state.feedback.len()),
                );
                return err(
                    ErrorKind::Storage,
                    format!("round applied in memory but NOT durable: {e}"),
                );
            }
        }
        tsvr_obs::counter!("serve.rounds.checkpointed").incr();
        tsvr_obs::counter_labeled("serve.rounds.checkpointed", &format!("session={session_id}"))
            .incr();
        Response::Learned {
            session_id,
            round: state.feedback.len(),
        }
    }

    /// Answers a `query` request: parse the expression, run the
    /// progressive planner with the stateless heuristic scorer, and
    /// return the ranking plus the plan receipt. Parse failures (with
    /// their did-you-mean suggestions) and unevaluable class predicates
    /// are `bad_request`; quarantined-but-relevant shards do *not* fail
    /// the request — they come back in the `degraded` list.
    fn query(&self, expr: &str, k: Option<usize>, deadline: Deadline) -> Response {
        let parsed = match tsvr_core::parse_query(expr) {
            Ok(q) => q,
            Err(e) => return err(ErrorKind::BadRequest, format!("query: {e}")),
        };
        if let Some(resp) = deadline.check() {
            return resp;
        }
        let planner = tsvr_core::Planner::new(k.unwrap_or(self.cfg.default_top_n));
        let mut db = self.db.lock().unwrap();
        match planner.run(&mut db, &parsed, tsvr_core::Scorer::Heuristic) {
            Ok(out) => {
                if !out.degraded.is_empty() {
                    tsvr_obs::counter!("serve.query.partial").incr();
                    tsvr_obs::trace::incident(
                        "serve.query.partial",
                        &format!("{} relevant shard(s) unserveable", out.degraded.len()),
                    );
                }
                Response::QueryResult {
                    ranking: out.ranking,
                    stats: out.stats,
                    degraded: out.degraded,
                }
            }
            Err(tsvr_core::PlanError::Db(e)) => db_err(&e),
            Err(e @ tsvr_core::PlanError::ClassesUnavailable { .. }) => {
                err(ErrorKind::BadRequest, e.to_string())
            }
            Err(tsvr_core::PlanError::Query(e)) => err(ErrorKind::BadRequest, format!("query: {e}")),
        }
    }

    fn list_sessions(&self, clip_id: u64) -> Response {
        // Stored rows first (db lock dropped before touching session
        // locks — see the module's lock-order note)...
        let rows = match self.db.lock().unwrap().sessions_for_clip(clip_id) {
            Ok(rows) => rows,
            Err(e) => return db_err(&e),
        };
        let mut by_id: std::collections::BTreeMap<u64, SessionSummary> = std::collections::BTreeMap::new();
        for r in rows {
            let entry = by_id.entry(r.session_id).or_insert_with(|| SessionSummary {
                session_id: r.session_id,
                clip_id: r.clip_id,
                query: r.query.clone(),
                learner: r.learner.clone(),
                rounds: 0,
                live: false,
            });
            entry.rounds = entry.rounds.max(r.feedback.len());
        }
        // ...then live sessions overlay them (a live session is never
        // behind its last checkpoint).
        let live: Vec<(u64, Arc<Mutex<SessionState>>)> = self
            .sessions
            .lock()
            .unwrap()
            .iter()
            .map(|(&id, s)| (id, Arc::clone(s)))
            .collect();
        for (id, state) in live {
            let state = state.lock().unwrap();
            if state.clip_id != clip_id {
                continue;
            }
            let entry = by_id.entry(id).or_insert_with(|| SessionSummary {
                session_id: id,
                clip_id,
                query: state.query.clone(),
                learner: state.learner.name().into(),
                rounds: 0,
                live: true,
            });
            entry.live = true;
            entry.rounds = entry.rounds.max(state.feedback.len());
        }
        Response::Sessions {
            sessions: by_id.into_values().collect(),
        }
    }

    fn close(&self, session_id: u64) -> Response {
        // Idempotent: closing an unknown or already-closed session is a
        // no-op, not an error (its checkpoints remain stored).
        self.sessions.lock().unwrap().remove(&session_id);
        Response::Closed { session_id }
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("cfg", &self.cfg)
            .field("draining", &self.is_draining())
            .finish_non_exhaustive()
    }
}
