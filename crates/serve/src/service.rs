//! The in-process service: session management, checkpointing, and the
//! one `handle` entry point every transport shares.
//!
//! ## Durability contract
//!
//! A `learned` response is only sent after the round's checkpoint — a
//! full-history [`SessionRow`](tsvr_viddb::SessionRow) — has been
//! appended **and synced** to the database. Crash the process at any storage operation and every round
//! the client was told about is resumable via [`Session::resume`];
//! rounds that never got their `learned` ack may be lost, which is
//! exactly the at-most-once promise a client can reason about. Because
//! every checkpoint row carries the complete feedback history, a single
//! successful checkpoint also re-persists any earlier round whose own
//! checkpoint write failed transiently.
//!
//! ## Concurrency model
//!
//! Every session is a [`tsvr_core::Session`], which owns the protocol's
//! rules (heuristic first page, learn-then-re-rank rounds, replay on
//! resume); this module adds locking, deadlines, error mapping, the
//! checkpoint and metrics around it.
//!
//! One mutex per session serializes that client's requests; different
//! sessions contend on three maps: the database handle, the clip view
//! map and the session table. The expensive work — scoring every bag —
//! runs outside all service locks except the owning session's, and fans
//! out internally on the bounded [`tsvr_par`] pool via
//! [`Learner::score_all`](tsvr_mil::Learner::score_all). A `query`
//! holds the database and the view map for its whole plan. Lock order
//! is `session → db → views`; nothing acquires a session lock while
//! holding the db lock, and an `open` or `resume` that misses the view
//! map releases it before it takes the db lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::proto::{Envelope, ErrorKind, Request, Response, ServeError, SessionSummary};
use tsvr_core::{latest_checkpoints, ClipView, ClipViews, LearnerKind, Session, SessionError};
use tsvr_viddb::{DbError, ShardedDb};

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

/// The concurrent retrieval service. Wrap it in an [`Arc`] and call
/// [`Service::handle`] from any number of threads; the TCP server in
/// [`crate::server`] is one such caller, tests and the CLI are others.
pub struct Service {
    db: Mutex<ShardedDb>,
    /// Every clip view read so far, shared read-only by sessions and
    /// planned queries, so a warm plan or `open` decodes nothing. A
    /// view cannot go stale: the service owns its archive and writes
    /// only session rows. This is the system's only clip cache.
    views: Mutex<ClipViews>,
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    cfg: ServiceConfig,
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

/// A handler's outcome; `Err` holds an already-built error response,
/// so handlers can bail out with `?`.
type Reply = Result<Response, Response>;

/// Parses a request's learner spec; an unknown one is `bad_request`.
fn learner_kind(spec: &str) -> Result<LearnerKind, Response> {
    LearnerKind::from_spec(spec)
        .ok_or_else(|| err(ErrorKind::BadRequest, format!("unknown learner {spec:?}")))
}

/// Maps a session-rule refusal to its wire error. Learner refusals
/// are incidents: the flight recorder keeps them for the operator.
fn session_err(session_id: u64, e: &SessionError) -> Response {
    match e {
        SessionError::LearnerMismatch { .. } | SessionError::UnknownLearner { .. } => {
            tsvr_obs::trace::incident(
                "serve.learner.mismatch",
                &format!("session {session_id}: replay refused: {e}"),
            );
            err(ErrorKind::LearnerMismatch, e.to_string())
        }
        SessionError::WindowOutOfRange { .. } => err(ErrorKind::BadRequest, e.to_string()),
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

    /// An error once the budget is spent. Checked before each
    /// expensive stage; a round whose training already started always
    /// runs to completion (and checkpoints), so the deadline bounds
    /// queue + startup cost without ever leaving a half-applied round.
    fn check(&self) -> Result<(), Response> {
        let Some(budget) = self.budget.filter(|&b| self.started.elapsed() >= b) else {
            return Ok(());
        };
        tsvr_obs::counter!("serve.deadline_exceeded").incr();
        tsvr_obs::trace::incident(
            "serve.deadline_exceeded",
            &format!("budget {budget:?} spent before the work started"),
        );
        Err(err(
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
            views: Mutex::new(ClipViews::new()),
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
            Request::Close { session_id } => Ok(self.close(*session_id)),
            Request::Ping => Ok(Response::Pong),
            Request::Stats => Ok(Response::Stats {
                snapshot: tsvr_obs::snapshot(),
            }),
            Request::Trace { trace_id } => Ok(Self::trace_of(*trace_id)),
            Request::Slowlog => Ok(Response::Slowlog {
                threshold_ns: tsvr_obs::trace::slow_threshold_ns(),
                entries: tsvr_obs::trace::slowlog(),
            }),
            Request::Shutdown => {
                self.begin_drain();
                Ok(Response::ShuttingDown)
            }
        }
        .unwrap_or_else(|e| e);
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

    /// The clip's view: kept, else read by [`ClipView::load`].
    fn clip_view(&self, clip_id: u64) -> Result<Arc<ClipView>, Response> {
        if let Some(view) = self.views.lock().unwrap().get(&clip_id) {
            return Ok(Arc::clone(view));
        }
        // Load outside the view lock; a racing load computes the same
        // value, and the first insert wins.
        let view = ClipView::load(&mut self.db.lock().unwrap(), clip_id).map_err(|e| db_err(&e))?;
        Ok(Arc::clone(
            self.views
                .lock()
                .unwrap()
                .entry(clip_id)
                .or_insert_with(|| Arc::new(view)),
        ))
    }

    fn session(&self, session_id: u64) -> Result<Arc<Mutex<Session>>, Response> {
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

    fn open(&self, clip_id: u64, query: &str, learner: &str, deadline: Deadline) -> Reply {
        self.refuse_if_draining()?;
        let kind = learner_kind(learner)?;
        let bags = Arc::clone(self.clip_view(clip_id)?.bags());
        deadline.check()?;
        let session_id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let opened = self.install(Session::open(session_id, clip_id, query, kind, bags));
        tsvr_obs::counter!("serve.sessions.opened").incr();
        tsvr_obs::counter_labeled("serve.sessions.opened", &format!("session={session_id}")).incr();
        Ok(opened)
    }

    fn resume(
        &self,
        clip_id: u64,
        session_id: u64,
        learner: Option<&str>,
        deadline: Deadline,
    ) -> Reply {
        self.refuse_if_draining()?;
        let rows = self
            .db
            .lock()
            .unwrap()
            .sessions_for_clip(clip_id)
            .map_err(|e| db_err(&e))?;
        let row = latest_checkpoints(rows)
            .remove(&session_id)
            .ok_or_else(|| {
                err(
                    ErrorKind::NotFound,
                    format!("no stored session {session_id} for clip {clip_id}"),
                )
            })?;
        // No learner named: the one the stored row names.
        let kind = learner.map(learner_kind).transpose()?;
        let bags = Arc::clone(self.clip_view(clip_id)?.bags());
        deadline.check()?;
        let session = Session::resume(&row, kind, bags).map_err(|e| session_err(session_id, &e))?;
        let opened = self.install(session);
        // Fresh ids must never collide with a resumed one.
        self.next_id.fetch_max(session_id + 1, Ordering::SeqCst);
        tsvr_obs::counter!("serve.sessions.resumed").incr();
        Ok(opened)
    }

    fn refuse_if_draining(&self) -> Result<(), Response> {
        if self.is_draining() {
            return Err(err(ErrorKind::ShuttingDown, "server is draining"));
        }
        Ok(())
    }

    /// Makes `session` live (replacing any live session with its id)
    /// and describes it as the `opened` response.
    fn install(&self, session: Session) -> Response {
        let opened = Response::Opened {
            session_id: session.session_id(),
            clip_id: session.clip_id(),
            windows: session.bags().len(),
            rounds: session.rounds(),
            learner: session.learner_name().to_string(),
        };
        self.sessions
            .lock()
            .unwrap()
            .insert(session.session_id(), Arc::new(Mutex::new(session)));
        opened
    }

    fn page(&self, session_id: u64, n: Option<usize>) -> Reply {
        let session = self.session(session_id)?;
        let session = session.lock().unwrap();
        Ok(Response::Page {
            session_id,
            round: session.rounds(),
            ranking: session
                .page(n.unwrap_or(self.cfg.default_top_n))
                .iter()
                .map(|&w| w as u64)
                .collect(),
        })
    }

    fn feedback(&self, session_id: u64, labels: &[(u32, bool)], deadline: Deadline) -> Reply {
        let session = self.session(session_id)?;
        let mut session = session.lock().unwrap();
        // A malformed round is a `bad_request` even past its deadline.
        let labels: Vec<(usize, bool)> = labels.iter().map(|&(w, r)| (w as usize, r)).collect();
        session
            .check_labels(&labels)
            .map_err(|e| session_err(session_id, &e))?;
        deadline.check()?;
        let row = {
            let _span = tsvr_obs::tspan!("serve.learn");
            session
                .feedback(&labels)
                .map_err(|e| session_err(session_id, &e))?
        };
        // Durability point: the `learned` ack goes out only after the
        // full-history checkpoint is appended AND synced.
        {
            let _span = tsvr_obs::tspan!("serve.checkpoint");
            let mut db = self.db.lock().unwrap();
            if let Err(e) = db.put_session(row).and_then(|()| db.sync()) {
                // The in-memory session is ahead of disk; the next
                // successful checkpoint carries this round too, because
                // rows hold the full history. A lost checkpoint is the
                // incident the flight recorder exists for: dump it.
                tsvr_obs::counter!("serve.checkpoint.failed").incr();
                tsvr_obs::trace::incident_dump(
                    "serve.checkpoint.failed",
                    &format!("session {session_id} round {}: {e}", row.feedback.len()),
                );
                return Err(err(
                    ErrorKind::Storage,
                    format!("round applied in memory but NOT durable: {e}"),
                ));
            }
        }
        tsvr_obs::counter!("serve.rounds.checkpointed").incr();
        tsvr_obs::counter_labeled(
            "serve.rounds.checkpointed",
            &format!("session={session_id}"),
        )
        .incr();
        Ok(Response::Learned {
            session_id,
            round: row.feedback.len(),
        })
    }

    /// Answers a `query` request: parse the expression, run the
    /// progressive planner with the stateless heuristic scorer, and
    /// return the ranking plus the plan receipt. Parse failures (with
    /// their did-you-mean suggestions) and unevaluable class predicates
    /// are `bad_request`; quarantined-but-relevant shards do *not* fail
    /// the request — they come back in the `degraded` list.
    fn query(&self, expr: &str, k: Option<usize>, deadline: Deadline) -> Reply {
        let parsed = tsvr_core::parse_query(expr)
            .map_err(|e| err(ErrorKind::BadRequest, format!("query: {e}")))?;
        deadline.check()?;
        let planner = tsvr_core::Planner::new(k.unwrap_or(self.cfg.default_top_n));
        let mut db = self.db.lock().unwrap();
        let mut views = self.views.lock().unwrap();
        let outcome = planner.run_with(&mut db, &mut views, &parsed, tsvr_core::Scorer::Heuristic);
        Ok(match outcome {
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
        })
    }

    fn list_sessions(&self, clip_id: u64) -> Reply {
        // Stored rows first (db lock dropped before touching session
        // locks — see the module's lock-order note)...
        let rows = self
            .db
            .lock()
            .unwrap()
            .sessions_for_clip(clip_id)
            .map_err(|e| db_err(&e))?;
        let summary = |session_id, query: &str, learner: &str, rounds, live| SessionSummary {
            session_id,
            clip_id,
            query: query.to_string(),
            learner: learner.to_string(),
            rounds,
            live,
        };
        let mut by_id: std::collections::BTreeMap<u64, SessionSummary> = latest_checkpoints(rows)
            .into_iter()
            .map(|(id, r)| {
                (
                    id,
                    summary(id, &r.query, &r.learner, r.feedback.len(), false),
                )
            })
            .collect();
        // ...then live sessions overlay them (a live session is never
        // behind its last checkpoint).
        let live: Vec<Arc<Mutex<Session>>> =
            self.sessions.lock().unwrap().values().cloned().collect();
        for session in live {
            let s = session.lock().unwrap();
            if s.clip_id() == clip_id {
                let id = s.session_id();
                let stored = by_id.get(&id).map_or(0, |e| e.rounds);
                let rounds = s.rounds().max(stored);
                by_id.insert(id, summary(id, s.query(), s.learner_name(), rounds, true));
            }
        }
        Ok(Response::Sessions {
            sessions: by_id.into_values().collect(),
        })
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
