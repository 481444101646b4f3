//! The wire protocol: one JSON object per line, in both directions.
//!
//! Requests name their operation in an `"op"` field; responses either
//! name their payload in an `"ok"` field or carry an `"error"` kind.
//! Both directions use [`tsvr_obs::json::Json`], so the service, the
//! CLI client, the bench driver, and shell clients (`bash /dev/tcp`,
//! `nc`) all speak the same ten-line grammar:
//!
//! ```text
//! -> {"op":"open","clip_id":1,"query":"accident","learner":"ocsvm"}
//! <- {"ok":"opened","session_id":3,"clip_id":1,"windows":57,"rounds":0,"learner":"MIL_OneClassSVM"}
//! -> {"op":"page","session_id":3,"n":5}
//! <- {"ok":"page","session_id":3,"round":0,"ranking":[12,40,7,31,2]}
//! -> {"op":"feedback","session_id":3,"labels":[[12,true],[40,false]]}
//! <- {"ok":"learned","session_id":3,"round":1}
//! ```

use tsvr_core::{DegradedShard, PlanStats, RankedWindow};
use tsvr_obs::json::Json;
use tsvr_obs::trace::FinishedTrace;
use tsvr_obs::Snapshot;

/// One client request, already validated structurally.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Start a new retrieval session over a stored clip.
    Open {
        /// Clip to retrieve from.
        clip_id: u64,
        /// Free-form query label recorded with the session (e.g.
        /// `"accident"`).
        query: String,
        /// Learner spec (`"ocsvm"`, `"wrf"`, `"misvm"`, `"dd"`,
        /// `"emdd"`, or a stored learner display name); empty string
        /// selects the paper's OC-SVM.
        learner: String,
    },
    /// Restore a persisted session (same id, same learner state).
    Resume {
        /// Clip the session was recorded against.
        clip_id: u64,
        /// Stored session id.
        session_id: u64,
        /// Optional learner spec override; `None` trusts the stored
        /// row's learner name.
        learner: Option<String>,
    },
    /// Fetch the current top-`n` page of a live session.
    Page {
        /// Live session id.
        session_id: u64,
        /// Page size; `None` uses the service default (paper: 20).
        n: Option<usize>,
    },
    /// Submit one round of relevance labels and re-rank.
    Feedback {
        /// Live session id.
        session_id: u64,
        /// `(window, relevant)` labels for this round.
        labels: Vec<(u32, bool)>,
    },
    /// Run a query-language expression through the progressive planner
    /// over the whole archive (heuristic scorer, no session state).
    Query {
        /// The expression, e.g.
        /// `"camera = cam-1 and vdiff >= 3.5 and time in [0, 3600]"`.
        expr: String,
        /// Ranking depth; `None` uses the service default page size.
        k: Option<usize>,
    },
    /// List stored + live sessions for a clip.
    Sessions {
        /// Clip whose sessions to list.
        clip_id: u64,
    },
    /// Drop a live session from memory (its checkpoints stay stored).
    Close {
        /// Live session id.
        session_id: u64,
    },
    /// Liveness check.
    Ping,
    /// Live metrics snapshot (counters + histograms, labeled included).
    Stats,
    /// Fetch one completed request's span tree by trace id, or the most
    /// recent one when no id is given.
    Trace {
        /// Trace id (as carried on error responses and slowlog
        /// entries); `None` returns the latest completed trace.
        trace_id: Option<u64>,
    },
    /// The retained slowlog: full span trees of requests that exceeded
    /// the server's latency threshold.
    Slowlog,
    /// Begin graceful drain: no new sessions, in-flight requests
    /// finish, then the server exits.
    Shutdown,
}

impl Request {
    /// Stable operation name (the `"op"` field value).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Resume { .. } => "resume",
            Request::Page { .. } => "page",
            Request::Feedback { .. } => "feedback",
            Request::Query { .. } => "query",
            Request::Sessions { .. } => "sessions",
            Request::Close { .. } => "close",
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Trace { .. } => "trace",
            Request::Slowlog => "slowlog",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request plus its transport options.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The operation.
    pub req: Request,
    /// Per-request deadline in milliseconds, measured from the moment
    /// the service starts handling it; `None` uses the service default.
    pub deadline_ms: Option<u64>,
}

impl Envelope {
    /// Wraps a request with no deadline override.
    pub fn new(req: Request) -> Envelope {
        Envelope {
            req,
            deadline_ms: None,
        }
    }
}

/// One line of the `sessions` listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    /// Session id.
    pub session_id: u64,
    /// Clip the session retrieves from.
    pub clip_id: u64,
    /// Query label recorded at open.
    pub query: String,
    /// Learner display name.
    pub learner: String,
    /// Completed feedback rounds.
    pub rounds: usize,
    /// Whether the session is currently live in the service (vs only
    /// persisted).
    pub live: bool,
}

/// Error classification carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed or semantically invalid request.
    BadRequest,
    /// Unknown clip or session id.
    NotFound,
    /// Stored session's learner differs from the requested one.
    LearnerMismatch,
    /// The server's connection queue is full; retry later.
    Overloaded,
    /// The request's deadline expired before the expensive work began.
    DeadlineExceeded,
    /// The database rejected a read or a checkpoint write.
    Storage,
    /// The server is draining and accepts no new sessions.
    ShuttingDown,
}

impl ErrorKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::NotFound => "not_found",
            ErrorKind::LearnerMismatch => "learner_mismatch",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Storage => "storage",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }

    /// Inverse of [`ErrorKind::as_str`].
    pub fn from_wire(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "bad_request" => ErrorKind::BadRequest,
            "not_found" => ErrorKind::NotFound,
            "learner_mismatch" => ErrorKind::LearnerMismatch,
            "overloaded" => ErrorKind::Overloaded,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "storage" => ErrorKind::Storage,
            "shutting_down" => ErrorKind::ShuttingDown,
            _ => return None,
        })
    }
}

/// A typed protocol error (kind + human-readable detail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Classification.
    pub kind: ErrorKind,
    /// Detail for humans; not meant to be parsed.
    pub message: String,
    /// The failing request's trace id, when the service was tracing it
    /// — feed it to `{"op":"trace","trace_id":N}` (or `tsvr trace`) to
    /// see where the request spent its time before failing.
    pub trace: Option<u64>,
}

impl ServeError {
    /// Builds an error response value (no trace attribution).
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServeError {
        ServeError {
            kind,
            message: message.into(),
            trace: None,
        }
    }

    /// Attach the originating trace id.
    pub fn with_trace(mut self, trace: Option<u64>) -> ServeError {
        self.trace = trace;
        self
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ServeError {}

/// One server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A session is live (new or resumed).
    Opened {
        /// Assigned (or restored) session id.
        session_id: u64,
        /// Clip being retrieved from.
        clip_id: u64,
        /// Windows (bags) in the clip's database.
        windows: usize,
        /// Feedback rounds already incorporated.
        rounds: usize,
        /// Learner display name driving the session.
        learner: String,
    },
    /// The current ranking page.
    Page {
        /// Session id.
        session_id: u64,
        /// Feedback rounds incorporated into this ranking.
        round: usize,
        /// Window indices, best first.
        ranking: Vec<u64>,
    },
    /// A feedback round was incorporated **and durably checkpointed**.
    Learned {
        /// Session id.
        session_id: u64,
        /// Total completed rounds (this one included).
        round: usize,
    },
    /// A planned query's results: ranking plus the plan receipt.
    QueryResult {
        /// Ranked surviving windows, best first.
        ranking: Vec<RankedWindow>,
        /// What each planner stage pruned.
        stats: PlanStats,
        /// Relevant shards that could not be served — a non-empty list
        /// marks a *partial* result even when `ranking` is empty.
        degraded: Vec<DegradedShard>,
    },
    /// The `sessions` listing.
    Sessions {
        /// One entry per session, ascending id.
        sessions: Vec<SessionSummary>,
    },
    /// The session was dropped from memory.
    Closed {
        /// Session id.
        session_id: u64,
    },
    /// Liveness answer.
    Pong,
    /// Live metrics snapshot.
    Stats {
        /// Point-in-time registry copy (labeled metrics included).
        snapshot: Snapshot,
    },
    /// One completed request's span tree.
    Trace {
        /// The finished trace (root span, nested events, incidents).
        trace: FinishedTrace,
    },
    /// The retained slowlog.
    Slowlog {
        /// Latency threshold in nanoseconds a request must exceed to be
        /// retained; `u64::MAX` means the slowlog is disabled.
        threshold_ns: u64,
        /// Retained slow traces, oldest first.
        entries: Vec<FinishedTrace>,
    },
    /// Drain acknowledged.
    ShuttingDown,
    /// The request failed.
    Error(ServeError),
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Serializes a request envelope to one wire line (no trailing newline).
pub fn encode_request(env: &Envelope) -> String {
    let mut fields = vec![("op", Json::Str(env.req.op_name().into()))];
    match &env.req {
        Request::Open {
            clip_id,
            query,
            learner,
        } => {
            fields.push(("clip_id", num(*clip_id)));
            fields.push(("query", Json::Str(query.clone())));
            if !learner.is_empty() {
                fields.push(("learner", Json::Str(learner.clone())));
            }
        }
        Request::Resume {
            clip_id,
            session_id,
            learner,
        } => {
            fields.push(("clip_id", num(*clip_id)));
            fields.push(("session_id", num(*session_id)));
            if let Some(l) = learner {
                fields.push(("learner", Json::Str(l.clone())));
            }
        }
        Request::Page { session_id, n } => {
            fields.push(("session_id", num(*session_id)));
            if let Some(n) = n {
                fields.push(("n", num(*n as u64)));
            }
        }
        Request::Feedback { session_id, labels } => {
            fields.push(("session_id", num(*session_id)));
            fields.push((
                "labels",
                Json::Arr(
                    labels
                        .iter()
                        .map(|&(w, r)| Json::Arr(vec![num(u64::from(w)), Json::Bool(r)]))
                        .collect(),
                ),
            ));
        }
        Request::Query { expr, k } => {
            fields.push(("expr", Json::Str(expr.clone())));
            if let Some(k) = k {
                fields.push(("k", num(*k as u64)));
            }
        }
        Request::Sessions { clip_id } => fields.push(("clip_id", num(*clip_id))),
        Request::Close { session_id } => fields.push(("session_id", num(*session_id))),
        Request::Trace { trace_id } => {
            if let Some(id) = trace_id {
                fields.push(("trace_id", num(*id)));
            }
        }
        Request::Ping | Request::Stats | Request::Slowlog | Request::Shutdown => {}
    }
    if let Some(ms) = env.deadline_ms {
        fields.push(("deadline_ms", num(ms)));
    }
    obj(fields).to_string()
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// Parses one wire line into a request envelope. The error string is
/// human-readable and becomes a `bad_request` response.
pub fn decode_request(line: &str) -> Result<Envelope, String> {
    let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field \"op\"")?;
    let req = match op {
        "open" => Request::Open {
            clip_id: field_u64(&v, "clip_id")?,
            query: v
                .get("query")
                .and_then(Json::as_str)
                .unwrap_or("accident")
                .to_string(),
            learner: v
                .get("learner")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        },
        "resume" => Request::Resume {
            clip_id: field_u64(&v, "clip_id")?,
            session_id: field_u64(&v, "session_id")?,
            learner: v.get("learner").and_then(Json::as_str).map(String::from),
        },
        "page" => Request::Page {
            session_id: field_u64(&v, "session_id")?,
            n: match v.get("n") {
                Some(n) => Some(
                    n.as_u64()
                        .ok_or("field \"n\" must be a non-negative integer")?
                        as usize,
                ),
                None => None,
            },
        },
        "feedback" => {
            let labels = v
                .get("labels")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"labels\"")?;
            let mut parsed = Vec::with_capacity(labels.len());
            for l in labels {
                let pair = l
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("each label must be a [window, relevant] pair, e.g. [12, true]")?;
                let w = pair[0]
                    .as_u64()
                    .filter(|&w| w <= u64::from(u32::MAX))
                    .ok_or("label window must be a u32 index")?;
                let r = match pair[1] {
                    Json::Bool(b) => b,
                    _ => return Err("label relevance must be a boolean".into()),
                };
                parsed.push((w as u32, r));
            }
            Request::Feedback {
                session_id: field_u64(&v, "session_id")?,
                labels: parsed,
            }
        }
        "query" => Request::Query {
            expr: v
                .get("expr")
                .and_then(Json::as_str)
                .ok_or("missing string field \"expr\"")?
                .to_string(),
            k: match v.get("k") {
                Some(k) => Some(
                    k.as_u64()
                        .ok_or("field \"k\" must be a non-negative integer")?
                        as usize,
                ),
                None => None,
            },
        },
        "sessions" => Request::Sessions {
            clip_id: field_u64(&v, "clip_id")?,
        },
        "close" => Request::Close {
            session_id: field_u64(&v, "session_id")?,
        },
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "trace" => Request::Trace {
            trace_id: match v.get("trace_id") {
                Some(id) => Some(
                    id.as_u64()
                        .ok_or("field \"trace_id\" must be a non-negative integer")?,
                ),
                None => None,
            },
        },
        "slowlog" => Request::Slowlog,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown op {other:?}")),
    };
    let deadline_ms = match v.get("deadline_ms") {
        Some(d) => Some(
            d.as_u64()
                .ok_or("field \"deadline_ms\" must be a non-negative integer")?,
        ),
        None => None,
    };
    Ok(Envelope { req, deadline_ms })
}

/// Serializes a response to one wire line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let v = match resp {
        Response::Opened {
            session_id,
            clip_id,
            windows,
            rounds,
            learner,
        } => obj(vec![
            ("ok", Json::Str("opened".into())),
            ("session_id", num(*session_id)),
            ("clip_id", num(*clip_id)),
            ("windows", num(*windows as u64)),
            ("rounds", num(*rounds as u64)),
            ("learner", Json::Str(learner.clone())),
        ]),
        Response::Page {
            session_id,
            round,
            ranking,
        } => obj(vec![
            ("ok", Json::Str("page".into())),
            ("session_id", num(*session_id)),
            ("round", num(*round as u64)),
            (
                "ranking",
                Json::Arr(ranking.iter().map(|&w| num(w)).collect()),
            ),
        ]),
        Response::Learned { session_id, round } => obj(vec![
            ("ok", Json::Str("learned".into())),
            ("session_id", num(*session_id)),
            ("round", num(*round as u64)),
        ]),
        Response::QueryResult {
            ranking,
            stats,
            degraded,
        } => obj(vec![
            ("ok", Json::Str("query".into())),
            (
                "ranking",
                Json::Arr(
                    ranking
                        .iter()
                        .map(|r| {
                            Json::Arr(vec![
                                num(r.clip_id),
                                num(r.window_index),
                                Json::Num(r.score),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "plan",
                obj(vec![
                    ("shards_total", num(stats.shards_total as u64)),
                    ("shards_pruned", num(stats.shards_pruned as u64)),
                    ("clips_considered", num(stats.clips_considered as u64)),
                    ("clips_pruned", num(stats.clips_pruned as u64)),
                    ("windows_scanned", num(stats.windows_scanned as u64)),
                    ("windows_prefiltered", num(stats.windows_prefiltered as u64)),
                    ("windows_ranked", num(stats.windows_ranked as u64)),
                ]),
            ),
            (
                "degraded",
                Json::Arr(
                    degraded
                        .iter()
                        .map(|d| {
                            obj(vec![
                                ("file", Json::Str(d.file.clone())),
                                ("camera", Json::Str(d.camera.clone())),
                                ("bucket", num(d.bucket)),
                                ("reason", Json::Str(d.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Sessions { sessions } => obj(vec![
            ("ok", Json::Str("sessions".into())),
            (
                "sessions",
                Json::Arr(
                    sessions
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("session_id", num(s.session_id)),
                                ("clip_id", num(s.clip_id)),
                                ("query", Json::Str(s.query.clone())),
                                ("learner", Json::Str(s.learner.clone())),
                                ("rounds", num(s.rounds as u64)),
                                ("live", Json::Bool(s.live)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Closed { session_id } => obj(vec![
            ("ok", Json::Str("closed".into())),
            ("session_id", num(*session_id)),
        ]),
        Response::Pong => obj(vec![("ok", Json::Str("pong".into()))]),
        Response::Stats { snapshot } => obj(vec![
            ("ok", Json::Str("stats".into())),
            ("snapshot", snapshot.to_json_value()),
        ]),
        Response::Trace { trace } => obj(vec![
            ("ok", Json::Str("trace".into())),
            ("trace", trace.to_json_value()),
        ]),
        Response::Slowlog {
            threshold_ns,
            entries,
        } => obj(vec![
            ("ok", Json::Str("slowlog".into())),
            ("threshold_ns", num(*threshold_ns)),
            (
                "entries",
                Json::Arr(entries.iter().map(FinishedTrace::to_json_value).collect()),
            ),
        ]),
        Response::ShuttingDown => obj(vec![("ok", Json::Str("shutting_down".into()))]),
        Response::Error(e) => {
            let mut fields = vec![
                ("error", Json::Str(e.kind.as_str().into())),
                ("message", Json::Str(e.message.clone())),
            ];
            if let Some(t) = e.trace {
                fields.push(("trace", num(t)));
            }
            obj(fields)
        }
    };
    v.to_string()
}

/// Parses one wire line into a response (the client half).
pub fn decode_response(line: &str) -> Result<Response, String> {
    let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
    if let Some(kind) = v.get("error").and_then(Json::as_str) {
        let kind =
            ErrorKind::from_wire(kind).ok_or_else(|| format!("unknown error kind {kind:?}"))?;
        return Ok(Response::Error(
            ServeError::new(kind, v.get("message").and_then(Json::as_str).unwrap_or(""))
                .with_trace(v.get("trace").and_then(Json::as_u64)),
        ));
    }
    let ok = v
        .get("ok")
        .and_then(Json::as_str)
        .ok_or("response has neither \"ok\" nor \"error\"")?;
    Ok(match ok {
        "opened" => Response::Opened {
            session_id: field_u64(&v, "session_id")?,
            clip_id: field_u64(&v, "clip_id")?,
            windows: field_u64(&v, "windows")? as usize,
            rounds: field_u64(&v, "rounds")? as usize,
            learner: v
                .get("learner")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        },
        "page" => Response::Page {
            session_id: field_u64(&v, "session_id")?,
            round: field_u64(&v, "round")? as usize,
            ranking: v
                .get("ranking")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"ranking\"")?
                .iter()
                .map(|w| w.as_u64().ok_or("ranking entries must be integers"))
                .collect::<Result<_, _>>()?,
        },
        "learned" => Response::Learned {
            session_id: field_u64(&v, "session_id")?,
            round: field_u64(&v, "round")? as usize,
        },
        "query" => {
            let ranking = v
                .get("ranking")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"ranking\"")?
                .iter()
                .map(|hit| {
                    let parts = hit
                        .as_arr()
                        .filter(|p| p.len() == 3)
                        .ok_or("each hit must be a [clip, window, score] triple")?;
                    Ok(RankedWindow {
                        clip_id: parts[0].as_u64().ok_or("hit clip must be an integer")?,
                        window_index: parts[1].as_u64().ok_or("hit window must be an integer")?,
                        score: parts[2].as_f64().ok_or("hit score must be a number")?,
                    })
                })
                .collect::<Result<_, String>>()?;
            let plan = v.get("plan").ok_or("missing object field \"plan\"")?;
            let stat = |key: &str| -> Result<usize, String> { Ok(field_u64(plan, key)? as usize) };
            let stats = PlanStats {
                shards_total: stat("shards_total")?,
                shards_pruned: stat("shards_pruned")?,
                clips_considered: stat("clips_considered")?,
                clips_pruned: stat("clips_pruned")?,
                windows_scanned: stat("windows_scanned")?,
                windows_prefiltered: stat("windows_prefiltered")?,
                windows_ranked: stat("windows_ranked")?,
            };
            let degraded = v
                .get("degraded")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"degraded\"")?
                .iter()
                .map(|d| {
                    let text = |key: &str| -> Result<String, String> {
                        Ok(d.get(key)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("missing string field {key:?}"))?
                            .to_string())
                    };
                    Ok(DegradedShard {
                        file: text("file")?,
                        camera: text("camera")?,
                        bucket: field_u64(d, "bucket")?,
                        reason: text("reason")?,
                    })
                })
                .collect::<Result<_, String>>()?;
            Response::QueryResult {
                ranking,
                stats,
                degraded,
            }
        }
        "sessions" => Response::Sessions {
            sessions: v
                .get("sessions")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"sessions\"")?
                .iter()
                .map(|s| {
                    Ok(SessionSummary {
                        session_id: field_u64(s, "session_id")?,
                        clip_id: field_u64(s, "clip_id")?,
                        query: s
                            .get("query")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        learner: s
                            .get("learner")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        rounds: field_u64(s, "rounds")? as usize,
                        live: matches!(s.get("live"), Some(Json::Bool(true))),
                    })
                })
                .collect::<Result<_, String>>()?,
        },
        "closed" => Response::Closed {
            session_id: field_u64(&v, "session_id")?,
        },
        "pong" => Response::Pong,
        "stats" => Response::Stats {
            snapshot: Snapshot::from_json_value(
                v.get("snapshot")
                    .ok_or("missing object field \"snapshot\"")?,
            )
            .map_err(|e| format!("bad snapshot: {e}"))?,
        },
        "trace" => Response::Trace {
            trace: FinishedTrace::from_json_value(
                v.get("trace").ok_or("missing object field \"trace\"")?,
            )
            .map_err(|e| format!("bad trace: {e}"))?,
        },
        "slowlog" => Response::Slowlog {
            threshold_ns: field_u64(&v, "threshold_ns")?,
            entries: v
                .get("entries")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"entries\"")?
                .iter()
                .map(|t| FinishedTrace::from_json_value(t).map_err(|e| format!("bad trace: {e}")))
                .collect::<Result<_, _>>()?,
        },
        "shutting_down" => Response::ShuttingDown,
        other => return Err(format!("unknown ok kind {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(env: Envelope) {
        let line = encode_request(&env);
        let back = decode_request(&line).unwrap();
        assert_eq!(back, env, "request round trip changed {line}");
    }

    fn round_trip_resp(resp: Response) {
        let line = encode_response(&resp);
        let back = decode_response(&line).unwrap();
        assert_eq!(back, resp, "response round trip changed {line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Envelope::new(Request::Open {
            clip_id: 1,
            query: "accident".into(),
            learner: "ocsvm".into(),
        }));
        round_trip_req(Envelope {
            req: Request::Resume {
                clip_id: 2,
                session_id: 9,
                learner: Some("wrf".into()),
            },
            deadline_ms: Some(1500),
        });
        round_trip_req(Envelope::new(Request::Resume {
            clip_id: 2,
            session_id: 9,
            learner: None,
        }));
        round_trip_req(Envelope::new(Request::Page {
            session_id: 3,
            n: Some(7),
        }));
        round_trip_req(Envelope::new(Request::Page {
            session_id: 3,
            n: None,
        }));
        round_trip_req(Envelope::new(Request::Feedback {
            session_id: 3,
            labels: vec![(12, true), (40, false)],
        }));
        round_trip_req(Envelope::new(Request::Query {
            expr: "camera = cam-1 and vdiff >= 3.5".into(),
            k: Some(10),
        }));
        round_trip_req(Envelope::new(Request::Query {
            expr: "all".into(),
            k: None,
        }));
        round_trip_req(Envelope::new(Request::Sessions { clip_id: 1 }));
        round_trip_req(Envelope::new(Request::Close { session_id: 3 }));
        round_trip_req(Envelope::new(Request::Ping));
        round_trip_req(Envelope::new(Request::Stats));
        round_trip_req(Envelope::new(Request::Trace { trace_id: Some(17) }));
        round_trip_req(Envelope::new(Request::Trace { trace_id: None }));
        round_trip_req(Envelope::new(Request::Slowlog));
        round_trip_req(Envelope::new(Request::Shutdown));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::Opened {
            session_id: 3,
            clip_id: 1,
            windows: 57,
            rounds: 2,
            learner: "MIL_OneClassSVM".into(),
        });
        round_trip_resp(Response::Page {
            session_id: 3,
            round: 1,
            ranking: vec![12, 40, 7],
        });
        round_trip_resp(Response::Learned {
            session_id: 3,
            round: 2,
        });
        round_trip_resp(Response::Sessions {
            sessions: vec![SessionSummary {
                session_id: 3,
                clip_id: 1,
                query: "accident".into(),
                learner: "MIL_OneClassSVM".into(),
                rounds: 2,
                live: true,
            }],
        });
        round_trip_resp(Response::QueryResult {
            ranking: vec![
                RankedWindow {
                    score: 0.875,
                    clip_id: 3,
                    window_index: u64::from(u32::MAX) + 7,
                },
                RankedWindow {
                    score: 0.1 + 0.2, // non-terminating binary fraction
                    clip_id: 1,
                    window_index: 0,
                },
            ],
            stats: PlanStats {
                shards_total: 12,
                shards_pruned: 9,
                clips_considered: 6,
                clips_pruned: 2,
                windows_scanned: 400,
                windows_prefiltered: 390,
                windows_ranked: 10,
            },
            degraded: vec![DegradedShard {
                file: "shard-cam-2-5".into(),
                camera: "cam-2".into(),
                bucket: 5,
                reason: "bad magic".into(),
            }],
        });
        round_trip_resp(Response::QueryResult {
            ranking: vec![],
            stats: PlanStats::default(),
            degraded: vec![],
        });
        round_trip_resp(Response::Closed { session_id: 3 });
        round_trip_resp(Response::Pong);
        round_trip_resp(Response::ShuttingDown);
        round_trip_resp(Response::Error(ServeError::new(
            ErrorKind::Overloaded,
            "queue full",
        )));
        round_trip_resp(Response::Error(
            ServeError::new(ErrorKind::Storage, "checkpoint failed").with_trace(Some(41)),
        ));
    }

    fn sample_trace(id: u64) -> FinishedTrace {
        FinishedTrace {
            trace: id,
            name: "serve.latency.page".into(),
            dur_ns: 120_000,
            events: vec![
                tsvr_obs::trace::Event {
                    seq: 7,
                    kind: tsvr_obs::trace::EventKind::Incident,
                    trace: id,
                    span: 3,
                    parent: 2,
                    name: "viddb.retry.exhausted".into(),
                    detail: "segment 4".into(),
                    start_ns: 50,
                    dur_ns: 0,
                },
                tsvr_obs::trace::Event {
                    seq: 9,
                    kind: tsvr_obs::trace::EventKind::Span,
                    trace: id,
                    span: 2,
                    parent: 0,
                    name: "serve.latency.page".into(),
                    detail: "".into(),
                    start_ns: 10,
                    dur_ns: 120_000,
                },
            ],
            dropped: 1,
        }
    }

    #[test]
    fn ops_plane_responses_round_trip() {
        round_trip_resp(Response::Stats {
            snapshot: Snapshot::default(),
        });
        round_trip_resp(Response::Trace {
            trace: sample_trace(41),
        });
        round_trip_resp(Response::Slowlog {
            threshold_ns: 100_000_000,
            entries: vec![sample_trace(41), sample_trace(42)],
        });
        round_trip_resp(Response::Slowlog {
            threshold_ns: u64::MAX,
            entries: vec![],
        });
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("", "parse error"),
            ("{}", "\"op\""),
            ("{\"op\":\"warp\"}", "unknown op"),
            ("{\"op\":\"open\"}", "clip_id"),
            ("{\"op\":\"feedback\",\"session_id\":1}", "labels"),
            (
                "{\"op\":\"feedback\",\"session_id\":1,\"labels\":[[1]]}",
                "pair",
            ),
            (
                "{\"op\":\"feedback\",\"session_id\":1,\"labels\":[[1,2]]}",
                "boolean",
            ),
            ("{\"op\":\"ping\",\"deadline_ms\":-4}", "deadline_ms"),
            ("{\"op\":\"query\"}", "expr"),
            ("{\"op\":\"query\",\"expr\":\"all\",\"k\":-1}", "\"k\""),
        ] {
            let err = decode_request(line).unwrap_err();
            assert!(
                err.contains(needle),
                "error for {line:?} was {err:?}, expected to mention {needle:?}"
            );
        }
    }

    #[test]
    fn error_kinds_round_trip_through_wire_names() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::NotFound,
            ErrorKind::LearnerMismatch,
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Storage,
            ErrorKind::ShuttingDown,
        ] {
            assert_eq!(ErrorKind::from_wire(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_wire("gremlins"), None);
    }
}
