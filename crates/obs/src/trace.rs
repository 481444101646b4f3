//! Request-scoped tracing: hierarchical spans, a bounded flight
//! recorder, and a slowlog of completed traces.
//!
//! ## Data model
//!
//! A **trace** is one request's tree of spans. Every [`tspan!`] guard
//! carries a [`TraceCtx`] — a process-unique trace id plus its own span
//! id — propagated through a thread-local; a guard started while another
//! is live becomes its child (parent span id recorded), and the guard
//! started with no context becomes the trace's **root**. Crossing a
//! thread boundary is explicit: capture [`current`] on the submitting
//! thread and [`adopt`] it on the worker (the `tsvr-par` pool does this
//! for every chunk).
//!
//! Spans emit one [`Event`] when they **end**; incident paths (retries,
//! rollbacks, quarantines, sheds) emit point-in-time [`Event`]s via
//! [`incident`]. Every event lands in two places:
//!
//! * the trace's own buffer, published as a [`FinishedTrace`] when the
//!   root span drops — kept in a bounded recent list, and copied into
//!   the **slowlog** when the root exceeded the configured threshold;
//! * the process-global [`FlightRecorder`] — a fixed-size ring that
//!   overwrites its oldest slot on wrap, cheap enough to leave on in
//!   production, and dumped to disk (NDJSON) on crash/quarantine paths.
//!
//! All of this compiles to no-ops without the `enabled` feature; the
//! data types themselves (events, traces, the ring) stay available so
//! transports can decode peers' traces regardless of their own build.
//!
//! [`tspan!`]: crate::tspan!

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// The identity a span propagates: which trace it belongs to and which
/// span id children should record as their parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Process-unique trace id (never 0).
    pub trace: u64,
    /// The current span's id within the trace (never 0).
    pub span: u64,
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span ended; `dur_ns` holds its elapsed time.
    Span,
    /// A point-in-time incident (retry exhausted, rollback, quarantine,
    /// shed, failed checkpoint, ...); `detail` holds the specifics.
    Incident,
}

impl EventKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Incident => "incident",
        }
    }

    /// Inverse of [`EventKind::as_str`].
    pub fn from_wire(s: &str) -> Option<EventKind> {
        match s {
            "span" => Some(EventKind::Span),
            "incident" => Some(EventKind::Incident),
            _ => None,
        }
    }
}

/// One tracing event: a completed span or an incident.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global flight-recorder sequence number (assigned at record time;
    /// 0 for events that never went through a recorder).
    pub seq: u64,
    /// Span end or incident.
    pub kind: EventKind,
    /// Owning trace id; 0 for incidents raised outside any trace.
    pub trace: u64,
    /// This event's span id.
    pub span: u64,
    /// Parent span id; 0 for a root span or a parentless incident.
    pub parent: u64,
    /// Probe name (`serve.latency.page`, `viddb.quarantine`, ...).
    /// `Cow` keeps the probe hot path allocation-free: live spans
    /// borrow their `&'static` name; decoded wire events own theirs.
    pub name: Cow<'static, str>,
    /// Incident specifics; empty for plain spans.
    pub detail: Cow<'static, str>,
    /// Start time, nanoseconds since process start.
    pub start_ns: u64,
    /// Elapsed nanoseconds (0 for incidents).
    pub dur_ns: u64,
}

fn jnum(n: u64) -> Json {
    Json::Num(n as f64)
}

fn jfield(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("event missing or non-integer field {key:?}"))
}

impl Event {
    /// Encode as a JSON value (the wire and dump-file format).
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("seq".into(), jnum(self.seq)),
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("trace".into(), jnum(self.trace)),
            ("span".into(), jnum(self.span)),
            ("parent".into(), jnum(self.parent)),
            ("name".into(), Json::Str(self.name.to_string())),
            ("detail".into(), Json::Str(self.detail.to_string())),
            ("start_ns".into(), jnum(self.start_ns)),
            ("dur_ns".into(), jnum(self.dur_ns)),
        ])
    }

    /// Decode a value produced by [`Event::to_json_value`].
    pub fn from_json_value(v: &Json) -> Result<Event, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("event missing string field \"kind\"")?;
        let kind =
            EventKind::from_wire(kind).ok_or_else(|| format!("unknown event kind {kind:?}"))?;
        Ok(Event {
            seq: jfield(v, "seq")?,
            kind,
            trace: jfield(v, "trace")?,
            span: jfield(v, "span")?,
            parent: jfield(v, "parent")?,
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("event missing string field \"name\"")?
                .to_string()
                .into(),
            detail: v
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
                .into(),
            start_ns: jfield(v, "start_ns")?,
            dur_ns: jfield(v, "dur_ns")?,
        })
    }

    /// Encode as one NDJSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Decode one NDJSON line.
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        Event::from_json_value(&v)
    }
}

/// One completed trace: the root span's name and duration plus every
/// event recorded under it, in completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedTrace {
    /// Trace id.
    pub trace: u64,
    /// Root span name (the request's operation).
    pub name: Cow<'static, str>,
    /// Root span duration in nanoseconds.
    pub dur_ns: u64,
    /// Events in completion order (children before their parent, the
    /// root last). Capped; [`FinishedTrace::dropped`] counts overflow.
    pub events: Vec<Event>,
    /// Events discarded because the per-trace buffer was full.
    pub dropped: u64,
}

impl FinishedTrace {
    /// Encode as a JSON value (the wire format of `trace`/`slowlog`).
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("trace".into(), jnum(self.trace)),
            ("name".into(), Json::Str(self.name.to_string())),
            ("dur_ns".into(), jnum(self.dur_ns)),
            (
                "events".into(),
                Json::Arr(self.events.iter().map(Event::to_json_value).collect()),
            ),
            ("dropped".into(), jnum(self.dropped)),
        ])
    }

    /// Decode a value produced by [`FinishedTrace::to_json_value`].
    pub fn from_json_value(v: &Json) -> Result<FinishedTrace, String> {
        let mut events = Vec::new();
        for e in v.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
            events.push(Event::from_json_value(e)?);
        }
        Ok(FinishedTrace {
            trace: jfield(v, "trace")?,
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("trace missing string field \"name\"")?
                .to_string()
                .into(),
            dur_ns: jfield(v, "dur_ns")?,
            events,
            dropped: v.get("dropped").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Render the span tree as indented text (what `tsvr trace` prints):
    /// children ordered by start time under their parent, incidents
    /// flagged with `!`.
    pub fn render_tree(&self) -> String {
        let mut out = format!(
            "trace {} {} ({})\n",
            self.trace,
            self.name,
            fmt_ns(self.dur_ns)
        );
        // Events arrive in completion order; index children by parent
        // span id and walk the tree from the root(s) by start time.
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].start_ns, self.events[i].seq));
        let mut children: std::collections::BTreeMap<u64, Vec<usize>> =
            std::collections::BTreeMap::new();
        let span_ids: std::collections::BTreeSet<u64> = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .map(|e| e.span)
            .collect();
        for &i in &order {
            let e = &self.events[i];
            // Treat an unknown parent (span lost to the event cap) as a
            // root so the event still shows up.
            let parent = if span_ids.contains(&e.parent) {
                e.parent
            } else {
                0
            };
            children.entry(parent).or_default().push(i);
        }
        // Wire data can carry adversarial parent links (an event that is
        // its own ancestor); the visited set keeps the walk terminating
        // by printing every event at most once.
        fn walk(
            t: &FinishedTrace,
            children: &std::collections::BTreeMap<u64, Vec<usize>>,
            parent: u64,
            depth: usize,
            seen: &mut [bool],
            out: &mut String,
        ) {
            let Some(kids) = children.get(&parent) else {
                return;
            };
            for &i in kids {
                if seen[i] {
                    continue;
                }
                seen[i] = true;
                let e = &t.events[i];
                let indent = "  ".repeat(depth);
                match e.kind {
                    EventKind::Span => {
                        out.push_str(&format!(
                            "{indent}{:<width$} {:>10}\n",
                            e.name,
                            fmt_ns(e.dur_ns),
                            width = 46usize.saturating_sub(indent.len()),
                        ));
                    }
                    EventKind::Incident => {
                        out.push_str(&format!("{indent}! {}: {}\n", e.name, e.detail));
                    }
                }
                if e.kind == EventKind::Span {
                    walk(t, children, e.span, depth + 1, seen, out);
                }
            }
        }
        let mut seen = vec![false; self.events.len()];
        walk(self, &children, 0, 1, &mut seen, &mut out);
        if self.dropped > 0 {
            out.push_str(&format!("  ({} events dropped)\n", self.dropped));
        }
        out
    }
}

/// Format nanoseconds with a readable time suffix.
fn fmt_ns(v: u64) -> String {
    let v = v as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{}ns", v as u64)
    }
}

/// A bounded, overwrite-on-wrap ring of [`Event`]s.
///
/// Writers claim a monotonically increasing sequence number and write
/// the whole event under that slot's mutex, so a reader never observes
/// a torn event: every slot holds either nothing or one complete event
/// (whose `seq` says when it was recorded). The process-global instance
/// behind [`incident`] and [`tspan!`](crate::tspan!) holds the last
/// [`RECORDER_CAP`] events; tests can build small rings directly.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Event>>>,
    head: AtomicU64,
}

/// Capacity of the process-global flight recorder.
pub const RECORDER_CAP: usize = 4096;

impl FlightRecorder {
    /// A ring holding at most `cap` events (`cap >= 1`).
    pub fn with_capacity(cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Record one event, overwriting the oldest slot on wrap. Returns
    /// the sequence number assigned to the event.
    pub fn record(&self, mut ev: Event) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        ev.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        // A slow writer that claimed an older seq must not clobber a
        // newer event that already wrapped into the same slot.
        if guard.as_ref().is_none_or(|old| old.seq < seq) {
            *guard = Some(ev);
        }
        seq
    }

    /// Total events ever recorded (not the number currently held).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The surviving events, oldest first (ascending `seq`).
    pub fn events(&self) -> Vec<Event> {
        let mut out: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Drop every held event (the sequence counter keeps advancing).
    pub fn clear(&self) {
        for s in &self.slots {
            *s.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }
}

/// Events a single trace retains before counting drops.
pub const TRACE_EVENT_CAP: usize = 512;
/// Completed traces kept for `trace <id>` lookup.
pub const RECENT_CAP: usize = 128;
/// Slowlog entries kept.
pub const SLOWLOG_CAP: usize = 64;

#[cfg(feature = "enabled")]
mod live {
    use std::borrow::Cow;
    use std::cell::Cell;
    use std::collections::{HashMap, VecDeque};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    use super::{
        Event, EventKind, FinishedTrace, FlightRecorder, TraceCtx, RECENT_CAP, RECORDER_CAP,
        SLOWLOG_CAP, TRACE_EVENT_CAP,
    };
    use crate::metrics::Histogram;

    struct ActiveTrace {
        name: &'static str,
        events: Vec<Event>,
        dropped: u64,
    }

    /// Identity hash for the trace-id-keyed active map: ids come from a
    /// counter, so hashing them through SipHash buys nothing and costs
    /// on every published event.
    #[derive(Default)]
    struct IdHasher(u64);

    impl std::hash::Hasher for IdHasher {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = self.0.rotate_left(8) ^ u64::from(b);
            }
        }
        fn write_u64(&mut self, n: u64) {
            self.0 = n;
        }
    }

    type ActiveMap = HashMap<u64, ActiveTrace, std::hash::BuildHasherDefault<IdHasher>>;

    struct Tracer {
        next_trace: AtomicU64,
        next_span: AtomicU64,
        active: Mutex<ActiveMap>,
        recent: Mutex<VecDeque<FinishedTrace>>,
        slowlog: Mutex<VecDeque<FinishedTrace>>,
        /// Root spans at least this long enter the slowlog; `u64::MAX`
        /// disables it.
        threshold_ns: AtomicU64,
        recorder: FlightRecorder,
        dump_path: Mutex<Option<PathBuf>>,
    }

    fn tracer() -> &'static Tracer {
        static TRACER: OnceLock<Tracer> = OnceLock::new();
        TRACER.get_or_init(|| Tracer {
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            active: Mutex::new(ActiveMap::default()),
            recent: Mutex::new(VecDeque::new()),
            slowlog: Mutex::new(VecDeque::new()),
            threshold_ns: AtomicU64::new(u64::MAX),
            recorder: FlightRecorder::with_capacity(RECORDER_CAP),
            dump_path: Mutex::new(std::env::var_os("TSVR_FLIGHT_DUMP").map(PathBuf::from)),
        })
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The process's tracing epoch (set at the first probe).
    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    /// `t` as nanoseconds since the tracing epoch.
    fn ns_since_epoch(t: Instant) -> u64 {
        // saturating: 0 for the instant that *set* the epoch.
        t.duration_since(epoch()).as_nanos().min(u64::MAX as u128) as u64
    }

    /// Monotonic nanoseconds since the first probe in this process.
    fn now_ns() -> u64 {
        ns_since_epoch(Instant::now())
    }

    thread_local! {
        static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
    }

    /// The calling thread's current trace context, if a traced span is
    /// live. Capture this before handing work to another thread and
    /// [`adopt`] it there.
    pub fn current() -> Option<TraceCtx> {
        CURRENT.with(Cell::get)
    }

    /// Make `ctx` the calling thread's trace context until the guard
    /// drops (restoring whatever was there before). `None` is a cheap
    /// no-op guard, so call sites can pass [`current`]'s result blindly.
    pub fn adopt(ctx: Option<TraceCtx>) -> Adopted {
        match ctx {
            Some(c) => Adopted {
                prev: Some(CURRENT.with(|cur| cur.replace(Some(c)))),
            },
            None => Adopted { prev: None },
        }
    }

    /// RAII guard from [`adopt`]; restores the previous context.
    pub struct Adopted {
        /// `Some(previous)` when a context was installed.
        prev: Option<Option<TraceCtx>>,
    }

    impl Drop for Adopted {
        fn drop(&mut self) {
            if let Some(prev) = self.prev.take() {
                CURRENT.with(|cur| cur.set(prev));
            }
        }
    }

    /// Append `ev` to its trace's buffer (if that trace is still
    /// active) and the global flight recorder.
    fn publish(ev: Event) {
        if ev.trace != 0 {
            let mut active = lock(&tracer().active);
            if let Some(t) = active.get_mut(&ev.trace) {
                if t.events.len() < TRACE_EVENT_CAP {
                    t.events.push(ev.clone());
                } else {
                    t.dropped += 1;
                    crate::counter!("obs.trace.dropped_events").incr();
                }
            }
        }
        tracer().recorder.record(ev);
    }

    /// RAII guard behind [`tspan!`](crate::tspan!): times the region
    /// into its histogram like [`span!`](crate::span!), and records a
    /// span event into the current trace (starting a new trace when
    /// none is live).
    #[must_use = "a traced span records when dropped; bind it with `let _span = ...`"]
    pub struct TracedSpan {
        inner: Option<SpanInner>,
    }

    struct SpanInner {
        hist: &'static Histogram,
        name: &'static str,
        ctx: TraceCtx,
        parent: u64,
        prev: Option<TraceCtx>,
        root: bool,
        start_ns: u64,
        t0: Instant,
        epoch: u64,
    }

    impl TracedSpan {
        /// Start a traced span (kill switch off: inert guard).
        #[doc(hidden)]
        pub fn start(name: &'static str, hist: &'static Histogram) -> TracedSpan {
            if !crate::is_enabled() {
                return TracedSpan { inner: None };
            }
            let t = tracer();
            let prev = current();
            let span = t.next_span.fetch_add(1, Ordering::Relaxed);
            let (trace, parent, root) = match prev {
                Some(p) => (p.trace, p.span, false),
                None => {
                    let id = t.next_trace.fetch_add(1, Ordering::Relaxed);
                    lock(&t.active).insert(
                        id,
                        ActiveTrace {
                            name,
                            events: Vec::new(),
                            dropped: 0,
                        },
                    );
                    (id, 0, true)
                }
            };
            let ctx = TraceCtx { trace, span };
            CURRENT.with(|cur| cur.set(Some(ctx)));
            let t0 = Instant::now();
            TracedSpan {
                inner: Some(SpanInner {
                    hist,
                    name,
                    ctx,
                    parent,
                    prev,
                    root,
                    start_ns: ns_since_epoch(t0),
                    t0,
                    epoch: crate::registry_epoch(),
                }),
            }
        }

        /// The context this span propagates ([`None`] for inert guards).
        pub fn ctx(&self) -> Option<TraceCtx> {
            self.inner.as_ref().map(|i| i.ctx)
        }
    }

    impl Drop for TracedSpan {
        fn drop(&mut self) {
            let Some(i) = self.inner.take() else {
                return;
            };
            CURRENT.with(|cur| cur.set(i.prev));
            let t = tracer();
            // A reset() since start invalidates the measurement: drop
            // the sample and the whole half-built trace rather than
            // resurrecting pre-reset state.
            if crate::registry_epoch() != i.epoch {
                if i.root {
                    lock(&t.active).remove(&i.ctx.trace);
                }
                return;
            }
            let dur = i.t0.elapsed();
            i.hist.record_duration(dur);
            let dur_ns = dur.as_nanos().min(u64::MAX as u128) as u64;
            publish(Event {
                seq: 0,
                kind: EventKind::Span,
                trace: i.ctx.trace,
                span: i.ctx.span,
                parent: i.parent,
                name: Cow::Borrowed(i.name),
                detail: Cow::Borrowed(""),
                start_ns: i.start_ns,
                dur_ns,
            });
            if !i.root {
                return;
            }
            let Some(active) = lock(&t.active).remove(&i.ctx.trace) else {
                return;
            };
            let finished = FinishedTrace {
                trace: i.ctx.trace,
                name: Cow::Borrowed(active.name),
                dur_ns,
                events: active.events,
                dropped: active.dropped,
            };
            if dur_ns >= t.threshold_ns.load(Ordering::Relaxed) {
                let mut slow = lock(&t.slowlog);
                if slow.len() >= SLOWLOG_CAP {
                    slow.pop_front();
                }
                slow.push_back(finished.clone());
            }
            let mut recent = lock(&t.recent);
            if recent.len() >= RECENT_CAP {
                recent.pop_front();
            }
            recent.push_back(finished);
        }
    }

    /// Record an incident event (retry exhausted, rollback, shed, ...)
    /// into the current trace (if any) and the flight recorder, and
    /// bump the labeled counter `obs.incident{name}`.
    pub fn incident(name: &'static str, detail: &str) {
        if !crate::is_enabled() {
            return;
        }
        let ctx = current();
        let span = tracer().next_span.fetch_add(1, Ordering::Relaxed);
        publish(Event {
            seq: 0,
            kind: EventKind::Incident,
            trace: ctx.map_or(0, |c| c.trace),
            span,
            parent: ctx.map_or(0, |c| c.span),
            name: Cow::Borrowed(name),
            detail: Cow::Owned(detail.to_string()),
            start_ns: now_ns(),
            dur_ns: 0,
        });
        crate::counter_labeled("obs.incident", name).incr();
    }

    /// [`incident`], plus an immediate flight-recorder dump — for paths
    /// after which the process state is suspect (quarantine, crash,
    /// non-durable checkpoint).
    pub fn incident_dump(name: &'static str, detail: &str) {
        incident(name, detail);
        dump_now(name);
    }

    /// Where crash dumps go; `None` disables dumping. Defaults to the
    /// `TSVR_FLIGHT_DUMP` environment variable at first probe.
    pub fn set_dump_path(path: Option<PathBuf>) {
        *lock(&tracer().dump_path) = path;
    }

    /// Write the flight recorder to the configured dump path as NDJSON
    /// (a header line, then one event per line). Returns the path
    /// written, or `None` when dumping is disabled or the write failed.
    pub fn dump_now(reason: &str) -> Option<PathBuf> {
        let path = lock(&tracer().dump_path).clone()?;
        let events = tracer().recorder.events();
        let trace = current().map_or(0, |c| c.trace);
        let header = crate::json::Json::Obj(vec![
            (
                "schema".into(),
                crate::json::Json::Str("tsvr-flight/1".into()),
            ),
            ("reason".into(), crate::json::Json::Str(reason.into())),
            ("trace".into(), crate::json::Json::Num(trace as f64)),
            ("events".into(), crate::json::Json::Num(events.len() as f64)),
        ]);
        let mut out = header.to_string();
        out.push('\n');
        for e in &events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        std::fs::write(&path, out).ok()?;
        Some(path)
    }

    /// Slowlog threshold in nanoseconds: root spans at least this long
    /// are retained with their full tree. `u64::MAX` (the default)
    /// disables the slowlog; 0 retains every trace.
    pub fn set_slow_threshold_ns(ns: u64) {
        tracer().threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Current slowlog threshold (see [`set_slow_threshold_ns`]).
    pub fn slow_threshold_ns() -> u64 {
        tracer().threshold_ns.load(Ordering::Relaxed)
    }

    /// Look up a completed trace by id (recent list, then slowlog).
    pub fn finished(trace_id: u64) -> Option<FinishedTrace> {
        if let Some(t) = lock(&tracer().recent)
            .iter()
            .rev()
            .find(|t| t.trace == trace_id)
        {
            return Some(t.clone());
        }
        lock(&tracer().slowlog)
            .iter()
            .rev()
            .find(|t| t.trace == trace_id)
            .cloned()
    }

    /// The most recently completed trace.
    pub fn latest() -> Option<FinishedTrace> {
        lock(&tracer().recent).back().cloned()
    }

    /// The retained slowlog entries, oldest first.
    pub fn slowlog() -> Vec<FinishedTrace> {
        lock(&tracer().slowlog).iter().cloned().collect()
    }

    /// The surviving flight-recorder events, oldest first.
    pub fn recorder_events() -> Vec<Event> {
        tracer().recorder.events()
    }

    /// Forget all tracing state: active buffers, recent traces, the
    /// slowlog, and the recorder's held events. Called by
    /// [`reset`](crate::reset); id counters keep advancing so ids are
    /// never reused within a process.
    pub(crate) fn clear_all() {
        let t = tracer();
        lock(&t.active).clear();
        lock(&t.recent).clear();
        lock(&t.slowlog).clear();
        t.recorder.clear();
    }
}

#[cfg(feature = "enabled")]
pub use live::{
    adopt, current, dump_now, finished, incident, incident_dump, latest, recorder_events,
    set_dump_path, set_slow_threshold_ns, slow_threshold_ns, slowlog, Adopted, TracedSpan,
};

#[cfg(feature = "enabled")]
pub(crate) use live::clear_all;

#[cfg(not(feature = "enabled"))]
mod noop {
    use std::path::PathBuf;

    use super::{Event, FinishedTrace, TraceCtx};

    /// The calling thread's trace context (probes compiled out: `None`).
    #[inline(always)]
    pub fn current() -> Option<TraceCtx> {
        None
    }

    /// Install a trace context until the guard drops (probes compiled
    /// out: inert guard).
    #[inline(always)]
    pub fn adopt(_ctx: Option<TraceCtx>) -> Adopted {
        Adopted {}
    }

    /// Inert stand-in for the enabled build's adopt guard.
    pub struct Adopted {}

    /// Record an incident event (probes compiled out: does nothing).
    #[inline(always)]
    pub fn incident(_name: &'static str, _detail: &str) {}

    /// Record an incident and dump (probes compiled out: does nothing).
    #[inline(always)]
    pub fn incident_dump(_name: &'static str, _detail: &str) {}

    /// Configure the dump path (probes compiled out: does nothing).
    #[inline(always)]
    pub fn set_dump_path(_path: Option<PathBuf>) {}

    /// Dump the recorder (probes compiled out: never dumps).
    #[inline(always)]
    pub fn dump_now(_reason: &str) -> Option<PathBuf> {
        None
    }

    /// Set the slowlog threshold (probes compiled out: does nothing).
    #[inline(always)]
    pub fn set_slow_threshold_ns(_ns: u64) {}

    /// Slowlog threshold (probes compiled out: always disabled).
    #[inline(always)]
    pub fn slow_threshold_ns() -> u64 {
        u64::MAX
    }

    /// Look up a completed trace (probes compiled out: `None`).
    #[inline(always)]
    pub fn finished(_trace_id: u64) -> Option<FinishedTrace> {
        None
    }

    /// Most recent completed trace (probes compiled out: `None`).
    #[inline(always)]
    pub fn latest() -> Option<FinishedTrace> {
        None
    }

    /// Slowlog entries (probes compiled out: empty).
    #[inline(always)]
    pub fn slowlog() -> Vec<FinishedTrace> {
        Vec::new()
    }

    /// Flight-recorder events (probes compiled out: empty).
    #[inline(always)]
    pub fn recorder_events() -> Vec<Event> {
        Vec::new()
    }

    /// Inert stand-in for the enabled build's traced-span guard.
    #[must_use = "a traced span records when dropped; bind it with `let _span = ...`"]
    pub struct TracedSpan {}

    impl TracedSpan {
        /// Inert guard (probes compiled out).
        #[doc(hidden)]
        #[inline(always)]
        pub const fn noop() -> TracedSpan {
            TracedSpan {}
        }

        /// Propagated context (probes compiled out: `None`).
        #[inline(always)]
        pub fn ctx(&self) -> Option<TraceCtx> {
            None
        }
    }
}

#[cfg(not(feature = "enabled"))]
pub use noop::{
    adopt, current, dump_now, finished, incident, incident_dump, latest, recorder_events,
    set_dump_path, set_slow_threshold_ns, slow_threshold_ns, slowlog, Adopted, TracedSpan,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, trace: u64, span: u64, parent: u64, name: &str) -> Event {
        Event {
            seq,
            kind: EventKind::Span,
            trace,
            span,
            parent,
            name: name.to_string().into(),
            detail: "".into(),
            start_ns: 10 * span,
            dur_ns: 5,
        }
    }

    #[test]
    fn event_json_round_trip() {
        let e = Event {
            seq: 42,
            kind: EventKind::Incident,
            trace: 7,
            span: 9,
            parent: 3,
            name: "viddb.quarantine".into(),
            detail: "clip 4 offset 128: bad checksum".into(),
            start_ns: 123_456,
            dur_ns: 0,
        };
        let back = Event::parse_line(&e.to_json_line()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn finished_trace_json_round_trip() {
        let t = FinishedTrace {
            trace: 3,
            name: "serve.latency.page".into(),
            dur_ns: 900,
            events: vec![
                ev(1, 3, 2, 1, "mil.round"),
                ev(2, 3, 1, 0, "serve.latency.page"),
            ],
            dropped: 0,
        };
        let back = FinishedTrace::from_json_value(&t.to_json_value()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn render_tree_nests_children_under_parents() {
        let t = FinishedTrace {
            trace: 5,
            name: "serve.latency.feedback".into(),
            dur_ns: 3_000_000,
            events: vec![
                ev(1, 5, 3, 2, "svm.train"),
                ev(2, 5, 2, 1, "serve.learn"),
                Event {
                    kind: EventKind::Incident,
                    detail: "queue full".into(),
                    ..ev(3, 5, 4, 1, "serve.overloaded")
                },
                ev(4, 5, 1, 0, "serve.latency.feedback"),
            ],
            dropped: 0,
        };
        let tree = t.render_tree();
        let train_line = tree.lines().find(|l| l.contains("svm.train")).unwrap();
        let learn_line = tree.lines().find(|l| l.contains("serve.learn")).unwrap();
        let train_indent = train_line.len() - train_line.trim_start().len();
        let learn_indent = learn_line.len() - learn_line.trim_start().len();
        assert!(
            train_indent > learn_indent,
            "svm.train should nest under serve.learn:\n{tree}"
        );
        assert!(tree.contains("! serve.overloaded: queue full"), "{tree}");
    }

    #[test]
    fn recorder_wraps_and_keeps_newest() {
        let ring = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            ring.record(ev(0, 1, i + 1, 0, "x"));
        }
        let events = ring.events();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn corrupted_event_lines_error_not_panic() {
        let line = ev(1, 2, 3, 0, "a.b").to_json_line();
        // Truncations never panic.
        for cut in 0..line.len() {
            let _ = Event::parse_line(&line[..cut]);
        }
        assert!(Event::parse_line("{}").is_err());
        assert!(Event::parse_line("{\"kind\":\"warp\"}").is_err());
    }
}
