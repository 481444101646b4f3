//! # `e2e` — one benchmark from frames in to feedback rounds over TCP
//!
//! Each invocation runs one workload against the system's public APIs
//! (`prepare_sim`, `ShardedDb`, `build_index`, `Service`, `Server`,
//! `Planner`), checks every output, and prints its metrics. Load comes
//! from this one process: at most two client threads, each with its own
//! TCP connection, against a server with two workers. Both client kinds
//! are closed-loop: an analyst waits for the re-ranked page before
//! labelling the next one.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload session --seed 2007 --seconds 10 --trace 0   # end-to-end
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload session --seed 2007 --seconds 10 --trace 1   # per layer
//! cargo test --release --manifest-path e2e-bench/Cargo.toml    # smoke
//! ```
//!
//! `--smoke` shrinks everything: one `tunnel_small` recording over 8
//! clips in 2 shards, 2 sessions per session client, 12 queries, one
//! ingest pass.
//!
//! ## Recordings and the served archive
//!
//! Ten recordings at `--seed`: paper clip 1 (`tunnel_paper`, 2504
//! frames), paper clip 2 (`intersection_paper`, 592 frames) and the
//! seven fleet members, `handoff` split at `handoff_split_frame` into
//! two cameras — 6536 frames in all. For `session`, `query` and `mixed`
//! set-up runs each recording through `prepare_sim` once, replicates the
//! clips to 192 = 4 cameras × 4 hour buckets × 12 clips per shard, gives
//! every clip its own fresh TSIX index and syncs. Twelve clips per shard
//! exceed viddb's 8-entry per-shard bundle LRU, so `event` queries run
//! larger than that cache while camera/time/α queries are index-only.
//! Sessions cycle over clip ids 1–10 (one per recording), a working set
//! that fits serve's per-clip bag cache. Set-up runs at least three
//! times and for at least a second; `setup_s` is the median.
//!
//! ## Workloads
//!
//! | name | what runs | why |
//! |---|---|---|
//! | `ingest` | Passes, each into a fresh `ShardedDb`: per recording `prepare_sim` → `bundle_from_clip` → `put_clip` → `build_index`; then `sync` and `ShardedDb::open`. Set-up builds the `World::run` sims. | Vision is nearly all of the wall time and nothing touches TCP: vision and trajectory gains show here; transport or planner changes must not move it. |
//! | `session` | 2 clients, sessions back to back: `open` (ocsvm) → `page n=20` → 4 × [`feedback` with the ground-truth label of every shown window → `page n=20`] → `close`. | The paper's protocol (§6). Exercises learner, checkpoint (`put_session` + `sync` per round) and transport, with no vision. |
//! | `query` | 2 clients, `{"op":"query","k":20}` over a fixed 6-class mix, client 1 three classes ahead: `broad` `all`; `event` `event = accident`; `camera` `camera = cam-01`; `narrow` `camera = cam-02 and time in [3600, 7199] and vdiff >= 0.5`; `camera_event` `camera in (cam-00, cam-03) and event = accident`; `alpha` `theta >= 1.0`. | Planner pruning, index decode, the bundle cache (which the `event` classes overflow) and top-k merge. |
//! | `mixed` | Client 0 runs the `session` script while client 1 runs the query mix, on one archive and server. | Checkpoints and planner runs share serve's single database mutex: a gain for one use that costs the other shows here. |
//!
//! Every workload runs for `--seconds`. A session already started when
//! the time is up finishes; the first ingest pass always completes, and a
//! later one stops taking recordings and syncs.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! Every workload reports every metric. A "wait" is one unit of work a
//! user waits for, of one kind: a recording becoming searchable (ingest:
//! from `prepare_sim` until its index is synced; one kind per recording),
//! a feedback round (session: `feedback` plus the following `page`), a
//! query (one kind per class), or either (mixed). Latency is from request
//! write to full response line read.
//!
//! | metric | unit | better | bound | what |
//! |---|---|---|---|---|
//! | `setup_s` | s | lower | 0.25 | median set-up time |
//! | `wait_p50_ms` | ms | lower | 0.20 | median wait of each kind, averaged over kinds |
//! | `wait_p95_ms` | ms | lower | 0.25 | 95th percentile of all waits |
//! | `throughput_per_s` | 1/s | higher | 0.20 | frames (ingest), rounds (session), queries (query) or rounds plus queries (mixed) per second of phase wall time |
//!
//! Kinds differ widely in cost (a 2504-frame recording against a
//! 183-frame one; a pruned query against a full scan), so the median of
//! the pooled waits would jump between kinds from run to run; the mean of
//! per-kind medians does not. The bounds allow for drift: on a 2-vCPU
//! shared host the same seed and binary gave 1000 to 1240 frames/s
//! across minutes, and the seed changes the traffic, hence the archive
//! size and the vision cost.
//!
//! `BASELINE.json` beside this package records the median and quartiles
//! of two ten-seed sets of runs at the commit that added the benchmark.
//!
//! Untraced runs use the shipped defaults — probes compiled in and
//! enabled, slowlog off, as `tsvr serve` runs — and never call the
//! bench's layer timers.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! A traced run spends the first half of `--seconds` untraced and the
//! second half traced: `obs::reset()` before it, the bench's timers
//! around each public call it makes, and a registry snapshot after it.
//! Post-phase replays, outside the timed wall, cost what the phase
//! cannot separate: `Renderer::render` over every recording's frames
//! (the rendering substrate inside `prepare_sim`), `bags_from_dataset`,
//! `parse_query` and `Planner::run` per class, and the proto codec on
//! the recorded request/response lines. Ingest-path metrics come from
//! the traced phase on `ingest` and from the first set-up elsewhere.
//! A metric whose layer did no work in the run reads 0.
//!
//! | layer | metrics | should move → on |
//! |---|---|---|
//! | vision | `vision.process_ms_per_frame`, `vision.process_share_of_wall`, `vision.render_ms_per_frame` (substrate), `vision.segment_busy_ms_per_frame`, `vision.track_assign_busy_ms_per_frame`, `vision.blobs_per_frame` | `throughput_per_s` on ingest; `setup_s` elsewhere; no wait change on session/query/mixed |
//! | trajectory | `trajectory.build_ms_per_clip`, `trajectory.polyfit_busy_ms_per_clip` | `throughput_per_s` on ingest |
//! | core | `core.bags_ms_per_clip`, `core.bundle_ms_per_clip`, `core.index_build_ms_per_clip`, `core.index_load_busy_ms_per_open`, `core.qlang.parse_us`, `core.qlang.plan_ms.<class>`, `core.qlang.shards_pruned_ratio.<class>`, `core.qlang.windows_ranked_ratio.<class>`, `core.topk_busy_ms_per_query` | plan and top-k → waits on query and mixed; index load → first page on session |
//! | viddb | `viddb.put_clip_ms_per_clip`, `viddb.sync_ms_per_pass`, `viddb.bytes_per_frame`, `viddb.reopen_ms`, `viddb.append_busy_ms_per_round`, `viddb.sync_busy_ms_per_round`, `viddb.load_index_busy_ms_per_query`, `viddb.load_clip_busy_ms_per_query`, `viddb.cache_hit_rate` | checkpoint → waits on session; loads and cache → waits on query |
//! | svm / mil | `svm.train_busy_ms_per_round`, `svm.kernel_evals_per_round`, `serve.learn_busy_ms_per_round` | waits on session |
//! | serve | `serve.handle_ms.<op>`, `serve.transport_ms.<op>`, `serve.codec_us`, `serve.checkpoint_busy_ms_per_round`, `serve.transport_share_of_round`, `serve.first_page_p50_ms`, `serve.round_p50_ms`, `serve.query_p50_ms` | transport → every wait on session/query/mixed, and nothing on ingest |
//! | par | `par.fork_ratio` (forked calls ÷ all calls) | `throughput_per_s` on ingest |
//! | bench | `unattributed_share`, `trace_overhead_pct` (traced ÷ untraced wall per unit of work − 1) | — |
//!
//! `serve.handle_ms.<op>` is the mean of the server's own
//! `serve.latency{op=…}` histogram; `serve.transport_ms.<op>` is the mean
//! TCP latency minus that and minus the codec time, for `<op>` in
//! `open`, `page`, `feedback`, `close`, `query`.
//!
//! ## Checks
//!
//! A run exits non-zero and prints no metrics unless: every TCP ranking
//! equals, byte for byte, the in-process `Service::handle` replay of the
//! same session script; every TCP `query` ranking is bit-identical to
//! `Planner::run` on the same archive; and after each ingest reopen the
//! clip count matches and every stored index segment equals the one
//! built. Error responses, undecodable responses, connect/read errors
//! and a 10 s read timeout count as failed requests.
//!
//! ## Output
//!
//! A table on stderr; on stdout the envelope
//! `{bench, host, mode, metrics[{name, unit, value, n, q1, q3}], identity, pass}`
//! and, as the last line, `{correct, attempted, failed, metrics}`.

mod archive;
mod client;
mod ledger;
mod report;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tsvr_core::{bags_from_dataset, parse_query, PlanStats, Planner, RankedWindow, Scorer};
use tsvr_obs::json::Json;
use tsvr_serve::{
    decode_request, decode_response, encode_response, Server, ServerConfig, Service, ServiceConfig,
};
use tsvr_trajectory::Dataset;
use tsvr_viddb::{AnyDb, ShardedDb};
use tsvr_vision::render::Renderer;

use archive::{
    build_archive, check_reopened, dir_bytes, prepare, recordings, store, Layout, Recording,
    BUCKET_SECS,
};
use client::{drive, session, Client, ClientOut, QueryRun, Role, Truth, CLASSES, OPS, PAGE};
use ledger::{per, Ledger, Snap};
use report::{median, Metric};

const USAGE: &str = "usage: e2e --workload {ingest,session,query,mixed} [--seed N] \
                     [--seconds S] [--trace 0|1] [--smoke]";
const DEFAULT_SEED: u64 = 2007;
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-up runs at least this often and for at least `MIN_SETUP_SECS`;
/// `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_SECS: f64 = 1.0;
/// Server worker threads; one per client connection.
const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Ingest,
    Session,
    Query,
    Mixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Session,
        Workload::Query,
        Workload::Mixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Session => "session",
            Workload::Query => "query",
            Workload::Mixed => "mixed",
        }
    }
}

#[derive(Debug)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds) = (None, DEFAULT_SEED, DEFAULT_SECONDS);
    let (mut trace, mut smoke) = (false, false);
    let mut i = 0;
    while i < args.len() {
        let next = args.get(i + 1).map(String::as_str);
        let value = || next.ok_or_else(|| format!("{} needs a value", args[i]));
        // Arguments consumed: the flag, plus its value if it takes one.
        let mut step = 2;
        match args[i].as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => match next {
                Some("0") => trace = false,
                Some("1") => trace = true,
                _ => {
                    trace = true;
                    step = 1;
                }
            },
            "--smoke" => {
                smoke = true;
                step = 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += step;
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    identity: Vec<(String, Json)>,
}

/// Scratch space under the working directory, removed on drop.
struct WorkDir(PathBuf);

const WORK_ROOT: &str = ".e2e-work";

impl WorkDir {
    fn new(w: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the root.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn run(o: &Opts) -> Result<Outcome, String> {
    let work = WorkDir::new(o.workload)?;
    match o.workload {
        Workload::Ingest => run_ingest(o, &work.0),
        _ => run_served(o, &work.0),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs set-up `f(i)` repeatedly; returns each run's seconds and the
/// last result.
fn repeat_setup<T>(mut f: impl FnMut(usize) -> Result<T, String>) -> Result<(Vec<f64>, T), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = f(times.len())?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && start.elapsed().as_secs_f64() >= MIN_SETUP_SECS {
            return Ok((times, out));
        }
    }
}

/// The end-to-end metrics, from the set-up times and every wait as
/// `(kind of work, ms)`.
fn end_to_end(setups: &[f64], waits: &[(usize, f64)], throughput: f64, units: u64) -> Vec<Metric> {
    let pooled: Vec<f64> = waits.iter().map(|w| w.1).collect();
    vec![
        Metric::quantile("setup_s", "s", setups, 0.5),
        Metric::mean_of_medians("wait_p50_ms", "ms", waits),
        Metric::quantile("wait_p95_ms", "ms", &pooled, 0.95),
        Metric::value("throughput_per_s", "1/s", throughput, units as usize),
    ]
}

// ---------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------

/// One ingest phase: passes until the time is up.
#[derive(Default)]
struct IngestRun {
    /// Per recording `(index, ms)`: `prepare_sim` until its index is
    /// synced.
    waits_ms: Vec<(usize, f64)>,
    frames: u64,
    recordings: u64,
    /// Pass wall time: ingest, `sync` and reopen; the checks excluded.
    wall_ns: u64,
    /// The last pass's reopened archive and what was built into it.
    last: Option<(ShardedDb, Vec<(u64, Dataset)>)>,
    /// The last pass's bytes on disk per frame.
    bytes_per_frame: f64,
}

fn ingest_phase(
    dir: &Path,
    recs: &[Recording],
    seconds: f64,
    max_passes: usize,
    ledger: &mut Ledger,
) -> Result<IngestRun, String> {
    let mut run = IngestRun::default();
    let clock = Instant::now();
    let mut pass = 0;
    while pass < max_passes && clock.elapsed().as_secs_f64() < seconds {
        let pass_dir = dir.join(format!("pass-{pass}"));
        let sims: Vec<_> = recs.iter().map(|r| r.sim.clone()).collect();
        let t = Instant::now();
        let mut db = ledger
            .time("create", || {
                ShardedDb::open_with_bucket(&pass_dir, BUCKET_SECS)
            })
            .map_err(|e| format!("create archive: {e}"))?;
        let mut built = Vec::new();
        let mut frames = 0;
        for (k, (rec, sim)) in recs.iter().zip(sims).enumerate() {
            // The first pass always completes, so every recording has a
            // wait sample.
            if pass > 0 && clock.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let t_rec = Instant::now();
            let clip = prepare(sim, rec.kind, ledger);
            store(&mut db, &clip, Layout::FULL.meta(k as u64, rec), ledger)?;
            run.waits_ms.push((k, ms_since(t_rec)));
            frames += rec.sim.frames.len() as u64;
            built.push((k as u64 + 1, clip.dataset));
        }
        ledger
            .time("sync", || db.sync())
            .map_err(|e| format!("sync: {e}"))?;
        drop(db);
        let mut db = ledger
            .time("reopen", || ShardedDb::open(&pass_dir))
            .map_err(|e| format!("reopen: {e}"))?;
        run.wall_ns += t.elapsed().as_nanos() as u64;
        check_reopened(&mut db, &built)?;
        run.frames += frames;
        run.recordings += built.len() as u64;
        run.bytes_per_frame = dir_bytes(&pass_dir) as f64 / frames as f64;
        if let Some((old, _)) = run.last.replace((db, built)) {
            drop(old);
            let _ = std::fs::remove_dir_all(dir.join(format!("pass-{}", pass - 1)));
        }
        pass += 1;
    }
    Ok(run)
}

fn run_ingest(o: &Opts, dir: &Path) -> Result<Outcome, String> {
    let (setups, recs) = repeat_setup(|_| Ok(recordings(o.seed, o.smoke)))?;
    let max_passes = if o.smoke { 1 } else { usize::MAX };
    let identity = |runs: &[&IngestRun]| {
        let segments: usize = runs.iter().map(|r| r.recordings as usize).sum();
        vec![("segments_checked".to_string(), Json::Num(segments as f64))]
    };

    if !o.trace {
        let run = ingest_phase(dir, &recs, o.seconds, max_passes, &mut Ledger::new(false))?;
        let fps = run.frames as f64 / (run.wall_ns as f64 / 1e9);
        let metrics = end_to_end(&setups, &run.waits_ms, fps, run.frames);
        return Ok(Outcome {
            attempted: run.recordings,
            failed: 0,
            metrics,
            identity: identity(&[&run]),
        });
    }

    let half = o.seconds / 2.0;
    let base = ingest_phase(
        &dir.join("untraced"),
        &recs,
        half,
        max_passes,
        &mut Ledger::new(false),
    )?;
    tsvr_obs::reset();
    let mut ledger = Ledger::new(true);
    let mut traced = ingest_phase(&dir.join("traced"), &recs, half, max_passes, &mut ledger)?;
    let snap = Snap(tsvr_obs::snapshot());

    let (db, built) = traced
        .last
        .take()
        .ok_or("the traced phase ingested nothing")?;
    let datasets: Vec<&Dataset> = built.iter().map(|(_, d)| d).collect();
    let windows: u64 = datasets.iter().map(|d| d.windows.len() as u64).sum();
    let plan = plan_replay(&mut AnyDb::from(db), windows)?;
    let per_unit = |r: &IngestRun| r.wall_ns as f64 / r.frames as f64;
    let layers = Layers {
        ingest: IngestSide {
            snap: &snap,
            ledger: &ledger,
            wall_ns: traced.wall_ns,
            frames: traced.frames,
            prepared: traced.recordings,
            bytes_per_frame: traced.bytes_per_frame,
        },
        serve: ServeSide {
            snap: &snap,
            outs: &[],
            codec: &CodecTimes::default(),
        },
        phase_ledger: &ledger,
        render_ms_per_frame: render_replay(&recs),
        bags_ms_per_clip: bags_replay(&datasets),
        plan,
        unattributed_share: 1.0 - ledger.total_ns() as f64 / traced.wall_ns as f64,
        trace_overhead_pct: (per_unit(&traced) / per_unit(&base) - 1.0) * 100.0,
    };
    Ok(Outcome {
        attempted: base.recordings + traced.recordings,
        failed: 0,
        metrics: layer_metrics(&layers),
        identity: identity(&[&base, &traced]),
    })
}

// ---------------------------------------------------------------------
// session, query, mixed
// ---------------------------------------------------------------------

fn roles(w: Workload, smoke: bool) -> Vec<Role> {
    let (sessions, queries) = if smoke {
        (2, 12)
    } else {
        (usize::MAX, usize::MAX)
    };
    match w {
        Workload::Session => (0..2)
            .map(|index| Role::Sessions {
                index,
                of: 2,
                cap: sessions,
            })
            .collect(),
        Workload::Query => (0..2)
            .map(|index| Role::Queries {
                index,
                cap: queries / 2,
            })
            .collect(),
        Workload::Mixed => vec![
            Role::Sessions {
                index: 0,
                of: 1,
                cap: sessions,
            },
            Role::Queries {
                index: 1,
                cap: queries,
            },
        ],
        Workload::Ingest => unreachable!("ingest drives no clients"),
    }
}

/// Server-side codec time per op, replayed on the recorded lines.
#[derive(Default)]
struct CodecTimes {
    ns: [u64; 5],
    n: [u64; 5],
}

/// One serving phase over a freshly reopened archive.
struct ServeRun {
    outs: Vec<ClientOut>,
    sessions_replayed: usize,
    /// Snapshot right after the clients finished (traced phase only).
    snap: Option<Snap>,
    codec: CodecTimes,
}

impl ServeRun {
    fn clients(&self) -> impl Iterator<Item = &Client> {
        self.outs.iter().map(|o| &o.client)
    }

    fn queries(&self) -> impl Iterator<Item = &QueryRun> {
        self.outs.iter().flat_map(|o| &o.queries)
    }

    /// Per wait `(kind, ms)`: a round (kind 0), a query (kind 1 +
    /// class), or (mixed) both.
    fn waits_ms(&self) -> Vec<(usize, f64)> {
        let rounds = self
            .outs
            .iter()
            .flat_map(|o| &o.sessions)
            .flat_map(|s| &s.rounds_ns)
            .map(|&ns| (0, ns));
        let queries = self.queries().map(|q| (1 + q.class, q.ns));
        rounds
            .chain(queries)
            .map(|(k, ns)| (k, ns as f64 / 1e6))
            .collect()
    }

    fn wall_s(&self) -> f64 {
        self.outs.iter().map(|o| o.wall_ns).max().unwrap_or(0) as f64 / 1e9
    }
}

fn serve_phase(
    dir: &Path,
    roles: &[Role],
    truth: &Truth,
    seconds: f64,
    traced: bool,
    ledger: &mut Ledger,
) -> Result<ServeRun, String> {
    let db = ledger
        .time("reopen", || ShardedDb::open(dir))
        .map_err(|e| format!("reopen archive: {e}"))?;
    let service = Arc::new(Service::new(db, ServiceConfig::default()));
    let server = Server::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            queue_cap: 64,
        },
    )
    .map_err(|e| format!("start server: {e}"))?;
    let outs = drive(server.addr(), roles, truth, seconds, traced);
    let snap = traced.then(|| Snap(tsvr_obs::snapshot()));
    // The replay needs a service that is not draining, so it runs
    // before the shutdown; the clients have disconnected by now.
    let replayed = replay_sessions(&service, &outs, truth);
    server.shutdown();
    let codec = if traced {
        codec_replay(&outs)
    } else {
        CodecTimes::default()
    };
    Ok(ServeRun {
        sessions_replayed: replayed?,
        outs,
        snap,
        codec,
    })
}

/// Identity gate: every completed TCP session, replayed in process
/// through the same service, serves the same pages byte for byte.
fn replay_sessions(
    service: &Arc<Service>,
    outs: &[ClientOut],
    truth: &Truth,
) -> Result<usize, String> {
    let mut local = Client::local(Arc::clone(service));
    let mut replayed = 0;
    for run in outs.iter().flat_map(|o| &o.sessions).filter(|s| s.complete) {
        let r = (run.clip_id - 1) as usize;
        let again = session(&mut local, run.clip_id, truth.queries[r], &truth.labels[r]);
        if !again.complete || again.pages != run.pages {
            return Err(format!(
                "clip {}: a TCP session's rankings differ from its in-process replay",
                run.clip_id
            ));
        }
        replayed += 1;
    }
    Ok(replayed)
}

/// The server's share of the codec: `decode_request` on each recorded
/// request line plus `encode_response` of its response.
fn codec_replay(outs: &[ClientOut]) -> CodecTimes {
    let mut c = CodecTimes::default();
    for ex in outs.iter().flat_map(|o| &o.client.exchanges) {
        let Ok(resp) = decode_response(&ex.response) else {
            continue;
        };
        let t = Instant::now();
        let _ = black_box((decode_request(&ex.request), encode_response(&resp)));
        c.ns[ex.op] += t.elapsed().as_nanos() as u64;
        c.n[ex.op] += 1;
    }
    c
}

fn same_ranking(a: &[RankedWindow], b: &[RankedWindow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.clip_id == y.clip_id
                && x.window_index == y.window_index
                && x.score.to_bits() == y.score.to_bits()
        })
}

/// Identity gate: every served query ranking is bit-identical to
/// `Planner::run` on the same archive.
fn check_queries<'a>(
    dir: &Path,
    runs: impl Iterator<Item = &'a QueryRun>,
) -> Result<usize, String> {
    let runs: Vec<&QueryRun> = runs.collect();
    if runs.is_empty() {
        return Ok(0);
    }
    let mut db = AnyDb::open(dir).map_err(|e| format!("open archive: {e}"))?;
    for (class, (name, expr)) in CLASSES.iter().enumerate() {
        let q = parse_query(expr).map_err(|e| format!("{name}: {e}"))?;
        let reference = Planner::new(PAGE)
            .run(&mut db, &q, Scorer::Heuristic)
            .map_err(|e| format!("plan {name}: {e}"))?;
        if let Some(bad) = runs
            .iter()
            .find(|r| r.class == class && !same_ranking(&r.ranking, &reference.ranking))
        {
            return Err(format!(
                "query class {name}: a served ranking ({} windows) differs from Planner::run",
                bad.ranking.len()
            ));
        }
    }
    Ok(runs.len())
}

fn run_served(o: &Opts, dir: &Path) -> Result<Outcome, String> {
    let layout = if o.smoke { Layout::SMOKE } else { Layout::FULL };
    let archive_dir = dir.join("archive");
    let mut setup_trace = None;
    let (setups, (recs, archive)) = repeat_setup(|i| {
        // In a traced run the ingest-path layers are read from the
        // first set-up; every set-up builds the same archive.
        let traced = o.trace && i == 0;
        if traced {
            tsvr_obs::reset();
        }
        let mut ledger = Ledger::new(traced);
        let t = Instant::now();
        let recs = recordings(o.seed, o.smoke);
        let archive = build_archive(&archive_dir, &recs, layout, &mut ledger)?;
        if traced {
            let wall_ns = t.elapsed().as_nanos() as u64;
            setup_trace = Some((Snap(tsvr_obs::snapshot()), ledger, wall_ns));
        }
        Ok((recs, archive))
    })?;
    let truth = Truth {
        labels: &archive.truth,
        queries: &archive.queries,
    };
    let roles = roles(o.workload, o.smoke);

    if !o.trace {
        let run = serve_phase(
            &archive_dir,
            &roles,
            &truth,
            o.seconds,
            false,
            &mut Ledger::new(false),
        )?;
        let queries_checked = check_queries(&archive_dir, run.queries())?;
        let waits = run.waits_ms();
        let rate = waits.len() as f64 / run.wall_s();
        let metrics = end_to_end(&setups, &waits, rate, waits.len() as u64);
        let (attempted, failed) = request_counts(&[&run]);
        return Ok(Outcome {
            attempted,
            failed,
            metrics,
            identity: served_identity(&[&run], queries_checked),
        });
    }

    let half = o.seconds / 2.0;
    let base = serve_phase(
        &archive_dir,
        &roles,
        &truth,
        half,
        false,
        &mut Ledger::new(false),
    )?;
    tsvr_obs::reset();
    let mut ledger = Ledger::new(true);
    let traced = serve_phase(&archive_dir, &roles, &truth, half, true, &mut ledger)?;
    let queries_checked = check_queries(&archive_dir, base.queries().chain(traced.queries()))?;

    let (setup_snap, setup_ledger, setup_wall_ns) = setup_trace.expect("traced set-up ran");
    let phase_snap = traced.snap.as_ref().expect("traced phase took a snapshot");
    let plan = plan_replay(
        &mut AnyDb::open(&archive_dir).map_err(|e| format!("open archive: {e}"))?,
        archive.windows_stored,
    )?;
    let datasets: Vec<&Dataset> = archive.datasets.iter().collect();
    let per_unit = |r: &ServeRun| r.wall_s() / r.waits_ms().len() as f64;
    let walls: u64 = traced.outs.iter().map(|o| o.wall_ns).sum();
    let attributed: u64 = traced
        .clients()
        .map(|c| c.latencies.iter().map(|l| l.1).sum::<u64>() + c.codec_ns)
        .sum();
    let layers = Layers {
        ingest: IngestSide {
            snap: &setup_snap,
            ledger: &setup_ledger,
            wall_ns: setup_wall_ns,
            frames: archive.frames_prepared,
            prepared: recs.len() as u64,
            bytes_per_frame: dir_bytes(&archive_dir) as f64 / archive.frames_stored as f64,
        },
        serve: ServeSide {
            snap: phase_snap,
            outs: &traced.outs,
            codec: &traced.codec,
        },
        phase_ledger: &ledger,
        render_ms_per_frame: render_replay(&recs),
        bags_ms_per_clip: bags_replay(&datasets),
        plan,
        unattributed_share: 1.0 - attributed as f64 / walls as f64,
        trace_overhead_pct: (per_unit(&traced) / per_unit(&base) - 1.0) * 100.0,
    };
    let metrics = layer_metrics(&layers);
    let (attempted, failed) = request_counts(&[&base, &traced]);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        identity: served_identity(&[&base, &traced], queries_checked),
    })
}

fn request_counts(runs: &[&ServeRun]) -> (u64, u64) {
    let clients = || runs.iter().flat_map(|r| r.clients());
    (
        clients().map(|c| c.attempted.iter().sum::<u64>()).sum(),
        clients().map(|c| c.failed.iter().sum::<u64>()).sum(),
    )
}

fn served_identity(runs: &[&ServeRun], queries_checked: usize) -> Vec<(String, Json)> {
    let replayed: usize = runs.iter().map(|r| r.sessions_replayed).sum();
    vec![
        ("sessions_replayed".into(), Json::Num(replayed as f64)),
        ("queries_checked".into(), Json::Num(queries_checked as f64)),
    ]
}

// ---------------------------------------------------------------------
// post-phase replays
// ---------------------------------------------------------------------

/// The rendering substrate: `Renderer::render` over every frame.
fn render_replay(recs: &[Recording]) -> f64 {
    let t = Instant::now();
    let mut frames = 0;
    for rec in recs {
        let renderer = Renderer::new(rec.kind, rec.sim.width, rec.sim.height);
        for obs in &rec.sim.frames {
            black_box(renderer.render(&obs.vehicles, obs.frame));
            frames += 1;
        }
    }
    per(ms_since(t), frames as f64)
}

fn bags_replay(datasets: &[&Dataset]) -> f64 {
    let t = Instant::now();
    for d in datasets {
        black_box(bags_from_dataset(d));
    }
    per(ms_since(t), datasets.len() as f64)
}

/// Planner cost per query class on the run's archive.
struct PlanReplay {
    parse_us: f64,
    plan_ms: [f64; 6],
    shards_pruned_ratio: [f64; 6],
    windows_ranked_ratio: [f64; 6],
}

fn plan_replay(db: &mut AnyDb, windows: u64) -> Result<PlanReplay, String> {
    const PARSES: usize = 200;
    const PLANS: usize = 5;
    let t = Instant::now();
    for _ in 0..PARSES {
        for (_, expr) in CLASSES {
            let _ = black_box(parse_query(black_box(expr)));
        }
    }
    let mut out = PlanReplay {
        parse_us: ms_since(t) * 1e3 / (PARSES * CLASSES.len()) as f64,
        plan_ms: [0.0; 6],
        shards_pruned_ratio: [0.0; 6],
        windows_ranked_ratio: [0.0; 6],
    };
    for (class, (name, expr)) in CLASSES.iter().enumerate() {
        let q = parse_query(expr).map_err(|e| format!("{name}: {e}"))?;
        let mut times = Vec::new();
        let mut stats = PlanStats::default();
        for _ in 0..PLANS {
            let t = Instant::now();
            let plan = Planner::new(PAGE)
                .run(db, &q, Scorer::Heuristic)
                .map_err(|e| format!("plan {name}: {e}"))?;
            times.push(ms_since(t));
            stats = plan.stats;
        }
        out.plan_ms[class] = median(&times);
        out.shards_pruned_ratio[class] = per(stats.shards_pruned as f64, stats.shards_total as f64);
        out.windows_ranked_ratio[class] = per(stats.windows_ranked as f64, windows as f64);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// per-layer metrics
// ---------------------------------------------------------------------

/// Where the ingest path ran: the traced phase (ingest) or the first
/// set-up (the other workloads).
struct IngestSide<'a> {
    snap: &'a Snap,
    ledger: &'a Ledger,
    wall_ns: u64,
    frames: u64,
    prepared: u64,
    bytes_per_frame: f64,
}

/// The traced phase: its snapshot and, on the served workloads, its
/// clients.
struct ServeSide<'a> {
    snap: &'a Snap,
    outs: &'a [ClientOut],
    codec: &'a CodecTimes,
}

struct Layers<'a> {
    ingest: IngestSide<'a>,
    serve: ServeSide<'a>,
    phase_ledger: &'a Ledger,
    render_ms_per_frame: f64,
    bags_ms_per_clip: f64,
    plan: PlanReplay,
    unattributed_share: f64,
    trace_overhead_pct: f64,
}

fn layer_metrics(l: &Layers) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut m = |name: &str, unit: &'static str, value: f64, n: u64| {
        out.push(Metric::value(name, unit, value, n as usize));
    };

    // Ingest path.
    let ing = &l.ingest;
    let (frames, clips) = (ing.frames, ing.prepared);
    let stored = ing.ledger.calls("put_clip");
    let ledger_ms = |slot: &str| ing.ledger.ns(slot) as f64 / 1e6;
    let build_ms = ing.snap.sum_ms("trajectory.window.build");
    let process_ms = ledger_ms("prepare") - build_ms - l.bags_ms_per_clip * clips as f64;
    let fr = frames as f64;
    m(
        "vision.process_ms_per_frame",
        "ms",
        per(process_ms, fr),
        frames,
    );
    m(
        "vision.process_share_of_wall",
        "ratio",
        per(process_ms, ing.wall_ns as f64 / 1e6),
        frames,
    );
    m(
        "vision.render_ms_per_frame",
        "ms",
        l.render_ms_per_frame,
        frames,
    );
    m(
        "vision.segment_busy_ms_per_frame",
        "ms",
        per(ing.snap.sum_ms("vision.segment"), fr),
        frames,
    );
    m(
        "vision.track_assign_busy_ms_per_frame",
        "ms",
        per(ing.snap.sum_ms("vision.track.assign"), fr),
        frames,
    );
    m(
        "vision.blobs_per_frame",
        "count",
        ing.snap.mean("vision.blobs_per_frame"),
        frames,
    );
    m(
        "trajectory.build_ms_per_clip",
        "ms",
        per(build_ms, clips as f64),
        clips,
    );
    m(
        "trajectory.polyfit_busy_ms_per_clip",
        "ms",
        per(ing.snap.sum_ms("trajectory.polyfit"), clips as f64),
        clips,
    );
    m("core.bags_ms_per_clip", "ms", l.bags_ms_per_clip, clips);
    m(
        "core.bundle_ms_per_clip",
        "ms",
        per(ledger_ms("bundle"), stored as f64),
        stored,
    );
    m(
        "core.index_build_ms_per_clip",
        "ms",
        per(ledger_ms("index_build"), stored as f64),
        stored,
    );

    // Serving path.
    let sv = &l.serve;
    let clients = || sv.outs.iter().map(|o| &o.client);
    let count = |op: usize| clients().map(|c| c.attempted[op]).sum::<u64>();
    let (opens, queries) = (count(0), count(4));
    let rounds: u64 = sv
        .outs
        .iter()
        .flat_map(|o| &o.sessions)
        .map(|s| s.rounds_ns.len() as u64)
        .sum();
    let (r, q) = (rounds as f64, queries as f64);
    m(
        "core.index_load_busy_ms_per_open",
        "ms",
        per(sv.snap.sum_ms("index.load"), opens as f64),
        opens,
    );
    let plan = &l.plan;
    let classes = CLASSES.len() as u64;
    m("core.qlang.parse_us", "us", plan.parse_us, classes);
    for (i, (class, _)) in CLASSES.iter().enumerate() {
        m(
            &format!("core.qlang.plan_ms.{class}"),
            "ms",
            plan.plan_ms[i],
            5,
        );
    }
    for (i, (class, _)) in CLASSES.iter().enumerate() {
        m(
            &format!("core.qlang.shards_pruned_ratio.{class}"),
            "ratio",
            plan.shards_pruned_ratio[i],
            1,
        );
    }
    for (i, (class, _)) in CLASSES.iter().enumerate() {
        m(
            &format!("core.qlang.windows_ranked_ratio.{class}"),
            "ratio",
            plan.windows_ranked_ratio[i],
            1,
        );
    }
    m(
        "core.topk_busy_ms_per_query",
        "ms",
        per(sv.snap.sum_ms("query.multiclip.sharded"), q),
        queries,
    );

    // Storage.
    m(
        "viddb.put_clip_ms_per_clip",
        "ms",
        per(ledger_ms("put_clip"), stored as f64),
        stored,
    );
    let syncs = ing.ledger.calls("sync");
    m(
        "viddb.sync_ms_per_pass",
        "ms",
        per(ledger_ms("sync"), syncs as f64),
        syncs,
    );
    m("viddb.bytes_per_frame", "B", ing.bytes_per_frame, frames);
    let reopens = l.phase_ledger.calls("reopen");
    m(
        "viddb.reopen_ms",
        "ms",
        per(l.phase_ledger.ns("reopen") as f64 / 1e6, reopens as f64),
        reopens,
    );
    m(
        "viddb.append_busy_ms_per_round",
        "ms",
        per(sv.snap.sum_ms("viddb.append"), r),
        rounds,
    );
    m(
        "viddb.sync_busy_ms_per_round",
        "ms",
        per(sv.snap.sum_ms("viddb.sync"), r),
        rounds,
    );
    m(
        "viddb.load_index_busy_ms_per_query",
        "ms",
        per(sv.snap.sum_ms("viddb.load_index"), q),
        queries,
    );
    m(
        "viddb.load_clip_busy_ms_per_query",
        "ms",
        per(sv.snap.sum_ms("viddb.load_clip"), q),
        queries,
    );
    let (hits, misses) = (
        sv.snap.counter("viddb.cache.hits"),
        sv.snap.counter("viddb.cache.misses"),
    );
    m(
        "viddb.cache_hit_rate",
        "ratio",
        per(hits as f64, (hits + misses) as f64),
        hits + misses,
    );

    // Learner.
    m(
        "svm.train_busy_ms_per_round",
        "ms",
        per(sv.snap.sum_ms("svm.train"), r),
        rounds,
    );
    m(
        "svm.kernel_evals_per_round",
        "count",
        per(sv.snap.counter("svm.kernel.evals") as f64, r),
        rounds,
    );
    m(
        "serve.learn_busy_ms_per_round",
        "ms",
        per(sv.snap.sum_ms("serve.learn"), r),
        rounds,
    );

    // Service and transport, per op: TCP mean = handle + codec + transport.
    let mut tcp_ms = [0.0; 5];
    let mut transport_ms = [0.0; 5];
    let mut handle_ms = [0.0; 5];
    for (i, op) in OPS.iter().enumerate() {
        let lat: Vec<u64> = clients()
            .flat_map(|c| &c.latencies)
            .filter(|l| l.0 == i)
            .map(|l| l.1)
            .collect();
        tcp_ms[i] = per(lat.iter().sum::<u64>() as f64 / 1e6, lat.len() as f64);
        handle_ms[i] = sv.snap.mean(&format!("serve.latency{{op={op}}}")) / 1e6;
        let codec_ms = per(sv.codec.ns[i] as f64 / 1e6, sv.codec.n[i] as f64);
        if !lat.is_empty() {
            transport_ms[i] = tcp_ms[i] - handle_ms[i] - codec_ms;
        }
    }
    for (i, op) in OPS.iter().enumerate() {
        m(
            &format!("serve.handle_ms.{op}"),
            "ms",
            handle_ms[i],
            count(i),
        );
    }
    for (i, op) in OPS.iter().enumerate() {
        m(
            &format!("serve.transport_ms.{op}"),
            "ms",
            transport_ms[i],
            count(i),
        );
    }
    let exchanges: u64 = sv.codec.n.iter().sum();
    m(
        "serve.codec_us",
        "us",
        per(
            sv.codec.ns.iter().sum::<u64>() as f64 / 1e3,
            exchanges as f64,
        ),
        exchanges,
    );
    m(
        "serve.checkpoint_busy_ms_per_round",
        "ms",
        per(sv.snap.sum_ms("serve.checkpoint"), r),
        rounds,
    );
    m(
        "serve.transport_share_of_round",
        "ratio",
        per(transport_ms[1] + transport_ms[2], tcp_ms[1] + tcp_ms[2]),
        rounds,
    );
    let sessions = || sv.outs.iter().flat_map(|o| &o.sessions);
    let to_ms = |ns: &u64| *ns as f64 / 1e6;
    let first: Vec<f64> = sessions()
        .filter(|s| !s.pages.is_empty())
        .map(|s| to_ms(&s.first_page_ns))
        .collect();
    let round: Vec<f64> = sessions().flat_map(|s| &s.rounds_ns).map(to_ms).collect();
    let query: Vec<f64> = sv
        .outs
        .iter()
        .flat_map(|o| &o.queries)
        .map(|x| to_ms(&x.ns))
        .collect();
    for (name, samples) in [
        ("serve.first_page_p50_ms", &first),
        ("serve.round_p50_ms", &round),
        ("serve.query_p50_ms", &query),
    ] {
        m(name, "ms", median(samples), samples.len() as u64);
    }

    let (par, seq) = (
        sv.snap.counter("par.par_calls"),
        sv.snap.counter("par.seq_calls"),
    );
    m(
        "par.fork_ratio",
        "ratio",
        per(par as f64, (par + seq) as f64),
        par + seq,
    );
    m("unattributed_share", "ratio", l.unattributed_share, 1);
    m("trace_overhead_pct", "%", l.trace_overhead_pct, 1);
    out
}

// ---------------------------------------------------------------------
// output
// ---------------------------------------------------------------------

fn host(o: &Opts) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("available_parallelism".into(), Json::Num(cores as f64)),
        (
            "par_threads".into(),
            Json::Num(tsvr_par::current_threads() as f64),
        ),
        (
            "obs_compiled".into(),
            Json::Bool(!tsvr_obs::snapshot().histograms.is_empty()),
        ),
        ("obs_enabled".into(), Json::Bool(tsvr_obs::is_enabled())),
        ("seed".into(), Json::Num(o.seed as f64)),
    ])
}

fn mode(o: &Opts) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(o.workload.name().into())),
        ("trace".into(), Json::Bool(o.trace)),
        ("smoke".into(), Json::Bool(o.smoke)),
        ("seconds".into(), Json::Num(o.seconds)),
        ("server_workers".into(), Json::Num(WORKERS as f64)),
        ("loop".into(), Json::Str("closed".into())),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            eprint!("{}", report::table(&out.metrics));
            let identity = Json::Obj(out.identity);
            println!(
                "{}",
                report::envelope(host(&opts), mode(&opts), &out.metrics, identity)
            );
            println!(
                "{}",
                report::result_line(out.attempted, out.failed, &out.metrics)
            );
        }
        Err(e) => {
            eprintln!("e2e: check failed, no metrics reported: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the bench");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric section present")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named metric")
                    .to_string()
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn smoke_scale_emits_every_declared_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = Opts {
                    workload,
                    seed: DEFAULT_SEED,
                    seconds: 30.0,
                    trace,
                    smoke: true,
                };
                let out = run(&opts).unwrap_or_else(|e| panic!("{opts:?}: {e}"));
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
                let want = declared(if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(names, want, "{opts:?}");
                for m in &out.metrics {
                    assert!(valid_name(&m.name), "{opts:?}: bad name {:?}", m.name);
                    assert!(m.value.is_finite(), "{opts:?}: {} = {}", m.name, m.value);
                }
                assert!(out.attempted > 0, "{opts:?}");
                assert_eq!(out.failed, 0, "{opts:?}");
            }
        }
    }
}
