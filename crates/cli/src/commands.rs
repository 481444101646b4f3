//! Subcommand implementations.

use crate::args::{ArgError, Args};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tsvr_core::{
    archive_clip_video, bundle_from_clip, dataset_from_bundle, latest_checkpoints, prepare_clip,
    ClipView, EventQuery, LearnerKind, PipelineOptions, Session,
};
use tsvr_mil::GroundTruthOracle;
use tsvr_sim::Scenario;
use tsvr_trajectory::{Dataset, WindowConfig};
use tsvr_viddb::{ClipMeta, DbError, FrameCodec, SessionRow, ShardedDb, VideoDb};

const USAGE: &str = "usage: tsvr <command> [--flag value ...]

commands:
  simulate   --db F --scenario tunnel|intersection|tunnel-small|<fleet> --seed N
             --clip-id N [--frames N] [--location L] [--camera C] [--archive-video]
  sim        --list | --scenario <fleet-name> [--seed N]
             (the scenario fleet: list the hard retrieval-quality
             scenarios, or dry-run one and print its incident log
             without touching a database)
  list       --db F [--location L] [--camera C]
  info       --db F --clip-id N
  query      --db F --clip-id N [--event accident|u_turn|speeding]
             [--learner ocsvm|wrf|misvm|dd|emdd] [--rounds N] [--top N]
             [--use-index] [--rebuild-index]
             [--interactive]   (you label each page item y/n instead of the oracle)
  query \"<expr>\"  --db F [--top N] | --addr H:P [--top N]
             (archive-wide attribute + motion query through the
             shard-pruning progressive planner, e.g.
             \"camera = cam-1 and vdiff >= 3.5 and time in [0, 3600]\";
             clauses: event/class/camera/time/vdiff/theta/inv_mdist,
             joined with 'and'; prints plan stats and any degraded
             shards; --addr sends the same expression to a live server)
  session list     --db F [--clip-id N]   (every stored session, latest state;
             `sessions` is an alias)
  session replay   --db F --clip-id N --session N [--learner L] [--top N]
             (rebuild the stored learner and print its current page;
             a --learner that differs from the stored one is a typed error)
  session continue --db F --clip-id N --session N [--learner L]
             [--rounds N] [--top N]   (run more oracle-labelled rounds on
             a stored session; `resume` is an alias; --session 0 or
             omitted picks the clip's most recently stored session)
  serve      --db F [--addr H:P] [--workers N] [--queue N] [--deadline-ms N]
             [--top N] [--slowlog-ms N] [--flight-dump FILE]
             (concurrent retrieval service; line-delimited JSON
             protocol documented in DESIGN.md; {\"op\":\"shutdown\"} drains)
  search     --db F [--clips 1,2,3] [--event E] [--rounds N] [--top N]
             [--use-index] [--rebuild-index]
             (cross-camera: one session over several clips; default = all clips)
  index build  --db F [--clips 1,2,3]   (persist feature indexes so later
             queries skip extraction; default = every clip)
  index verify --db F [--clips 1,2,3]   (report fresh/stale/missing indexes)
  export     --db F --clip-id N --from N --to N --out DIR   (writes PGM images)
  verify     --db F   (integrity pass: decode-checks every record,
             quarantines corrupt clips, reports damage)
  compact    --db F   (rewrites live intact records; drops corrupt ones)
  demo       [--db F] [--seed N] [--rounds N] [--top N]
             (simulate + retrieve in one process; exercises every subsystem)
  stats      --metrics FILE | --addr H:P [--watch] [--interval-ms N]
             (pretty-print a --metrics-out snapshot, or poll a live
             server's metrics over its own protocol)
  trace      --addr H:P [--id N]   (print one request's span tree; the
             latest completed request when --id is omitted)
  slowlog    --addr H:P   (span trees of requests that exceeded the
             server's --slowlog-ms threshold)

--db F names a database directory of per-(camera, hour) shard logs,
created if absent; an existing single-file database opens in place as
one shard named \"-\". verify and compact report and rewrite per shard.

every command also accepts --metrics-out FILE to dump the process's
span timings and counters as JSON on exit, and --threads N to size the
worker pool for the parallel pipeline stages (the TSVR_THREADS
environment variable does the same; results are identical at any
thread count)";

/// Dispatches one invocation.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err(format!("no command given\n{USAGE}"));
    };
    // `index` and `session` take a positional action before their
    // flags; every other command is flags-only after the name.
    let (sub_action, flag_argv) = if cmd == "index" || cmd == "session" {
        let actions = if cmd == "index" {
            "build|verify"
        } else {
            "list|replay|continue"
        };
        let action = argv
            .get(1)
            .ok_or_else(|| format!("{cmd}: missing action ({actions})\n{USAGE}"))?;
        (Some(action.as_str()), argv.get(2..).unwrap_or(&[]))
    } else if cmd == "query" && argv.get(1).is_some_and(|a| !a.starts_with("--")) {
        // `query "<expr>"` — the positional query-language form; the
        // legacy flags-only form (`query --clip-id N`) stays as-is.
        (Some(argv[1].as_str()), argv.get(2..).unwrap_or(&[]))
    } else {
        (None, &argv[1..])
    };
    let args = Args::parse(flag_argv)?;
    if args.get("threads").is_some() {
        let n = args.num::<usize>("threads", 0)?;
        if n == 0 {
            return Err("--threads must be >= 1".into());
        }
        tsvr_par::set_threads(n);
    }
    let result = match cmd.as_str() {
        "simulate" => simulate(&args),
        "sim" => sim_fleet(&args),
        "list" => list(&args),
        "info" => info(&args),
        "query" => match sub_action {
            Some(expr) => query_expr(expr, &args),
            None => query(&args),
        },
        // Aliases of `session list` / `session continue`.
        "sessions" => session_list(&args),
        "resume" => resume(&args),
        "search" => search(&args),
        "export" => export(&args),
        "verify" => verify(&args),
        "index" => index_cmd(sub_action.expect("set for index"), &args),
        "session" => session_cmd(sub_action.expect("set for session"), &args),
        "serve" => serve_cmd(&args),
        "compact" => compact(&args),
        "demo" => demo(&args),
        "stats" => stats(&args),
        "trace" => trace_cmd(&args),
        "slowlog" => slowlog_cmd(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    // Dump metrics even when the command failed: a snapshot of a failing
    // run is exactly when the timings are wanted.
    if let Some(path) = args.get("metrics-out") {
        tsvr_obs::write_snapshot(Path::new(path))
            .map_err(|e| format!("write metrics to {path}: {e}"))?;
    }
    result
}

/// Runs the whole system in one process — simulation, vision,
/// trajectory features, storage, and an OC-SVM retrieval session — so a
/// single `--metrics-out` snapshot covers every instrumented subsystem.
fn demo(args: &Args) -> Result<(), String> {
    let seed = args.num::<u64>("seed", 2007)?;
    let scenario = Scenario::tunnel_small(seed);
    eprintln!("demo: simulating {} frames...", scenario.total_frames);
    let clip = prepare_clip(&scenario, &PipelineOptions::default());
    let meta = ClipMeta {
        clip_id: 1,
        name: format!("demo seed {seed}"),
        location: "demo-site".into(),
        camera: "cam-0".into(),
        start_time: 1_167_609_600,
        frame_count: scenario.total_frames,
        width: clip.sim.width,
        height: clip.sim.height,
    };
    let mut db = match args.get("db") {
        Some(_) => open_db(args)?,
        None => VideoDb::in_memory().into(),
    };
    db.put_clip(&bundle_from_clip(&clip, meta))
        .map_err(|e| e.to_string())?;
    let view = ClipView::load(&mut db, 1).map_err(|e| e.to_string())?;
    let bags = view.bags();
    let event = EventQuery::accidents();
    let oracle = GroundTruthOracle::new(view.labels(&mut db, &event).map_err(|e| e.to_string())?);
    let (top_n, rounds) = (args.num("top", 10)?, args.num("rounds", 4)?);
    let kind = LearnerKind::paper_ocsvm();
    let report = Session::open(1, 1, event.name, kind, Arc::clone(bags))
        .run_rounds(&oracle, top_n, rounds)
        .map_err(|e| e.to_string())?;
    println!(
        "demo: {} tracks, {} windows, {} relevant; accuracies {:?}",
        clip.vision.tracks.len(),
        bags.len(),
        report.relevant_total,
        report
            .accuracies
            .iter()
            .map(|a| format!("{:.0}%", a * 100.0))
            .collect::<Vec<_>>()
    );
    Ok(())
}

/// Sends one ops-plane request to a running `serve` instance over its
/// own line-delimited JSON protocol and returns the reply — the exact
/// code path every other client uses, framing included.
fn ops_request(addr: &str, req: tsvr_serve::Request) -> Result<tsvr_serve::Response, String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // Nagle off and one write per line, like the server (see
    // `tsvr_serve::server`'s "Framing").
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut request = tsvr_serve::encode_request(&tsvr_serve::Envelope::new(req));
    request.push('\n');
    (&stream)
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    if line.trim().is_empty() {
        return Err(format!(
            "{addr}: server closed the connection without replying"
        ));
    }
    tsvr_serve::decode_response(&line)
}

/// Pretty-prints a metrics snapshot: a `--metrics-out` file, or a live
/// server's registry via the `stats` protocol op (`--watch` re-polls).
fn stats(args: &Args) -> Result<(), String> {
    if let Some(addr) = args.get("addr") {
        let interval =
            std::time::Duration::from_millis(args.num::<u64>("interval-ms", 2000)?.max(1));
        loop {
            match ops_request(addr, tsvr_serve::Request::Stats)? {
                tsvr_serve::Response::Stats { snapshot } => print!("{}", snapshot.render_table()),
                tsvr_serve::Response::Error(e) => return Err(e.to_string()),
                other => return Err(format!("unexpected stats reply {other:?}")),
            }
            if !args.switch("watch") {
                return Ok(());
            }
            std::thread::sleep(interval);
            println!("---");
        }
    }
    let path = args
        .get("metrics")
        .ok_or("stats needs --metrics FILE or --addr H:P")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let snap = tsvr_obs::Snapshot::from_json(&text).map_err(|e| format!("parse {path}: {e}"))?;
    print!("{}", snap.render_table());
    Ok(())
}

/// Prints one completed request's span tree from a running server.
fn trace_cmd(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let trace_id = match args.get("id") {
        Some(s) => Some(
            s.parse::<u64>()
                .map_err(|_| format!("--id: cannot parse {s:?}"))?,
        ),
        None => None,
    };
    match ops_request(addr, tsvr_serve::Request::Trace { trace_id })? {
        tsvr_serve::Response::Trace { trace } => {
            print!("{}", trace.render_tree());
            Ok(())
        }
        tsvr_serve::Response::Error(e) => Err(e.to_string()),
        other => Err(format!("unexpected trace reply {other:?}")),
    }
}

/// Prints a running server's retained slow-request span trees.
fn slowlog_cmd(args: &Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    match ops_request(addr, tsvr_serve::Request::Slowlog)? {
        tsvr_serve::Response::Slowlog {
            threshold_ns,
            entries,
        } => {
            if threshold_ns == u64::MAX {
                println!("slowlog disabled (serve runs without a --slowlog-ms threshold)");
            } else {
                println!(
                    "slowlog threshold {:.1}ms, {} retained",
                    threshold_ns as f64 / 1e6,
                    entries.len()
                );
            }
            for t in &entries {
                print!("{}", t.render_tree());
            }
            Ok(())
        }
        tsvr_serve::Response::Error(e) => Err(e.to_string()),
        other => Err(format!("unexpected slowlog reply {other:?}")),
    }
}

/// Opens `--db` (see [`ShardedDb::open`]): an existing single file is
/// a one-shard view; any other path is a shard directory, created if
/// absent.
fn open_db(args: &Args) -> Result<ShardedDb, String> {
    let path = args.require("db")?;
    ShardedDb::open(Path::new(path)).map_err(|e| format!("open {path}: {e}"))
}

fn scenario_from(args: &Args) -> Result<Scenario, ArgError> {
    let seed = args.num::<u64>("seed", 2007)?;
    let mut s = match args.get("scenario").unwrap_or("tunnel") {
        "tunnel" => Scenario::tunnel_paper(seed),
        "intersection" => Scenario::intersection_paper(seed),
        "tunnel-small" => Scenario::tunnel_small(seed),
        // Fall through to the fleet registry: any member name is a
        // valid scenario everywhere a preset is (`tsvr sim --list`).
        other => tsvr_sim::fleet::scenario(other, seed)
            .ok_or_else(|| format!("unknown scenario {other:?} (tsvr sim --list)"))?,
    };
    if let Some(frames) = args.get("frames") {
        s.total_frames = frames
            .parse()
            .map_err(|_| format!("--frames: cannot parse {frames:?}"))?;
    }
    Ok(s)
}

/// `tsvr sim` — the scenario-fleet front door: list the registry or
/// dry-run one member (simulation only, no vision/database) and print
/// its ground-truth incident log.
fn sim_fleet(args: &Args) -> Result<(), String> {
    if args.switch("list") || args.get("scenario").is_none() {
        println!("{:<18}{:<18}{:<9}summary", "scenario", "target", "cameras");
        for m in tsvr_sim::fleet::members() {
            println!(
                "{:<18}{:<18}{:<9}{}",
                m.name,
                m.target.name(),
                m.cameras,
                m.summary
            );
        }
        return Ok(());
    }
    let name = args.require("scenario")?;
    let seed = args.num::<u64>("seed", 2007)?;
    let member = tsvr_sim::fleet::member(name)
        .ok_or_else(|| format!("unknown fleet scenario {name:?} (tsvr sim --list)"))?;
    let scenario = tsvr_sim::fleet::scenario(name, seed).expect("member implies scenario");
    eprintln!(
        "running {name} ({} frames, seed {seed}, target {})...",
        scenario.total_frames,
        member.target.name()
    );
    let out = tsvr_sim::World::run(scenario);
    println!(
        "{name}: {} frames, {} incidents",
        out.frames.len(),
        out.incidents.len()
    );
    println!("{:<18}{:>8}{:>8}  vehicles", "kind", "start", "end");
    for rec in &out.incidents {
        let ids: Vec<String> = rec.vehicle_ids.iter().map(|id| id.to_string()).collect();
        println!(
            "{:<18}{:>8}{:>8}  {}",
            rec.kind.name(),
            rec.start_frame,
            rec.end_frame,
            ids.join(",")
        );
    }
    let targets = out
        .incidents
        .iter()
        .filter(|r| r.kind == member.target)
        .count();
    if member.cameras > 1 {
        let cut = tsvr_sim::fleet::handoff_split_frame(&out, member.target);
        println!(
            "camera boundary at frame {cut} ({} target incident(s) span it)",
            targets
        );
    }
    if targets == 0 {
        return Err(format!(
            "target {} never triggered at seed {seed}",
            member.target.name()
        ));
    }
    Ok(())
}

fn simulate(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let clip_id = args.num::<u64>("clip-id", 1)?;
    let scenario = scenario_from(args)?;
    eprintln!(
        "simulating {} frames ({:?}) and running the vision pipeline...",
        scenario.total_frames, scenario.kind
    );
    let clip = prepare_clip(&scenario, &PipelineOptions::default());
    let meta = ClipMeta {
        clip_id,
        name: format!("{:?} seed {}", scenario.kind, scenario.seed),
        location: args.get("location").unwrap_or("unspecified").to_string(),
        camera: args.get("camera").unwrap_or("cam-0").to_string(),
        start_time: 1_167_609_600,
        frame_count: scenario.total_frames,
        width: clip.sim.width,
        height: clip.sim.height,
    };
    db.put_clip(&bundle_from_clip(&clip, meta))
        .map_err(|e| e.to_string())?;
    println!(
        "clip {clip_id}: {} tracks, {} windows, {} trajectory sequences, {} incidents",
        clip.vision.tracks.len(),
        clip.dataset.window_count(),
        clip.dataset.sequence_count(),
        clip.sim.incidents.len()
    );
    if args.switch("archive-video") {
        eprintln!("archiving video frames...");
        let vdb = db.routed_shard(clip_id).map_err(|e| e.to_string())?;
        let segments = archive_clip_video(vdb, clip_id, &clip, FrameCodec::default(), 50)
            .map_err(|e| e.to_string())?;
        println!(
            "archived {segments} video segments ({} bytes total log)",
            db.log_size()
        );
    }
    // Durability point: everything the command reported is on disk.
    db.sync().map_err(|e| e.to_string())?;
    Ok(())
}

fn list(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let mut clips = db.list_clips();
    if let Some(loc) = args.get("location") {
        clips.retain(|m| m.location == loc);
    }
    if let Some(cam) = args.get("camera") {
        clips.retain(|m| m.camera == cam);
    }
    println!(
        "{:<8}{:<28}{:<18}{:<10}{:>8}",
        "clip", "name", "location", "camera", "frames"
    );
    for m in clips {
        println!(
            "{:<8}{:<28}{:<18}{:<10}{:>8}",
            m.clip_id, m.name, m.location, m.camera, m.frame_count
        );
    }
    Ok(())
}

fn info(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let clip_id = args.num::<u64>("clip-id", 1)?;
    let bundle = db.load_clip(clip_id).map_err(|e| e.to_string())?;
    let m = &bundle.meta;
    println!("clip {clip_id}: {:?}", m.name);
    println!(
        "  location {:?} camera {:?} start_time {}",
        m.location, m.camera, m.start_time
    );
    println!("  {} frames at {}x{}", m.frame_count, m.width, m.height);
    println!(
        "  {} tracks, {} windows, {} incidents",
        bundle.tracks.len(),
        bundle.windows.len(),
        bundle.incidents.len()
    );
    for inc in &bundle.incidents {
        println!(
            "    incident {:<16} frames {:>5}..{:<5} vehicles {:?}",
            inc.kind, inc.start_frame, inc.end_frame, inc.vehicle_ids
        );
    }
    println!(
        "  {} stored sessions",
        db.sessions_for_clip(clip_id)
            .map_err(|e| e.to_string())?
            .len()
    );
    Ok(())
}

/// `--clips 1,2,3`, defaulting to every clip in the database.
fn clip_ids_from(args: &Args, db: &ShardedDb) -> Result<Vec<u64>, String> {
    match args.get("clips") {
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--clips: bad id {s:?}"))
            })
            .collect::<Result<_, _>>(),
        None => Ok(db.list_clips().iter().map(|m| m.clip_id).collect()),
    }
}

/// The clip's view. `rebuild` reads it from the bundle and re-stores
/// the clip's feature index from that; otherwise [`ClipView::load`]
/// reads a fresh index, else the bundle, and `use_index` stores a
/// bundle-served view as the clip's index, so the next query is a hit.
/// No path runs vision or decodes the bundle twice.
fn clip_view(
    db: &mut ShardedDb,
    clip_id: u64,
    use_index: bool,
    rebuild: bool,
) -> Result<ClipView, String> {
    let view = if rebuild {
        db.load_clip(clip_id).map(ClipView::from_bundle)
    } else {
        ClipView::load(db, clip_id)
    }
    .map_err(|e| e.to_string())?;
    if (use_index || rebuild) && !view.index_served() {
        store_index(db, clip_id, view.dataset()).map_err(|e| e.to_string())?;
    }
    Ok(view)
}

/// Stores `dataset` as the clip's feature index in its shard.
fn store_index(db: &mut ShardedDb, clip_id: u64, dataset: &Dataset) -> Result<(), DbError> {
    db.routed_shard(clip_id)
        .and_then(|shard| tsvr_core::build_index(shard, clip_id, dataset))
}

/// `index build` / `index verify`.
fn index_cmd(action: &str, args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let clip_ids = clip_ids_from(args, &db)?;
    if clip_ids.is_empty() {
        return Err("no clips in the database".into());
    }
    let wcfg = WindowConfig::default();
    match action {
        "build" => {
            for &id in &clip_ids {
                let bundle = db.load_clip(id).map_err(|e| e.to_string())?;
                let ds = dataset_from_bundle(&bundle, wcfg);
                store_index(&mut db, id, &ds).map_err(|e| e.to_string())?;
                println!(
                    "indexed clip {id}: {} windows, {} trajectory sequences",
                    ds.windows.len(),
                    ds.windows.iter().map(|w| w.sequences.len()).sum::<usize>()
                );
            }
            println!("{} indexes stored", db.index_count());
            Ok(())
        }
        "verify" => {
            let mut stale = 0usize;
            let mut missing = 0usize;
            for &id in &clip_ids {
                // A config-hash mismatch reads as "stale", not "missing".
                let stored = db.load_index(id).map_err(|e| e.to_string())?;
                let present = stored.is_some();
                let status = match tsvr_core::fresh_segment(stored, id, &wcfg) {
                    Some(seg) => format!("fresh ({} windows)", seg.windows.len()),
                    None if present => {
                        stale += 1;
                        "STALE (rebuild with `index build`)".into()
                    }
                    None => {
                        missing += 1;
                        "missing".into()
                    }
                };
                println!("clip {id}: {status}");
            }
            if stale + missing > 0 {
                println!(
                    "{stale} stale, {missing} missing of {} clips — run `index build`",
                    clip_ids.len()
                );
            } else {
                println!("all {} indexes fresh", clip_ids.len());
            }
            Ok(())
        }
        other => Err(format!("unknown index action {other:?}\n{USAGE}")),
    }
}

/// `--learner`, parsed by [`LearnerKind::from_spec`]; `None` when the
/// flag is absent.
fn learner_arg(args: &Args) -> Result<Option<LearnerKind>, String> {
    args.get("learner")
        .map(|spec| LearnerKind::from_spec(spec).ok_or_else(|| format!("unknown learner {spec:?}")))
        .transpose()
}

fn event_from(args: &Args) -> Result<EventQuery, String> {
    let name = args.get("event").unwrap_or("accident");
    EventQuery::from_name(name).map_err(|e| e.to_string())
}

/// Prints a planned query's outcome: canonical expression, plan
/// receipt, degraded-shard warnings, then the ranking.
fn print_plan_outcome(
    canonical: &str,
    ranking: &[tsvr_core::RankedWindow],
    stats: &tsvr_core::PlanStats,
    degraded: &[tsvr_core::DegradedShard],
) {
    println!("query: {canonical}");
    println!(
        "plan: {}/{} shards pruned, {}/{} clips pruned, {}/{} windows pre-filtered, {} ranked",
        stats.shards_pruned,
        stats.shards_total,
        stats.clips_pruned,
        stats.clips_considered,
        stats.windows_prefiltered,
        stats.windows_scanned,
        stats.windows_ranked
    );
    for d in degraded {
        println!(
            "warning: partial result — shard {} (camera {}, bucket {}) unavailable: {}",
            d.file, d.camera, d.bucket, d.reason
        );
    }
    if ranking.is_empty() {
        println!(
            "no matching windows{}",
            if degraded.is_empty() {
                ""
            } else {
                " among the servable shards"
            }
        );
    }
    for (i, r) in ranking.iter().enumerate() {
        println!(
            "  {:>3}. clip {} window {} score {:.4}",
            i + 1,
            r.clip_id,
            r.window_index,
            r.score
        );
    }
}

/// The query-language form: `tsvr query "<expr>" --db F` plans and
/// ranks locally; with `--addr` the same expression is sent to a live
/// server and the identical report is printed from its response.
fn query_expr(expr: &str, args: &Args) -> Result<(), String> {
    let k = args.num("top", 20)?;
    if let Some(addr) = args.get("addr") {
        // Canonicalize locally when the expression parses (the server
        // re-parses anyway), so remote and local output match exactly.
        let shown = tsvr_core::parse_query(expr)
            .map(|q| q.to_string())
            .unwrap_or_else(|_| expr.to_string());
        return match ops_request(
            addr,
            tsvr_serve::Request::Query {
                expr: expr.to_string(),
                k: Some(k),
            },
        )? {
            tsvr_serve::Response::QueryResult {
                ranking,
                stats,
                degraded,
            } => {
                print_plan_outcome(&shown, &ranking, &stats, &degraded);
                Ok(())
            }
            tsvr_serve::Response::Error(e) => Err(e.to_string()),
            other => Err(format!("unexpected response {other:?}")),
        };
    }
    let parsed = tsvr_core::parse_query(expr).map_err(|e| e.to_string())?;
    let mut db = open_db(args)?;
    let planner = tsvr_core::Planner::new(k);
    let out = planner
        .run(&mut db, &parsed, tsvr_core::Scorer::Heuristic)
        .map_err(|e| e.to_string())?;
    print_plan_outcome(&parsed.to_string(), &out.ranking, &out.stats, &out.degraded);
    Ok(())
}

fn query(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let clip_id = args.num::<u64>("clip-id", 1)?;
    let (use_index, rebuild) = (args.switch("use-index"), args.switch("rebuild-index"));
    let view = clip_view(&mut db, clip_id, use_index, rebuild)?;
    let event = event_from(args)?;
    let labels = view.labels(&mut db, &event).map_err(|e| e.to_string())?;
    let (top_n, rounds) = (args.num("top", 20)?, args.num("rounds", 4)?);
    let learner = learner_arg(args)?.unwrap_or_else(LearnerKind::paper_ocsvm);
    // Ids continue past every stored one: rows are only written for
    // sessions that got feedback, so counting rows would reuse ids.
    let id = db.max_session_id() + 1;
    let mut session = Session::open(id, clip_id, event.name, learner, Arc::clone(view.bags()));
    if args.switch("interactive") {
        let mut input = std::io::stdin().lock();
        return interactive_query(&mut db, session, &view, &labels, top_n, rounds, &mut input);
    }

    let oracle = GroundTruthOracle::new(labels);
    let report = session
        .run_rounds(&oracle, top_n, rounds)
        .map_err(|e| e.to_string())?;
    println!(
        "query {:?} on clip {clip_id} with {} ({} relevant of {} windows):",
        event.name,
        report.learner,
        report.relevant_total,
        session.bags().len()
    );
    for (round, acc) in report.accuracies.iter().enumerate() {
        let label = if round == 0 {
            "initial".to_string()
        } else {
            format!("round {round}")
        };
        println!("  {label:<10} accuracy@{top_n} = {:.0}%", acc * 100.0);
    }
    let page = session.page(top_n);
    println!("  final top {}: {page:?}", page.len());

    // Persist the session.
    store_session(
        &mut db,
        SessionRow {
            accuracies: report.accuracies,
            ..session.row().clone()
        },
    )
}

/// Appends a session's checkpoint row and syncs it.
fn store_session(db: &mut ShardedDb, row: SessionRow) -> Result<(), String> {
    db.put_session(&row).map_err(|e| e.to_string())?;
    db.sync().map_err(|e| e.to_string())?;
    println!("  (stored as session {})", row.session_id);
    Ok(())
}

/// Resumes a stored session at its latest checkpoint (`--session 0`,
/// the default, picks the clip's most recently stored session) through
/// its own learner, or through `--learner`, which must match it. A
/// caller holding the clip's `view` passes it, so the clip is not read
/// twice.
fn resume_stored(
    db: &mut ShardedDb,
    args: &Args,
    view: Option<&ClipView>,
) -> Result<Session, String> {
    let clip_id = args.num::<u64>("clip-id", 1)?;
    let session_id = args.num::<u64>("session", 0)?;
    let rows = db.sessions_for_clip(clip_id).map_err(|e| e.to_string())?;
    let wanted = match session_id {
        0 => rows.last().map(|r| r.session_id),
        id => Some(id),
    };
    let row = wanted
        .and_then(|id| latest_checkpoints(rows).remove(&id))
        .ok_or_else(|| format!("no stored session {session_id} for clip {clip_id}"))?;
    let kind = learner_arg(args)?;
    let bags = match view {
        Some(view) => Arc::clone(view.bags()),
        None => Arc::clone(
            ClipView::load(db, clip_id)
                .map_err(|e| e.to_string())?
                .bags(),
        ),
    };
    Session::resume(&row, kind, bags).map_err(|e| e.to_string())
}

/// `session continue` (alias `resume`): resumes a stored session and
/// runs more oracle-labelled rounds on it.
fn resume(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let clip_id = args.num::<u64>("clip-id", 1)?;
    let view = ClipView::load(&mut db, clip_id).map_err(|e| e.to_string())?;
    let mut session = resume_stored(&mut db, args, Some(&view))?;
    let event = EventQuery::from_name(session.query()).unwrap_or_else(|_| EventQuery::accidents());
    let oracle = GroundTruthOracle::new(view.labels(&mut db, &event).map_err(|e| e.to_string())?);
    let top_n = args.num("top", 20)?;
    println!(
        "resumed session {} (query {:?}, {} stored rounds):",
        session.session_id(),
        session.query(),
        session.rounds()
    );
    let report = session
        .run_rounds(&oracle, top_n, args.num("rounds", 2)?)
        .map_err(|e| e.to_string())?;
    for (round, acc) in report.accuracies.iter().enumerate() {
        let label = if round == 0 {
            "restored".to_string()
        } else {
            format!("+round {round}")
        };
        println!("  {label:<10} accuracy@{top_n} = {:.0}%", acc * 100.0);
    }
    Ok(())
}

/// Drives a retrieval session with a human in the loop: each round's
/// page is printed with window context, the user answers y/n per item,
/// and the learner retrains on those labels (the paper's Fig. 7 flow in
/// a terminal).
fn interactive_query(
    db: &mut ShardedDb,
    mut session: Session,
    view: &ClipView,
    gt_labels: &[bool],
    top_n: usize,
    rounds: usize,
    input: &mut dyn std::io::BufRead,
) -> Result<(), String> {
    let accuracy = |s: &Session| tsvr_mil::metrics::accuracy_at(s.ranking(), gt_labels, top_n);
    let mut accuracies = vec![accuracy(&session)];

    for round in 1..=rounds {
        println!(
            "
-- round {round}: label the top {top_n} windows --"
        );
        let mut feedback = Vec::new();
        for &w in session.page(top_n) {
            let win = &view.dataset().windows[w];
            print!(
                "window {:>3} frames {:>5}..{:<5} ({} vehicles)  {} [y/N] ",
                w,
                win.start_frame,
                win.end_frame,
                win.sequences.len(),
                session.query()
            );
            use std::io::Write;
            std::io::stdout().flush().ok();
            let mut line = String::new();
            if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                println!("(input closed; stopping feedback early)");
                break;
            }
            let relevant = matches!(line.trim(), "y" | "Y" | "yes");
            feedback.push((w, relevant));
        }
        if feedback.is_empty() {
            break;
        }
        session.feedback(&feedback).map_err(|e| e.to_string())?;
        let acc = accuracy(&session);
        accuracies.push(acc);
        println!(
            "   accuracy@{top_n} vs stored ground truth: {:.0}%",
            acc * 100.0
        );
    }
    println!();
    store_session(
        db,
        SessionRow {
            accuracies,
            ..session.row().clone()
        },
    )
}

/// `session list` / `session replay` / `session continue`.
fn session_cmd(action: &str, args: &Args) -> Result<(), String> {
    match action {
        "list" => session_list(args),
        "replay" => session_replay(args),
        "continue" => resume(args),
        other => Err(format!("unknown session action {other:?}\n{USAGE}")),
    }
}

/// Every stored session (optionally one clip's), reduced to its latest
/// checkpoint.
fn session_list(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let only = match args.get("clip-id") {
        Some(_) => Some(args.num::<u64>("clip-id", 0)?),
        None => None,
    };
    let clip_ids: std::collections::BTreeSet<u64> = db
        .session_index()
        .iter()
        .map(|&(_, cid)| cid)
        .filter(|&cid| only.is_none_or(|o| o == cid))
        .collect();
    if clip_ids.is_empty() {
        println!("no stored sessions");
        return Ok(());
    }
    println!(
        "{:<10}{:<8}{:<12}{:<20}{:<8}accuracies",
        "session", "clip", "query", "learner", "rounds"
    );
    for cid in clip_ids {
        let rows = db.sessions_for_clip(cid).map_err(|e| e.to_string())?;
        for (sid, r) in latest_checkpoints(rows) {
            println!(
                "{:<10}{:<8}{:<12}{:<20}{:<8}{:?}",
                sid,
                cid,
                r.query,
                r.learner,
                r.feedback.len(),
                r.accuracies
                    .iter()
                    .map(|a| format!("{:.0}%", a * 100.0))
                    .collect::<Vec<_>>()
            );
        }
    }
    Ok(())
}

/// Resumes a stored session and prints the page it serves now — the
/// page a server held after the session's last acked round.
/// `--learner` must match the stored kind; the typed mismatch error
/// surfaces here.
fn session_replay(args: &Args) -> Result<(), String> {
    let session = resume_stored(&mut open_db(args)?, args, None)?;
    let page = session.page(args.num("top", 20)?);
    println!(
        "session {} (clip {}, query {:?}, learner {}, {} rounds replayed):",
        session.session_id(),
        session.clip_id(),
        session.query(),
        session.learner_name(),
        session.rounds()
    );
    println!("  current top {}: {page:?}", page.len());
    Ok(())
}

/// Runs the concurrent retrieval service until a client sends
/// `{"op":"shutdown"}` (graceful drain).
fn serve_cmd(args: &Args) -> Result<(), String> {
    let db = open_db(args)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7070");
    let workers = args.num::<usize>("workers", 4)?;
    if workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    // Requests slower than this land in the slowlog with their full span
    // tree (0 retains everything — useful when smoke-testing).
    let slowlog_ms = args.num::<u64>("slowlog-ms", 100)?;
    tsvr_obs::trace::set_slow_threshold_ns(slowlog_ms.saturating_mul(1_000_000));
    if let Some(path) = args.get("flight-dump") {
        tsvr_obs::trace::set_dump_path(Some(PathBuf::from(path)));
    }
    let service = std::sync::Arc::new(tsvr_serve::Service::new(
        db,
        tsvr_serve::ServiceConfig {
            default_top_n: args.num("top", 20)?,
            default_deadline_ms: args.num("deadline-ms", 30_000)?,
        },
    ));
    let server = tsvr_serve::Server::start(
        service,
        addr,
        tsvr_serve::ServerConfig {
            workers,
            queue_cap: args.num("queue", 64)?,
        },
    )
    .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("serving on {} ({workers} workers)", server.addr());
    server.join();
    println!("drained; all acked feedback rounds are checkpointed");
    Ok(())
}

/// Cross-camera retrieval over several clips at once (the capability
/// the paper's §6.2 names as its limitation).
fn search(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let clip_ids = clip_ids_from(args, &db)?;
    if clip_ids.is_empty() {
        return Err("no clips in the database".into());
    }
    let event = event_from(args)?;
    let use_index = args.switch("use-index");
    let rebuild_index = args.switch("rebuild-index");
    // Every clip's bags and labels (incident annotations) come through
    // one view in both modes.
    let mut parts = Vec::with_capacity(clip_ids.len());
    for &id in &clip_ids {
        let view = clip_view(&mut db, id, use_index, rebuild_index)?;
        let labels = view.labels(&mut db, &event).map_err(|e| e.to_string())?;
        parts.push((id, view.bags().to_vec(), labels));
    }
    if use_index || rebuild_index {
        // Deterministic cross-clip preview straight off the index,
        // scattered one task per shard (byte-identical to the
        // single-shard path at any thread count).
        let clips = parts
            .iter()
            .map(|(id, bags, _)| tsvr_core::ClipWindows {
                clip_id: *id,
                bags: bags.clone(),
            })
            .collect();
        let shards = tsvr_core::ShardWindows::group(&db, clips).map_err(|e| e.to_string())?;
        let k = args.num("top", 20)?;
        println!("heuristic top {k} (index-served):");
        for r in tsvr_core::rank_topk(&shards, tsvr_core::Scorer::Heuristic, k) {
            println!(
                "  clip {} window {} score {:.4}",
                r.clip_id, r.window_index, r.score
            );
        }
    }
    let index = tsvr_core::MultiClipIndex::from_parts(parts);
    println!(
        "cross-camera index: {} windows from {} clips",
        index.len(),
        clip_ids.len()
    );

    let oracle = GroundTruthOracle::new(index.labels.clone());
    let (top_n, rounds) = (args.num("top", 20)?, args.num("rounds", 4)?);
    let learner = learner_arg(args)?.unwrap_or_else(LearnerKind::paper_ocsvm);
    // One session over every clip's windows; it is never stored.
    let bags = Arc::new(index.bags.clone());
    let mut session = Session::open(0, 0, event.name, learner, bags);
    let report = session
        .run_rounds(&oracle, top_n, rounds)
        .map_err(|e| e.to_string())?;
    for (round, acc) in report.accuracies.iter().enumerate() {
        println!("  round {round}: accuracy@{top_n} = {:.0}%", acc * 100.0);
    }
    println!("final top {}:", top_n.min(index.len()));
    for &bag in session.page(top_n) {
        let (clip, window) = index.resolve(bag).unwrap();
        let name = db.meta(clip).map(|m| m.name.clone()).unwrap_or_default();
        println!(
            "  clip {clip} ({name}) window {window}{}",
            if index.labels[bag] {
                "  <- relevant"
            } else {
                ""
            }
        );
    }
    Ok(())
}

/// Writes one frame as a binary PGM (P5) image.
fn write_pgm(path: &PathBuf, frame: &tsvr_viddb::StoredFrame) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    write!(f, "P5\n{} {}\n255\n", frame.width, frame.height)?;
    f.write_all(&frame.pixels)
}

fn export(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let clip_id = args.num::<u64>("clip-id", 1)?;
    let from = args.num::<u32>("from", 0)?;
    let to = args.num::<u32>("to", from + 15)?;
    let out = PathBuf::from(args.require("out")?);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let frames = db
        .routed_shard(clip_id)
        .and_then(|vdb| vdb.load_frames(clip_id, from, to))
        .map_err(|e| e.to_string())?;
    if frames.is_empty() {
        return Err(format!(
            "no archived frames in [{from}, {to}) — was the clip simulated with --archive-video?"
        ));
    }
    for (idx, frame) in &frames {
        let path = out.join(format!("clip{clip_id}_frame{idx:05}.pgm"));
        write_pgm(&path, frame).map_err(|e| e.to_string())?;
    }
    println!("wrote {} PGM frames to {}", frames.len(), out.display());
    Ok(())
}

fn compact(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let before = db.log_size();
    db.compact().map_err(|e| e.to_string())?;
    println!("compacted: {} -> {} bytes", before, db.log_size());
    Ok(())
}

/// Full-database integrity pass: decode-checks every stored record and
/// reports (without destroying) whatever damage it finds. Pair with
/// `compact` to drop the damage for good.
fn verify(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let reports = db.verify().map_err(|e| e.to_string())?;
    let mut report = tsvr_viddb::VerifyReport::default();
    for (shard, r) in &reports {
        println!(
            "shard {shard}: {} records, {} clips intact, {} quarantined",
            r.records_checked, r.clips_intact, r.clips_quarantined
        );
        report.records_checked += r.records_checked;
        report.clips_intact += r.clips_intact;
        report.clips_quarantined += r.clips_quarantined;
        report.sessions_dropped += r.sessions_dropped;
        report.segments_dropped += r.segments_dropped;
    }
    println!(
        "verified {} records: {} clips intact, {} quarantined, {} sessions dropped, {} video segments dropped",
        report.records_checked,
        report.clips_intact,
        report.clips_quarantined,
        report.sessions_dropped,
        report.segments_dropped,
    );
    let faults = db.fault_report();
    if faults.truncated_tail_bytes > 0 {
        println!(
            "  open-time recovery truncated a {}-byte torn tail",
            faults.truncated_tail_bytes
        );
    }
    if faults.recovered_header {
        println!("  open-time recovery re-initialised a torn file header");
    }
    for region in &faults.corrupt_regions {
        println!(
            "  corrupt region: offset {} len {} (skipped at open)",
            region.offset, region.len
        );
    }
    for q in &faults.quarantined_clips {
        println!(
            "  quarantined clip {}: {} (re-ingest to repair, or compact to drop)",
            q.clip_id, q.reason
        );
    }
    let quarantined_shards = db.quarantined_shards();
    for (file, reason) in &quarantined_shards {
        println!("  quarantined shard {file}: {reason} (other shards keep serving)");
    }
    if report.is_clean() && faults.is_clean() && quarantined_shards.is_empty() {
        println!("  database is clean");
    } else {
        // Damage found, but the database still serves what survived.
        println!("  run `compact` to rewrite the log without the damage");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_db(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("tsvr-cli-test-{}-{name}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_dir_all(&p);
        p.to_string_lossy().into_owned()
    }

    fn run(argv: &[&str]) -> Result<(), String> {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    #[test]
    fn full_cli_workflow() {
        let db = temp_db("flow");
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--seed",
            "5",
            "--clip-id",
            "1",
            "--location",
            "tunnel-x",
            "--archive-video",
        ])
        .unwrap();
        run(&["list", "--db", &db]).unwrap();
        run(&["list", "--db", &db, "--location", "tunnel-x"]).unwrap();
        run(&["info", "--db", &db, "--clip-id", "1"]).unwrap();
        run(&[
            "query",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--rounds",
            "2",
            "--top",
            "5",
        ])
        .unwrap();
        run(&["sessions", "--db", &db, "--clip-id", "1"]).unwrap();
        run(&[
            "resume",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--rounds",
            "1",
            "--top",
            "5",
        ])
        .unwrap();

        // Cross-camera search over everything in the db.
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--seed",
            "6",
            "--clip-id",
            "2",
        ])
        .unwrap();
        run(&["search", "--db", &db, "--rounds", "1", "--top", "5"]).unwrap();
        run(&[
            "search", "--db", &db, "--clips", "1,2", "--rounds", "1", "--top", "5",
        ])
        .unwrap();
        assert!(run(&["search", "--db", &db, "--clips", "1,oops"]).is_err());

        let out = temp_db("frames-out");
        run(&[
            "export",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--from",
            "50",
            "--to",
            "53",
            "--out",
            &out,
        ])
        .unwrap();
        let count = std::fs::read_dir(&out).unwrap().count();
        assert_eq!(count, 3);
        // PGM header sanity.
        let first = std::fs::read_dir(&out).unwrap().next().unwrap().unwrap();
        let bytes = std::fs::read(first.path()).unwrap();
        assert!(bytes.starts_with(b"P5\n320 240\n255\n"));

        run(&["verify", "--db", &db]).unwrap();
        run(&["compact", "--db", &db]).unwrap();
        // A post-compaction verify must still find a clean database.
        run(&["verify", "--db", &db]).unwrap();
        let _ = std::fs::remove_dir_all(&out);
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn sim_lists_and_runs_fleet_members() {
        // Bare `sim` and `sim --list` both print the registry.
        run(&["sim"]).unwrap();
        run(&["sim", "--list"]).unwrap();
        // A dry run of a fleet member succeeds and needs no --db.
        run(&["sim", "--scenario", "wrong_way", "--seed", "2007"]).unwrap();
        // The handoff member reports its camera boundary.
        run(&["sim", "--scenario", "handoff", "--seed", "2007"]).unwrap();
        assert!(run(&["sim", "--scenario", "ufo_landing"]).is_err());
    }

    #[test]
    fn fleet_members_simulate_into_a_db_and_answer_their_query() {
        let db = temp_db("fleet");
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "pedestrian",
            "--seed",
            "2007",
            "--clip-id",
            "9",
        ])
        .unwrap();
        // The fleet member's target kind is a valid --event name.
        run(&[
            "query",
            "--db",
            &db,
            "--clip-id",
            "9",
            "--event",
            "pedestrian",
            "--rounds",
            "1",
            "--top",
            "5",
        ])
        .unwrap();
        assert!(run(&[
            "query",
            "--db",
            &db,
            "--clip-id",
            "9",
            "--event",
            "warp_drive",
        ])
        .is_err());
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["list"]).is_err()); // missing --db
        let db = temp_db("err");
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--clip-id",
            "1",
        ])
        .unwrap();
        // Unknown learner / event / scenario.
        assert!(run(&["query", "--db", &db, "--clip-id", "1", "--learner", "magic"]).is_err());
        assert!(run(&["query", "--db", &db, "--clip-id", "1", "--event", "ufo"]).is_err());
        assert!(run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "moonbase",
            "--clip-id",
            "2"
        ])
        .is_err());
        // Duplicate clip id.
        assert!(run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--clip-id",
            "1"
        ])
        .is_err());
        // Export without archived video.
        assert!(run(&[
            "export",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--from",
            "0",
            "--to",
            "3",
            "--out",
            &temp_db("noframes")
        ])
        .is_err());
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn verify_reports_damage_without_failing() {
        // A single-file archive, opened in place as one shard.
        let db = temp_db("verify-damaged");
        VideoDb::open(Path::new(&db)).unwrap();
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--clip-id",
            "1",
        ])
        .unwrap();
        // Flip one stored byte past the magic and the first frame
        // header; verify must report the damage, not error out, and a
        // compact afterwards must leave a clean database behind.
        let mut bytes = std::fs::read(&db).unwrap();
        let target = bytes.len() / 2;
        bytes[target] ^= 0x08;
        std::fs::write(&db, &bytes).unwrap();
        run(&["verify", "--db", &db]).unwrap();
        run(&["compact", "--db", &db]).unwrap();
        run(&["verify", "--db", &db]).unwrap();
        assert!(Path::new(&db).is_file(), "still one file");
        let _ = std::fs::remove_file(&db);
    }

    #[test]
    fn interactive_query_with_piped_labels() {
        let db = temp_db("interactive");
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--seed",
            "5",
            "--clip-id",
            "1",
        ])
        .unwrap();
        // Drive the interactive session with canned answers.
        let mut dbh = ShardedDb::open(Path::new(&db)).unwrap();
        let view = ClipView::load(&mut dbh, 1).unwrap();
        let event = EventQuery::accidents();
        let labels = view.labels(&mut dbh, &event).unwrap();
        let open = |id| {
            Session::open(
                id,
                1,
                event.name,
                LearnerKind::paper_ocsvm(),
                Arc::clone(view.bags()),
            )
        };
        let answers = "y\nn\ny\nn\nn\ny\n";
        let mut input = std::io::Cursor::new(answers.as_bytes());
        interactive_query(&mut dbh, open(1), &view, &labels, 3, 2, &mut input).unwrap();
        let sessions = dbh.sessions_for_clip(1).unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].feedback.len(), 2);
        assert_eq!(sessions[0].feedback[0].len(), 3);
        // Early-closed input is handled too.
        let mut short = std::io::Cursor::new(b"y\n".as_slice());
        interactive_query(&mut dbh, open(2), &view, &labels, 3, 2, &mut short).unwrap();
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn help_prints() {
        run(&["help"]).unwrap();
    }

    #[test]
    fn session_subcommand_workflow() {
        let db = temp_db("session-flow");
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--seed",
            "5",
            "--clip-id",
            "1",
        ])
        .unwrap();
        // Listing an empty database is fine.
        run(&["session", "list", "--db", &db]).unwrap();
        run(&[
            "query",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--rounds",
            "2",
            "--top",
            "5",
        ])
        .unwrap();
        run(&["session", "list", "--db", &db]).unwrap();
        run(&["session", "list", "--db", &db, "--clip-id", "1"]).unwrap();
        // Replay the stored session: the stored row names its learner,
        // so no --learner is needed...
        run(&[
            "session",
            "replay",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--session",
            "1",
            "--top",
            "5",
        ])
        .unwrap();
        // ...a matching explicit learner also works...
        run(&[
            "session",
            "replay",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--session",
            "1",
            "--learner",
            "ocsvm",
        ])
        .unwrap();
        // ...and a mismatched one is the typed replay error.
        let err = run(&[
            "session",
            "replay",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--session",
            "1",
            "--learner",
            "wrf",
        ])
        .unwrap_err();
        assert!(err.contains("MIL_OneClassSVM"), "unexpected error: {err}");
        // `session continue` == `resume`, including the mismatch check.
        run(&[
            "session",
            "continue",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--session",
            "1",
            "--rounds",
            "1",
            "--top",
            "5",
        ])
        .unwrap();
        assert!(run(&[
            "session",
            "continue",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--session",
            "1",
            "--learner",
            "wrf",
        ])
        .is_err());
        // Error paths: missing/unknown action, unknown session.
        assert!(run(&["session", "--db", &db]).is_err());
        assert!(run(&["session", "frobnicate", "--db", &db]).is_err());
        assert!(run(&[
            "session",
            "replay",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--session",
            "99",
        ])
        .is_err());
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn cli_session_ids_never_collide_with_served_sessions() {
        let db = temp_db("id-collision");
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--seed",
            "5",
            "--clip-id",
            "1",
        ])
        .unwrap();
        let query = [
            "query",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--rounds",
            "2",
            "--top",
            "5",
        ];
        run(&query).unwrap();
        // The server opens session 2 and never labels it (no row is
        // stored), then session 3 with one acked round.
        let served = {
            let service = tsvr_serve::Service::new(
                ShardedDb::open(Path::new(&db)).unwrap(),
                tsvr_serve::ServiceConfig::default(),
            );
            let ask = |req| service.handle(&tsvr_serve::Envelope::new(req));
            let open = || tsvr_serve::Request::Open {
                clip_id: 1,
                query: "accident".into(),
                learner: String::new(),
            };
            assert!(matches!(
                ask(open()),
                tsvr_serve::Response::Opened { session_id: 2, .. }
            ));
            assert!(matches!(
                ask(open()),
                tsvr_serve::Response::Opened { session_id: 3, .. }
            ));
            let labels = vec![(0, true), (1, false)];
            assert!(matches!(
                ask(tsvr_serve::Request::Feedback {
                    session_id: 3,
                    labels: labels.clone(),
                }),
                tsvr_serve::Response::Learned { round: 1, .. }
            ));
            labels
        };
        run(&query).unwrap();
        let mut dbh = ShardedDb::open(Path::new(&db)).unwrap();
        let latest = latest_checkpoints(dbh.sessions_for_clip(1).unwrap());
        assert_eq!(latest.keys().copied().collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(latest[&4].feedback.len(), 2, "the CLI session got id 4");
        // Replaying session 3 still returns the server's row.
        let args = Args::parse(&["--clip-id", "1", "--session", "3"].map(String::from)).unwrap();
        let replayed = resume_stored(&mut dbh, &args, None).unwrap();
        assert_eq!(replayed.row().feedback, vec![served]);
        assert_eq!(replayed.row(), &latest[&3]);
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn serve_command_validates_flags() {
        let db = temp_db("serve-flags");
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--clip-id",
            "1",
        ])
        .unwrap();
        assert!(run(&["serve", "--db", &db, "--workers", "0"]).is_err());
        assert!(run(&["serve", "--db", &db, "--addr", "999.999.999.999:1"]).is_err());
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn index_workflow() {
        let db = temp_db("index-flow");
        for (seed, id) in [("5", "1"), ("6", "2")] {
            run(&[
                "simulate",
                "--db",
                &db,
                "--scenario",
                "tunnel-small",
                "--seed",
                seed,
                "--clip-id",
                id,
            ])
            .unwrap();
        }
        // Before building: verify reports both indexes missing.
        run(&["index", "verify", "--db", &db]).unwrap();
        run(&["index", "build", "--db", &db]).unwrap();
        run(&["index", "verify", "--db", &db]).unwrap();
        {
            let mut dbh = ShardedDb::open(Path::new(&db)).unwrap();
            assert_eq!(dbh.index_count(), 2);
            // The stored index serves the default configuration.
            let shard = dbh.shard_for_clip_mut(1).unwrap();
            assert!(tsvr_core::load_index(shard, 1, &WindowConfig::default())
                .unwrap()
                .is_some());
        }
        // Queries ride the index; a rebuild refreshes it in place.
        run(&[
            "query",
            "--db",
            &db,
            "--clip-id",
            "1",
            "--rounds",
            "1",
            "--top",
            "5",
            "--use-index",
        ])
        .unwrap();
        run(&[
            "search",
            "--db",
            &db,
            "--rounds",
            "1",
            "--top",
            "5",
            "--use-index",
        ])
        .unwrap();
        run(&[
            "query",
            "--db",
            &db,
            "--clip-id",
            "2",
            "--rounds",
            "1",
            "--top",
            "5",
            "--rebuild-index",
        ])
        .unwrap();
        // Subset selection and error paths.
        run(&["index", "build", "--db", &db, "--clips", "1"]).unwrap();
        assert!(run(&["index", "--db", &db]).is_err(), "missing action");
        assert!(run(&["index", "frobnicate", "--db", &db]).is_err());
        assert!(run(&["index", "build", "--db", &db, "--clips", "99"]).is_err());
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn demo_writes_metrics_and_stats_renders_them() {
        let metrics = temp_db("metrics.json");
        run(&[
            "demo",
            "--seed",
            "5",
            "--rounds",
            "2",
            "--top",
            "5",
            "--metrics-out",
            &metrics,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        let snap = tsvr_obs::Snapshot::from_json(&text).unwrap();
        if tsvr_obs::is_enabled() {
            // One process exercised every instrumented subsystem.
            for span in [
                "vision.segment",
                "trajectory.window.build",
                "svm.train",
                "mil.session",
                "viddb.append",
                "core.prepare_clip",
            ] {
                assert!(
                    snap.histograms.iter().any(|h| h.name == span),
                    "span {span} missing from snapshot"
                );
            }
            assert!(snap.counters.iter().any(|c| c.name == "vision.frames"));
        }
        run(&["stats", "--metrics", &metrics]).unwrap();
        assert!(run(&["stats", "--metrics", "/nonexistent/x.json"]).is_err());
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn ops_plane_commands_against_a_live_server() {
        let db = temp_db("ops-plane");
        run(&[
            "simulate",
            "--db",
            &db,
            "--scenario",
            "tunnel-small",
            "--seed",
            "5",
            "--clip-id",
            "1",
        ])
        .unwrap();
        // Retain every traced request so `slowlog` has something to show.
        tsvr_obs::trace::set_slow_threshold_ns(0);
        let service = std::sync::Arc::new(tsvr_serve::Service::new(
            ShardedDb::open(Path::new(&db)).unwrap(),
            tsvr_serve::ServiceConfig::default(),
        ));
        let server = tsvr_serve::Server::start(
            std::sync::Arc::clone(&service),
            "127.0.0.1:0",
            tsvr_serve::ServerConfig {
                workers: 2,
                queue_cap: 8,
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        // One real request to trace.
        match ops_request(
            &addr,
            tsvr_serve::Request::Open {
                clip_id: 1,
                query: "accident".into(),
                learner: String::new(),
            },
        )
        .unwrap()
        {
            tsvr_serve::Response::Opened { .. } => {}
            other => panic!("open failed: {other:?}"),
        }

        run(&["stats", "--addr", &addr]).unwrap();
        if tsvr_obs::is_enabled() {
            run(&["trace", "--addr", &addr]).unwrap();
            run(&["slowlog", "--addr", &addr]).unwrap();
            // A bogus id is a typed not_found.
            let e = run(&["trace", "--addr", &addr, "--id", "999999999"]).unwrap_err();
            assert!(e.contains("not_found"), "unexpected error: {e}");
        } else {
            // Without probes there are no retained traces.
            assert!(run(&["trace", "--addr", &addr]).is_err());
            run(&["slowlog", "--addr", &addr]).unwrap();
        }
        assert!(run(&["trace", "--addr", &addr, "--id", "zebra"]).is_err());
        assert!(run(&["stats"]).is_err(), "needs --metrics or --addr");

        server.shutdown();
        tsvr_obs::trace::set_slow_threshold_ns(u64::MAX);
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn stats_rejects_malformed_snapshots() {
        let path = temp_db("badmetrics.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(run(&["stats", "--metrics", &path]).is_err());
        std::fs::write(&path, "{\"schema\": \"other/9\"}").unwrap();
        assert!(run(&["stats", "--metrics", &path]).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
