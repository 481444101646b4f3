//! Subcommand implementations.

use crate::args::{ArgError, Args};
use std::path::{Path, PathBuf};
use tsvr_core::{
    archive_clip_video, bags_from_bundle, bags_from_dataset, bundle_from_clip, labels_from_bundle,
    prepare_clip, EventQuery, LearnerKind, PipelineOptions,
};
use tsvr_mil::{GroundTruthOracle, Normalization, Oracle, RetrievalSession, SessionConfig};
use tsvr_sim::Scenario;
use tsvr_trajectory::checkpoint::FeatureConfig;
use tsvr_trajectory::{Dataset, WindowConfig};
use tsvr_viddb::{ClipMeta, FrameCodec, SessionRow, ShardedDb, VideoDb};

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
  sessions   --db F --clip-id N
  resume     --db F --clip-id N --session N [--learner L] [--rounds N] [--top N]
  session list     --db F [--clip-id N]   (every stored session, latest state)
  session replay   --db F --clip-id N --session N [--learner L] [--top N]
             (rebuild the stored learner and print its current page;
             a --learner that differs from the stored one is a typed error)
  session continue --db F --clip-id N --session N [--learner L]
             [--rounds N] [--top N]   (same as resume)
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
        "sessions" => sessions(&args),
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
    let bundle = db.load_clip(1).map_err(|e| e.to_string())?;
    let bags = bags_from_bundle(&bundle, &FeatureConfig::default());
    let event = EventQuery::accidents();
    let oracle = GroundTruthOracle::new(labels_from_bundle(&bundle, &event));
    let cfg = SessionConfig {
        top_n: args.num("top", 10)?,
        feedback_rounds: args.num("rounds", 4)?,
        ..SessionConfig::default()
    };
    let learner = LearnerKind::paper_ocsvm();
    let (report, _) = RetrievalSession::new(&bags, learner.build_for(&bags), &oracle, cfg).run();
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
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(
        writer,
        "{}",
        tsvr_serve::encode_request(&tsvr_serve::Envelope::new(req))
    )
    .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    if line.trim().is_empty() {
        return Err(format!("{addr}: server closed the connection without replying"));
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

/// A clip's dataset, served from its stored feature index when allowed
/// and fresh; otherwise rebuilt from the archived bundle (pure data
/// reshaping — no vision work either way) and, when indexing was asked
/// for, persisted so the next query is a hit.
fn indexed_dataset(
    db: &mut ShardedDb,
    clip_id: u64,
    use_index: bool,
    rebuild: bool,
) -> Result<Dataset, String> {
    let wcfg = WindowConfig::default();
    let vdb = db.routed_shard(clip_id).map_err(|e| e.to_string())?;
    if use_index && !rebuild {
        if let Some(ds) = tsvr_core::load_index(vdb, clip_id, &wcfg).map_err(|e| e.to_string())? {
            return Ok(ds);
        }
    }
    let bundle = vdb.load_clip(clip_id).map_err(|e| e.to_string())?;
    let ds = tsvr_core::dataset_from_bundle(&bundle, wcfg);
    if use_index || rebuild {
        tsvr_core::build_index(vdb, clip_id, &ds).map_err(|e| e.to_string())?;
    }
    Ok(ds)
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
                let vdb = db.routed_shard(id).map_err(|e| e.to_string())?;
                let bundle = vdb.load_clip(id).map_err(|e| e.to_string())?;
                let ds = tsvr_core::dataset_from_bundle(&bundle, wcfg);
                tsvr_core::build_index(vdb, id, &ds).map_err(|e| e.to_string())?;
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
                // Raw presence first, so a config-hash mismatch reads
                // as "stale", not "missing".
                let present = db.load_index(id).map_err(|e| e.to_string())?.is_some();
                let vdb = db.routed_shard(id).map_err(|e| e.to_string())?;
                let status = match tsvr_core::load_index(vdb, id, &wcfg)
                    .map_err(|e| e.to_string())?
                {
                    Some(ds) => format!("fresh ({} windows)", ds.windows.len()),
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

fn learner_from(args: &Args) -> Result<LearnerKind, String> {
    Ok(match args.get("learner").unwrap_or("ocsvm") {
        "ocsvm" => LearnerKind::paper_ocsvm(),
        "wrf" => LearnerKind::WeightedRf(Normalization::Percentage),
        "misvm" => LearnerKind::MiSvm { c: 10.0 },
        "dd" => LearnerKind::DiverseDensity { scale: 8.0 },
        "emdd" => LearnerKind::EmDd { scale: 8.0 },
        other => return Err(format!("unknown learner {other:?}")),
    })
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
    let use_index = args.switch("use-index");
    let rebuild_index = args.switch("rebuild-index");
    let bags = if use_index || rebuild_index {
        let ds = indexed_dataset(&mut db, clip_id, use_index, rebuild_index)?;
        bags_from_dataset(&ds)
    } else {
        let bundle = db.load_clip(clip_id).map_err(|e| e.to_string())?;
        bags_from_bundle(&bundle, &FeatureConfig::default())
    };
    let bundle = db.load_clip(clip_id).map_err(|e| e.to_string())?;
    let event = event_from(args)?;
    let labels = labels_from_bundle(&bundle, &event);
    let cfg = SessionConfig {
        top_n: args.num("top", 20)?,
        feedback_rounds: args.num("rounds", 4)?,
        ..SessionConfig::default()
    };
    let learner = learner_from(args)?;

    if args.switch("interactive") {
        let stdin = std::io::stdin();
        let mut input = stdin.lock();
        return interactive_query(
            &mut db, clip_id, &bundle, &bags, &event, &labels, cfg, learner, &mut input,
        );
    }

    let oracle = GroundTruthOracle::new(labels);
    let (report, _) = RetrievalSession::new(&bags, learner.build_for(&bags), &oracle, cfg).run();

    println!(
        "query {:?} on clip {clip_id} with {} ({} relevant of {} windows):",
        event.name,
        report.learner,
        report.relevant_total,
        bags.len()
    );
    for (round, acc) in report.accuracies.iter().enumerate() {
        let label = if round == 0 {
            "initial".to_string()
        } else {
            format!("round {round}")
        };
        println!("  {label:<10} accuracy@{} = {:.0}%", cfg.top_n, acc * 100.0);
    }
    let last = report.final_ranking().unwrap_or(&[]);
    println!(
        "  final top {}: {:?}",
        cfg.top_n.min(last.len()),
        &last[..cfg.top_n.min(last.len())]
    );

    // Persist the session.
    let session_id = db.session_count() as u64 + 1;
    db.put_session(&SessionRow {
        session_id,
        clip_id,
        query: event.name.into(),
        learner: report.learner.into(),
        feedback: report
            .rankings
            .iter()
            .take(cfg.feedback_rounds)
            .map(|r| {
                r.iter()
                    .take(cfg.top_n)
                    .map(|&w| {
                            // On-disk session rows store u32 window ids;
                            // fail loudly rather than alias past 2^32.
                            let id = u32::try_from(w).expect("window id exceeds on-disk u32 range");
                            (id, oracle.label(w))
                        })
                    .collect()
            })
            .collect(),
        accuracies: report.accuracies.clone(),
    })
    .map_err(|e| e.to_string())?;
    db.sync().map_err(|e| e.to_string())?;
    println!("  (stored as session {session_id})");
    Ok(())
}

/// The most advanced stored row for a session (`session_id == 0` means
/// "the latest session for the clip"). Checkpoint rows carry the full
/// feedback history, so the row with the most rounds is the freshest
/// state; among equals the later append wins.
fn stored_session_row(
    db: &mut ShardedDb,
    clip_id: u64,
    session_id: u64,
) -> Result<SessionRow, String> {
    let stored = db.sessions_for_clip(clip_id).map_err(|e| e.to_string())?;
    let wanted = if session_id == 0 {
        stored.last().map(|s| s.session_id)
    } else {
        Some(session_id)
    };
    wanted
        .and_then(|id| {
            stored
                .into_iter()
                .enumerate()
                .filter(|(_, s)| s.session_id == id)
                .max_by_key(|(i, s)| (s.feedback.len(), *i))
                .map(|(_, s)| s)
        })
        .ok_or_else(|| format!("no stored session {session_id} for clip {clip_id}"))
}

/// The learner kind to rebuild a stored session with: `--learner` when
/// given (replay then validates it against the row), else the kind the
/// row itself names.
fn kind_for_row(args: &Args, row: &SessionRow) -> Result<LearnerKind, String> {
    match args.get("learner") {
        Some(_) => learner_from(args),
        None => LearnerKind::from_learner_name(&row.learner).ok_or_else(|| {
            format!(
                "stored session {} uses unknown learner {:?}",
                row.session_id, row.learner
            )
        }),
    }
}

fn resume(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let clip_id = args.num::<u64>("clip-id", 1)?;
    let session_id = args.num::<u64>("session", 0)?;
    let row = stored_session_row(&mut db, clip_id, session_id)?;

    let bundle = db.load_clip(clip_id).map_err(|e| e.to_string())?;
    let bags = bags_from_bundle(&bundle, &FeatureConfig::default());
    let event = EventQuery::from_name(&row.query).unwrap_or_else(|_| EventQuery::accidents());
    let oracle = GroundTruthOracle::new(labels_from_bundle(&bundle, &event));
    let top_n = args.num("top", 20)?;
    let rounds = args.num("rounds", 2)?;
    let kind = kind_for_row(args, &row)?;
    let report = tsvr_core::continue_session(&bags, &row, kind, &oracle, top_n, rounds)
        .map_err(|e| e.to_string())?;
    println!(
        "resumed session {} (query {:?}, {} stored rounds):",
        row.session_id,
        row.query,
        row.feedback.len()
    );
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
#[allow(clippy::too_many_arguments)] // one-shot plumbing from `query`
fn interactive_query(
    db: &mut ShardedDb,
    clip_id: u64,
    bundle: &tsvr_viddb::ClipBundle,
    bags: &[tsvr_mil::Bag],
    event: &EventQuery,
    gt_labels: &[bool],
    cfg: SessionConfig,
    learner_kind: LearnerKind,
    input: &mut dyn std::io::BufRead,
) -> Result<(), String> {
    use tsvr_mil::session::rank_by;
    use tsvr_mil::{heuristic, Learner};

    let mut learner = learner_kind.build_for(bags);
    let mut ranking = rank_by(bags, heuristic::bag_score);
    let mut all_feedback: Vec<Vec<(u32, bool)>> = Vec::new();
    let mut accuracies: Vec<f64> = vec![tsvr_mil::metrics::accuracy_at(
        &ranking, gt_labels, cfg.top_n,
    )];

    for round in 1..=cfg.feedback_rounds {
        println!(
            "
-- round {round}: label the top {} windows --",
            cfg.top_n
        );
        let mut feedback = Vec::new();
        for &w in ranking.iter().take(cfg.top_n) {
            let win = &bundle.windows[w];
            print!(
                "window {:>3} frames {:>5}..{:<5} ({} vehicles)  {} [y/N] ",
                w,
                win.start_frame,
                win.end_frame,
                win.sequences.len(),
                event.name
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
        learner.learn(bags, &feedback);
        all_feedback.push(feedback.iter().map(|&(w, r)| (w as u32, r)).collect());
        ranking = rank_by(bags, |b| learner.score(b));
        let acc = tsvr_mil::metrics::accuracy_at(&ranking, gt_labels, cfg.top_n);
        accuracies.push(acc);
        println!(
            "   accuracy@{} vs stored ground truth: {:.0}%",
            cfg.top_n,
            acc * 100.0
        );
    }

    let session_id = db.session_count() as u64 + 1;
    db.put_session(&SessionRow {
        session_id,
        clip_id,
        query: event.name.into(),
        learner: learner.name().into(),
        feedback: all_feedback,
        accuracies,
    })
    .map_err(|e| e.to_string())?;
    db.sync().map_err(|e| e.to_string())?;
    println!(
        "
stored as session {session_id}"
    );
    Ok(())
}

fn sessions(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let clip_id = args.num::<u64>("clip-id", 1)?;
    let sessions = db.sessions_for_clip(clip_id).map_err(|e| e.to_string())?;
    if sessions.is_empty() {
        println!("no sessions for clip {clip_id}");
        return Ok(());
    }
    for s in sessions {
        println!(
            "session {:<4} query {:<10} learner {:<18} accuracies {:?}",
            s.session_id,
            s.query,
            s.learner,
            s.accuracies
                .iter()
                .map(|a| format!("{:.0}%", a * 100.0))
                .collect::<Vec<_>>()
        );
    }
    Ok(())
}

/// `session list` / `session replay` / `session continue`.
fn session_cmd(action: &str, args: &Args) -> Result<(), String> {
    match action {
        "list" => session_list(args),
        "replay" => session_replay(args),
        // `continue` is `resume` under the subcommand's name.
        "continue" => resume(args),
        other => Err(format!("unknown session action {other:?}\n{USAGE}")),
    }
}

/// Every stored session (optionally one clip's), reduced to its latest
/// checkpoint.
fn session_list(args: &Args) -> Result<(), String> {
    let mut db = open_db(args)?;
    let mut clip_ids: Vec<u64> = db.session_index().iter().map(|&(_, cid)| cid).collect();
    clip_ids.sort_unstable();
    clip_ids.dedup();
    if let Some(only) = args.get("clip-id") {
        let only: u64 = only
            .parse()
            .map_err(|_| format!("--clip-id: cannot parse {only:?}"))?;
        clip_ids.retain(|&c| c == only);
    }
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
        // Latest checkpoint per session id (rows carry full history, so
        // the most rounds wins; later append breaks ties).
        let mut latest: std::collections::BTreeMap<u64, (usize, SessionRow)> = Default::default();
        for (i, r) in rows.into_iter().enumerate() {
            let replace = match latest.get(&r.session_id) {
                Some((j, prev)) => (r.feedback.len(), i) > (prev.feedback.len(), *j),
                None => true,
            };
            if replace {
                latest.insert(r.session_id, (i, r));
            }
        }
        for (sid, (_, r)) in latest {
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

/// Rebuilds a stored session's learner by replaying its feedback and
/// prints the page it would serve now. `--learner` must match the
/// stored kind — the typed replay error surfaces here.
fn session_replay(args: &Args) -> Result<(), String> {
    use tsvr_mil::session::rank_by;
    use tsvr_mil::Learner;
    let mut db = open_db(args)?;
    let clip_id = args.num::<u64>("clip-id", 1)?;
    let session_id = args.num::<u64>("session", 0)?;
    let row = stored_session_row(&mut db, clip_id, session_id)?;
    let bundle = db.load_clip(clip_id).map_err(|e| e.to_string())?;
    let bags = bags_from_bundle(&bundle, &FeatureConfig::default());
    let kind = kind_for_row(args, &row)?;
    let learner = tsvr_core::replay_session(&bags, &row, kind).map_err(|e| e.to_string())?;
    let ranking = if row.feedback.is_empty() {
        rank_by(&bags, tsvr_mil::heuristic::bag_score)
    } else {
        rank_by(&bags, |b| learner.score(b))
    };
    let top_n = args.num::<usize>("top", 20)?.min(ranking.len());
    println!(
        "session {} (clip {clip_id}, query {:?}, learner {}, {} rounds replayed):",
        row.session_id,
        row.query,
        learner.name(),
        row.feedback.len()
    );
    println!("  current top {top_n}: {:?}", &ranking[..top_n]);
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
    let index = if use_index || rebuild_index {
        // Index-served path: bags come from stored feature segments;
        // only the labels (incident annotations) are read from bundles.
        let mut parts = Vec::with_capacity(clip_ids.len());
        for &id in &clip_ids {
            let ds = indexed_dataset(&mut db, id, use_index, rebuild_index)?;
            let bags = bags_from_dataset(&ds);
            let bundle = db.load_clip(id).map_err(|e| e.to_string())?;
            let labels = labels_from_bundle(&bundle, &event);
            parts.push((id, bags, labels));
        }
        // Deterministic cross-clip preview straight off the index,
        // scattered one task per shard (byte-identical to the
        // single-shard path at any thread count).
        let clips = parts
            .iter()
            .map(|(id, bags, _)| tsvr_core::ClipWindows { clip_id: *id, bags: bags.clone() })
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
        tsvr_core::MultiClipIndex::from_parts(parts)
    } else {
        let bundles: Vec<std::sync::Arc<tsvr_viddb::ClipBundle>> = clip_ids
            .iter()
            .map(|&id| db.load_clip(id).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&tsvr_viddb::ClipBundle> = bundles.iter().map(|b| b.as_ref()).collect();
        tsvr_core::MultiClipIndex::build(&refs, &event, &FeatureConfig::default())
    };
    println!(
        "cross-camera index: {} windows from {} clips",
        index.len(),
        clip_ids.len()
    );

    let oracle = GroundTruthOracle::new(index.labels.clone());
    let cfg = SessionConfig {
        top_n: args.num("top", 20)?,
        feedback_rounds: args.num("rounds", 4)?,
        ..SessionConfig::default()
    };
    let learner = learner_from(args)?;
    let (report, _) =
        RetrievalSession::new(&index.bags, learner.build_for(&index.bags), &oracle, cfg).run();
    for (round, acc) in report.accuracies.iter().enumerate() {
        println!(
            "  round {round}: accuracy@{} = {:.0}%",
            cfg.top_n,
            acc * 100.0
        );
    }
    println!("final top {}:", cfg.top_n.min(index.len()));
    for &bag in report.final_ranking().unwrap_or(&[]).iter().take(cfg.top_n) {
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
            "query", "--db", &db, "--clip-id", "9", "--event", "warp_drive",
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
        let bundle = dbh.load_clip(1).unwrap();
        let bags = bags_from_bundle(&bundle, &FeatureConfig::default());
        let event = EventQuery::accidents();
        let labels = labels_from_bundle(&bundle, &event);
        let cfg = SessionConfig {
            top_n: 3,
            feedback_rounds: 2,
            ..SessionConfig::default()
        };
        let answers = "y\nn\ny\nn\nn\ny\n";
        let mut input = std::io::Cursor::new(answers.as_bytes());
        interactive_query(
            &mut dbh,
            1,
            &bundle,
            &bags,
            &event,
            &labels,
            cfg,
            LearnerKind::paper_ocsvm(),
            &mut input,
        )
        .unwrap();
        let sessions = dbh.sessions_for_clip(1).unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].feedback.len(), 2);
        assert_eq!(sessions[0].feedback[0].len(), 3);
        // Early-closed input is handled too.
        let mut short = std::io::Cursor::new(b"y\n".as_slice());
        interactive_query(
            &mut dbh,
            1,
            &bundle,
            &bags,
            &event,
            &labels,
            cfg,
            LearnerKind::paper_ocsvm(),
            &mut short,
        )
        .unwrap();
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
            "query", "--db", &db, "--clip-id", "1", "--rounds", "2", "--top", "5",
        ])
        .unwrap();
        run(&["session", "list", "--db", &db]).unwrap();
        run(&["session", "list", "--db", &db, "--clip-id", "1"]).unwrap();
        // Replay the stored session: the stored row names its learner,
        // so no --learner is needed...
        run(&[
            "session", "replay", "--db", &db, "--clip-id", "1", "--session", "1", "--top", "5",
        ])
        .unwrap();
        // ...a matching explicit learner also works...
        run(&[
            "session", "replay", "--db", &db, "--clip-id", "1", "--session", "1", "--learner",
            "ocsvm",
        ])
        .unwrap();
        // ...and a mismatched one is the typed replay error.
        let err = run(&[
            "session", "replay", "--db", &db, "--clip-id", "1", "--session", "1", "--learner",
            "wrf",
        ])
        .unwrap_err();
        assert!(err.contains("MIL_OneClassSVM"), "unexpected error: {err}");
        // `session continue` == `resume`, including the mismatch check.
        run(&[
            "session", "continue", "--db", &db, "--clip-id", "1", "--session", "1", "--rounds",
            "1", "--top", "5",
        ])
        .unwrap();
        assert!(run(&[
            "session", "continue", "--db", &db, "--clip-id", "1", "--session", "1", "--learner",
            "wrf",
        ])
        .is_err());
        // Error paths: missing/unknown action, unknown session.
        assert!(run(&["session", "--db", &db]).is_err());
        assert!(run(&["session", "frobnicate", "--db", &db]).is_err());
        assert!(run(&[
            "session", "replay", "--db", &db, "--clip-id", "1", "--session", "99",
        ])
        .is_err());
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
