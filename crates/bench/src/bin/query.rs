//! Measures the progressive query planner and writes `BENCH_query.json`.
//!
//! The acceptance bar for the query language (DESIGN.md §5k):
//!
//! 1. **Latency falls with selectivity** — the same archive answers a
//!    broad query (`all`), a camera-narrowed query, and a camera+time
//!    +feature query; each added predicate must prune more work and the
//!    narrowest query must be measurably cheaper than the broad one.
//! 2. **The pruning is real** — the narrow query's plan receipt must
//!    show shards pruned at the manifest stage and windows eliminated
//!    by the stored-row pre-filter (both counters nonzero).
//! 3. **Byte-identity** — the planner's ranking is compared bit-for-bit
//!    (score bits, clip, window) against an *independently evaluated*
//!    post-filtered full scan: rank every window of every clip, drop
//!    the ones a straightforward re-implementation of the predicates
//!    rejects, take the top k. Checked with the pool pinned to 1 and to
//!    4 threads; any divergence fails the report's identity check.
//!
//! The archive is a real on-disk [`ShardedDb`]: clips come out of the
//! full sim→vision→trajectory pipeline, are routed into per-(camera,
//! hour) shards at distinct start times, and carry fresh TSIX index
//! segments so stage 2 runs against stored rows, not recomputed vision.
//!
//! `TSVR_BENCH_FAST=1` shrinks the archive and skips the latency gate
//! (timings stay informational); used by `scripts/ci.sh`.

use std::time::Instant;
use tsvr_bench::harness::{fast_mode, Bencher, Report};
use tsvr_core::{
    bags_from_bundle, build_index, bundle_from_clip, dataset_from_bundle, parse_query,
    prepare_clip, rank_topk, ClipWindows, PipelineOptions, Planner, Query, RankedWindow, Scorer,
    ShardWindows, NOMINAL_FPS,
};
use tsvr_obs::json::Json;
use tsvr_sim::Scenario;
use tsvr_trajectory::WindowConfig;
use tsvr_viddb::{ClipMeta, ShardedDb};

const BUCKET_SECS: u64 = 3600;

/// Builds the archive: `cameras × buckets` clips, one per shard cell,
/// each a full pipeline run with its own seed, plus TSIX indexes.
fn build_archive(dir: &std::path::Path, cameras: u64, buckets: u64) -> ShardedDb {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = ShardedDb::open_with_bucket(dir, BUCKET_SECS).expect("open sharded db");
    let mut clip_id = 1u64;
    for cam in 0..cameras {
        for bucket in 0..buckets {
            let clip = prepare_clip(
                &Scenario::tunnel_small(100 + clip_id),
                &PipelineOptions::default(),
            );
            let meta = ClipMeta {
                clip_id,
                name: format!("clip-{clip_id}"),
                location: "bench".into(),
                camera: format!("cam-{cam:02}"),
                start_time: bucket * BUCKET_SECS + 60,
                frame_count: clip.sim.frames.len() as u32,
                width: clip.sim.width,
                height: clip.sim.height,
            };
            let bundle = bundle_from_clip(&clip, meta);
            db.put_clip(&bundle).expect("put_clip");
            let dataset = dataset_from_bundle(&bundle, WindowConfig::default());
            build_index(
                db.shard_for_clip_mut(clip_id).expect("shard for clip"),
                clip_id,
                &dataset,
            )
            .expect("build_index");
            clip_id += 1;
        }
    }
    db.sync().expect("sync");
    db
}

/// Independent re-implementation of the bench predicates, used to
/// post-filter the full scan. Deliberately *not* the planner's code:
/// camera/time come straight off the metadata, the vdiff threshold
/// straight off the bundle's raw α rows.
struct RefFilter {
    camera: Option<String>,
    time: Option<(u64, u64)>,
    vdiff_ge: Option<f64>,
}

impl RefFilter {
    fn admits(&self, meta: &ClipMeta, bundle: &tsvr_viddb::ClipBundle, window_index: u64) -> bool {
        if let Some(cam) = &self.camera {
            if meta.camera != *cam {
                return false;
            }
        }
        let row = bundle
            .windows
            .iter()
            .find(|w| u64::from(w.window_index) == window_index)
            .expect("ranked window exists in bundle");
        if let Some((from, to)) = self.time {
            let w_start = meta.start_time + u64::from(row.start_frame) / NOMINAL_FPS;
            let w_end = meta.start_time + u64::from(row.end_frame).div_ceil(NOMINAL_FPS);
            if !(w_start <= to && w_end >= from) {
                return false;
            }
        }
        if let Some(min) = self.vdiff_ge {
            let hit = row
                .sequences
                .iter()
                .flat_map(|s| s.alphas.iter())
                .any(|a| a[1] >= min);
            if !hit {
                return false;
            }
        }
        true
    }
}

/// Full scan, post-filtered: rank *every* window of every clip through
/// the same canonical bag construction and heuristic scorer, then drop
/// windows the reference filter rejects and take the top k.
fn post_filtered_full_scan(db: &mut ShardedDb, filter: &RefFilter, k: usize) -> Vec<RankedWindow> {
    let metas: Vec<ClipMeta> = db.list_clips().into_iter().cloned().collect();
    let mut flat = Vec::new();
    for meta in &metas {
        let bundle = db.load_clip(meta.clip_id).expect("load_clip");
        flat.push(ClipWindows {
            clip_id: meta.clip_id,
            bags: bags_from_bundle(&bundle, &WindowConfig::default().features),
        });
    }
    let total: usize = flat.iter().map(|c| c.bags.len()).sum();
    let everything =
        rank_topk(&[ShardWindows { shard: "all".into(), clips: flat }], Scorer::Heuristic, total);
    let mut kept = Vec::new();
    for r in everything {
        let meta = metas.iter().find(|m| m.clip_id == r.clip_id).unwrap();
        let bundle = db.load_clip(r.clip_id).expect("load_clip");
        if filter.admits(meta, &bundle, r.window_index) {
            kept.push(r);
            if kept.len() == k {
                break;
            }
        }
    }
    kept
}

fn rankings_equal(a: &[RankedWindow], b: &[RankedWindow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.clip_id == y.clip_id
                && x.window_index == y.window_index
                && x.score.to_bits() == y.score.to_bits()
        })
}

fn run_planned(db: &mut ShardedDb, query: &Query, k: usize) -> tsvr_core::PlanOutcome {
    Planner::new(k).run(db, query, Scorer::Heuristic).expect("plan")
}

fn main() {
    let fast = fast_mode();
    let (cameras, buckets) = if fast { (2u64, 2u64) } else { (4, 3) };
    let k = 10;

    let dir = std::env::temp_dir().join(format!("tsvr-bench-query-{}", std::process::id()));
    let t0 = Instant::now();
    let mut db = build_archive(&dir, cameras, buckets);
    eprintln!(
        "archive: {} clips across {} shard cells in {:?}",
        cameras * buckets,
        cameras * buckets,
        t0.elapsed()
    );

    // The three queries, broadest to narrowest. The narrow ones target
    // camera 0 / bucket 0, so most of the grid is manifest-prunable.
    let broad = parse_query("all").unwrap();
    let narrow_cam = parse_query("camera = cam-00").unwrap();
    let narrow_expr = format!(
        "camera = cam-00 and time in [0, {}] and vdiff >= 0.5",
        BUCKET_SECS - 1
    );
    let narrow = parse_query(&narrow_expr).unwrap();

    // ---- byte-identity vs the post-filtered full scan ------------------
    let filters = [
        (
            &broad,
            RefFilter {
                camera: None,
                time: None,
                vdiff_ge: None,
            },
        ),
        (
            &narrow_cam,
            RefFilter {
                camera: Some("cam-00".into()),
                time: None,
                vdiff_ge: None,
            },
        ),
        (
            &narrow,
            RefFilter {
                camera: Some("cam-00".into()),
                time: Some((0, BUCKET_SECS - 1)),
                vdiff_ge: Some(0.5),
            },
        ),
    ];
    let mut byte_identical = true;
    for (query, filter) in &filters {
        let reference = post_filtered_full_scan(&mut db, filter, k);
        for threads in [1usize, 4] {
            tsvr_par::set_threads(threads);
            let planned = run_planned(&mut db, query, k);
            let ok = rankings_equal(&planned.ranking, &reference);
            byte_identical &= ok;
            if !ok {
                eprintln!(
                    "planner ranking diverged from post-filtered full scan for {query} at \
                     {threads} thread(s)"
                );
            }
        }
    }
    tsvr_par::set_threads(0);

    // ---- plan receipts --------------------------------------------------
    let broad_out = run_planned(&mut db, &broad, k);
    let narrow_out = run_planned(&mut db, &narrow, k);
    let stats = narrow_out.stats;
    assert!(narrow_out.degraded.is_empty(), "healthy archive degraded");
    eprintln!(
        "broad plan: {:?}\nnarrow plan: {stats:?}",
        broad_out.stats
    );

    // ---- latency vs selectivity ----------------------------------------
    let mut b = Bencher::new("query");
    let broad_ns = b
        .bench("plan/broad_all", || run_planned(&mut db, &broad, k))
        .ns_per_iter;
    let cam_ns = b
        .bench("plan/narrow_camera", || {
            run_planned(&mut db, &narrow_cam, k)
        })
        .ns_per_iter;
    let narrow_ns = b
        .bench("plan/narrow_camera_time_vdiff", || {
            run_planned(&mut db, &narrow, k)
        })
        .ns_per_iter;
    let speedup = broad_ns / narrow_ns;
    println!(
        "latency: broad {broad_ns:.0} ns, camera {cam_ns:.0} ns, \
         camera+time+vdiff {narrow_ns:.0} ns ({speedup:.2}x broad/narrow)"
    );

    let _ = std::fs::remove_dir_all(&dir);

    // Fast mode is a correctness smoke: single-batch timings are too
    // noisy to gate on. Full mode requires the narrowest query to be
    // measurably cheaper than the broad scan. Either way the narrow
    // plan must have pruned shards and pre-filtered windows.
    let target = if fast { 0.0 } else { 1.3 };
    Report::new("query")
        .mode(
            "workload",
            Json::Str(format!(
                "top-{k} over {} pipeline clips in {} (camera, hour) shards",
                cameras * buckets,
                cameras * buckets
            )),
        )
        .mode("narrow_expr", Json::Str(narrow_expr))
        .metric("broad_ns", "ns", broad_ns)
        .metric("narrow_camera_ns", "ns", cam_ns)
        .metric("narrow_full_ns", "ns", narrow_ns)
        .metric("broad_over_narrow", "x", speedup)
        .metric("shards_total", "count", stats.shards_total as f64)
        .metric("shards_pruned", "count", stats.shards_pruned as f64)
        .metric("windows_scanned", "count", stats.windows_scanned as f64)
        .metric(
            "windows_prefiltered",
            "count",
            stats.windows_prefiltered as f64,
        )
        .metric("windows_ranked", "count", stats.windows_ranked as f64)
        .metric("target_speedup", "x", target)
        .identity("rankings_byte_identical", byte_identical)
        .finish(stats.shards_pruned > 0 && stats.windows_prefiltered > 0 && speedup >= target);
}
