//! Property tests for the query language and the progressive planner.
//!
//! The planner's contract is that pruning is *invisible*: for any
//! query, running the three progressive stages over a sharded archive
//! must produce exactly the ranking you would get by scoring every
//! window of every clip and post-filtering — same windows, same order,
//! same score bits. These tests check that contract over randomly
//! generated queries against a real on-disk archive whose clips all
//! straddle shard bucket boundaries (the historically dangerous case),
//! and the same clips stored as a single-file archive (its one-shard
//! view derives its routes from clip metadata), plus a parser
//! round-trip property over randomly generated ASTs.
//!
//! Driven by the in-tree seeded harness (`tsvr_sim::check`).

use std::path::PathBuf;
use tsvr_core::{
    bags_from_dataset, build_index, bundle_from_clip, dataset_from_bundle, parse_query,
    prepare_clip, rank_topk, segment_from_dataset, Clause, ClipWindows, Cmp, EventQuery,
    FeatureField, PipelineOptions, Planner, Query, RankedWindow, Scorer, ShardWindows, NOMINAL_FPS,
};
use tsvr_sim::check;
use tsvr_sim::{Pcg32, Scenario, VehicleClass};
use tsvr_trajectory::WindowConfig;
use tsvr_viddb::{ClipBundle, ClipMeta, ShardedDb, VideoDb};

/// Short buckets (7 s) against 16 s clips: every clip straddles at
/// least two buckets, so any pruning bug that assumes clips fit inside
/// their route's bucket shows up immediately.
const BUCKET_SECS: u64 = 7;

struct Archive {
    db: ShardedDb,
    /// The same clips and indexes in one single-file-layout archive.
    single: ShardedDb,
    metas: Vec<ClipMeta>,
    bundles: Vec<ClipBundle>,
    /// Every clip's windows ranked once, unfiltered, in global order.
    full_ranking: Vec<RankedWindow>,
    #[allow(dead_code)]
    dir: PathBuf,
}

/// Builds the shared archive: four pipeline clips on two cameras, at
/// start times chosen to straddle bucket boundaries, half of them with
/// stored TSIX segments (exercising the index-served stage-2 path) and
/// half without (exercising the bundle fallback).
fn build_archive(tag: &str) -> Archive {
    let mut dir = std::env::temp_dir();
    dir.push(format!("tsvr-qlang-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = ShardedDb::open_with_bucket(&dir, BUCKET_SECS).expect("open");
    let mut single = ShardedDb::from(VideoDb::in_memory());
    // (camera, start_time): starts sit mid-bucket so clip spans cross
    // into the following bucket(s).
    let placements = [("cam-0", 3u64), ("cam-0", 20), ("cam-1", 6), ("cam-1", 13)];
    let mut metas = Vec::new();
    let mut bundles = Vec::new();
    for (i, (camera, start_time)) in placements.iter().enumerate() {
        let clip_id = i as u64 + 1;
        let clip = prepare_clip(
            &Scenario::tunnel_small(500 + clip_id),
            &PipelineOptions::default(),
        );
        let meta = ClipMeta {
            clip_id,
            name: format!("clip-{clip_id}"),
            location: "props".into(),
            camera: (*camera).into(),
            start_time: *start_time,
            frame_count: clip.sim.frames.len() as u32,
            width: clip.sim.width,
            height: clip.sim.height,
        };
        let bundle = bundle_from_clip(&clip, meta.clone());
        for db in [&mut db, &mut single] {
            db.put_clip(&bundle).expect("put_clip");
            if clip_id.is_multiple_of(2) {
                let dataset = dataset_from_bundle(&bundle, WindowConfig::default());
                build_index(
                    db.shard_for_clip_mut(clip_id).expect("shard"),
                    clip_id,
                    &dataset,
                )
                .expect("build_index");
            }
        }
        metas.push(meta);
        bundles.push(bundle);
    }
    db.sync().expect("sync");
    let flat: Vec<ClipWindows> = bundles
        .iter()
        .map(|b| ClipWindows {
            clip_id: b.meta.clip_id,
            bags: bags_from_dataset(&dataset_from_bundle(b, WindowConfig::default())),
        })
        .collect();
    let total: usize = flat.iter().map(|c| c.bags.len()).sum();
    let full_ranking = rank_topk(
        &[ShardWindows {
            shard: "all".into(),
            clips: flat,
        }],
        Scorer::Heuristic,
        total,
    );
    // Touch the db once so lazily opened shards are warm before cases run.
    assert_eq!(db.list_clips().len(), metas.len());
    Archive {
        db,
        single,
        metas,
        bundles,
        full_ranking,
        dir,
    }
}

impl Drop for Archive {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Independent evaluation of a query against raw bundle rows — a
/// deliberate re-implementation of the clause semantics (documented in
/// DESIGN.md §5k), not a call into the planner's compiled form.
fn reference_admits(query: &Query, meta: &ClipMeta, bundle: &ClipBundle, window: u64) -> bool {
    let row = bundle
        .windows
        .iter()
        .find(|w| u64::from(w.window_index) == window)
        .expect("ranked window exists");
    let w_start = meta.start_time + u64::from(row.start_frame) / NOMINAL_FPS;
    let w_end = meta.start_time + u64::from(row.end_frame).div_ceil(NOMINAL_FPS);
    let lane = |f: FeatureField| match f {
        FeatureField::InvMdist => 0usize,
        FeatureField::Vdiff => 1,
        FeatureField::Theta => 2,
    };
    let alphas = row.sequences.iter().flat_map(|s| s.alphas.iter());
    query.clauses.iter().all(|clause| match clause {
        Clause::Cameras(cams) => cams.contains(&meta.camera),
        Clause::Time { from, to } => {
            w_start <= to.unwrap_or(u64::MAX) && w_end >= from.unwrap_or(0)
        }
        Clause::Feature { field, op, value } => {
            let sat = |x: f64| match op {
                Cmp::Lt => x < *value,
                Cmp::Le => x <= *value,
                Cmp::Gt => x > *value,
                Cmp::Ge => x >= *value,
            };
            alphas.clone().any(|a| sat(a[lane(*field)]))
        }
        Clause::FeatureIn { field, lo, hi } => alphas
            .clone()
            .any(|a| a[lane(*field)] >= *lo && a[lane(*field)] <= *hi),
        Clause::Event(ev) => bundle.incidents.iter().any(|inc| {
            tsvr_sim::IncidentKind::from_name(&inc.kind).is_some_and(|k| ev.matches(k))
                && u64::from(inc.start_frame) <= u64::from(row.end_frame)
                && u64::from(row.start_frame) <= u64::from(inc.end_frame)
        }),
        Clause::Class(_) => unreachable!("class clauses not generated here"),
    })
}

/// The ground truth: walk the unfiltered global ranking, keep windows
/// the reference evaluator admits, stop at `k`.
fn reference_topk(archive: &Archive, query: &Query, k: usize) -> Vec<RankedWindow> {
    let mut kept = Vec::new();
    for r in &archive.full_ranking {
        let idx = (r.clip_id - 1) as usize;
        if reference_admits(
            query,
            &archive.metas[idx],
            &archive.bundles[idx],
            r.window_index,
        ) {
            kept.push(*r);
            if kept.len() == k {
                break;
            }
        }
    }
    kept
}

fn assert_same_ranking(planned: &[RankedWindow], reference: &[RankedWindow], ctx: &str) {
    assert_eq!(planned.len(), reference.len(), "{ctx}: lengths differ");
    for (p, r) in planned.iter().zip(reference) {
        assert!(
            p.clip_id == r.clip_id
                && p.window_index == r.window_index
                && p.score.to_bits() == r.score.to_bits(),
            "{ctx}: planned {p:?} != reference {r:?}"
        );
    }
}

/// A random query over the archive's actual value ranges: cameras that
/// exist (plus sometimes one that doesn't), time bounds around the
/// clips' spans, feature thresholds spanning sparse-to-dense
/// selectivity, and incident-kind events.
fn random_query(rng: &mut Pcg32) -> Query {
    let mut clauses = Vec::new();
    if rng.chance(0.6) {
        let cams = match rng.uniform_u32(4) {
            0 => vec!["cam-0".to_string()],
            1 => vec!["cam-1".to_string()],
            2 => vec!["cam-0".to_string(), "cam-1".to_string()],
            _ => vec!["cam-0".to_string(), "cam-9".to_string()],
        };
        clauses.push(Clause::Cameras(cams));
    }
    if rng.chance(0.7) {
        // Clip spans live in [3, 37); bounds beyond that exercise
        // prune-everything and prune-nothing extremes.
        let a = u64::from(rng.uniform_u32(45));
        let b = a + u64::from(rng.uniform_u32(20));
        clauses.push(match rng.uniform_u32(3) {
            0 => Clause::Time {
                from: Some(a),
                to: Some(b),
            },
            1 => Clause::Time {
                from: Some(a),
                to: None,
            },
            _ => Clause::Time {
                from: None,
                to: Some(b),
            },
        });
    }
    for _ in 0..rng.uniform_u32(3) {
        let field = match rng.uniform_u32(3) {
            0 => FeatureField::InvMdist,
            1 => FeatureField::Vdiff,
            _ => FeatureField::Theta,
        };
        // Raw α magnitudes differ per lane; scale thresholds so both
        // all-pass and all-fail outcomes occur.
        let scale = match field {
            FeatureField::InvMdist => 0.2,
            FeatureField::Vdiff => 4.0,
            FeatureField::Theta => 1.0,
        };
        let x = rng.uniform(0.0, scale);
        clauses.push(if rng.chance(0.5) {
            let op = match rng.uniform_u32(4) {
                0 => Cmp::Lt,
                1 => Cmp::Le,
                2 => Cmp::Gt,
                _ => Cmp::Ge,
            };
            Clause::Feature {
                field,
                op,
                value: x,
            }
        } else {
            Clause::FeatureIn {
                field,
                lo: x * 0.25,
                hi: x,
            }
        });
    }
    if rng.chance(0.3) {
        let name = ["accident", "wall_crash", "sudden_stop"][rng.uniform_usize(3)];
        clauses.push(Clause::Event(EventQuery::from_name(name).unwrap()));
    }
    Query { clauses }
}

#[test]
fn planner_equals_post_filtered_full_scan() {
    let mut archive = build_archive("fullscan");
    let saved = tsvr_par::current_threads();
    check::cases(48, |case, rng| {
        let query = random_query(rng);
        let k = 1 + rng.uniform_usize(12);
        let planner = Planner::new(k);
        let reference = reference_topk(&archive, &query, k);
        for threads in [1, 4] {
            tsvr_par::set_threads(threads);
            let ctx = format!("case {case} at {threads} threads: {query}");
            let out = planner
                .run(&mut archive.db, &query, Scorer::Heuristic)
                .expect("plan");
            assert!(out.degraded.is_empty(), "healthy archive degraded");
            assert_same_ranking(&out.ranking, &reference, &ctx);
            // The single-file layout ranks the same bytes.
            let single = planner
                .run(&mut archive.single, &query, Scorer::Heuristic)
                .expect("plan single-file");
            assert!(single.degraded.is_empty(), "healthy single file degraded");
            assert_same_ranking(
                &single.ranking,
                &out.ranking,
                &format!("{ctx} (single file)"),
            );
            // Sanity on the receipt: counters must add up.
            for s in [out.stats, single.stats] {
                assert_eq!(
                    s.windows_ranked,
                    s.windows_scanned - s.windows_prefiltered,
                    "{ctx}: stats inconsistent: {s:?}"
                );
            }
        }
    });
    tsvr_par::set_threads(saved);
}

#[test]
fn index_path_and_bundle_path_plan_identically() {
    // The same bundles twice: every clip indexed, then none, so stage 2
    // reads every window through its segment in one archive and through
    // its bundle in the other.
    let archive = build_archive("paths");
    let mut indexed = ShardedDb::from(VideoDb::in_memory());
    let mut bundled = ShardedDb::from(VideoDb::in_memory());
    for bundle in &archive.bundles {
        let clip_id = bundle.meta.clip_id;
        for db in [&mut indexed, &mut bundled] {
            db.put_clip(bundle).expect("put_clip");
        }
        let dataset = dataset_from_bundle(bundle, WindowConfig::default());
        build_index(
            indexed.shard_for_clip_mut(clip_id).expect("shard"),
            clip_id,
            &dataset,
        )
        .expect("build_index");
    }
    check::cases(48, |case, rng| {
        let query = random_query(rng);
        let planner = Planner::new(1 + rng.uniform_usize(12));
        let ctx = format!("case {case}: {query}");
        let from_index = planner
            .run(&mut indexed, &query, Scorer::Heuristic)
            .expect("plan indexed");
        let from_bundle = planner
            .run(&mut bundled, &query, Scorer::Heuristic)
            .expect("plan bundled");
        assert_same_ranking(&from_index.ranking, &from_bundle.ranking, &ctx);
        assert_eq!(
            from_index.stats, from_bundle.stats,
            "{ctx}: plan stats differ"
        );
    });
}

#[test]
fn stale_segment_is_skipped_and_counted_as_stale() {
    let mut archive = build_archive("stale");
    // Re-store clip 2's segment under another feature configuration,
    // with doctored α rows: were it served, both the pre-filter and the
    // scores would change.
    let mut other = WindowConfig::default();
    other.features.vdiff_cap += 1.0;
    let mut stale = segment_from_dataset(2, &dataset_from_bundle(&archive.bundles[1], other));
    for row in &mut stale.windows {
        row.features.iter_mut().for_each(|x| *x = *x * 3.0 + 0.5);
    }
    for db in [&mut archive.db, &mut archive.single] {
        db.put_index(&stale).expect("put stale index");
    }
    archive.db.sync().expect("sync");
    let stale_count = || tsvr_obs::counter!("index.stale").get();
    check::cases(24, |case, rng| {
        let query = random_query(rng);
        let k = 1 + rng.uniform_usize(12);
        let planner = Planner::new(k);
        let reference = reference_topk(&archive, &query, k);
        let ctx = format!("case {case}: {query}");
        for db in [&mut archive.db, &mut archive.single] {
            let out = planner.run(db, &query, Scorer::Heuristic).expect("plan");
            assert_same_ranking(&out.ranking, &reference, &ctx);
        }
    });
    // A query that reaches every clip consults clip 2's segment, and
    // the planner counts it like `load_index` does.
    let before = stale_count();
    let everything = Query { clauses: vec![] };
    let out = Planner::new(5)
        .run(&mut archive.db, &everything, Scorer::Heuristic)
        .expect("plan");
    assert_same_ranking(
        &out.ranking,
        &reference_topk(&archive, &everything, 5),
        "no clauses",
    );
    if tsvr_obs::is_enabled() {
        assert!(
            stale_count() > before,
            "stale segment not counted as index.stale"
        );
    }
}

#[test]
fn bucket_straddling_clips_are_never_pruned() {
    let mut archive = build_archive("straddle");
    // Every clip starts mid-bucket and runs 16 s across ≥2 buckets.
    // Probe single-bucket time windows across the whole timeline: a
    // clip must answer queries for *any* bucket its real span touches,
    // including buckets after the one its route is filed under.
    check::cases(48, |case, rng| {
        let bucket = u64::from(rng.uniform_u32(7));
        let (from, to) = (bucket * BUCKET_SECS, (bucket + 1) * BUCKET_SECS - 1);
        let query = Query {
            clauses: vec![Clause::Time {
                from: Some(from),
                to: Some(to),
            }],
        };
        let out = Planner::new(64)
            .run(&mut archive.db, &query, Scorer::Heuristic)
            .expect("plan");
        let reference = reference_topk(&archive, &query, 64);
        assert_same_ranking(
            &out.ranking,
            &reference,
            &format!("case {case}: bucket {bucket}"),
        );
        // Cross-check coverage directly from stored rows: every clip
        // with at least one window whose absolute time span overlaps
        // the probed bucket must appear in the (uncapped) result — even
        // when that bucket is *after* the one the clip's route is filed
        // under.
        for (meta, bundle) in archive.metas.iter().zip(&archive.bundles) {
            let overlaps = bundle.windows.iter().any(|w| {
                let w_start = meta.start_time + u64::from(w.start_frame) / NOMINAL_FPS;
                let w_end = meta.start_time + u64::from(w.end_frame).div_ceil(NOMINAL_FPS);
                w_start <= to && w_end >= from
            });
            let answered = out.ranking.iter().any(|r| r.clip_id == meta.clip_id);
            if overlaps {
                assert!(
                    answered,
                    "case {case}: clip {} (start {}) dropped for bucket {bucket} [{from}, {to}]",
                    meta.clip_id, meta.start_time
                );
            }
        }
    });
}

/// A random *valid* AST whose `Display` form must parse back to the
/// identical AST (names restricted to lexable idents).
fn random_ast(rng: &mut Pcg32) -> Query {
    let mut clauses = Vec::new();
    let n = rng.uniform_u32(4);
    for _ in 0..n {
        clauses.push(match rng.uniform_u32(6) {
            0 => {
                let name =
                    ["accident", "wall_crash", "sudden_stop", "breakdown"][rng.uniform_usize(4)];
                match EventQuery::from_name(name) {
                    Ok(ev) => Clause::Event(ev),
                    Err(_) => continue,
                }
            }
            1 => Clause::Class(VehicleClass::ALL[rng.uniform_usize(VehicleClass::ALL.len())]),
            2 => {
                let m = 1 + rng.uniform_usize(3);
                let cams = (0..m)
                    .map(|_| format!("cam-{}.{}", rng.uniform_u32(10), rng.uniform_u32(10)))
                    .collect();
                Clause::Cameras(cams)
            }
            3 => {
                let a = rng.next_u64() % 100_000;
                match rng.uniform_u32(3) {
                    0 => Clause::Time {
                        from: Some(a),
                        to: Some(a + u64::from(rng.uniform_u32(3600))),
                    },
                    1 => Clause::Time {
                        from: Some(a),
                        to: None,
                    },
                    _ => Clause::Time {
                        from: None,
                        to: Some(a),
                    },
                }
            }
            4 => Clause::Feature {
                field: [
                    FeatureField::InvMdist,
                    FeatureField::Vdiff,
                    FeatureField::Theta,
                ][rng.uniform_usize(3)],
                op: [Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge][rng.uniform_usize(4)],
                value: rng.uniform(0.0, 10.0),
            },
            _ => {
                let lo = rng.uniform(0.0, 5.0);
                Clause::FeatureIn {
                    field: [
                        FeatureField::InvMdist,
                        FeatureField::Vdiff,
                        FeatureField::Theta,
                    ][rng.uniform_usize(3)],
                    lo,
                    hi: lo + rng.uniform(0.0, 5.0),
                }
            }
        });
    }
    Query { clauses }
}

#[test]
fn display_of_random_asts_parses_back_identically() {
    check::cases(256, |case, rng| {
        let q = random_ast(rng);
        let text = q.to_string();
        let parsed = parse_query(&text)
            .unwrap_or_else(|e| panic!("case {case}: {text:?} failed to re-parse: {e}"));
        assert_eq!(parsed, q, "case {case}: round trip changed {text:?}");
    });
}
