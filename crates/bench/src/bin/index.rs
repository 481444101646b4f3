//! Measures what the persistent feature index buys at query time and
//! writes `BENCH_index.json`.
//!
//! Two ways to answer the same cross-clip heuristic query over a stored
//! clip are timed:
//!
//! * **cold** — the no-index path: run the full extraction pipeline
//!   (render, segment, track, feature extraction), convert to bags, and
//!   rank — what every query pays when derived data is not persisted;
//! * **indexed** — load the clip's stored `TSIX` segment from the
//!   database, rebuild the dataset (pure decode, bit-identical
//!   features), convert to bags, and rank.
//!
//! Both paths produce identical rankings — the index stores raw α rows
//! via `f64::to_bits` — so the timings compare the same computation;
//! the report's `rankings_bit_identical` check records it. The gate is
//! an index-served query at least 2× faster than cold extraction, in
//! fast mode too.
//!
//! `TSVR_BENCH_FAST=1` switches to the small tunnel clip and the
//! harness's single-batch smoke mode (used by `scripts/ci.sh`).

use tsvr_bench::harness::{fast_mode, Bencher, Report};
use tsvr_bench::PAPER_SEED;
use tsvr_core::{
    bags_from_dataset, build_index, bundle_from_clip, load_index, prepare_clip, rank_topk,
    ClipWindows, PipelineOptions, Scorer, ShardWindows,
};
use tsvr_obs::json::Json;
use tsvr_sim::Scenario;
use tsvr_trajectory::WindowConfig;
use tsvr_viddb::{ClipMeta, VideoDb};

const TOP_K: usize = 20;

fn main() {
    let (scenario, clip_name) = if fast_mode() {
        (Scenario::tunnel_small(PAPER_SEED), "tunnel_small")
    } else {
        (
            Scenario::tunnel_paper(PAPER_SEED),
            "tunnel_paper (2504 frames)",
        )
    };
    let opts = PipelineOptions::default();
    let wcfg = WindowConfig::default();

    // Store the clip and its feature index once, up front — the cost
    // being amortized away is exactly the one the cold path re-pays per
    // query.
    let clip = prepare_clip(&scenario, &opts);
    let mut db = VideoDb::in_memory();
    db.put_clip(&bundle_from_clip(
        &clip,
        ClipMeta {
            clip_id: 1,
            name: "bench".into(),
            location: "bench-site".into(),
            camera: "cam-0".into(),
            start_time: 0,
            frame_count: scenario.total_frames,
            width: clip.sim.width,
            height: clip.sim.height,
        },
    ))
    .expect("store clip");
    build_index(&mut db, 1, &clip.dataset).expect("store index");

    let rank = |dataset: &tsvr_trajectory::Dataset| {
        let clips = vec![ClipWindows {
            clip_id: 1,
            bags: bags_from_dataset(dataset),
        }];
        rank_topk(&[ShardWindows { shard: "-".into(), clips }], Scorer::Heuristic, TOP_K)
    };

    let mut b = Bencher::new("index");
    let cold_ns = b
        .bench("query/cold_extraction", || {
            let clip = prepare_clip(&scenario, &opts);
            rank(&clip.dataset)
        })
        .ns_per_iter;
    let indexed_ns = b
        .bench("query/index_served", || {
            let ds = load_index(&mut db, 1, &wcfg)
                .expect("db read")
                .expect("index fresh");
            rank(&ds)
        })
        .ns_per_iter;

    // The two paths must rank identically, bit for bit.
    let served = load_index(&mut db, 1, &wcfg).unwrap().expect("index fresh");
    let (a, c) = (rank(&served), rank(&clip.dataset));
    let identical = a.len() == c.len()
        && a.iter().zip(&c).all(|(x, y)| {
            (x.score.to_bits(), x.clip_id, x.window_index)
                == (y.score.to_bits(), y.clip_id, y.window_index)
        });

    let speedup = cold_ns / indexed_ns;
    let target = 2.0;
    println!("cold {cold_ns:.0} ns, indexed {indexed_ns:.0} ns: {speedup:.1}x (target {target}x)");
    Report::new("index")
        .mode(
            "workload",
            Json::Str(format!(
                "heuristic top-{TOP_K} on {clip_name}: full extraction vs stored TSIX segment"
            )),
        )
        .metric("cold_ns", "ns", cold_ns)
        .metric("indexed_ns", "ns", indexed_ns)
        .metric("speedup", "x", speedup)
        .metric("target_speedup", "x", target)
        .identity("rankings_bit_identical", identical)
        .finish(speedup >= target);
}
