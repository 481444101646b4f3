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
//! via `f64::to_bits` — so the timings compare the same computation.
//!
//! `TSVR_BENCH_FAST=1` switches to the small tunnel clip and the
//! harness's single-batch smoke mode (used by `scripts/ci.sh`).

use tsvr_bench::harness::Bencher;
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
    let fast = std::env::var_os("TSVR_BENCH_FAST").is_some_and(|v| v != "0");
    let (scenario, clip_name) = if fast {
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

    // Sanity: the two paths rank identically, bit for bit.
    let served = load_index(&mut db, 1, &wcfg).unwrap().expect("index fresh");
    let (a, c) = (rank(&served), rank(&clip.dataset));
    assert_eq!(a.len(), c.len());
    for (x, y) in a.iter().zip(&c) {
        assert_eq!(
            (x.score.to_bits(), x.clip_id, x.window_index),
            (y.score.to_bits(), y.clip_id, y.window_index),
            "index-served ranking diverged from cold extraction"
        );
    }

    let speedup = cold_ns / indexed_ns;
    let target = 2.0;
    let pass = speedup >= target;
    let note = if pass {
        format!("PASS: index-served query {speedup:.1}x faster than cold extraction")
    } else {
        format!("FAIL: index-served speedup {speedup:.1}x < {target}x")
    };
    println!("cold {cold_ns:.0} ns, indexed {indexed_ns:.0} ns — {note}");

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("index".into())),
        (
            "workload".into(),
            Json::Str(format!(
                "heuristic top-{TOP_K} on {clip_name}: full extraction vs stored TSIX segment"
            )),
        ),
        ("fast_mode".into(), Json::Bool(fast)),
        ("cold_ns".into(), Json::Num(cold_ns)),
        ("indexed_ns".into(), Json::Num(indexed_ns)),
        ("speedup".into(), Json::Num(speedup)),
        ("target_speedup".into(), Json::Num(target)),
        ("pass".into(), Json::Bool(pass)),
        ("note".into(), Json::Str(note)),
    ]);
    let path = "BENCH_index.json";
    std::fs::write(path, format!("{doc}\n")).expect("write BENCH_index.json");
    println!("wrote {path}");
}
