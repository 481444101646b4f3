//! Measures the sharded viddb path and writes `BENCH_shard.json`.
//!
//! Three things are measured, matching the sharding acceptance bar:
//!
//! 1. **Scatter-gather speedup** — the same multi-shard top-k query
//!    (per-shard local top-k on `tsvr-par`, sequential merge) timed
//!    with the pool pinned to 1 thread and to
//!    `max(4, available_parallelism)` threads.
//! 2. **Byte-identity** — before timing, the rankings from the sharded
//!    path at both thread counts and from the flat single-shard path
//!    are compared element-wise. The report carries the verdict as an
//!    identity check, so the determinism claim is recorded, not just
//!    asserted in tests, and a divergence fails the run.
//! 3. **Index compression ratio** — the same index segments encoded
//!    with the uncompressed tag-5 codec and the delta/bit-packed tag-6
//!    codec, plus a decode round-trip identity check (bit-exact by `==`
//!    on the decoded segment).
//!
//! A small end-to-end section also ingests the clips into an actual
//! on-disk [`ShardedDb`] to report the shard fan-out and per-shard log
//! bytes, so the JSON reflects the storage layout and not only the
//! in-memory query path.
//!
//! `TSVR_BENCH_FAST=1` shrinks the dataset and switches the harness to
//! single-batch smoke mode (used by `scripts/ci.sh`).

use tsvr_bench::harness::{fast_mode, host, Bencher, Report};
use tsvr_core::{rank_topk, ClipWindows, Scorer, ShardWindows};
use tsvr_mil::{Bag, Instance};
use tsvr_obs::json::Json;
use tsvr_viddb::codec::Writer;
use tsvr_viddb::record::{ClipBundle, ClipMeta, IndexSegment, IndexWindowRow, TrackRow};
use tsvr_viddb::ShardedDb;

/// Deterministic xorshift64* stream so the dataset is identical on
/// every run and every host.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

const FEATURE_DIM: usize = 6;
const POINTS_PER_INSTANCE: usize = 5;

/// Synthesizes one clip's windows: `bags` bags of trajectory-sequence
/// instances with smoothly varying features (realistic for the
/// delta/bit-packing codec, unlike white noise).
fn clip_windows(clip_id: u64, bags: usize, rng: &mut u64) -> ClipWindows {
    let bags = (0..bags)
        .map(|b| {
            let instances = (0..2)
                .map(|i| {
                    let base: Vec<f64> = (0..FEATURE_DIM).map(|_| unit(rng)).collect();
                    let points = (0..POINTS_PER_INSTANCE)
                        .map(|p| {
                            base.iter()
                                .map(|v| v + 0.01 * p as f64 + 0.001 * unit(rng))
                                .collect()
                        })
                        .collect();
                    Instance::new(clip_id * 1000 + i, points)
                })
                .collect();
            Bag::new(b, instances)
        })
        .collect();
    ClipWindows { clip_id, bags }
}

/// An index segment carrying the same kind of flat raw-α feature rows
/// the retrieval pipeline stores, for the codec-size comparison.
fn index_segment(clip_id: u64, windows: usize, tracks: usize, rng: &mut u64) -> IndexSegment {
    let rows = (0..windows)
        .map(|w| {
            let mut features = Vec::with_capacity(tracks * FEATURE_DIM);
            let mut v = unit(rng);
            for _ in 0..tracks * FEATURE_DIM {
                // Smooth walk on a 2^-12 grid: consecutive values are
                // close and share low-order zero bits, the shape the
                // XOR-delta/bit-packing codec exploits (full-mantissa
                // white noise is its worst case and falls back to raw).
                v += 0.05 * (unit(rng) - 0.5);
                features.push((v * 4096.0).round() / 4096.0);
            }
            IndexWindowRow {
                window_index: w as u32,
                start_checkpoint: (w * 10) as u64,
                start_frame: (w * 15) as u64,
                end_frame: (w * 15 + 14) as u64,
                track_ids: (0..tracks as u64).map(|t| clip_id * 100 + t).collect(),
                features,
            }
        })
        .collect();
    IndexSegment {
        clip_id,
        config_hash: 0xbe7c,
        feature_dim: FEATURE_DIM as u32,
        windows: rows,
    }
}

fn bundle(clip_id: u64, camera: &str, start_time: u64) -> ClipBundle {
    ClipBundle {
        meta: ClipMeta {
            clip_id,
            name: format!("clip-{clip_id}"),
            location: "bench".into(),
            camera: camera.into(),
            start_time,
            frame_count: 100,
            width: 320,
            height: 240,
        },
        tracks: vec![TrackRow {
            track_id: clip_id * 100,
            start_frame: 0,
            centroids: vec![(1.0, 2.0), (3.0, 4.0)],
        }],
        windows: vec![],
        incidents: vec![],
    }
}

fn rankings_equal(
    a: &[tsvr_core::RankedWindow],
    b: &[tsvr_core::RankedWindow],
) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.clip_id == y.clip_id
                && x.window_index == y.window_index
                && x.score.to_bits() == y.score.to_bits()
        })
}

fn main() {
    let fast = fast_mode();
    let (cameras, buckets, clips_per_cell, bags_per_clip) =
        if fast { (2, 2, 1, 24) } else { (4, 4, 2, 96) };
    let k = 20;
    let available = host().available_parallelism;
    let many = available.max(4);

    // ---- dataset -------------------------------------------------------
    let mut rng = 0x5eed_2007_u64;
    let mut shards: Vec<ShardWindows> = Vec::new();
    let mut clip_id = 1u64;
    for c in 0..cameras {
        for b in 0..buckets {
            let clips = (0..clips_per_cell)
                .map(|_| {
                    let cw = clip_windows(clip_id, bags_per_clip, &mut rng);
                    clip_id += 1;
                    cw
                })
                .collect();
            shards.push(ShardWindows {
                shard: format!("cam-{c:02}/bucket-{b}"),
                clips,
            });
        }
    }
    let flat: Vec<ClipWindows> = shards.iter().flat_map(|s| s.clips.clone()).collect();
    let total_clips = flat.len();
    let total_bags: usize = flat.iter().map(|c| c.bags.len()).sum();
    eprintln!(
        "dataset: {} shards, {total_clips} clips, {total_bags} bags; \
         comparing 1 thread vs {many} threads (host parallelism {available})",
        shards.len()
    );

    // ---- byte-identity (the determinism acceptance bar) ----------------
    let one_shard = [ShardWindows { shard: "all".into(), clips: flat }];
    let single = rank_topk(&one_shard, Scorer::Heuristic, k);
    tsvr_par::set_threads(1);
    let ranked_1 = rank_topk(&shards, Scorer::Heuristic, k);
    tsvr_par::set_threads(many);
    let ranked_n = rank_topk(&shards, Scorer::Heuristic, k);
    let byte_identical =
        rankings_equal(&single, &ranked_1) && rankings_equal(&ranked_1, &ranked_n);

    // ---- scatter-gather timing -----------------------------------------
    let mut b = Bencher::new("shard");
    tsvr_par::set_threads(1);
    let q1 = b
        .bench("sharded_topk/threads_1", || rank_topk(&shards, Scorer::Heuristic, k))
        .ns_per_iter;
    tsvr_par::set_threads(many);
    let qn = b
        .bench("sharded_topk/threads_n", || rank_topk(&shards, Scorer::Heuristic, k))
        .ns_per_iter;
    tsvr_par::set_threads(0); // restore env/auto selection
    let speedup = q1 / qn;
    println!("sharded top-{k}: {speedup:.2}x with {many} threads over {} shards", shards.len());

    // ---- compression ratio ---------------------------------------------
    let (mut raw_bytes, mut packed_bytes) = (0usize, 0usize);
    let mut round_trips = true;
    let seg_windows = if fast { 8 } else { 32 };
    for id in 1..=total_clips as u64 {
        let seg = index_segment(id, seg_windows, 3, &mut rng);
        let mut w = Writer::new();
        seg.encode(&mut w).expect("encode");
        raw_bytes += w.into_bytes().len();
        let mut w = Writer::new();
        seg.encode_compressed(&mut w).expect("encode_compressed");
        let bytes = w.into_bytes();
        packed_bytes += bytes.len();
        let mut r = tsvr_viddb::codec::Reader::new(&bytes);
        round_trips &= IndexSegment::decode_compressed(&mut r).expect("decode") == seg;
    }
    let ratio = raw_bytes as f64 / packed_bytes as f64;
    println!(
        "index codec: {raw_bytes} B raw vs {packed_bytes} B compressed ({ratio:.2}x, \
         bit-exact={round_trips})"
    );

    // ---- on-disk layout -------------------------------------------------
    let dir = std::env::temp_dir().join(format!("tsvr-bench-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = ShardedDb::open(&dir).expect("open sharded db");
    let bucket = db.bucket_secs();
    for (i, shard) in shards.iter().enumerate() {
        let cam = format!("cam-{:02}", i / buckets);
        for clip in &shard.clips {
            db.put_clip(&bundle(clip.clip_id, &cam, (i % buckets) as u64 * bucket))
                .expect("put_clip");
            db.put_index(&index_segment(clip.clip_id, seg_windows, 3, &mut rng))
                .expect("put_index");
        }
    }
    db.sync().expect("sync");
    let shard_count = db.shard_count();
    let log_bytes = db.log_size();
    println!("on-disk: {shard_count} shard logs, {log_bytes} B total");
    let _ = std::fs::remove_dir_all(&dir);

    // Starved hosts can't speed up; the determinism invariant makes the
    // 1-thread and n-thread runs the same computation, so parity is the
    // floor there. Fast mode is a correctness smoke: its single-batch
    // timings are too noisy to gate on, so only the identity checks and
    // the compression ratio decide the verdict (timings stay
    // informational).
    let (target, pass_rule) = if fast {
        (0.0, "smoke")
    } else if available >= 4 {
        (1.5, "speedup")
    } else {
        (0.85, "parity")
    };
    Report::new("shard")
        .mode(
            "workload",
            Json::Str(format!(
                "top-{k} over {} shards / {total_clips} clips / {total_bags} bags",
                shards.len()
            )),
        )
        .mode("threads_compared", Json::Num(many as f64))
        .mode("pass_rule", Json::Str(pass_rule.into()))
        .metric("query_ns_threads_1", "ns", q1)
        .metric("query_ns_threads_n", "ns", qn)
        .metric("query_speedup", "x", speedup)
        .metric("index_raw_bytes", "B", raw_bytes as f64)
        .metric("index_compressed_bytes", "B", packed_bytes as f64)
        .metric("compression_ratio", "x", ratio)
        .metric("shard_files", "count", shard_count as f64)
        .metric("shard_log_bytes", "B", log_bytes as f64)
        .metric("target_speedup", "x", target)
        .identity("rankings_byte_identical", byte_identical)
        .identity("compression_bit_exact", round_trips)
        .finish(speedup >= target && ratio > 1.0);
}
