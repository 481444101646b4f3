//! Integration: an index-served query performs zero vision work.
//!
//! Asserted through the observability layer: after the one-time cold
//! extraction that builds the index, serving a query from the stored
//! segment must not advance `vision.frames` (per-frame segmentation) at
//! all, while the `index.hit` probe confirms the segment actually
//! served. This lives in its own test binary so no concurrently running
//! test can touch the process-global vision counters mid-measurement.

use tsvr::core::{
    bags_from_dataset, build_index, bundle_from_clip, load_index, prepare_clip, rank_topk,
    ClipWindows, PipelineOptions, Scorer, ShardWindows,
};
use tsvr::sim::Scenario;
use tsvr::viddb::{ClipMeta, VideoDb};

#[test]
fn index_served_query_does_no_vision_or_segmentation_work() {
    if !tsvr_obs::is_enabled() {
        return; // probes compiled out; nothing to measure
    }

    // Cold, once: simulate + vision + extraction, then persist.
    let clip = prepare_clip(&Scenario::tunnel_small(55), &PipelineOptions::default());
    let wcfg = clip.dataset.config;
    let mut db = VideoDb::in_memory();
    db.put_clip(&bundle_from_clip(
        &clip,
        ClipMeta {
            clip_id: 1,
            name: "novision".into(),
            location: "tunnel".into(),
            camera: "cam-0".into(),
            start_time: 0,
            frame_count: 400,
            width: 320,
            height: 240,
        },
    ))
    .unwrap();
    build_index(&mut db, 1, &clip.dataset).unwrap();

    let frames_before = tsvr_obs::counter!("vision.frames").get();
    assert!(frames_before > 0, "cold extraction did not count frames");
    let hits_before = tsvr_obs::counter!("index.hit").get();
    let pushed_before = tsvr_obs::counter!("query.topk.pushed").get();

    // Serve the query entirely from the stored segment.
    let ds = load_index(&mut db, 1, &wcfg).unwrap().expect("fresh index");
    let clips = vec![ClipWindows {
        clip_id: 1,
        bags: bags_from_dataset(&ds),
    }];
    let top = rank_topk(
        &[ShardWindows {
            shard: "-".into(),
            clips,
        }],
        Scorer::Heuristic,
        5,
    );
    assert!(!top.is_empty());

    assert_eq!(
        tsvr_obs::counter!("vision.frames").get(),
        frames_before,
        "index-served query ran per-frame segmentation"
    );
    assert_eq!(
        tsvr_obs::counter!("index.hit").get(),
        hits_before + 1,
        "query was not actually served from the index"
    );
    assert!(
        tsvr_obs::counter!("query.topk.pushed").get() > pushed_before,
        "top-k merge left no probe trace"
    );
}
