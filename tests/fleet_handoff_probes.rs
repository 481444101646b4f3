//! Integration: the multi-camera handoff member really exercises the
//! sharded scatter-gather path.
//!
//! The handoff recording is split through the middle of its wrong-way
//! incident; the two halves carry different camera ids, so the sharded
//! database must route them to two distinct shard files, and a
//! cross-camera query must fan out to both — witnessed through the
//! `query.scatter.shards` probe counter, exactly like
//! `index_no_vision.rs` witnesses the zero-vision property. This lives
//! in its own test binary so no concurrently running test can touch
//! the process-global counters mid-measurement.

use tsvr::core::{
    bags_from_dataset, bundle_from_clip, dataset_from_segment, prepare_sim, rank_topk,
    segment_from_dataset, ClipWindows, PipelineOptions, Scorer, ShardWindows,
};
use tsvr::sim::fleet;
use tsvr::sim::World;
use tsvr::viddb::{ClipMeta, ShardedDb};

#[test]
fn handoff_query_scatters_across_both_camera_shards() {
    let member = fleet::member("handoff").expect("handoff member");
    let mut scenario = fleet::scenario("handoff", 2007).expect("handoff scenario");
    scenario.total_frames = scenario.total_frames.min(340);
    let opts = PipelineOptions::default();

    let sim = World::run(scenario.clone());
    let cut = fleet::handoff_split_frame(&sim, member.target);
    let (first, second) = sim.split_at(cut);
    let halves = [
        prepare_sim(first, scenario.kind, &opts),
        prepare_sim(second, scenario.kind, &opts),
    ];

    let dir = std::env::temp_dir().join(format!("tsvr-fleet-probes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = ShardedDb::open(&dir).expect("open sharded db");
    for (i, clip) in halves.iter().enumerate() {
        let clip_id = i as u64 + 1;
        db.put_clip(&bundle_from_clip(
            clip,
            ClipMeta {
                clip_id,
                name: format!("handoff cam-{i}"),
                location: "handoff".into(),
                camera: format!("cam-{i}"),
                start_time: 0,
                frame_count: clip.sim.frames.len() as u32,
                width: clip.sim.width,
                height: clip.sim.height,
            },
        ))
        .expect("put_clip");
        db.put_index(&segment_from_dataset(clip_id, &clip.dataset))
            .expect("put_index");
    }
    db.sync().expect("sync");
    assert_eq!(
        db.shard_count(),
        2,
        "two cameras must route to two shard files"
    );

    // Serve both halves from their stored indexes and group them into
    // their actual shards.
    let mut shards: Vec<ShardWindows> = Vec::new();
    for (i, clip) in halves.iter().enumerate() {
        let clip_id = i as u64 + 1;
        let segment = db.load_index(clip_id).expect("load_index").expect("stored");
        let bags = bags_from_dataset(&dataset_from_segment(&segment, clip.dataset.config));
        assert_eq!(bags, clip.bags, "index-served bags diverged");
        let shard = db.shard_of_clip(clip_id).expect("routed").to_string();
        shards.push(ShardWindows {
            shard,
            clips: vec![ClipWindows { clip_id, bags }],
        });
    }
    assert_eq!(shards.len(), 2);
    assert_ne!(shards[0].shard, shards[1].shard, "halves share a shard");

    if !tsvr_obs::is_enabled() {
        let _ = std::fs::remove_dir_all(&dir);
        return; // probes compiled out; nothing further to measure
    }

    let scattered_before = tsvr_obs::counter!("query.scatter.shards").get();
    let sharded = rank_topk(&shards, Scorer::Heuristic, 20);
    assert_eq!(
        tsvr_obs::counter!("query.scatter.shards").get(),
        scattered_before + shards.len() as u64,
        "query did not fan out across both shards"
    );

    // Scatter-gather must agree byte for byte with the one-shard merge.
    let flat: Vec<ClipWindows> = shards
        .iter()
        .flat_map(|s| s.clips.iter().cloned())
        .collect();
    let one_shard = [ShardWindows {
        shard: "all".into(),
        clips: flat,
    }];
    assert_eq!(sharded, rank_topk(&one_shard, Scorer::Heuristic, 20));
    assert!(!sharded.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}
