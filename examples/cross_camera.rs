//! Cross-camera retrieval — the paper's stated limitation, implemented.
//!
//! §6.2: "the retrieval is performed independently for each group of
//! videos taken by the same camera at the same location" because
//! camera-relative features do not transfer. With fixed physical-range
//! feature normalization, windows from different cameras share one
//! feature space, so a single feedback session can mine the whole
//! database at once.
//!
//! Run with: `cargo run --release --example cross_camera`

use tsvr::core::{
    bags_from_dataset, bundle_from_clip, dataset_from_bundle, labels_from_bundle, prepare_clip,
    EventQuery, LearnerKind, MultiClipIndex, PipelineOptions, Session,
};
use tsvr::mil::GroundTruthOracle;
use tsvr::sim::Scenario;
use tsvr::trajectory::WindowConfig;
use tsvr::viddb::{ClipMeta, VideoDb};

fn meta(clip_id: u64, location: &str, camera: &str, frames: u32) -> ClipMeta {
    ClipMeta {
        clip_id,
        name: format!("{location} / {camera}"),
        location: location.into(),
        camera: camera.into(),
        start_time: clip_id * 7200,
        frame_count: frames,
        width: 320,
        height: 240,
    }
}

fn main() {
    // Two cameras at different sites: a tunnel and an intersection.
    println!("preparing two clips from different cameras...");
    let tunnel = prepare_clip(&Scenario::tunnel_paper(2007), &PipelineOptions::default());
    let crossing = prepare_clip(
        &Scenario::intersection_paper(2007),
        &PipelineOptions::default(),
    );

    let mut db = VideoDb::in_memory();
    db.put_clip(&bundle_from_clip(
        &tunnel,
        meta(1, "tunnel-17", "cam-a", 2504),
    ))
    .unwrap();
    db.put_clip(&bundle_from_clip(
        &crossing,
        meta(2, "crossing-3", "cam-b", 592),
    ))
    .unwrap();

    let b1 = db.load_clip(1).unwrap();
    let b2 = db.load_clip(2).unwrap();
    let query = EventQuery::accidents();
    let index = MultiClipIndex::from_parts(
        [&b1, &b2]
            .iter()
            .map(|b| {
                let dataset = dataset_from_bundle(b, WindowConfig::default());
                (
                    b.meta.clip_id,
                    bags_from_dataset(&dataset),
                    labels_from_bundle(b, &query),
                )
            })
            .collect(),
    );
    println!(
        "unified database: {} windows ({} from the tunnel, {} from the intersection)",
        index.len(),
        b1.windows.len(),
        b2.windows.len()
    );

    let oracle = GroundTruthOracle::new(index.labels.clone());
    // One session over both cameras' windows: top 20, four rounds.
    let bags = std::sync::Arc::new(index.bags.clone());
    let mut session = Session::open(0, 0, query.name, LearnerKind::paper_ocsvm(), bags);
    let report = session
        .run_rounds(&oracle, 20, 4)
        .expect("pages hold index windows");

    println!("\ncross-camera accident session ({}):", report.learner);
    for (round, acc) in report.accuracies.iter().enumerate() {
        println!("  round {round}: accuracy@20 = {:.0}%", acc * 100.0);
    }

    println!("\nfinal top-10, resolved back to their cameras:");
    for &bag in session.page(10) {
        let (clip, window) = index.resolve(bag).unwrap();
        let m = db.meta(clip).unwrap();
        println!(
            "  {} window {:>3}  ({})",
            if index.labels[bag] {
                "ACCIDENT "
            } else {
                "         "
            },
            window,
            m.name
        );
    }
}
