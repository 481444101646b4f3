//! The database workflow of the paper's setting (§1): ingest processed
//! clips with their time/place/camera metadata into the surveillance
//! video database, query the catalog, reload a clip, run a retrieval
//! session from the stored records, and persist the session itself.
//!
//! Run with: `cargo run --release --example database_workflow`

use tsvr::core::{
    archive_clip_video, bags_from_dataset, bundle_from_clip, dataset_from_bundle,
    labels_from_bundle, prepare_clip, EventQuery, LearnerKind, PipelineOptions, Session,
};
use tsvr::mil::GroundTruthOracle;
use tsvr::sim::Scenario;
use tsvr::trajectory::WindowConfig;
use tsvr::viddb::FrameCodec;
use tsvr::viddb::{ClipMeta, SessionRow, VideoDb};

fn main() {
    let mut path = std::env::temp_dir();
    path.push("tsvr-example.db");
    let _ = std::fs::remove_file(&path);

    // --- ingestion -------------------------------------------------------
    let mut db = VideoDb::open(&path).expect("open database");
    println!("ingesting two clips into {}...", path.display());
    for (id, scenario, location) in [
        (1u64, Scenario::tunnel_small(41), "tunnel-17"),
        (2u64, Scenario::tunnel_small(42), "tunnel-17"),
    ] {
        let clip = prepare_clip(&scenario, &PipelineOptions::default());
        let bundle = bundle_from_clip(
            &clip,
            ClipMeta {
                clip_id: id,
                name: format!("evening batch #{id}"),
                location: location.into(),
                camera: "cam-03".into(),
                start_time: 1_167_609_600 + id * 3_600,
                frame_count: scenario.total_frames,
                width: 320,
                height: 240,
            },
        );
        db.put_clip(&bundle).expect("ingest clip");
        // Archive the pixel stream too (quantized + delta + RLE), so a
        // retrieved window can be played back later.
        let segments = archive_clip_video(&mut db, id, &clip, FrameCodec::default(), 50)
            .expect("archive video");
        println!("  clip {id}: {segments} video segments archived");
    }
    println!(
        "catalog now holds {} clips, log size {} bytes",
        db.clip_count(),
        db.log_size()
    );

    // --- metadata query ---------------------------------------------------
    let hits = db.find_by_location("tunnel-17");
    println!("\nclips at 'tunnel-17':");
    for m in hits {
        println!(
            "  #{} {:?} t0={} frames={}",
            m.clip_id, m.name, m.start_time, m.frame_count
        );
    }

    // --- retrieval from stored records -------------------------------------
    let bundle = db.load_clip(1).expect("load clip 1");
    let bags = bags_from_dataset(&dataset_from_bundle(&bundle, WindowConfig::default()));
    let query = EventQuery::accidents();
    let labels = labels_from_bundle(&bundle, &query);
    let oracle = GroundTruthOracle::new(labels);
    let kind = LearnerKind::paper_ocsvm();
    let mut session = Session::open(9001, 1, query.name, kind, std::sync::Arc::new(bags));
    let report = session
        .run_rounds(&oracle, 5, 2)
        .expect("pages hold clip windows");
    println!("\nsession over stored clip 1 ({}):", report.learner);
    for (round, acc) in report.accuracies.iter().enumerate() {
        println!("  round {round}: {:>4.0}%", acc * 100.0);
    }

    // --- persist the session ------------------------------------------------
    // The session's row holds its full feedback history.
    db.put_session(&SessionRow {
        accuracies: report.accuracies.clone(),
        ..session.row().clone()
    })
    .expect("persist session");

    // --- play back a retrieved window's frames -------------------------------
    let top_window = session.ranking()[0] as u32;
    let (start, end) = {
        let w = &bundle.windows[top_window as usize];
        (w.start_frame, w.end_frame)
    };
    let frames = db
        .load_frames(1, start, end + 1)
        .expect("load archived frames");
    println!(
        "\nplayback: window {top_window} covers frames {start}..={end}; loaded {} frames\nmean intensity of first frame: {:.1}",
        frames.len(),
        frames[0].1.pixels.iter().map(|&p| p as f64).sum::<f64>() / frames[0].1.pixels.len() as f64
    );

    // --- reopen and verify durability ---------------------------------------
    drop(db);
    let mut db = VideoDb::open(&path).expect("reopen");
    let sessions = db.sessions_for_clip(1).expect("load sessions");
    println!(
        "\nafter reopen: {} clips, {} persisted session(s) for clip 1 (accuracies {:?})",
        db.clip_count(),
        sessions.len(),
        sessions[0].accuracies
    );
    let _ = std::fs::remove_file(&path);
}
