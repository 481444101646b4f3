//! Integration: the database path produces bit-identical retrieval
//! behaviour to the in-memory path.

use std::sync::Arc;
use tsvr::core::{
    bags_from_dataset, bundle_from_clip, dataset_from_bundle, labels_from_bundle, prepare_clip,
    EventQuery, LearnerKind, PipelineOptions, Session, SessionReport,
};
use tsvr::mil::{Bag, GroundTruthOracle};
use tsvr::sim::Scenario;
use tsvr::trajectory::WindowConfig;
use tsvr::viddb::{ClipMeta, SessionRow, VideoDb};

fn meta(clip_id: u64) -> ClipMeta {
    ClipMeta {
        clip_id,
        name: "roundtrip".into(),
        location: "tunnel-t".into(),
        camera: "cam-9".into(),
        start_time: 42,
        frame_count: 400,
        width: 320,
        height: 240,
    }
}

/// Two oracle rounds of top-5 feedback with the paper's OC-SVM.
fn two_rounds(bags: Vec<Bag>, labels: Vec<bool>) -> SessionReport {
    Session::open(1, 1, "accident", LearnerKind::paper_ocsvm(), Arc::new(bags))
        .run_rounds(&GroundTruthOracle::new(labels), 5, 2)
        .unwrap()
}

#[test]
fn stored_clip_reproduces_session_results() {
    let clip = prepare_clip(&Scenario::tunnel_small(55), &PipelineOptions::default());
    let query = EventQuery::accidents();

    // Direct session.
    let direct = two_rounds(clip.bags.clone(), clip.labels(&query));

    // Through the database.
    let mut db = VideoDb::in_memory();
    db.put_clip(&bundle_from_clip(&clip, meta(1))).unwrap();
    let bundle = db.load_clip(1).unwrap();
    let bags = bags_from_dataset(&dataset_from_bundle(&bundle, WindowConfig::default()));
    let via_db = two_rounds(bags, labels_from_bundle(&bundle, &query));

    assert_eq!(direct.accuracies, via_db.accuracies);
    assert_eq!(direct.rankings, via_db.rankings);
}

#[test]
fn file_database_survives_process_restart_semantics() {
    let mut path = std::env::temp_dir();
    path.push(format!("tsvr-it-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let clip = prepare_clip(&Scenario::tunnel_small(56), &PipelineOptions::default());
    let expected_windows = clip.dataset.window_count();

    {
        let mut db = VideoDb::open(&path).unwrap();
        db.put_clip(&bundle_from_clip(&clip, meta(7))).unwrap();
        db.put_session(&SessionRow {
            session_id: 1,
            clip_id: 7,
            query: "accident".into(),
            learner: "MIL_OneClassSVM".into(),
            feedback: vec![vec![(0, true), (1, false)]],
            accuracies: vec![0.4, 0.6],
        })
        .unwrap();
    }
    {
        let mut db = VideoDb::open(&path).unwrap();
        assert_eq!(db.clip_count(), 1);
        let bundle = db.load_clip(7).unwrap();
        assert_eq!(bundle.windows.len(), expected_windows);
        let sessions = db.sessions_for_clip(7).unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].accuracies, vec![0.4, 0.6]);
        // Compaction keeps everything live.
        db.compact().unwrap();
        assert_eq!(db.clip_count(), 1);
        assert_eq!(db.sessions_for_clip(7).unwrap().len(), 1);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn metadata_queries_work_across_many_clips() {
    let mut db = VideoDb::in_memory();
    let clip = prepare_clip(&Scenario::tunnel_small(57), &PipelineOptions::default());
    for id in 1..=6u64 {
        let mut m = meta(id);
        m.location = if id % 2 == 0 {
            "tunnel-even".into()
        } else {
            "tunnel-odd".into()
        };
        m.start_time = id * 100;
        db.put_clip(&bundle_from_clip(&clip, m)).unwrap();
    }
    assert_eq!(db.find_by_location("tunnel-even").len(), 3);
    assert_eq!(db.find_by_time_range(150, 450).len(), 3);
    db.delete_clip(2).unwrap();
    assert_eq!(db.find_by_location("tunnel-even").len(), 2);
}
