//! Golden-format fixture test: a handwritten `TSVRDB01` log committed
//! under `tests/fixtures/` is decoded field-for-field. This pins the
//! on-disk format — a future codec or log edit that silently breaks
//! reading of existing databases fails here, not in production.
//!
//! The fixture holds four records: one clip bundle (metadata, one
//! track, one window with a trajectory sequence, one incident), one
//! retrieval session, one tombstone for an unrelated clip id, and one
//! two-frame video segment.

use tsvr_viddb::{FrameCodec, MemStorage, SessionRow, ShardedDb, VideoDb, SINGLE_FILE_SHARD};

const GOLDEN: &[u8] = include_bytes!("fixtures/golden_tsvrdb01.db");

fn open_golden() -> VideoDb {
    VideoDb::with_storage(Box::new(MemStorage::from_bytes(GOLDEN.to_vec())))
        .expect("golden fixture must open cleanly")
}

#[test]
fn golden_log_opens_clean() {
    let db = open_golden();
    let report = db.fault_report();
    assert!(
        report.is_clean(),
        "golden fixture reported damage: {report:?}"
    );
    assert_eq!(db.clip_count(), 1);
    assert_eq!(db.session_count(), 1);
    assert_eq!(db.video_segment_count(), 1);
}

#[test]
fn golden_clip_decodes_field_for_field() {
    let mut db = open_golden();
    let bundle = db.load_clip(7).expect("clip 7 must load");

    // Metadata.
    assert_eq!(bundle.meta.clip_id, 7);
    assert_eq!(bundle.meta.name, "golden");
    assert_eq!(bundle.meta.location, "tunnel-9");
    assert_eq!(bundle.meta.camera, "cam-2");
    assert_eq!(bundle.meta.start_time, 1_167_609_600);
    assert_eq!(bundle.meta.frame_count, 120);
    assert_eq!(bundle.meta.width, 320);
    assert_eq!(bundle.meta.height, 240);

    // Track.
    assert_eq!(bundle.tracks.len(), 1);
    let track = &bundle.tracks[0];
    assert_eq!(track.track_id, 3);
    assert_eq!(track.start_frame, 5);
    assert_eq!(track.centroids, vec![(1.5, 2.25), (3.0, 4.5)]);

    // Window with one trajectory sequence.
    assert_eq!(bundle.windows.len(), 1);
    let win = &bundle.windows[0];
    assert_eq!(win.window_index, 0);
    assert_eq!(win.start_frame, 0);
    assert_eq!(win.end_frame, 14);
    assert_eq!(win.sequences.len(), 1);
    assert_eq!(win.sequences[0].track_id, 3);
    assert_eq!(win.sequences[0].alphas, vec![[0.5, 1.0, 0.25]]);

    // Incident.
    assert_eq!(bundle.incidents.len(), 1);
    let inc = &bundle.incidents[0];
    assert_eq!(inc.kind, "u_turn");
    assert_eq!(inc.start_frame, 30);
    assert_eq!(inc.end_frame, 60);
    assert_eq!(inc.vehicle_ids, vec![3]);

    // Metadata queries see the same fields.
    assert_eq!(db.find_by_location("tunnel-9").len(), 1);
    assert_eq!(db.find_by_camera("cam-2")[0].clip_id, 7);
}

#[test]
fn golden_session_decodes_field_for_field() {
    let mut db = open_golden();
    let sessions = db.sessions_for_clip(7).unwrap();
    assert_eq!(sessions.len(), 1);
    let s = &sessions[0];
    assert_eq!(s.session_id, 1);
    assert_eq!(s.clip_id, 7);
    assert_eq!(s.query, "accident");
    assert_eq!(s.learner, "MIL_OneClassSVM");
    assert_eq!(s.feedback, vec![vec![(0, true), (2, false)]]);
    assert_eq!(s.accuracies, vec![0.5, 0.75]);
}

#[test]
fn golden_tombstone_hides_clip_99() {
    let db = open_golden();
    assert!(db.meta(99).is_none(), "tombstoned clip must stay deleted");
}

#[test]
fn golden_video_segment_decodes_pixel_for_pixel() {
    let mut db = open_golden();
    let frames = db.load_frames(7, 0, 2).unwrap();
    assert_eq!(frames.len(), 2);
    // quant_step 1 dequantizes q to q (mid-rise adds step/2 = 0).
    let codec = FrameCodec { quant_step: 1 };
    assert_eq!(frames[0].0, 0);
    assert_eq!(frames[0].1.width, 4);
    assert_eq!(frames[0].1.height, 3);
    assert_eq!(frames[0].1.pixels, vec![codec.reconstruct(10); 12]);
    assert_eq!(frames[1].0, 1);
    assert_eq!(frames[1].1.pixels, vec![codec.reconstruct(12); 12]);
}

/// A legacy single-file archive opens through [`ShardedDb::open`] as a
/// manifest-less one-shard view: it decodes exactly like the direct
/// `VideoDb` path, verifies as the one shard `-`, takes new writes in
/// the same file, and never grows a manifest or shard files beside it.
#[test]
fn golden_file_opens_as_one_shard_view() {
    let dir = std::env::temp_dir().join(format!("tsvr-golden-view-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.db");
    std::fs::write(&path, GOLDEN).unwrap();

    let mut direct = open_golden();
    let mut view = ShardedDb::open(&path).unwrap();
    let ids: Vec<u64> = direct.list_clips().iter().map(|m| m.clip_id).collect();
    assert_eq!(
        view.list_clips()
            .iter()
            .map(|m| m.clip_id)
            .collect::<Vec<_>>(),
        ids
    );
    for id in ids {
        assert_eq!(view.meta(id), direct.meta(id));
        assert_eq!(view.load_clip(id).unwrap(), direct.load_clip(id).unwrap());
        assert_eq!(view.load_index(id).unwrap(), direct.load_index(id).unwrap());
        assert_eq!(
            view.sessions_for_clip(id).unwrap(),
            direct.sessions_for_clip(id).unwrap()
        );
    }
    let reports = view.verify().unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].0, SINGLE_FILE_SHARD);
    assert_eq!(reports[0].1, direct.verify().unwrap());

    // New writes land in the same file and survive a reopen.
    let mut bundle = direct.load_clip(7).unwrap();
    bundle.meta.clip_id = 8;
    bundle.meta.camera = "cam-5".into();
    let session = SessionRow {
        session_id: 2,
        clip_id: 8,
        query: "u_turn".into(),
        learner: "MIL_OneClassSVM".into(),
        feedback: vec![vec![(0, true)]],
        accuracies: vec![1.0],
    };
    view.put_clip(&bundle).unwrap();
    view.put_session(&session).unwrap();
    view.sync().unwrap();
    drop(view);
    let mut reopened = ShardedDb::open(&path).unwrap();
    assert_eq!(reopened.load_clip(8).unwrap(), bundle);
    assert_eq!(reopened.sessions_for_clip(8).unwrap(), vec![session]);
    assert_eq!(reopened.load_clip(7).unwrap().meta.name, "golden");
    let mut entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    assert_eq!(
        entries,
        vec!["golden.db".to_string()],
        "no MANIFEST or shard files"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
