//! Fault-injection integration tests: drive `VideoDb` over
//! `FaultyStorage` and check that every injected failure mode degrades
//! the way the durability contract promises — retries for transients,
//! rollback for torn appends, surfaced-but-survivable sync failures,
//! and quarantine (never wrong data, never a failed open) for bit rot.

use tsvr_viddb::log::MAX_IO_RETRIES;
use tsvr_viddb::record::{ClipBundle, ClipMeta, TrackRow};
use tsvr_viddb::{DbError, FaultKind, FaultyStorage, MemStorage, VideoDb};

fn bundle(id: u64) -> ClipBundle {
    ClipBundle {
        meta: ClipMeta {
            clip_id: id,
            name: format!("clip-{id}"),
            location: "tunnel-9".into(),
            camera: "cam-2".into(),
            start_time: 1000 + id,
            frame_count: 100,
            width: 320,
            height: 240,
        },
        tracks: vec![TrackRow {
            track_id: id * 10,
            start_frame: 0,
            centroids: vec![(1.0, 2.0), (3.0, 4.0)],
        }],
        windows: vec![],
        incidents: vec![],
    }
}

#[test]
fn transient_io_error_is_retried_transparently() {
    let (storage, handle) = FaultyStorage::new(21);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    // Fail the next storage op once; the retry must succeed.
    handle.schedule(handle.op_count(), FaultKind::TransientIo);
    db.put_clip(&bundle(1)).unwrap();
    assert_eq!(db.load_clip(1).unwrap().meta.clip_id, 1);
    assert_eq!(handle.injected().len(), 1, "fault was not consumed");
}

#[test]
fn exhausted_retries_surface_as_io_and_leave_state_unchanged() {
    let (storage, handle) = FaultyStorage::new(22);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    db.put_clip(&bundle(1)).unwrap();
    // More consecutive transients than the retry budget.
    let base = handle.op_count();
    for k in 0..=(MAX_IO_RETRIES as u64 + 2) {
        handle.schedule(base + k, FaultKind::TransientIo);
    }
    match db.put_clip(&bundle(2)).unwrap_err() {
        DbError::Io(_) => {}
        other => panic!("expected Io after retry exhaustion, got {other:?}"),
    }
    // The failed put must not leave clip 2 behind, and clip 1 intact.
    assert!(matches!(db.load_clip(2), Err(DbError::ClipNotFound(2))));
    assert_eq!(db.load_clip(1).unwrap().meta.clip_id, 1);
}

#[test]
fn torn_append_is_rolled_back_and_reput_succeeds() {
    let (storage, handle) = FaultyStorage::new(23);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    db.put_clip(&bundle(1)).unwrap();
    let size_before = db.log_size();
    handle.schedule(handle.op_count(), FaultKind::TornAppend);
    assert!(db.put_clip(&bundle(2)).is_err());
    assert_eq!(db.log_size(), size_before, "torn frame not rolled back");
    // The same clip can be re-put after the transient tear.
    db.put_clip(&bundle(2)).unwrap();
    assert_eq!(db.load_clip(2).unwrap().meta.clip_id, 2);
    assert_eq!(db.clip_count(), 2);
}

#[test]
fn sync_failure_surfaces_but_db_stays_usable() {
    let (storage, handle) = FaultyStorage::new(24);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    db.put_clip(&bundle(1)).unwrap();
    handle.schedule(handle.op_count(), FaultKind::SyncFail);
    assert!(db.sync().is_err(), "sync failure must not be swallowed");
    // The database keeps working; a later sync succeeds.
    db.put_clip(&bundle(2)).unwrap();
    db.sync().unwrap();
    assert_eq!(db.clip_count(), 2);
}

#[test]
fn bit_flip_quarantines_only_the_damaged_clip() {
    // Write several clips, flip one stored bit, and check the DB
    // serves everything whose record stayed intact and quarantines
    // (never mis-serves) the rest.
    let (storage, handle) = FaultyStorage::new(25);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    let originals: Vec<ClipBundle> = (1..=4).map(bundle).collect();
    for b in &originals {
        db.put_clip(b).unwrap();
    }
    db.sync().unwrap();
    // Reopen over the same image with one flipped bit.
    let mut image = handle.snapshot();
    // Flip a bit inside the second record's payload region — past the
    // magic and the first record.
    let target = 8 + 40;
    assert!(image.len() > target + 1);
    image[target] ^= 0x10;
    let mut db = VideoDb::with_storage(Box::new(MemStorage::from_bytes(image))).unwrap();

    let mut served = 0;
    let mut quarantined_or_missing = 0;
    for b in &originals {
        match db.load_clip(b.meta.clip_id) {
            Ok(got) => {
                assert_eq!(got, *b, "served clip differs from what was stored");
                served += 1;
            }
            Err(DbError::ClipQuarantined(_)) | Err(DbError::ClipNotFound(_)) => {
                quarantined_or_missing += 1
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(served + quarantined_or_missing, originals.len());
    assert!(
        served >= originals.len() - 1,
        "a single bit flip must cost at most one clip (served {served})"
    );
    assert!(quarantined_or_missing >= 1, "the flip hit record bytes");
}

#[test]
fn verify_then_compact_restores_a_clean_database() {
    let (storage, handle) = FaultyStorage::new(26);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    for id in 1..=3 {
        db.put_clip(&bundle(id)).unwrap();
    }
    db.sync().unwrap();
    // Corrupt the middle record's payload in a reopened image.
    let mut image = handle.snapshot();
    let len = image.len();
    image[len / 2] ^= 0xff;
    let mut db = VideoDb::with_storage(Box::new(MemStorage::from_bytes(image))).unwrap();

    let report = db.verify().unwrap();
    assert!(!report.is_clean(), "verify must notice the corruption");
    db.compact().unwrap();
    // After compaction the damage is gone for good: everything still
    // indexed decodes, and a fresh verify is clean.
    let report = db.verify().unwrap();
    assert_eq!(report.clips_intact, db.clip_count());
    assert_eq!(report.sessions_dropped, 0);
    assert_eq!(report.segments_dropped, 0);
    for meta in db.list_clips().into_iter().cloned().collect::<Vec<_>>() {
        let got = db.load_clip(meta.clip_id).unwrap();
        assert_eq!(got.meta, meta);
    }
}

#[test]
fn quarantined_clip_is_repaired_by_reingest() {
    let (storage, handle) = FaultyStorage::new(27);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    db.put_clip(&bundle(1)).unwrap();
    db.put_clip(&bundle(2)).unwrap();
    db.sync().unwrap();
    let mut image = handle.snapshot();
    // Damage clip 1's payload (first record, just past its header).
    image[8 + 12] ^= 0x40;
    let mut db = VideoDb::with_storage(Box::new(MemStorage::from_bytes(image))).unwrap();

    // Force the quarantine by touching every clip.
    let _ = db.load_clip(1);
    let _ = db.load_clip(2);
    if db.quarantined().is_empty() {
        // The flip may have landed in already-skipped bytes at open
        // time; either way clip 2 must be fine.
        assert_eq!(db.load_clip(2).unwrap().meta.clip_id, 2);
        return;
    }
    let bad_id = db.quarantined()[0].clip_id;
    assert!(matches!(
        db.load_clip(bad_id),
        Err(DbError::ClipQuarantined(_))
    ));
    // Re-ingest repairs.
    db.put_clip(&bundle(bad_id)).unwrap();
    assert!(db.quarantined().is_empty());
    assert_eq!(db.load_clip(bad_id).unwrap().meta.clip_id, bad_id);
}

#[test]
fn mid_log_corruption_on_open_preserves_later_records() {
    let (storage, handle) = FaultyStorage::new(28);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    db.put_clip(&bundle(1)).unwrap();
    db.put_clip(&bundle(2)).unwrap();
    db.sync().unwrap();
    let mut image = handle.snapshot();
    // Flip a byte in the FIRST record's payload (offset 8 = magic,
    // +8 frame header, +5 into the payload).
    image[8 + 8 + 5] ^= 0x20;
    let mut db = VideoDb::with_storage(Box::new(MemStorage::from_bytes(image))).unwrap();
    // Open must succeed, record a corrupt region, and still serve
    // clip 2 — the damage must not truncate the rest of the log away.
    assert!(
        !db.fault_report().corrupt_regions.is_empty(),
        "open-time scan should report the damaged range"
    );
    assert!(db.meta(1).is_none(), "damaged clip must not be indexed");
    let got = db.load_clip(2).unwrap();
    assert_eq!(got, bundle(2));
}

#[test]
fn crash_image_preserves_synced_clips() {
    let (storage, handle) = FaultyStorage::new(29);
    let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
    db.put_clip(&bundle(1)).unwrap();
    db.sync().unwrap();
    // Crash during the next put.
    handle.schedule(handle.op_count(), FaultKind::Crash);
    assert!(db.put_clip(&bundle(2)).is_err());
    drop(db);
    let image = handle.crash_image();
    let mut db = VideoDb::with_storage(Box::new(MemStorage::from_bytes(image))).unwrap();
    // The synced clip survives, byte-identical.
    assert_eq!(db.load_clip(1).unwrap(), bundle(1));
    assert!(db.quarantined().is_empty());
}
