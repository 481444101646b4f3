//! Sharded crash-consistency sweep: simulate a crash at **every op
//! boundary** of a scripted cross-shard write workload, tear the tail
//! of a rotating victim file (the crash model for file-backed logs:
//! an unsynced suffix of appends may be lost, and recovery must also
//! survive losing a synced suffix — it just costs those records), and
//! assert every shard recovers *independently*: the torn shard never
//! serves wrong bytes, and shards the crash did not touch serve every
//! record exactly as written.
//!
//! `TSVR_CRASH_FAST=1` thins the sweep (every 3rd crash point) for CI
//! smoke runs; the full sweep covers each op boundary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tsvr_viddb::record::{ClipBundle, ClipMeta, IndexSegment, IndexWindowRow, TrackRow};
use tsvr_viddb::{DbError, SessionRow, ShardedDb, MANIFEST_FILE};

fn bundle(id: u64, camera: &str, start_time: u64) -> ClipBundle {
    ClipBundle {
        meta: ClipMeta {
            clip_id: id,
            name: format!("clip-{id}"),
            location: "tunnel-9".into(),
            camera: camera.into(),
            start_time,
            frame_count: 100,
            width: 320,
            height: 240,
        },
        tracks: vec![TrackRow {
            track_id: id * 10,
            start_frame: 0,
            centroids: vec![(1.0, 2.0), (3.0, 4.0), (5.5, 6.5)],
        }],
        windows: vec![],
        incidents: vec![],
    }
}

fn session(session_id: u64, clip_id: u64) -> SessionRow {
    SessionRow {
        session_id,
        clip_id,
        query: "accident".into(),
        learner: "ocsvm".into(),
        feedback: vec![vec![(0, true), (3, false)]],
        accuracies: vec![0.25, 0.75],
    }
}

fn index_segment(clip_id: u64) -> IndexSegment {
    IndexSegment {
        clip_id,
        config_hash: 0xfeed,
        feature_dim: 3,
        windows: vec![IndexWindowRow {
            window_index: 0,
            start_checkpoint: 0,
            start_frame: 0,
            end_frame: 14,
            track_ids: vec![clip_id * 10],
            // One track × feature_dim 3 (the shape both codecs enforce).
            features: vec![0.1, 0.8, 0.4],
        }],
    }
}

/// One step of the cross-shard workload.
enum Op {
    Put(u64, &'static str, u64),
    Session(u64, u64),
    Index(u64),
    Delete(u64),
    Sync,
}

/// The scripted workload: writes that deliberately straddle shards
/// (two cameras, two time buckets) with sessions, an index, a delete,
/// and explicit durability points mixed in.
fn script() -> Vec<Op> {
    vec![
        Op::Put(1, "cam-a", 0),
        Op::Put(2, "cam-b", 0),
        Op::Session(1, 1),
        Op::Put(3, "cam-a", 7200),
        Op::Index(2),
        Op::Sync,
        Op::Put(4, "cam-b", 7200),
        Op::Delete(1),
        Op::Session(2, 2),
        Op::Sync,
    ]
}

/// Runs the first `upto` ops against a fresh directory and returns
/// the surviving `clip_id -> bundle` expectation.
fn run_prefix(dir: &Path, upto: usize) -> BTreeMap<u64, ClipBundle> {
    let mut db = ShardedDb::open_with_bucket(dir, 3600).unwrap();
    let mut expected = BTreeMap::new();
    for op in script().into_iter().take(upto) {
        match op {
            Op::Put(id, cam, t) => {
                let b = bundle(id, cam, t);
                db.put_clip(&b).unwrap();
                expected.insert(id, b);
            }
            Op::Session(sid, cid) => db.put_session(&session(sid, cid)).unwrap(),
            Op::Index(cid) => db.put_index(&index_segment(cid)).unwrap(),
            Op::Delete(id) => {
                db.delete_clip(id).unwrap();
                expected.remove(&id);
            }
            Op::Sync => db.sync().unwrap(),
        }
    }
    expected
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tsvr-shard-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Every file in the directory, manifest first then shards in name
/// order — the victim rotation for the sweep.
fn dir_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// Tiny deterministic rng (xorshift64*) so the torn lengths differ
/// across crash points without depending on ambient entropy.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[test]
fn crash_at_every_op_leaves_shards_independently_recoverable() {
    let fast = std::env::var("TSVR_CRASH_FAST").is_ok_and(|v| v == "1");
    let step = if fast { 3 } else { 1 };
    let total = script().len();
    let mut rng = 0x5eed_2007_u64;

    for k in (1..=total).step_by(step) {
        let dir = temp_dir(&format!("sweep-{k}"));
        let expected = run_prefix(&dir, k);

        // Crash: tear the tail of one victim file (rotating through
        // manifest and shards). Everything else is untouched — those
        // shards must come back byte-perfect.
        let files = dir_files(&dir);
        let victim = files[k % files.len()].clone();
        let len = std::fs::metadata(&victim).unwrap().len();
        let tear = 1 + xorshift(&mut rng) % 40;
        let keep = len.saturating_sub(tear);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(keep).unwrap();
        drop(f);

        let mut db = ShardedDb::open_with_bucket(&dir, 3600)
            .unwrap_or_else(|e| panic!("crash point {k}: reopen failed: {e}"));
        // Tail truncation is always recoverable — never a quarantined
        // shard, and verify over every surviving shard runs clean.
        assert_eq!(
            db.quarantined_shards(),
            Vec::new(),
            "crash point {k}: torn tail must not quarantine a shard"
        );
        for (file, report) in db.verify().unwrap() {
            assert!(
                report.is_clean(),
                "crash point {k}: shard {file} dirty after recovery: {report:?}"
            );
        }

        let victim_name = victim.file_name().unwrap().to_str().unwrap().to_string();
        for (id, want) in &expected {
            let routed_to_victim = db
                .shard_of_clip(*id)
                .map(|f| f == victim_name)
                // Clip gone entirely: it was in the victim (or the
                // manifest tear orphaned it past its record).
                .unwrap_or(true);
            match db.load_clip(*id) {
                // Whatever still serves must be byte-identical.
                Ok(got) => assert_eq!(got, *want, "crash point {k}: clip {id} differs"),
                // Only records in the torn file may be lost.
                Err(DbError::ClipNotFound(_)) | Err(DbError::ClipQuarantined(_)) => {
                    assert!(
                        routed_to_victim || victim_name == MANIFEST_FILE,
                        "crash point {k}: clip {id} lost but its shard was never torn"
                    );
                }
                Err(e) => panic!("crash point {k}: clip {id}: unexpected error {e}"),
            }
        }

        // Every cell accepts writes again after recovery.
        let next_id = 100 + k as u64;
        db.put_clip(&bundle(next_id, "cam-a", 0)).unwrap();
        db.put_clip(&bundle(next_id + 1, "cam-b", 7200)).unwrap();
        db.sync().unwrap();

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_manifest_tail_never_loses_whole_shards() {
    // Tear the manifest specifically at the final crash point: route
    // records may be lost, but orphan adoption must re-route every
    // shard file, so fully-written clips all survive.
    let dir = temp_dir("manifest-tear");
    let expected = run_prefix(&dir, script().len());
    let manifest = dir.join(MANIFEST_FILE);
    let len = std::fs::metadata(&manifest).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&manifest)
        .unwrap();
    f.set_len(len.saturating_sub(20)).unwrap();
    drop(f);

    let mut db = ShardedDb::open_with_bucket(&dir, 3600).unwrap();
    assert_eq!(db.quarantined_shards(), Vec::new());
    for (id, want) in &expected {
        let got = db.load_clip(*id).unwrap_or_else(|e| {
            panic!("clip {id} lost to a manifest tear that touched no shard: {e}")
        });
        assert_eq!(got, *want);
    }
    // Sessions and the index also survived with their shards.
    assert_eq!(db.sessions_for_clip(2).unwrap().len(), 1);
    assert_eq!(db.load_index(2).unwrap().unwrap(), index_segment(2));
    let _ = std::fs::remove_dir_all(&dir);
}
