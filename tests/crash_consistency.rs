//! Crash-consistency harness for the video database.
//!
//! For every seed, a put/delete/session/sync workload is run once
//! fault-free to count the storage operations it issues; then the
//! whole workload is re-run once per storage operation with a
//! simulated power-loss crash scheduled exactly there. The surviving
//! disk image (durable prefix plus a seeded cut of the unsynced
//! suffix) is reopened and checked against the model:
//!
//! * the database ALWAYS reopens — no panic, no failed open;
//! * every clip synced before the crash survives, byte-for-byte;
//! * the recovered state is exactly some prefix of the workload at
//!   or after the last successful sync (a mutation that errored at
//!   crash time may legitimately be durable — "maybe applied");
//! * nothing torn is ever served as data (no quarantined clips from a
//!   pure truncation crash).
//!
//! A separate sweep flips every stored byte of a finished database and
//! asserts bit rot degrades to quarantine/absence — never to wrong
//! data, never to a failed open. A third sweep injects one transient
//! I/O error at every operation and requires the workload to succeed
//! untouched.
//!
//! `TSVR_CRASH_FAST=1` (used by ci.sh) trims the seed budget so the
//! sweep stays fast; the full run covers ≥ 200 crash schedules.

use std::collections::BTreeMap;
use tsvr_sim::Pcg32;
use tsvr_viddb::record::{ClipBundle, ClipMeta, SessionRow, TrackRow};
use tsvr_viddb::{DbError, FaultKind, FaultyStorage, MemStorage, VideoDb};

fn fast_mode() -> bool {
    std::env::var("TSVR_CRASH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Deterministic bundle for a clip id — reopened data can be compared
/// byte-for-byte against what must have been written.
fn make_bundle(id: u64) -> ClipBundle {
    ClipBundle {
        meta: ClipMeta {
            clip_id: id,
            name: format!("clip-{id}"),
            location: format!("tunnel-{}", id % 3),
            camera: format!("cam-{}", id % 2),
            start_time: 1_000_000 + id * 60,
            frame_count: 100 + id as u32,
            width: 320,
            height: 240,
        },
        tracks: vec![TrackRow {
            track_id: id * 7,
            start_frame: id as u32,
            centroids: vec![(id as f32, 2.0 * id as f32), (id as f32 + 1.0, 0.5)],
        }],
        windows: vec![],
        incidents: vec![],
    }
}

fn make_session(sid: u64, clip_id: u64) -> SessionRow {
    SessionRow {
        session_id: sid,
        clip_id,
        query: "accident".into(),
        learner: "MIL_OneClassSVM".into(),
        feedback: vec![vec![(sid as u32 % 5, sid.is_multiple_of(2))]],
        accuracies: vec![0.5, 0.75],
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    PutClip(u64),
    DeleteClip(u64),
    PutSession(u64, u64),
    Sync,
}

/// Seeded workload: a mix of puts, deletes of live clips, sessions
/// against live clips, and explicit sync points. Clip ids are unique
/// across puts so every id maps to one deterministic bundle.
fn gen_ops(seed: u64) -> Vec<Op> {
    let mut rng = Pcg32::new(seed, 0x0b5);
    let n = 16 + rng.uniform_usize(9);
    let mut ops = Vec::with_capacity(n);
    let mut next_clip = 1u64;
    let mut next_session = 100u64;
    let mut live: Vec<u64> = Vec::new();
    for _ in 0..n {
        let roll = rng.uniform(0.0, 1.0);
        if roll < 0.45 || live.is_empty() {
            ops.push(Op::PutClip(next_clip));
            live.push(next_clip);
            next_clip += 1;
        } else if roll < 0.60 {
            let idx = rng.uniform_usize(live.len());
            ops.push(Op::DeleteClip(live.remove(idx)));
        } else if roll < 0.80 {
            let idx = rng.uniform_usize(live.len());
            ops.push(Op::PutSession(next_session, live[idx]));
            next_session += 1;
        } else {
            ops.push(Op::Sync);
        }
    }
    ops
}

/// In-memory model of what the database should hold. Compared via
/// PartialEq — the bundles' floats come from make_bundle and are never
/// NaN.
#[derive(Debug, Clone, PartialEq, Default)]
struct State {
    clips: BTreeMap<u64, ClipBundle>,
    sessions: Vec<(u64, u64)>, // (session_id, clip_id)
}

fn apply(state: &State, op: Op) -> State {
    let mut s = state.clone();
    match op {
        Op::PutClip(id) => {
            s.clips.insert(id, make_bundle(id));
        }
        Op::DeleteClip(id) => {
            s.clips.remove(&id);
            // Tombstones also drop video segments, but the workload
            // stores none; sessions survive deletes.
        }
        Op::PutSession(sid, cid) => s.sessions.push((sid, cid)),
        Op::Sync => {}
    }
    s
}

/// Applies one op to the real database. Returns Err on injected crash.
fn drive(db: &mut VideoDb, op: Op) -> Result<(), DbError> {
    match op {
        Op::PutClip(id) => db.put_clip(&make_bundle(id)),
        Op::DeleteClip(id) => db.delete_clip(id),
        Op::PutSession(sid, cid) => db.put_session(&make_session(sid, cid)),
        Op::Sync => db.sync(),
    }
}

/// Reads the full logical state out of a reopened database.
fn read_state(db: &mut VideoDb) -> State {
    let ids: Vec<u64> = db.list_clips().iter().map(|m| m.clip_id).collect();
    let mut clips = BTreeMap::new();
    for id in ids {
        let bundle = db
            .load_clip(id)
            .unwrap_or_else(|e| panic!("indexed clip {id} failed to load: {e}"));
        clips.insert(id, bundle);
    }
    let mut sessions = Vec::new();
    let clip_ids: Vec<u64> = (1..=40).collect(); // sessions may reference deleted clips
    for cid in clip_ids {
        for s in db.sessions_for_clip(cid).expect("session read failed") {
            sessions.push((s.session_id, s.clip_id));
        }
    }
    sessions.sort_unstable();
    State { clips, sessions }
}

/// Runs the whole workload fault-free and returns how many storage
/// operations it issues (including the ones spent opening).
fn count_storage_ops(ops: &[Op]) -> u64 {
    let (storage, handle) = FaultyStorage::new(0);
    let mut db = VideoDb::with_storage(Box::new(storage)).expect("clean open");
    for &op in ops {
        drive(&mut db, op).expect("clean run must not fail");
    }
    handle.op_count()
}

/// Runs `ops` against a fresh faulty storage with a crash scheduled at
/// storage-op `crash_at`. Returns the candidate model states the
/// post-crash image may legally decode to, and the fault handle.
fn run_to_crash(ops: &[Op], seed: u64, crash_at: u64) -> (Vec<State>, tsvr_viddb::FaultHandle) {
    let (storage, handle) = FaultyStorage::new(seed);
    handle.schedule(crash_at, FaultKind::Crash);
    let empty = State::default();
    let db = match VideoDb::with_storage(Box::new(storage)) {
        Ok(db) => db,
        // Crash during open: nothing was ever acknowledged.
        Err(_) => return (vec![empty], handle),
    };
    let mut db = db;
    let mut states = vec![empty];
    let mut synced_idx = 0usize;
    let mut candidates: Option<Vec<State>> = None;
    for &op in ops {
        let next = apply(states.last().unwrap(), op);
        match drive(&mut db, op) {
            Ok(()) => {
                states.push(next);
                if op == Op::Sync {
                    synced_idx = states.len() - 1;
                }
            }
            Err(_) => {
                // The op that crashed may or may not be durable
                // ("maybe applied"): its record either fully landed in
                // the torn suffix or it didn't.
                let mut cands = states[synced_idx..].to_vec();
                cands.push(next);
                candidates = Some(cands);
                break;
            }
        }
    }
    let candidates = candidates.unwrap_or_else(|| {
        // Crash never fired (scheduled past the end): any state from
        // the last sync onward is legal for the crash image.
        states[synced_idx..].to_vec()
    });
    (candidates, handle)
}

fn run_crash_sweep(seed: u64) -> u64 {
    let ops = gen_ops(seed);
    let total = count_storage_ops(&ops);
    for crash_at in 0..total {
        let (candidates, handle) = run_to_crash(&ops, seed, crash_at);
        let image = handle.crash_image();
        // Invariant 1: the database ALWAYS reopens.
        let mut db = VideoDb::with_storage(Box::new(MemStorage::from_bytes(image)))
            .unwrap_or_else(|e| panic!("seed {seed} crash@{crash_at}: reopen failed: {e}"));
        // Invariant 2: a pure truncation crash never corrupts a
        // record mid-log — nothing to quarantine.
        let state = read_state(&mut db);
        assert!(
            db.quarantined().is_empty(),
            "seed {seed} crash@{crash_at}: truncation crash quarantined clips: {:?}",
            db.quarantined()
        );
        // Invariant 3: the recovered state is a legal prefix at or
        // after the last sync (synced clips all present), with the
        // crashed mutation maybe-applied.
        assert!(
            candidates.contains(&state),
            "seed {seed} crash@{crash_at}: recovered state not among {} candidates.\n\
             got clips={:?} sessions={:?}",
            candidates.len(),
            state.clips.keys().collect::<Vec<_>>(),
            state.sessions,
        );
    }
    total
}

#[test]
fn crash_at_every_operation_preserves_synced_data() {
    let seeds: &[u64] = if fast_mode() {
        &[1, 2]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let mut schedules = 0u64;
    for &seed in seeds {
        schedules += run_crash_sweep(seed);
    }
    if !fast_mode() {
        assert!(
            schedules >= 200,
            "acceptance requires >= 200 crash schedules, ran {schedules}"
        );
    }
}

#[test]
fn every_stored_byte_flip_degrades_to_quarantine_not_wrong_data() {
    let seeds: &[u64] = if fast_mode() { &[41] } else { &[41, 42] };
    for &seed in seeds {
        let ops = gen_ops(seed);
        let (storage, handle) = FaultyStorage::new(seed);
        let mut db = VideoDb::with_storage(Box::new(storage)).unwrap();
        let mut model = State::default();
        let mut all_put: BTreeMap<u64, ClipBundle> = BTreeMap::new();
        let mut all_sessions: Vec<(u64, u64)> = Vec::new();
        for &op in &ops {
            model = apply(&model, op);
            if let Op::PutClip(id) = op {
                all_put.insert(id, make_bundle(id));
            }
            if let Op::PutSession(sid, cid) = op {
                all_sessions.push((sid, cid));
            }
            drive(&mut db, op).unwrap();
        }
        db.sync().unwrap();
        drop(db);
        let image = handle.snapshot();

        for byte in 8..image.len() {
            let mut flipped = image.clone();
            flipped[byte] ^= 1 << (byte % 8);
            // Invariant 1: bit rot never takes the open path down.
            let mut db = VideoDb::with_storage(Box::new(MemStorage::from_bytes(flipped)))
                .unwrap_or_else(|e| panic!("seed {seed} flip@{byte}: open failed: {e}"));
            // Invariant 2: every clip the DB serves is byte-identical
            // to what was stored — a flipped record is quarantined or
            // absent, never silently wrong. (A flipped tombstone can
            // legitimately resurrect a deleted clip; it must still
            // decode to exactly the original bundle.)
            let mut served = 0usize;
            for (&id, original) in &all_put {
                match db.load_clip(id) {
                    Ok(got) => {
                        assert_eq!(
                            got, *original,
                            "seed {seed} flip@{byte}: clip {id} served wrong data"
                        );
                        if model.clips.contains_key(&id) {
                            served += 1;
                        }
                    }
                    Err(DbError::ClipQuarantined(_)) | Err(DbError::ClipNotFound(_)) => {}
                    Err(e) => panic!("seed {seed} flip@{byte}: clip {id}: {e}"),
                }
            }
            // Invariant 3: one flipped bit costs at most one record —
            // all other live clips stay retrievable.
            assert!(
                served + 1 >= model.clips.len(),
                "seed {seed} flip@{byte}: lost {} clips to one bit",
                model.clips.len() - served
            );
            // Invariant 4: served sessions are a subset of the
            // sessions actually recorded.
            for cid in all_put.keys() {
                for s in db.sessions_for_clip(*cid).unwrap() {
                    assert!(
                        all_sessions.contains(&(s.session_id, s.clip_id)),
                        "seed {seed} flip@{byte}: fabricated session {}",
                        s.session_id
                    );
                }
            }
        }
    }
}

#[test]
fn single_transient_error_at_any_op_is_invisible() {
    let seed = 77u64;
    let ops = gen_ops(seed);
    let total = count_storage_ops(&ops);
    // Expected final state, fault-free.
    let mut expect = State::default();
    for &op in &ops {
        expect = apply(&expect, op);
    }
    for fault_at in 0..total {
        let (storage, handle) = FaultyStorage::new(seed);
        handle.schedule(fault_at, FaultKind::TransientIo);
        let mut db = VideoDb::with_storage(Box::new(storage))
            .unwrap_or_else(|e| panic!("transient@{fault_at}: open failed: {e}"));
        for &op in &ops {
            drive(&mut db, op)
                .unwrap_or_else(|e| panic!("transient@{fault_at}: op {op:?} failed: {e}"));
        }
        let state = read_state(&mut db);
        assert_eq!(
            state, expect,
            "transient@{fault_at}: retried run diverged from fault-free run"
        );
    }
}
