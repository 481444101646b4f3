//! `--metrics-out` snapshots of whole `tsvr` processes. Each command
//! runs in its own process, so its snapshot holds exactly that
//! command's probes (the in-crate tests share one process registry).

use std::path::{Path, PathBuf};
use std::process::Command;

use tsvr_obs::Snapshot;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tsvr-metrics-out-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Runs `tsvr args.. --metrics-out dir/<tag>.json` and parses the
/// snapshot it wrote.
fn tsvr(dir: &Path, tag: &str, args: &[&str]) -> Snapshot {
    let metrics = dir.join(format!("{tag}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_tsvr"))
        .args(args)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "tsvr {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Snapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap()
}

fn counter(snap: &Snapshot, name: &str) -> Option<u64> {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
}

fn samples(snap: &Snapshot, name: &str) -> Option<u64> {
    snap.histograms
        .iter()
        .find(|h| h.name == name)
        .map(|h| h.count)
}

#[test]
fn query_and_resume_record_the_protocol_metrics_and_one_index_load() {
    let dir = scratch("protocol");
    let db = dir.join("t.db");
    let db = db.to_str().unwrap();
    let clip = ["--db", db, "--clip-id", "1"];
    tsvr(
        &dir,
        "simulate",
        &[
            &["simulate", "--scenario", "tunnel-small", "--frames", "150"],
            &clip[..],
        ]
        .concat(),
    );
    let page = ["--top", "5"];

    let query = tsvr(
        &dir,
        "query",
        &[&["query", "--rounds", "2"], &clip[..], &page].concat(),
    );
    let resume = tsvr(
        &dir,
        "resume",
        &[&["resume", "--rounds", "1"], &clip[..], &page].concat(),
    );
    tsvr(&dir, "build", &["index", "build", "--db", db]);
    let indexed = tsvr(
        &dir,
        "indexed",
        &[&["query", "--rounds", "1", "--use-index"], &clip[..], &page].concat(),
    );

    if tsvr_obs::is_enabled() {
        // The oracle loop is the protocol's: one session span, one
        // round span per round, accuracy@n per page, n labels a round.
        for (snap, rounds) in [(&query, 2), (&resume, 1), (&indexed, 1)] {
            assert_eq!(samples(snap, "mil.session"), Some(1));
            assert_eq!(samples(snap, "mil.round"), Some(rounds));
            assert_eq!(samples(snap, "mil.accuracy_at_n_pct"), Some(rounds + 1));
            assert_eq!(counter(snap, "mil.feedback.labels"), Some(5 * rounds));
        }
        // A warm `--use-index` query reads its segment once and runs
        // no vision.
        assert_eq!(counter(&indexed, "index.hit"), Some(1));
        assert_eq!(counter(&indexed, "vision.frames"), None);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
