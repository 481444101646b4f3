//! The recordings, how one is ingested, and where its clips land.

use std::path::Path;

use tsvr_core::{
    build_index, bundle_from_clip, labels_from_bundle, prepare_sim, segment_from_dataset,
    ClipArtifacts, EventQuery, PipelineOptions,
};
use tsvr_sim::{fleet, Scenario, ScenarioKind, SimOutput, World};
use tsvr_trajectory::Dataset;
use tsvr_viddb::{ClipMeta, IndexSegment, ShardedDb};

use crate::ledger::Ledger;

/// Shard time-bucket width: one hour of capture time.
pub const BUCKET_SECS: u64 = 3600;
/// Capture-time gap between consecutive clips of one shard. Every
/// recording is shorter than this at 25 fps, so no clip straddles a
/// bucket boundary.
const SLOT_SECS: u64 = 200;

/// One simulated camera recording and the query an analyst asks of it.
pub struct Recording {
    pub name: String,
    pub sim: SimOutput,
    pub kind: ScenarioKind,
    pub query: EventQuery,
}

/// The recordings at `seed`, largest first: paper clip 1 (tunnel),
/// paper clip 2 (intersection), then the fleet with `handoff` split
/// into its two cameras. Smoke scale is one `tunnel_small` recording.
pub fn recordings(seed: u64, smoke: bool) -> Vec<Recording> {
    let one = |name: &str, s: Scenario, query: EventQuery| Recording {
        name: name.to_string(),
        sim: World::run(s.clone()),
        kind: s.kind,
        query,
    };
    if smoke {
        return vec![one(
            "tunnel_small",
            Scenario::tunnel_small(seed),
            EventQuery::accidents(),
        )];
    }
    let mut out = vec![
        one(
            "tunnel_paper",
            Scenario::tunnel_paper(seed),
            EventQuery::accidents(),
        ),
        one(
            "intersection_paper",
            Scenario::intersection_paper(seed),
            EventQuery::accidents(),
        ),
    ];
    for m in fleet::members() {
        let s = fleet::scenario(m.name, seed).expect("every fleet member builds a scenario");
        let query = EventQuery::for_kind(m.target);
        if m.cameras == 2 {
            let sim = World::run(s.clone());
            let (a, b) = sim.split_at(fleet::handoff_split_frame(&sim, m.target));
            for (suffix, half) in [("a", a), ("b", b)] {
                out.push(Recording {
                    name: format!("{}-{suffix}", m.name),
                    sim: half,
                    kind: s.kind,
                    query: query.clone(),
                });
            }
        } else {
            out.push(one(m.name, s, query));
        }
    }
    out
}

/// Where clips go: `cameras × buckets` shards, filled in order with
/// `per_shard` clips each.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub cameras: u64,
    pub buckets: u64,
    pub per_shard: u64,
}

impl Layout {
    /// 192 clips: more clips per shard than viddb's 8-entry bundle LRU.
    pub const FULL: Layout = Layout {
        cameras: 4,
        buckets: 4,
        per_shard: 12,
    };
    /// 8 clips over 2 shards.
    pub const SMOKE: Layout = Layout {
        cameras: 2,
        buckets: 1,
        per_shard: 4,
    };

    pub fn clips(&self) -> u64 {
        self.cameras * self.buckets * self.per_shard
    }

    /// Metadata of the `k`-th clip (0-based; clip id `k + 1`).
    pub fn meta(&self, k: u64, rec: &Recording) -> ClipMeta {
        let shard = k / self.per_shard;
        let camera = (shard / self.buckets) % self.cameras;
        let bucket = shard % self.buckets;
        ClipMeta {
            clip_id: k + 1,
            name: rec.name.clone(),
            location: "e2e".into(),
            camera: format!("cam-{camera:02}"),
            start_time: bucket * BUCKET_SECS + (k % self.per_shard) * SLOT_SECS,
            frame_count: rec.sim.frames.len() as u32,
            width: rec.sim.width,
            height: rec.sim.height,
        }
    }
}

/// Vision and trajectory modelling of one recording.
pub fn prepare(sim: SimOutput, kind: ScenarioKind, ledger: &mut Ledger) -> ClipArtifacts {
    ledger.time("prepare", || {
        prepare_sim(sim, kind, &PipelineOptions::default())
    })
}

/// Stores one clip of a prepared recording and builds its own index.
pub fn store(
    db: &mut ShardedDb,
    clip: &ClipArtifacts,
    meta: ClipMeta,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let id = meta.clip_id;
    let bundle = ledger.time("bundle", || bundle_from_clip(clip, meta));
    ledger
        .time("put_clip", || db.put_clip(&bundle))
        .map_err(|e| format!("put_clip {id}: {e}"))?;
    let shard = db
        .shard_for_clip_mut(id)
        .ok_or_else(|| format!("clip {id} has no open shard"))?;
    ledger
        .time("index_build", || build_index(shard, id, &clip.dataset))
        .map_err(|e| format!("build_index {id}: {e}"))
}

/// The served archive, built and synced on disk.
pub struct Archive {
    /// Ground-truth label of every window, per recording (clip id
    /// `r + 1` holds recording `r`).
    pub truth: Vec<Vec<bool>>,
    /// Query name per recording, as an analyst opens a session with it.
    pub queries: Vec<&'static str>,
    /// Extracted dataset per recording.
    pub datasets: Vec<Dataset>,
    /// Frames processed by vision.
    pub frames_prepared: u64,
    /// Frames represented by the stored clips.
    pub frames_stored: u64,
    /// Windows over all stored clips.
    pub windows_stored: u64,
}

/// Prepares every recording once, replicates the clips over `layout`
/// with a fresh index each, and syncs.
pub fn build_archive(
    dir: &Path,
    recs: &[Recording],
    layout: Layout,
    ledger: &mut Ledger,
) -> Result<Archive, String> {
    let _ = std::fs::remove_dir_all(dir);
    let clips: Vec<ClipArtifacts> = recs
        .iter()
        .map(|r| prepare(r.sim.clone(), r.kind, ledger))
        .collect();
    let mut db = ShardedDb::open_with_bucket(dir, BUCKET_SECS).map_err(|e| e.to_string())?;
    let (mut frames_stored, mut windows_stored) = (0u64, 0u64);
    for k in 0..layout.clips() {
        let r = (k % recs.len() as u64) as usize;
        store(&mut db, &clips[r], layout.meta(k, &recs[r]), ledger)?;
        frames_stored += recs[r].sim.frames.len() as u64;
        windows_stored += clips[r].dataset.windows.len() as u64;
    }
    ledger
        .time("sync", || db.sync())
        .map_err(|e| format!("sync: {e}"))?;
    let truth = clips
        .iter()
        .zip(recs)
        .enumerate()
        .map(|(r, (clip, rec))| {
            let bundle = bundle_from_clip(clip, layout.meta(r as u64, rec));
            labels_from_bundle(&bundle, &rec.query)
        })
        .collect();
    Ok(Archive {
        truth,
        queries: recs.iter().map(|r| r.query.name).collect(),
        frames_prepared: recs.iter().map(|r| r.sim.frames.len() as u64).sum(),
        frames_stored,
        windows_stored,
        datasets: clips.into_iter().map(|c| c.dataset).collect(),
    })
}

/// Bytes on disk under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Checks a reopened archive against what was ingested: the clip count
/// matches and every stored index segment equals the one built from the
/// dataset, bit for bit.
pub fn check_reopened(db: &mut ShardedDb, built: &[(u64, Dataset)]) -> Result<(), String> {
    if db.clip_count() != built.len() {
        return Err(format!(
            "reopened archive holds {} clips, {} were ingested",
            db.clip_count(),
            built.len()
        ));
    }
    for (id, dataset) in built {
        let stored = db
            .load_index(*id)
            .map_err(|e| format!("load_index {id}: {e}"))?
            .ok_or_else(|| format!("clip {id}: index missing after reopen"))?;
        if !segments_identical(&stored, &segment_from_dataset(*id, dataset)) {
            return Err(format!(
                "clip {id}: reopened index differs from the one built"
            ));
        }
    }
    Ok(())
}

fn segments_identical(a: &IndexSegment, b: &IndexSegment) -> bool {
    a.clip_id == b.clip_id
        && a.config_hash == b.config_hash
        && a.feature_dim == b.feature_dim
        && a.windows.len() == b.windows.len()
        && a.windows.iter().zip(&b.windows).all(|(x, y)| {
            x.window_index == y.window_index
                && x.start_checkpoint == y.start_checkpoint
                && x.start_frame == y.start_frame
                && x.end_frame == y.end_frame
                && x.track_ids == y.track_ids
                && x.features.len() == y.features.len()
                && x.features
                    .iter()
                    .zip(&y.features)
                    .all(|(f, g)| f.to_bits() == g.to_bits())
        })
}
