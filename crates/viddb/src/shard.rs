//! Sharded video database: a directory of independently compacted
//! [`VideoDb`] shards keyed by `(camera, time-bucket)`.
//!
//! # Layout
//!
//! A sharded database is a directory:
//!
//! ```text
//! db-dir/
//!   MANIFEST                     append-only route log (same framing
//!                                as every tsvr log: TSVRDB01 + CRC)
//!   shard-<fnv64(camera)>-<bucket>.db   one ordinary PR-3 VideoDb each
//! ```
//!
//! The `MANIFEST` is itself a [`Log`], so route records inherit the
//! torn-tail truncation and mid-log quarantine guarantees of every
//! other file in the system. It holds two record kinds: a one-time
//! config record pinning the time-bucket width, and one route record
//! per shard mapping `(camera, bucket)` to a shard file name.
//!
//! # Crash consistency
//!
//! Creating a shard is a two-step write (route record, then shard
//! file), ordered **manifest first**: the route record is appended
//! *and synced* before the shard file is created. A crash between the
//! two leaves a route pointing at a missing file, which [`VideoDb`]
//! re-creates empty on the next open — indistinguishable from a shard
//! that never received its first clip. The opposite order would leak
//! an anonymous shard file the router cannot reach. As a second line
//! of defence, open *adopts orphans*: any `shard-*.db` file in the
//! directory that no route mentions (possible if a corrupt manifest
//! region was quarantined) is opened and re-routed from the clip
//! metadata it contains.
//!
//! # Degradation
//!
//! A shard that fails to open is quarantined, not fatal: the incident
//! is recorded (`viddb.shard.quarantined` counter + trace incident),
//! reads and queries continue over the surviving shards, and only
//! operations routed *into* the damaged shard fail, with
//! [`DbError::ShardUnavailable`]. This mirrors, one level up, what a
//! single `VideoDb` already does for a corrupt clip record.
//!
//! # Single-file archives
//!
//! An archive written as one [`VideoDb`] file opens as a manifest-less
//! one-shard view (see `impl From<VideoDb> for ShardedDb`), so every
//! caller handles both layouts through this one type. The file is
//! neither rewritten nor converted.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::codec::{Reader, Writer};
use crate::db::{FaultReport, VerifyReport, VideoDb};
use crate::error::{DbError, Result};
use crate::log::Log;
use crate::record::{ClipBundle, ClipMeta, IndexSegment, SessionRow};

/// Default shard time-bucket width: one hour of capture time. Clips
/// whose `start_time` falls in the same hour (and share a camera) land
/// in the same shard.
pub const DEFAULT_TIME_BUCKET_SECS: u64 = 3600;

/// Manifest file name inside a sharded database directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Shard name of a single-file archive's one shard.
pub const SINGLE_FILE_SHARD: &str = "-";

/// Manifest record: `(camera, bucket) -> shard file` route.
const MF_ROUTE: u8 = 1;
/// Manifest record: one-time config (time-bucket width).
const MF_CONFIG: u8 = 2;

/// Shard key: every clip routes to exactly one `(camera, time-bucket)`
/// cell, so per-camera ingest and time-range retention both map to
/// whole shards.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId {
    /// Camera identifier (from [`ClipMeta::camera`]).
    pub camera: String,
    /// `start_time / bucket_secs` — which time bucket the clip's
    /// capture start falls in.
    pub bucket: u64,
}

impl ShardId {
    /// The shard a clip belongs to under a given bucket width.
    pub fn for_meta(meta: &ClipMeta, bucket_secs: u64) -> ShardId {
        ShardId {
            camera: meta.camera.clone(),
            bucket: meta.start_time / bucket_secs.max(1),
        }
    }

    /// Deterministic, filesystem-safe shard file name. The camera name
    /// is hashed (FNV-1a) rather than embedded because camera ids are
    /// free-form strings; the exact mapping lives in the manifest, so
    /// the name only has to be stable and collision-resistant enough
    /// to keep unrelated shards in separate files.
    pub fn file_name(&self) -> String {
        format!(
            "shard-{:016x}-{:08x}.db",
            fnv1a(self.camera.as_bytes()),
            self.bucket
        )
    }
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Summary of one shard, for `info`/`stats`-style listings.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// Shard file name within the database directory.
    pub file: String,
    /// Shard keys routed to this file (one, barring hash collisions).
    pub keys: Vec<ShardId>,
    /// Stored clips (0 for a quarantined shard).
    pub clips: usize,
    /// Stored session records (0 for a quarantined shard).
    pub sessions: usize,
    /// Log size in bytes (0 for a quarantined shard).
    pub log_bytes: u64,
    /// Whether the shard failed to open and is quarantined.
    pub quarantined: bool,
}

/// A directory of independently compacted [`VideoDb`] shards behind a
/// manifest log. Writes route by `(camera, time-bucket)`; reads route
/// by clip id; metadata queries and verification fan out over every
/// healthy shard.
pub struct ShardedDb {
    dir: PathBuf,
    /// `None` for a single-file view: its routes live in memory only.
    manifest: Option<Log>,
    bucket_secs: u64,
    /// `(camera, bucket)` -> shard file name, replayed from the manifest.
    routes: BTreeMap<ShardId, String>,
    /// Open shards, by file name. `BTreeMap` so every fan-out walks
    /// shards in the same deterministic order.
    shards: BTreeMap<String, VideoDb>,
    /// Shards that failed to open: file name -> reason.
    quarantined: BTreeMap<String, String>,
    /// clip id -> shard file name, rebuilt from shard catalogs.
    clip_route: BTreeMap<u64, String>,
}

impl ShardedDb {
    /// Opens an archive. An existing regular file opens as a
    /// single-file one-shard view; any other path opens (or creates) a
    /// sharded database directory with the default time-bucket width.
    /// An existing manifest's stored width always wins, so reopening
    /// never re-routes clips.
    pub fn open(path: &Path) -> Result<ShardedDb> {
        if path.is_file() {
            return Ok(VideoDb::open(path)?.into());
        }
        ShardedDb::open_with_bucket(path, DEFAULT_TIME_BUCKET_SECS)
    }

    /// Opens (or creates) a sharded database directory, pinning
    /// `bucket_secs` as the time-bucket width if the directory is new.
    pub fn open_with_bucket(dir: &Path, bucket_secs: u64) -> Result<ShardedDb> {
        let _span = tsvr_obs::span!("viddb.shard.open");
        std::fs::create_dir_all(dir)?;
        let mut manifest = Log::open(&dir.join(MANIFEST_FILE))?;

        // Replay the manifest: config first (it pins routing), then
        // routes. Later route records for the same key supersede
        // earlier ones (they are deterministic, so in practice equal).
        let mut stored_bucket = None;
        let mut routes: BTreeMap<ShardId, String> = BTreeMap::new();
        for (_, payload) in manifest.scan()? {
            let mut r = Reader::new(&payload);
            match r.get_u8()? {
                MF_ROUTE => {
                    let camera = r.get_str()?;
                    let bucket = r.get_u64()?;
                    let file = r.get_str()?;
                    routes.insert(ShardId { camera, bucket }, file);
                }
                MF_CONFIG => stored_bucket = Some(r.get_u64()?),
                t => return Err(DbError::UnknownRecordType(t)),
            }
        }
        let bucket_secs = match stored_bucket {
            Some(b) => b.max(1),
            None => {
                let b = bucket_secs.max(1);
                let mut w = Writer::new();
                w.put_u8(MF_CONFIG);
                w.put_u64(b);
                manifest.append(&w.into_bytes())?;
                manifest.sync()?;
                b
            }
        };

        let mut db = ShardedDb {
            dir: dir.to_path_buf(),
            manifest: Some(manifest),
            bucket_secs,
            routes,
            shards: BTreeMap::new(),
            quarantined: BTreeMap::new(),
            clip_route: BTreeMap::new(),
        };

        // Open every routed shard; quarantine the ones that refuse.
        let files: Vec<String> = db.routes.values().cloned().collect();
        for file in files {
            db.open_shard(&file);
        }
        db.adopt_orphans()?;
        Ok(db)
    }

    /// Opens one shard file, indexing its clips, or quarantines it.
    /// Idempotent: already-open and already-quarantined files are left
    /// alone.
    fn open_shard(&mut self, file: &str) {
        if self.shards.contains_key(file) || self.quarantined.contains_key(file) {
            return;
        }
        match VideoDb::open(&self.dir.join(file)) {
            Ok(shard) => {
                for meta in shard.list_clips() {
                    self.clip_route.insert(meta.clip_id, file.to_string());
                }
                self.shards.insert(file.to_string(), shard);
            }
            Err(e) => {
                let reason = e.to_string();
                tsvr_obs::counter!("viddb.shard.quarantined").incr();
                tsvr_obs::trace::incident(
                    "viddb.shard.quarantined",
                    &format!("shard {file}: {reason}"),
                );
                self.quarantined.insert(file.to_string(), reason);
            }
        }
    }

    /// Adopts `shard-*.db` files no route mentions (a quarantined
    /// manifest region can lose route records): open each, derive its
    /// routes from the clip metadata inside, and re-append them to the
    /// manifest so the next open finds them the normal way.
    fn adopt_orphans(&mut self) -> Result<()> {
        let routed: std::collections::BTreeSet<&String> = self.routes.values().collect();
        let mut orphans = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("shard-")
                && name.ends_with(".db")
                && !routed.contains(&name.to_string())
            {
                orphans.push(name.to_string());
            }
        }
        drop(routed);
        for file in orphans {
            self.open_shard(&file);
            let Some(shard) = self.shards.get(&file) else {
                continue;
            };
            let keys: Vec<ShardId> = shard
                .list_clips()
                .iter()
                .map(|m| ShardId::for_meta(m, self.bucket_secs))
                .collect();
            for id in keys {
                if self.routes.contains_key(&id) {
                    continue;
                }
                self.append_route(&id, &file)?;
            }
        }
        Ok(())
    }

    /// Appends one route record and syncs the manifest. The sync is
    /// the crash-ordering point: the route must be durable before the
    /// shard file it names exists. A single-file view only records the
    /// route in memory.
    fn append_route(&mut self, id: &ShardId, file: &str) -> Result<()> {
        if let Some(manifest) = &mut self.manifest {
            let mut w = Writer::new();
            w.put_u8(MF_ROUTE);
            w.put_str(&id.camera)?;
            w.put_u64(id.bucket);
            w.put_str(file)?;
            manifest.append(&w.into_bytes())?;
            manifest.sync()?;
        }
        self.routes.insert(id.clone(), file.to_string());
        Ok(())
    }

    /// The shard a write for `id` routes to, creating the route (and
    /// then the shard file) if this is the first clip for the cell. A
    /// single-file view routes every cell to its one file.
    fn shard_for_write(&mut self, id: &ShardId) -> Result<&mut VideoDb> {
        let file = match self.routes.get(id) {
            Some(f) => f.clone(),
            None => {
                let f = match self.manifest {
                    Some(_) => id.file_name(),
                    None => SINGLE_FILE_SHARD.to_string(),
                };
                self.append_route(id, &f)?;
                f
            }
        };
        if let Some(reason) = self.quarantined.get(&file) {
            return Err(DbError::ShardUnavailable {
                file,
                reason: reason.clone(),
            });
        }
        self.open_shard(&file);
        match self.shards.get_mut(&file) {
            Some(shard) => Ok(shard),
            // open_shard just failed and quarantined it.
            None => {
                let reason = self.quarantined.get(&file).cloned().unwrap_or_default();
                Err(DbError::ShardUnavailable { file, reason })
            }
        }
    }

    /// The open shard holding `clip_id`, for read-side routing.
    /// `None` when the clip is unknown or its shard is quarantined.
    pub fn shard_for_clip_mut(&mut self, clip_id: u64) -> Option<&mut VideoDb> {
        self.routed_shard(clip_id).ok()
    }

    /// The shard file holding `clip_id`, if the clip is known — the
    /// grouping key a scatter-gather query plans its fan-out with.
    pub fn shard_of_clip(&self, clip_id: u64) -> Option<&str> {
        self.clip_route.get(&clip_id).map(String::as_str)
    }

    /// Resolves `clip_id` to its shard, with a typed error: unknown
    /// clips are [`DbError::ClipNotFound`]; clips routed into a
    /// quarantined shard are [`DbError::ShardUnavailable`]. Clip-scoped
    /// callers (index build, retrieval sessions, frame export) run the
    /// per-shard [`VideoDb`] API on the result.
    pub fn routed_shard(&mut self, clip_id: u64) -> Result<&mut VideoDb> {
        let Some(file) = self.clip_route.get(&clip_id).cloned() else {
            return Err(DbError::ClipNotFound(clip_id));
        };
        if let Some(reason) = self.quarantined.get(&file) {
            return Err(DbError::ShardUnavailable {
                file,
                reason: reason.clone(),
            });
        }
        match self.shards.get_mut(&file) {
            Some(shard) => Ok(shard),
            None => Err(DbError::ClipNotFound(clip_id)),
        }
    }

    /// Stores a clip bundle, routed by `(camera, start_time bucket)`.
    /// Clip ids are unique across the whole database, not per shard.
    pub fn put_clip(&mut self, bundle: &ClipBundle) -> Result<()> {
        let _span = tsvr_obs::span!("viddb.shard.put_clip");
        let clip_id = bundle.meta.clip_id;
        if self.clip_route.contains_key(&clip_id) {
            return Err(DbError::DuplicateClip(clip_id));
        }
        let id = ShardId::for_meta(&bundle.meta, self.bucket_secs);
        self.shard_for_write(&id)?.put_clip(bundle)?;
        self.clip_route.insert(clip_id, self.routes[&id].clone());
        Ok(())
    }

    /// Loads a clip bundle from its shard.
    pub fn load_clip(&mut self, clip_id: u64) -> Result<ClipBundle> {
        self.routed_shard(clip_id)?.load_clip(clip_id)
    }

    /// Deletes a clip (tombstone in its shard).
    pub fn delete_clip(&mut self, clip_id: u64) -> Result<()> {
        self.routed_shard(clip_id)?.delete_clip(clip_id)?;
        self.clip_route.remove(&clip_id);
        Ok(())
    }

    /// Stores a feature-index segment next to its clip.
    pub fn put_index(&mut self, segment: &IndexSegment) -> Result<()> {
        let clip_id = segment.clip_id;
        self.routed_shard(clip_id)?.put_index(segment)
    }

    /// Loads the freshest index segment for a clip, if any.
    pub fn load_index(&mut self, clip_id: u64) -> Result<Option<IndexSegment>> {
        match self.routed_shard(clip_id) {
            Ok(shard) => shard.load_index(clip_id),
            Err(DbError::ClipNotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Total index segments across healthy shards.
    pub fn index_count(&self) -> usize {
        self.shards.values().map(|s| s.index_count()).sum()
    }

    /// Persists a retrieval session in the shard of the clip it
    /// queried, so a shard remains self-contained (clip + indexes +
    /// sessions travel together through compaction and retention).
    pub fn put_session(&mut self, session: &SessionRow) -> Result<()> {
        let clip_id = session.clip_id;
        self.routed_shard(clip_id)?.put_session(session)
    }

    /// Every session recorded against a clip. Falls back to scanning
    /// all shards when the clip itself is gone (deleted clips keep
    /// their session history).
    pub fn sessions_for_clip(&mut self, clip_id: u64) -> Result<Vec<SessionRow>> {
        if self.clip_route.contains_key(&clip_id) {
            return self.routed_shard(clip_id)?.sessions_for_clip(clip_id);
        }
        let mut out = Vec::new();
        for shard in self.shards.values_mut() {
            out.extend(shard.sessions_for_clip(clip_id)?);
        }
        Ok(out)
    }

    /// Total stored sessions across healthy shards.
    pub fn session_count(&self) -> usize {
        self.shards.values().map(|s| s.session_count()).sum()
    }

    /// Highest session id across healthy shards (`0` when none).
    pub fn max_session_id(&self) -> u64 {
        self.shards
            .values()
            .map(|s| s.max_session_id())
            .max()
            .unwrap_or(0)
    }

    /// `(session_id, clip_id)` pairs across all healthy shards, in
    /// shard order then per-shard log order.
    pub fn session_index(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in self.shards.values() {
            out.extend(shard.session_index());
        }
        out
    }

    /// Metadata of one clip.
    pub fn meta(&self, clip_id: u64) -> Option<&ClipMeta> {
        let file = self.clip_route.get(&clip_id)?;
        self.shards.get(file)?.meta(clip_id)
    }

    /// All clips across healthy shards, ordered by clip id.
    pub fn list_clips(&self) -> Vec<&ClipMeta> {
        let mut out: Vec<&ClipMeta> = self.shards.values().flat_map(|s| s.list_clips()).collect();
        out.sort_by_key(|m| m.clip_id);
        out
    }

    /// Number of stored clips across healthy shards.
    pub fn clip_count(&self) -> usize {
        self.clip_route.len()
    }

    /// Clips captured at a location, across shards, ordered by clip id.
    pub fn find_by_location(&self, location: &str) -> Vec<&ClipMeta> {
        let mut out: Vec<&ClipMeta> = self
            .shards
            .values()
            .flat_map(|s| s.find_by_location(location))
            .collect();
        out.sort_by_key(|m| m.clip_id);
        out
    }

    /// Clips captured by a camera, across shards, ordered by clip id.
    pub fn find_by_camera(&self, camera: &str) -> Vec<&ClipMeta> {
        let mut out: Vec<&ClipMeta> = self
            .shards
            .values()
            .flat_map(|s| s.find_by_camera(camera))
            .collect();
        out.sort_by_key(|m| m.clip_id);
        out
    }

    /// Clips whose capture start falls in `[from, to]`, across shards,
    /// ordered by clip id.
    pub fn find_by_time_range(&self, from: u64, to: u64) -> Vec<&ClipMeta> {
        let mut out: Vec<&ClipMeta> = self
            .shards
            .values()
            .flat_map(|s| s.find_by_time_range(from, to))
            .collect();
        out.sort_by_key(|m| m.clip_id);
        out
    }

    /// Syncs the manifest and every healthy shard.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(manifest) = &mut self.manifest {
            manifest.sync()?;
        }
        for shard in self.shards.values_mut() {
            shard.sync()?;
        }
        Ok(())
    }

    /// Verifies each healthy shard independently, returning
    /// `(file, report)` pairs in shard order. A quarantined shard
    /// cannot be verified (it would not open); it is reported via
    /// [`ShardedDb::quarantined_shards`].
    pub fn verify(&mut self) -> Result<Vec<(String, VerifyReport)>> {
        let mut out = Vec::with_capacity(self.shards.len());
        for (file, shard) in &mut self.shards {
            out.push((file.clone(), shard.verify()?));
        }
        Ok(out)
    }

    /// Compacts each healthy shard independently. One shard's
    /// compaction never rewrites another's file, so a failure part way
    /// leaves every other shard untouched.
    pub fn compact(&mut self) -> Result<()> {
        let _span = tsvr_obs::span!("viddb.shard.compact");
        for shard in self.shards.values_mut() {
            shard.compact()?;
        }
        Ok(())
    }

    /// Quarantined shards as `(file, reason)` pairs, in file order.
    pub fn quarantined_shards(&self) -> Vec<(String, String)> {
        self.quarantined
            .iter()
            .map(|(f, r)| (f.clone(), r.clone()))
            .collect()
    }

    /// Aggregated per-clip fault report over every healthy shard.
    pub fn fault_report(&self) -> FaultReport {
        let mut agg = FaultReport::default();
        for shard in self.shards.values() {
            let r = shard.fault_report();
            agg.quarantined_clips.extend(r.quarantined_clips);
            agg.corrupt_regions.extend(r.corrupt_regions);
            agg.truncated_tail_bytes += r.truncated_tail_bytes;
            agg.recovered_header |= r.recovered_header;
        }
        agg
    }

    /// Total log bytes: manifest plus every healthy shard.
    pub fn log_size(&self) -> u64 {
        self.manifest.as_ref().map_or(0, Log::len)
            + self.shards.values().map(|s| s.log_size()).sum::<u64>()
    }

    /// Number of open (healthy) shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured time-bucket width, seconds.
    pub fn bucket_secs(&self) -> u64 {
        self.bucket_secs
    }

    /// Per-shard summaries (healthy then quarantined), in file order.
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        let mut by_file: BTreeMap<&String, Vec<ShardId>> = BTreeMap::new();
        for (id, file) in &self.routes {
            by_file.entry(file).or_default().push(id.clone());
        }
        let mut out = Vec::with_capacity(self.shards.len() + self.quarantined.len());
        for (file, shard) in &self.shards {
            out.push(ShardInfo {
                file: file.clone(),
                keys: by_file.get(file).cloned().unwrap_or_default(),
                clips: shard.clip_count(),
                sessions: shard.session_count(),
                log_bytes: shard.log_size(),
                quarantined: false,
            });
        }
        for file in self.quarantined.keys() {
            out.push(ShardInfo {
                file: file.clone(),
                keys: by_file.get(file).cloned().unwrap_or_default(),
                clips: 0,
                sessions: 0,
                log_bytes: 0,
                quarantined: true,
            });
        }
        out
    }

    /// The routing table, one entry per `(camera, bucket)` key, in
    /// route order (derived from clip metadata for a single-file view).
    /// This is the query planner's prune input: the camera and
    /// time-bucket of every shard — healthy or
    /// quarantined — are known from the manifest alone, and healthy
    /// routes carry just enough per-clip metadata (`start_time`,
    /// `frame_count`) to decide time-overlap exactly, without touching
    /// stored index or bundle records. Quarantined routes carry the
    /// open-failure reason instead, so a planner can *name* what it
    /// could not serve rather than silently returning less.
    pub fn shard_routes(&self) -> Vec<ShardRoute> {
        let mut out = Vec::with_capacity(self.routes.len());
        for (id, file) in &self.routes {
            let status = if let Some(reason) = self.quarantined.get(file) {
                RouteStatus::Quarantined {
                    reason: reason.clone(),
                }
            } else {
                let clips = match self.shards.get(file) {
                    Some(shard) => {
                        let mut clips: Vec<ClipStub> = shard
                            .list_clips()
                            .iter()
                            // A shard file can serve several routes; a
                            // route's clips are the ones bucketed to it.
                            .filter(|m| ShardId::for_meta(m, self.bucket_secs) == *id)
                            .map(|m| ClipStub {
                                clip_id: m.clip_id,
                                camera: m.camera.clone(),
                                start_time: m.start_time,
                                frame_count: m.frame_count,
                            })
                            .collect();
                        clips.sort_unstable_by_key(|c| c.clip_id);
                        clips
                    }
                    // Routed but missing on disk (manifest ahead of the
                    // file): report as degraded, not silently empty.
                    None => {
                        out.push(ShardRoute {
                            camera: id.camera.clone(),
                            bucket: id.bucket,
                            file: file.clone(),
                            status: RouteStatus::Quarantined {
                                reason: "routed shard file missing".into(),
                            },
                        });
                        continue;
                    }
                };
                RouteStatus::Healthy { clips }
            };
            out.push(ShardRoute {
                camera: id.camera.clone(),
                bucket: id.bucket,
                file: file.clone(),
                status,
            });
        }
        out
    }
}

/// One manifest route as seen by the query planner: the `(camera,
/// bucket)` key, the shard file it maps to, and either the route's clip
/// stubs (healthy) or the reason it cannot be served (quarantined).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRoute {
    /// Camera the route covers.
    pub camera: String,
    /// Time bucket (`start_time / bucket_secs`) the route covers.
    pub bucket: u64,
    /// Shard file name.
    pub file: String,
    /// Whether the route can be served.
    pub status: RouteStatus,
}

/// Serveability of one [`ShardRoute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteStatus {
    /// The shard is open; these are the clips bucketed to this route.
    Healthy {
        /// Per-clip metadata stubs, ascending clip id.
        clips: Vec<ClipStub>,
    },
    /// The shard could not be opened (or is missing); `reason` is the
    /// quarantine cause.
    Quarantined {
        /// Why the shard is unavailable.
        reason: String,
    },
}

/// The slice of [`ClipMeta`] a planner needs to prune by camera and
/// time without opening any stored records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClipStub {
    /// Clip id.
    pub clip_id: u64,
    /// Camera name.
    pub camera: String,
    /// Capture start, seconds since epoch.
    pub start_time: u64,
    /// Number of frames in the clip.
    pub frame_count: u32,
}

/// Compatibility name for [`ShardedDb`], which is now the only archive
/// handle. The end-to-end benchmark (`e2e-bench/`) opens archives
/// through this name, so it stays as an alias.
pub type AnyDb = ShardedDb;

/// A single-file database as a manifest-less one-shard view: the file
/// is the one shard, named [`SINGLE_FILE_SHARD`], and its `(camera,
/// bucket)` routes are derived in memory from clip metadata at
/// [`DEFAULT_TIME_BUCKET_SECS`] and never persisted. Every write lands
/// in that one file; nothing about its on-disk format changes.
impl From<VideoDb> for ShardedDb {
    fn from(db: VideoDb) -> ShardedDb {
        let file = SINGLE_FILE_SHARD.to_string();
        let bucket_secs = DEFAULT_TIME_BUCKET_SECS;
        let mut routes = BTreeMap::new();
        let mut clip_route = BTreeMap::new();
        for meta in db.list_clips() {
            routes.insert(ShardId::for_meta(meta, bucket_secs), file.clone());
            clip_route.insert(meta.clip_id, file.clone());
        }
        ShardedDb {
            dir: PathBuf::new(),
            manifest: None,
            bucket_secs,
            routes,
            shards: BTreeMap::from([(file, db)]),
            quarantined: BTreeMap::new(),
            clip_route,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_fixtures::sample_bundle;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tsvr-shard-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    /// A bundle whose shard key we control.
    fn bundle_at(clip_id: u64, camera: &str, start_time: u64) -> ClipBundle {
        let mut b = sample_bundle(clip_id);
        b.meta.camera = camera.to_string();
        b.meta.start_time = start_time;
        b
    }

    #[test]
    fn routes_by_camera_and_time_bucket() {
        let dir = temp_dir("routing");
        let mut db = ShardedDb::open_with_bucket(&dir, 3600).unwrap();
        db.put_clip(&bundle_at(1, "cam-a", 0)).unwrap();
        db.put_clip(&bundle_at(2, "cam-a", 100)).unwrap(); // same bucket
        db.put_clip(&bundle_at(3, "cam-a", 3600)).unwrap(); // next bucket
        db.put_clip(&bundle_at(4, "cam-b", 0)).unwrap(); // other camera
        assert_eq!(db.shard_count(), 3);
        assert_eq!(db.clip_count(), 4);
        // Same-cell clips share a shard file.
        let infos = db.shard_infos();
        let two_clip_shards: Vec<_> = infos.iter().filter(|i| i.clips == 2).collect();
        assert_eq!(two_clip_shards.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_round_trips_clips_sessions_and_indexes() {
        let dir = temp_dir("reopen");
        {
            let mut db = ShardedDb::open(&dir).unwrap();
            db.put_clip(&bundle_at(1, "cam-a", 0)).unwrap();
            db.put_clip(&bundle_at(2, "cam-b", 7200)).unwrap();
            db.put_session(&SessionRow {
                session_id: 9,
                clip_id: 2,
                query: "accident".into(),
                learner: "knn".into(),
                feedback: vec![vec![(0, true)]],
                accuracies: vec![0.5],
            })
            .unwrap();
            db.sync().unwrap();
        }
        let mut db = ShardedDb::open(&dir).unwrap();
        assert_eq!(db.clip_count(), 2);
        assert_eq!(db.load_clip(1).unwrap().meta.camera, "cam-a");
        assert_eq!(db.max_session_id(), 9);
        let sessions = db.sessions_for_clip(2).unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].query, "accident");
        assert_eq!(
            db.list_clips()
                .iter()
                .map(|m| m.clip_id)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_clip_rejected_across_shards() {
        let dir = temp_dir("dup");
        let mut db = ShardedDb::open(&dir).unwrap();
        db.put_clip(&bundle_at(1, "cam-a", 0)).unwrap();
        // Same id, different shard key: still a duplicate.
        assert!(matches!(
            db.put_clip(&bundle_at(1, "cam-b", 99_999)).unwrap_err(),
            DbError::DuplicateClip(1)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_shard_file_recreated_on_open() {
        // Crash model: route record synced, shard file never created
        // (or lost). Open must self-heal: the route resolves to an
        // empty shard, everything else serves normally.
        let dir = temp_dir("missing-file");
        let victim;
        {
            let mut db = ShardedDb::open(&dir).unwrap();
            db.put_clip(&bundle_at(1, "cam-a", 0)).unwrap();
            db.put_clip(&bundle_at(2, "cam-b", 0)).unwrap();
            db.sync().unwrap();
            victim =
                ShardId::for_meta(&bundle_at(2, "cam-b", 0).meta, db.bucket_secs()).file_name();
        }
        std::fs::remove_file(dir.join(&victim)).unwrap();
        let mut db = ShardedDb::open(&dir).unwrap();
        assert_eq!(db.quarantined_shards().len(), 0);
        assert_eq!(db.clip_count(), 1);
        assert_eq!(db.load_clip(1).unwrap().meta.clip_id, 1);
        // The healed cell accepts writes again.
        db.put_clip(&bundle_at(3, "cam-b", 0)).unwrap();
        assert_eq!(db.clip_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_shard_quarantined_others_serve() {
        let dir = temp_dir("quarantine");
        let victim;
        {
            let mut db = ShardedDb::open(&dir).unwrap();
            db.put_clip(&bundle_at(1, "cam-a", 0)).unwrap();
            db.put_clip(&bundle_at(2, "cam-b", 0)).unwrap();
            db.sync().unwrap();
            victim =
                ShardId::for_meta(&bundle_at(2, "cam-b", 0).meta, db.bucket_secs()).file_name();
        }
        // Destroy the victim's file header so VideoDb::open refuses it.
        std::fs::write(dir.join(&victim), b"NOTADB!!").unwrap();
        let before = tsvr_obs::counter!("viddb.shard.quarantined").get();
        let mut db = ShardedDb::open(&dir).unwrap();
        assert!(tsvr_obs::counter!("viddb.shard.quarantined").get() > before);
        assert_eq!(db.quarantined_shards().len(), 1);
        assert_eq!(db.quarantined_shards()[0].0, victim);
        // Surviving shard serves reads and queries.
        assert_eq!(db.clip_count(), 1);
        assert_eq!(db.load_clip(1).unwrap().meta.clip_id, 1);
        assert_eq!(db.list_clips().len(), 1);
        // Routing a write into the quarantined cell fails typed.
        assert!(matches!(
            db.put_clip(&bundle_at(3, "cam-b", 0)).unwrap_err(),
            DbError::ShardUnavailable { .. }
        ));
        // The damaged clip is simply unknown (not served corrupt).
        assert!(matches!(
            db.load_clip(2).unwrap_err(),
            DbError::ClipNotFound(2)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_shard_files_adopted_when_manifest_lost() {
        let dir = temp_dir("orphans");
        {
            let mut db = ShardedDb::open(&dir).unwrap();
            db.put_clip(&bundle_at(1, "cam-a", 0)).unwrap();
            db.put_clip(&bundle_at(2, "cam-b", 7200)).unwrap();
            db.sync().unwrap();
        }
        // Lose the manifest entirely (worst-case manifest damage).
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let mut db = ShardedDb::open(&dir).unwrap();
        assert_eq!(db.clip_count(), 2);
        assert_eq!(db.load_clip(2).unwrap().meta.camera, "cam-b");
        // Adoption re-wrote routes: a third open finds them directly.
        drop(db);
        let db = ShardedDb::open(&dir).unwrap();
        assert_eq!(db.clip_count(), 2);
        assert_eq!(db.shard_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_shard_compact_and_verify() {
        let dir = temp_dir("compact");
        let mut db = ShardedDb::open(&dir).unwrap();
        for id in 1..=4u64 {
            db.put_clip(&bundle_at(
                id,
                if id % 2 == 0 { "cam-a" } else { "cam-b" },
                0,
            ))
            .unwrap();
        }
        db.delete_clip(3).unwrap();
        let before = db.log_size();
        db.compact().unwrap();
        assert!(db.log_size() < before);
        assert_eq!(db.clip_count(), 3);
        let reports = db.verify().unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|(_, r)| r.is_clean()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bucket_width_pinned_by_manifest() {
        let dir = temp_dir("bucket-pin");
        {
            let _db = ShardedDb::open_with_bucket(&dir, 60).unwrap();
        }
        // A different requested width is ignored on reopen: the stored
        // config wins, so routing never changes under existing data.
        let db = ShardedDb::open_with_bucket(&dir, 3600).unwrap();
        assert_eq!(db.bucket_secs(), 60);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_file_view_routes_in_memory_to_its_one_shard() {
        let mut db = ShardedDb::from(VideoDb::in_memory());
        db.put_clip(&bundle_at(1, "cam-a", 0)).unwrap();
        db.put_clip(&bundle_at(2, "cam-b", 7200)).unwrap();
        assert_eq!(db.shard_count(), 1);
        assert_eq!(db.shard_of_clip(2), Some(SINGLE_FILE_SHARD));
        // Routes are derived per (camera, bucket), all naming the file.
        let routes = db.shard_routes();
        assert_eq!(
            routes
                .iter()
                .map(|r| (r.camera.as_str(), r.bucket))
                .collect::<Vec<_>>(),
            vec![("cam-a", 0), ("cam-b", 2)]
        );
        assert!(routes.iter().all(|r| r.file == SINGLE_FILE_SHARD));
        assert!(matches!(db.routed_shard(9), Err(DbError::ClipNotFound(9))));
        assert_eq!(db.routed_shard(1).unwrap().clip_count(), 2);
    }

    #[test]
    fn shard_routes_expose_manifest_with_clip_stubs_and_quarantine() {
        let dir = temp_dir("routes");
        let victim;
        {
            let mut db = ShardedDb::open_with_bucket(&dir, 3600).unwrap();
            db.put_clip(&bundle_at(1, "cam-a", 0)).unwrap();
            db.put_clip(&bundle_at(2, "cam-a", 100)).unwrap(); // same route
            db.put_clip(&bundle_at(3, "cam-b", 7200)).unwrap();
            db.sync().unwrap();
            victim =
                ShardId::for_meta(&bundle_at(3, "cam-b", 7200).meta, db.bucket_secs()).file_name();
        }
        std::fs::write(dir.join(&victim), b"NOTADB!!").unwrap();
        let db = ShardedDb::open(&dir).unwrap();
        let routes = db.shard_routes();
        assert_eq!(routes.len(), 2);
        let cam_a = routes
            .iter()
            .find(|r| r.camera == "cam-a")
            .expect("cam-a route");
        assert_eq!(cam_a.bucket, 0);
        match &cam_a.status {
            RouteStatus::Healthy { clips } => {
                assert_eq!(
                    clips.iter().map(|c| c.clip_id).collect::<Vec<_>>(),
                    vec![1, 2]
                );
                assert_eq!(clips[0].camera, "cam-a");
                assert_eq!(clips[0].start_time, 0);
                assert_eq!(clips[0].frame_count, 400);
            }
            other => panic!("cam-a should be healthy, got {other:?}"),
        }
        let cam_b = routes
            .iter()
            .find(|r| r.camera == "cam-b")
            .expect("cam-b route");
        assert_eq!((cam_b.bucket, cam_b.file.as_str()), (2, victim.as_str()));
        assert!(matches!(&cam_b.status, RouteStatus::Quarantined { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
