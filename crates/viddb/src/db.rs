//! The video database: log + catalog + metadata queries.

use crate::codec::{Reader, Writer};
use crate::error::{DbError, Result};
use crate::frames::{FrameCodec, StoredFrame};
use crate::log::{CorruptRegion, Log};
use crate::record::{
    ClipBundle, ClipMeta, IndexSegment, SessionRow, INDEX_COMPRESSED_VERSION, INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
};
use crate::storage::Storage;
use std::collections::BTreeMap;
use std::path::Path;

/// Record type tags in the log.
const TAG_CLIP: u8 = 1;
const TAG_SESSION: u8 = 2;
const TAG_TOMBSTONE: u8 = 3;
const TAG_VIDEO: u8 = 4;
const TAG_INDEX: u8 = 5;
/// Compressed feature-index segment (XOR-delta + bit-packed f64 rows).
/// A *new* tag rather than a version bump inside tag 5 so archives
/// written before compression existed still decode byte-for-byte
/// through the old path.
const TAG_INDEX_C: u8 = 6;

/// One quarantined clip: its stored record failed integrity checks at
/// query time, so the database serves every *other* clip and reports
/// this one here instead of failing the query path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// The quarantined clip.
    pub clip_id: u64,
    /// Log offset of the corrupt record.
    pub offset: u64,
    /// Human-readable description of what failed.
    pub reason: String,
}

/// Result of a full-database integrity pass ([`VideoDb::verify`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Records examined (clips + sessions + video segments).
    pub records_checked: usize,
    /// Clips that decoded cleanly.
    pub clips_intact: usize,
    /// Clips quarantined by this pass (or already quarantined).
    pub clips_quarantined: usize,
    /// Session records dropped as corrupt.
    pub sessions_dropped: usize,
    /// Video segment records dropped as corrupt.
    pub segments_dropped: usize,
    /// Feature-index segments dropped as corrupt (rebuildable from the
    /// clip, so dropping is always safe).
    pub indexes_dropped: usize,
    /// Corrupt byte ranges the open-time scan skipped.
    pub corrupt_regions: usize,
}

impl VerifyReport {
    /// Whether the pass found no damage anywhere.
    pub fn is_clean(&self) -> bool {
        self.clips_quarantined == 0
            && self.sessions_dropped == 0
            && self.segments_dropped == 0
            && self.indexes_dropped == 0
            && self.corrupt_regions == 0
    }
}

/// Everything the database currently knows about stored-data damage.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Clips quarantined at query time.
    pub quarantined_clips: Vec<QuarantineEntry>,
    /// Corrupt byte ranges skipped by open-time recovery.
    pub corrupt_regions: Vec<CorruptRegion>,
    /// Bytes of torn tail truncated at open.
    pub truncated_tail_bytes: u64,
    /// Whether a torn file header was re-initialised at open.
    pub recovered_header: bool,
}

impl FaultReport {
    /// Whether no damage has been observed.
    pub fn is_clean(&self) -> bool {
        self.quarantined_clips.is_empty()
            && self.corrupt_regions.is_empty()
            && self.truncated_tail_bytes == 0
            && !self.recovered_header
    }
}

/// The transportation surveillance video database.
///
/// Clips are stored as single checksummed log records; the catalog
/// (clip metadata and record offsets) is rebuilt by scanning the log on
/// open, and full bundles are decoded (and CRC-checked) on every load.
pub struct VideoDb {
    log: Log,
    /// clip_id -> (metadata, log offset of the bundle record).
    catalog: BTreeMap<u64, (ClipMeta, u64)>,
    /// Session records: (session_id, clip_id, offset).
    sessions: Vec<(u64, u64, u64)>,
    /// Video segments: (clip_id, start_frame, frame_count, offset).
    video_segments: Vec<(u64, u32, u32, u64)>,
    /// Feature indexes: clip_id -> log offset (later records win).
    indexes: BTreeMap<u64, u64>,
    /// Clips whose stored record failed integrity checks at query time.
    quarantined: BTreeMap<u64, QuarantineEntry>,
}

impl VideoDb {
    /// Creates an ephemeral in-memory database.
    ///
    /// ```
    /// use tsvr_viddb::{ClipBundle, ClipMeta, VideoDb};
    ///
    /// let mut db = VideoDb::in_memory();
    /// db.put_clip(&ClipBundle {
    ///     meta: ClipMeta {
    ///         clip_id: 1,
    ///         name: "demo".into(),
    ///         location: "tunnel-17".into(),
    ///         camera: "cam-1".into(),
    ///         start_time: 0,
    ///         frame_count: 100,
    ///         width: 320,
    ///         height: 240,
    ///     },
    ///     tracks: vec![],
    ///     windows: vec![],
    ///     incidents: vec![],
    /// })
    /// .unwrap();
    /// assert_eq!(db.find_by_location("tunnel-17").len(), 1);
    /// assert_eq!(db.load_clip(1).unwrap().meta.name, "demo");
    /// ```
    pub fn in_memory() -> VideoDb {
        VideoDb::from_log(Log::in_memory()).expect("in-memory open cannot fail")
    }

    /// Opens (or creates) a file-backed database, rebuilding the
    /// catalog from the log.
    pub fn open(path: &Path) -> Result<VideoDb> {
        VideoDb::from_log(Log::open(path)?)
    }

    /// Opens a database over any [`Storage`] backend (e.g. the
    /// fault-injecting test backend, or a recovered crash image wrapped
    /// in `MemStorage`).
    pub fn with_storage(storage: Box<dyn Storage>) -> Result<VideoDb> {
        VideoDb::from_log(Log::with_storage(storage)?)
    }

    /// Builds a database over an already-opened log.
    pub fn from_log(log: Log) -> Result<VideoDb> {
        let mut db = VideoDb {
            log,
            catalog: BTreeMap::new(),
            sessions: Vec::new(),
            video_segments: Vec::new(),
            indexes: BTreeMap::new(),
            quarantined: BTreeMap::new(),
        };
        db.rebuild_catalog()?;
        Ok(db)
    }

    fn rebuild_catalog(&mut self) -> Result<()> {
        let records = self.log.scan()?;
        for (offset, payload) in records {
            // A record that passes the log CRC but fails structural
            // decode is still corruption — skip it rather than failing
            // the whole open, matching the quarantine philosophy.
            if let Err(e) = self.index_record(offset, &payload) {
                if e.is_corruption() {
                    tsvr_obs::counter!("viddb.fault.detected").incr();
                    continue;
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Indexes one scanned record into the in-memory catalog.
    fn index_record(&mut self, offset: u64, payload: &[u8]) -> Result<()> {
        let mut r = Reader::new(payload);
        match r.get_u8()? {
            TAG_CLIP => {
                let meta = ClipMeta::decode(&mut r)?;
                // Later records win (e.g. after compaction replay).
                self.catalog.insert(meta.clip_id, (meta, offset));
            }
            TAG_SESSION => {
                let session_id = r.get_u64()?;
                let clip_id = r.get_u64()?;
                self.sessions.push((session_id, clip_id, offset));
            }
            TAG_TOMBSTONE => {
                let clip_id = r.get_u64()?;
                self.catalog.remove(&clip_id);
                self.video_segments.retain(|&(cid, _, _, _)| cid != clip_id);
                self.indexes.remove(&clip_id);
            }
            TAG_VIDEO => {
                let clip_id = r.get_u64()?;
                let start_frame = r.get_u32()?;
                let frame_count = r.get_u32()?;
                self.video_segments
                    .push((clip_id, start_frame, frame_count, offset));
            }
            TAG_INDEX => {
                // Only the header is decoded here; the full segment is
                // decode-checked lazily at load time (and by `verify`).
                if r.get_u32()? != INDEX_MAGIC || r.get_u32()? != INDEX_FORMAT_VERSION {
                    return Err(DbError::BadMagic);
                }
                let clip_id = r.get_u64()?;
                self.indexes.insert(clip_id, offset);
            }
            TAG_INDEX_C => {
                if r.get_u32()? != INDEX_MAGIC || r.get_u32()? != INDEX_COMPRESSED_VERSION {
                    return Err(DbError::BadMagic);
                }
                let clip_id = r.get_u64()?;
                self.indexes.insert(clip_id, offset);
            }
            t => return Err(DbError::UnknownRecordType(t)),
        }
        Ok(())
    }

    /// Stores a clip bundle. Fails on duplicate clip ids.
    pub fn put_clip(&mut self, bundle: &ClipBundle) -> Result<()> {
        let _span = tsvr_obs::span!("viddb.put_clip");
        let id = bundle.meta.clip_id;
        if self.catalog.contains_key(&id) {
            return Err(DbError::DuplicateClip(id));
        }
        let mut w = Writer::new();
        w.put_u8(TAG_CLIP);
        // The metadata is encoded first so the catalog can be rebuilt
        // without decoding whole bundles.
        bundle.meta.encode(&mut w)?;
        w.put_len(bundle.tracks.len(), "bundle tracks")?;
        for t in &bundle.tracks {
            t.encode(&mut w)?;
        }
        w.put_len(bundle.windows.len(), "bundle windows")?;
        for win in &bundle.windows {
            win.encode(&mut w)?;
        }
        w.put_len(bundle.incidents.len(), "bundle incidents")?;
        for inc in &bundle.incidents {
            inc.encode(&mut w)?;
        }
        let offset = self.log.append(&w.into_bytes())?;
        self.catalog.insert(id, (bundle.meta.clone(), offset));
        // Re-ingesting a quarantined clip repairs it: the fresh record
        // supersedes the corrupt one.
        self.quarantined.remove(&id);
        Ok(())
    }

    fn decode_bundle(payload: &[u8]) -> Result<ClipBundle> {
        let mut r = Reader::new(payload);
        let tag = r.get_u8()?;
        if tag != TAG_CLIP {
            return Err(DbError::UnknownRecordType(tag));
        }
        let meta = ClipMeta::decode(&mut r)?;
        let n = r.get_len_bounded(16)?; // u64 + u32 + u32 header per track
        let mut tracks = Vec::with_capacity(n);
        for _ in 0..n {
            tracks.push(crate::record::TrackRow::decode(&mut r)?);
        }
        let n = r.get_len_bounded(16)?; // 4 × u32 header per window
        let mut windows = Vec::with_capacity(n);
        for _ in 0..n {
            windows.push(crate::record::WindowRow::decode(&mut r)?);
        }
        let n = r.get_len_bounded(16)?; // str len + 3 × u32 per incident
        let mut incidents = Vec::with_capacity(n);
        for _ in 0..n {
            incidents.push(crate::record::IncidentRow::decode(&mut r)?);
        }
        Ok(ClipBundle {
            meta,
            tracks,
            windows,
            incidents,
        })
    }

    /// Loads and decodes a full clip bundle. Every call reads the
    /// record from the log and checks its CRC, so damage written after
    /// an earlier load is caught, never served stale.
    ///
    /// If the stored record turns out to be corrupt, the clip is
    /// quarantined — removed from the catalog and reported via
    /// [`VideoDb::quarantined`] — and [`DbError::ClipQuarantined`] is
    /// returned. Every other clip stays retrievable.
    pub fn load_clip(&mut self, clip_id: u64) -> Result<ClipBundle> {
        if self.quarantined.contains_key(&clip_id) {
            return Err(DbError::ClipQuarantined(clip_id));
        }
        let _span = tsvr_obs::span!("viddb.load_clip");
        let &(_, offset) = self
            .catalog
            .get(&clip_id)
            .ok_or(DbError::ClipNotFound(clip_id))?;
        match self
            .log
            .read(offset)
            .and_then(|payload| Self::decode_bundle(&payload))
        {
            Err(e) if e.is_corruption() => {
                self.quarantine_clip(clip_id, offset, &e);
                Err(DbError::ClipQuarantined(clip_id))
            }
            decoded => decoded,
        }
    }

    /// Moves a clip with a corrupt stored record out of the catalog and
    /// into the quarantine report.
    fn quarantine_clip(&mut self, clip_id: u64, offset: u64, cause: &DbError) {
        tsvr_obs::counter!("viddb.fault.detected").incr();
        tsvr_obs::counter!("viddb.fault.quarantined").incr();
        // Data loss in progress: dump the flight recorder alongside the
        // incident so the faulty window is inspectable post-mortem.
        tsvr_obs::trace::incident_dump(
            "viddb.quarantine",
            &format!("clip {clip_id} at offset {offset}: {cause}"),
        );
        self.catalog.remove(&clip_id);
        self.quarantined.insert(
            clip_id,
            QuarantineEntry {
                clip_id,
                offset,
                reason: cause.to_string(),
            },
        );
    }

    /// Stores (or replaces) the persistent feature index of a clip. The
    /// clip itself must exist — an index is derived data and never
    /// outlives its source record.
    pub fn put_index(&mut self, segment: &IndexSegment) -> Result<()> {
        let _span = tsvr_obs::span!("viddb.put_index");
        if !self.catalog.contains_key(&segment.clip_id) {
            return Err(DbError::ClipNotFound(segment.clip_id));
        }
        let mut w = Writer::new();
        // New indexes are written compressed (tag 6). Uncompressed tag-5
        // records from older archives remain readable forever — the tag
        // selects the decode path.
        w.put_u8(TAG_INDEX_C);
        segment.encode_compressed(&mut w)?;
        let offset = self.log.append(&w.into_bytes())?;
        self.indexes.insert(segment.clip_id, offset);
        Ok(())
    }

    /// Decodes an index record payload, dispatching on the record tag
    /// (uncompressed tag 5 vs compressed tag 6).
    fn decode_index_payload(payload: &[u8]) -> Result<IndexSegment> {
        let mut r = Reader::new(payload);
        match r.get_u8()? {
            TAG_INDEX => IndexSegment::decode(&mut r),
            TAG_INDEX_C => IndexSegment::decode_compressed(&mut r),
            t => Err(DbError::UnknownRecordType(t)),
        }
    }

    /// Loads the stored feature index of a clip, if one exists.
    ///
    /// A corrupt index segment is *dropped*, not quarantined: unlike a
    /// clip it is fully re-derivable, so the method reports it as
    /// absent (`Ok(None)`) and the caller rebuilds. The source clip is
    /// untouched. Real I/O errors still propagate.
    pub fn load_index(&mut self, clip_id: u64) -> Result<Option<IndexSegment>> {
        let Some(&offset) = self.indexes.get(&clip_id) else {
            return Ok(None);
        };
        let _span = tsvr_obs::span!("viddb.load_index");
        let decoded = self.log.read(offset).and_then(|payload| {
            let seg = Self::decode_index_payload(&payload)?;
            if seg.clip_id != clip_id {
                return Err(DbError::BadMagic);
            }
            Ok(seg)
        });
        match decoded {
            Ok(seg) => Ok(Some(seg)),
            Err(e) if e.is_corruption() => {
                tsvr_obs::counter!("viddb.fault.detected").incr();
                self.indexes.remove(&clip_id);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Number of stored feature indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Deletes a clip (tombstone append; space is reclaimed by
    /// [`VideoDb::compact`]).
    pub fn delete_clip(&mut self, clip_id: u64) -> Result<()> {
        // Deleting a quarantined clip is allowed: the tombstone makes
        // sure the corrupt record can never resurface.
        if !self.catalog.contains_key(&clip_id) && !self.quarantined.contains_key(&clip_id) {
            return Err(DbError::ClipNotFound(clip_id));
        }
        let mut w = Writer::new();
        w.put_u8(TAG_TOMBSTONE);
        w.put_u64(clip_id);
        self.log.append(&w.into_bytes())?;
        self.catalog.remove(&clip_id);
        self.quarantined.remove(&clip_id);
        self.indexes.remove(&clip_id);
        Ok(())
    }

    /// Durability point: flushes and syncs the log. Mutations are only
    /// guaranteed to survive a crash after `sync` returns `Ok`.
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// Metadata of one clip.
    pub fn meta(&self, clip_id: u64) -> Option<&ClipMeta> {
        self.catalog.get(&clip_id).map(|(m, _)| m)
    }

    /// All clips, ordered by id.
    pub fn list_clips(&self) -> Vec<&ClipMeta> {
        self.catalog.values().map(|(m, _)| m).collect()
    }

    /// Number of stored clips.
    pub fn clip_count(&self) -> usize {
        self.catalog.len()
    }

    /// Clips captured at a location.
    pub fn find_by_location(&self, location: &str) -> Vec<&ClipMeta> {
        self.catalog
            .values()
            .map(|(m, _)| m)
            .filter(|m| m.location == location)
            .collect()
    }

    /// Clips captured by a camera.
    pub fn find_by_camera(&self, camera: &str) -> Vec<&ClipMeta> {
        self.catalog
            .values()
            .map(|(m, _)| m)
            .filter(|m| m.camera == camera)
            .collect()
    }

    /// Clips whose capture start time falls in `[from, to]`.
    pub fn find_by_time_range(&self, from: u64, to: u64) -> Vec<&ClipMeta> {
        self.catalog
            .values()
            .map(|(m, _)| m)
            .filter(|m| m.start_time >= from && m.start_time <= to)
            .collect()
    }

    /// Persists one retrieval session.
    pub fn put_session(&mut self, session: &SessionRow) -> Result<()> {
        let mut w = Writer::new();
        w.put_u8(TAG_SESSION);
        session.encode(&mut w)?;
        let offset = self.log.append(&w.into_bytes())?;
        self.sessions
            .push((session.session_id, session.clip_id, offset));
        Ok(())
    }

    /// Loads every session recorded against a clip. Corrupt session
    /// records are dropped (and counted via `viddb.fault.*`) rather
    /// than failing the query; real I/O errors still propagate.
    pub fn sessions_for_clip(&mut self, clip_id: u64) -> Result<Vec<SessionRow>> {
        let offsets: Vec<u64> = self
            .sessions
            .iter()
            .filter(|&&(_, cid, _)| cid == clip_id)
            .map(|&(_, _, off)| off)
            .collect();
        let mut out = Vec::with_capacity(offsets.len());
        for off in offsets {
            match self.log.read(off).and_then(|payload| {
                let mut r = Reader::new(&payload);
                let tag = r.get_u8()?;
                if tag != TAG_SESSION {
                    return Err(DbError::UnknownRecordType(tag));
                }
                SessionRow::decode(&mut r)
            }) {
                Ok(row) => out.push(row),
                Err(e) if e.is_corruption() => {
                    tsvr_obs::counter!("viddb.fault.detected").incr();
                    self.sessions.retain(|&(_, _, o)| o != off);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Number of stored sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The highest session id the database has recorded, `0` when no
    /// sessions exist. A session service mints fresh ids above this so
    /// restarts never collide with persisted checkpoints.
    pub fn max_session_id(&self) -> u64 {
        self.sessions
            .iter()
            .map(|&(sid, _, _)| sid)
            .max()
            .unwrap_or(0)
    }

    /// `(session_id, clip_id)` of every stored session record, in log
    /// order — checkpointed sessions appear once per checkpoint, later
    /// entries superseding earlier ones. Cheap (reads the in-memory
    /// index only); decode the rows you need via
    /// [`VideoDb::sessions_for_clip`].
    pub fn session_index(&self) -> Vec<(u64, u64)> {
        self.sessions
            .iter()
            .map(|&(sid, cid, _)| (sid, cid))
            .collect()
    }

    /// Stores a segment of video frames for a clip (the clip must
    /// already exist). Frames are quantized/delta/RLE compressed by
    /// `codec`; `start_frame` is the absolute index of the first frame.
    pub fn put_video_segment(
        &mut self,
        clip_id: u64,
        start_frame: u32,
        frames: &[StoredFrame],
        codec: FrameCodec,
    ) -> Result<()> {
        if !self.catalog.contains_key(&clip_id) {
            return Err(DbError::ClipNotFound(clip_id));
        }
        let payload = codec.encode_segment(frames)?;
        let mut w = Writer::new();
        w.put_u8(TAG_VIDEO);
        w.put_u64(clip_id);
        w.put_u32(start_frame);
        w.put_len(frames.len(), "video frames")?;
        w.put_bytes(&payload)?;
        let offset = self.log.append(&w.into_bytes())?;
        self.video_segments
            .push((clip_id, start_frame, frames.len() as u32, offset));
        Ok(())
    }

    /// Loads the frames of a clip overlapping `[from, to)`, returned as
    /// `(absolute_frame_index, frame)` pairs in frame order. Frames the
    /// database never stored are simply absent from the result.
    pub fn load_frames(
        &mut self,
        clip_id: u64,
        from: u32,
        to: u32,
    ) -> Result<Vec<(u32, StoredFrame)>> {
        let segments: Vec<(u32, u32, u64)> = self
            .video_segments
            .iter()
            .filter(|&&(cid, start, count, _)| cid == clip_id && start < to && start + count > from)
            .map(|&(_, start, count, off)| (start, count, off))
            .collect();
        let mut out = Vec::new();
        for (start, _, off) in segments {
            let decoded = self.log.read(off).and_then(|record| {
                let mut r = Reader::new(&record);
                let tag = r.get_u8()?;
                if tag != TAG_VIDEO {
                    return Err(DbError::UnknownRecordType(tag));
                }
                let _clip = r.get_u64()?;
                let _start = r.get_u32()?;
                let _count = r.get_u32()?;
                FrameCodec::decode_segment(r.get_bytes()?)
            });
            match decoded {
                Ok(frames) => {
                    for (i, f) in frames.into_iter().enumerate() {
                        let abs = start + i as u32;
                        if abs >= from && abs < to {
                            out.push((abs, f));
                        }
                    }
                }
                // A corrupt segment drops out of the result (those
                // frames are simply absent) instead of failing the
                // whole playback query.
                Err(e) if e.is_corruption() => {
                    tsvr_obs::counter!("viddb.fault.detected").incr();
                    tsvr_obs::trace::incident(
                        "viddb.segment.dropped",
                        &format!("corrupt segment at offset {off} dropped from playback: {e}"),
                    );
                    self.video_segments.retain(|&(_, _, _, o)| o != off);
                }
                Err(e) => return Err(e),
            }
        }
        out.sort_by_key(|&(abs, _)| abs);
        Ok(out)
    }

    /// Number of stored video segments.
    pub fn video_segment_count(&self) -> usize {
        self.video_segments.len()
    }

    /// Bytes in the log (including dead records awaiting compaction).
    pub fn log_size(&self) -> u64 {
        self.log.len()
    }

    /// Rewrites the log keeping only live, *intact* records — reclaims
    /// space from deleted clips and drops corrupt records for good
    /// (quarantined clips whose bytes are damaged are not carried
    /// over; re-ingest them to repair). The rewritten log is synced.
    pub fn compact(&mut self) -> Result<()> {
        let _span = tsvr_obs::span!("viddb.compact");
        // Collect live payloads before resetting, dropping any record
        // that no longer passes integrity checks.
        let mut live: Vec<Vec<u8>> = Vec::new();
        let clip_offsets: Vec<(u64, u64)> = self
            .catalog
            .iter()
            .map(|(&id, &(_, off))| (id, off))
            .collect();
        for (id, off) in clip_offsets {
            match self
                .log
                .read(off)
                .and_then(|p| Self::decode_bundle(&p).map(|_| p))
            {
                Ok(payload) => live.push(payload),
                Err(e) if e.is_corruption() => self.quarantine_clip(id, off, &e),
                Err(e) => return Err(e),
            }
        }
        let session_offsets: Vec<u64> = self.sessions.iter().map(|&(_, _, off)| off).collect();
        for off in session_offsets {
            match self.log.read(off) {
                Ok(payload) => live.push(payload),
                Err(e) if e.is_corruption() => {
                    tsvr_obs::counter!("viddb.fault.detected").incr();
                    self.sessions.retain(|&(_, _, o)| o != off);
                }
                Err(e) => return Err(e),
            }
        }
        let video_offsets: Vec<u64> = self
            .video_segments
            .iter()
            .map(|&(_, _, _, off)| off)
            .collect();
        for off in video_offsets {
            match self.log.read(off) {
                Ok(payload) => live.push(payload),
                Err(e) if e.is_corruption() => {
                    tsvr_obs::counter!("viddb.fault.detected").incr();
                    self.video_segments.retain(|&(_, _, _, o)| o != off);
                }
                Err(e) => return Err(e),
            }
        }
        // Index segments are decode-checked like clips: a corrupt index
        // silently vanishes (it is re-derivable), an intact one is
        // carried over.
        let index_offsets: Vec<(u64, u64)> =
            self.indexes.iter().map(|(&id, &off)| (id, off)).collect();
        for (id, off) in index_offsets {
            match self
                .log
                .read(off)
                .and_then(|p| Self::decode_index_payload(&p).map(|_| p))
            {
                Ok(payload) => live.push(payload),
                Err(e) if e.is_corruption() => {
                    tsvr_obs::counter!("viddb.fault.detected").incr();
                    self.indexes.remove(&id);
                }
                Err(e) => return Err(e),
            }
        }
        self.log.reset()?;
        self.catalog.clear();
        self.sessions.clear();
        self.video_segments.clear();
        self.indexes.clear();
        for payload in live {
            self.log.append(&payload)?;
        }
        // Rebuild offsets and make the rewrite durable.
        self.rebuild_catalog()?;
        self.log.sync()
    }

    /// Full-database integrity pass: decode-checks every clip, session,
    /// and video segment record, quarantining/dropping what fails. The
    /// database keeps serving everything that passed.
    pub fn verify(&mut self) -> Result<VerifyReport> {
        let _span = tsvr_obs::span!("viddb.verify");
        let mut report = VerifyReport {
            corrupt_regions: self.log.recovery_report().regions.len(),
            clips_quarantined: self.quarantined.len(),
            ..VerifyReport::default()
        };
        let clip_offsets: Vec<(u64, u64)> = self
            .catalog
            .iter()
            .map(|(&id, &(_, off))| (id, off))
            .collect();
        for (id, off) in clip_offsets {
            report.records_checked += 1;
            match self
                .log
                .read(off)
                .and_then(|p| Self::decode_bundle(&p).map(|_| ()))
            {
                Ok(()) => report.clips_intact += 1,
                Err(e) if e.is_corruption() => {
                    self.quarantine_clip(id, off, &e);
                    report.clips_quarantined += 1;
                }
                Err(e) => return Err(e),
            }
        }
        let session_offsets: Vec<u64> = self.sessions.iter().map(|&(_, _, off)| off).collect();
        for off in session_offsets {
            report.records_checked += 1;
            let ok = self.log.read(off).and_then(|p| {
                let mut r = Reader::new(&p);
                let tag = r.get_u8()?;
                if tag != TAG_SESSION {
                    return Err(DbError::UnknownRecordType(tag));
                }
                SessionRow::decode(&mut r).map(|_| ())
            });
            match ok {
                Ok(()) => {}
                Err(e) if e.is_corruption() => {
                    tsvr_obs::counter!("viddb.fault.detected").incr();
                    self.sessions.retain(|&(_, _, o)| o != off);
                    report.sessions_dropped += 1;
                }
                Err(e) => return Err(e),
            }
        }
        let video_offsets: Vec<u64> = self
            .video_segments
            .iter()
            .map(|&(_, _, _, off)| off)
            .collect();
        for off in video_offsets {
            report.records_checked += 1;
            let ok = self.log.read(off).and_then(|p| {
                let mut r = Reader::new(&p);
                let tag = r.get_u8()?;
                if tag != TAG_VIDEO {
                    return Err(DbError::UnknownRecordType(tag));
                }
                let _ = r.get_u64()?;
                let _ = r.get_u32()?;
                let _ = r.get_u32()?;
                FrameCodec::decode_segment(r.get_bytes()?).map(|_| ())
            });
            match ok {
                Ok(()) => {}
                Err(e) if e.is_corruption() => {
                    tsvr_obs::counter!("viddb.fault.detected").incr();
                    self.video_segments.retain(|&(_, _, _, o)| o != off);
                    report.segments_dropped += 1;
                }
                Err(e) => return Err(e),
            }
        }
        let index_offsets: Vec<(u64, u64)> =
            self.indexes.iter().map(|(&id, &off)| (id, off)).collect();
        for (id, off) in index_offsets {
            report.records_checked += 1;
            let ok = self
                .log
                .read(off)
                .and_then(|p| Self::decode_index_payload(&p).map(|_| ()));
            match ok {
                Ok(()) => {}
                Err(e) if e.is_corruption() => {
                    tsvr_obs::counter!("viddb.fault.detected").incr();
                    self.indexes.remove(&id);
                    report.indexes_dropped += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Clips currently quarantined (corrupt stored records), ordered by
    /// clip id.
    pub fn quarantined(&self) -> Vec<&QuarantineEntry> {
        self.quarantined.values().collect()
    }

    /// Everything currently known about stored-data damage: quarantined
    /// clips plus what open-time recovery found.
    pub fn fault_report(&self) -> FaultReport {
        let recovery = self.log.recovery_report();
        FaultReport {
            quarantined_clips: self.quarantined.values().cloned().collect(),
            corrupt_regions: recovery.regions.clone(),
            truncated_tail_bytes: recovery.truncated_tail,
            recovered_header: recovery.recovered_header,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_fixtures::{sample_bundle, sample_index};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tsvr-db-test-{}-{name}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn put_and_load_round_trip() {
        let mut db = VideoDb::in_memory();
        let b = sample_bundle(1);
        db.put_clip(&b).unwrap();
        let loaded = db.load_clip(1).unwrap();
        assert_eq!(loaded, b);
        assert_eq!(db.clip_count(), 1);
    }

    #[test]
    fn duplicate_clip_rejected() {
        let mut db = VideoDb::in_memory();
        db.put_clip(&sample_bundle(1)).unwrap();
        assert!(matches!(
            db.put_clip(&sample_bundle(1)).unwrap_err(),
            DbError::DuplicateClip(1)
        ));
    }

    #[test]
    fn missing_clip_errors() {
        let mut db = VideoDb::in_memory();
        assert!(matches!(
            db.load_clip(9).unwrap_err(),
            DbError::ClipNotFound(9)
        ));
        assert!(db.meta(9).is_none());
    }

    #[test]
    fn on_disk_rot_after_a_first_load_is_quarantined() {
        use std::io::{Read, Seek, SeekFrom, Write};
        let path = temp_path("rot-after-load");
        let mut db = VideoDb::open(&path).unwrap();
        db.put_clip(&sample_bundle(1)).unwrap();
        db.sync().unwrap();
        assert_eq!(db.load_clip(1).unwrap(), sample_bundle(1));

        // Flip one byte inside the bundle record's payload (past the
        // 8-byte length + CRC frame header) behind the open handle.
        let at = db.catalog[&1].1 + 8 + 4;
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let mut byte = [0u8];
        file.seek(SeekFrom::Start(at)).unwrap();
        file.read_exact(&mut byte).unwrap();
        file.seek(SeekFrom::Start(at)).unwrap();
        file.write_all(&[byte[0] ^ 0xFF]).unwrap();
        file.sync_all().unwrap();

        assert!(matches!(
            db.load_clip(1).unwrap_err(),
            DbError::ClipQuarantined(1)
        ));
        let quarantined: Vec<u64> = db.quarantined().iter().map(|q| q.clip_id).collect();
        assert_eq!(quarantined, vec![1]);
        drop(db);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metadata_queries() {
        let mut db = VideoDb::in_memory();
        let mut b1 = sample_bundle(1);
        b1.meta.location = "tunnel-17".into();
        b1.meta.camera = "cam-a".into();
        b1.meta.start_time = 100;
        let mut b2 = sample_bundle(2);
        b2.meta.location = "intersection-3".into();
        b2.meta.camera = "cam-b".into();
        b2.meta.start_time = 200;
        db.put_clip(&b1).unwrap();
        db.put_clip(&b2).unwrap();

        assert_eq!(db.find_by_location("tunnel-17").len(), 1);
        assert_eq!(db.find_by_location("nowhere").len(), 0);
        assert_eq!(db.find_by_camera("cam-b")[0].clip_id, 2);
        assert_eq!(db.find_by_time_range(0, 150).len(), 1);
        assert_eq!(db.find_by_time_range(0, 300).len(), 2);
        assert_eq!(db.list_clips().len(), 2);
    }

    #[test]
    fn delete_and_compact_reclaims_space() {
        let mut db = VideoDb::in_memory();
        db.put_clip(&sample_bundle(1)).unwrap();
        db.put_clip(&sample_bundle(2)).unwrap();
        let before = db.log_size();
        db.delete_clip(1).unwrap();
        assert!(db.meta(1).is_none());
        assert!(db.load_clip(1).is_err());
        db.compact().unwrap();
        assert!(db.log_size() < before, "compaction did not shrink the log");
        // Clip 2 survives compaction intact.
        let b2 = db.load_clip(2).unwrap();
        assert_eq!(b2.meta.clip_id, 2);
    }

    #[test]
    fn delete_missing_clip_errors() {
        let mut db = VideoDb::in_memory();
        assert!(db.delete_clip(5).is_err());
    }

    #[test]
    fn sessions_round_trip() {
        let mut db = VideoDb::in_memory();
        db.put_clip(&sample_bundle(1)).unwrap();
        let s = SessionRow {
            session_id: 100,
            clip_id: 1,
            query: "accident".into(),
            learner: "MIL_OneClassSVM".into(),
            feedback: vec![vec![(0, true)]],
            accuracies: vec![0.4, 0.6],
        };
        db.put_session(&s).unwrap();
        let got = db.sessions_for_clip(1).unwrap();
        assert_eq!(got, vec![s.clone()]);
        assert!(db.sessions_for_clip(2).unwrap().is_empty());
        assert_eq!(db.session_count(), 1);
        assert_eq!(db.max_session_id(), 100);
        // A checkpointed session appears once per stored row.
        db.put_session(&SessionRow {
            session_id: 100,
            feedback: vec![vec![(0, true)], vec![(1, false)]],
            ..s
        })
        .unwrap();
        assert_eq!(db.session_index(), vec![(100, 1), (100, 1)]);
        assert_eq!(db.max_session_id(), 100);
    }

    #[test]
    fn max_session_id_empty_db_is_zero() {
        let db = VideoDb::in_memory();
        assert_eq!(db.max_session_id(), 0);
        assert!(db.session_index().is_empty());
    }

    #[test]
    fn file_db_persists_catalog_and_sessions() {
        let path = temp_path("persist");
        {
            let mut db = VideoDb::open(&path).unwrap();
            db.put_clip(&sample_bundle(7)).unwrap();
            db.put_session(&SessionRow {
                session_id: 1,
                clip_id: 7,
                query: "accident".into(),
                learner: "Weighted_RF".into(),
                feedback: vec![],
                accuracies: vec![0.4],
            })
            .unwrap();
        }
        {
            let mut db = VideoDb::open(&path).unwrap();
            assert_eq!(db.clip_count(), 1);
            assert_eq!(db.meta(7).unwrap().location, "tunnel-17");
            let bundle = db.load_clip(7).unwrap();
            assert_eq!(bundle.tracks.len(), 2);
            assert_eq!(db.sessions_for_clip(7).unwrap().len(), 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn deletion_survives_reopen() {
        let path = temp_path("tombstone");
        {
            let mut db = VideoDb::open(&path).unwrap();
            db.put_clip(&sample_bundle(1)).unwrap();
            db.put_clip(&sample_bundle(2)).unwrap();
            db.delete_clip(1).unwrap();
        }
        {
            let db = VideoDb::open(&path).unwrap();
            assert_eq!(db.clip_count(), 1);
            assert!(db.meta(1).is_none());
            assert!(db.meta(2).is_some());
        }
        std::fs::remove_file(&path).unwrap();
    }

    fn tiny_frame(v: u8) -> StoredFrame {
        StoredFrame::new(8, 6, vec![v; 48]).unwrap()
    }

    #[test]
    fn video_segments_round_trip() {
        let mut db = VideoDb::in_memory();
        db.put_clip(&sample_bundle(1)).unwrap();
        let frames: Vec<StoredFrame> = (0..10).map(|i| tiny_frame(40 + i * 8)).collect();
        db.put_video_segment(1, 100, &frames, FrameCodec { quant_step: 1 })
            .unwrap();
        assert_eq!(db.video_segment_count(), 1);

        // Full range.
        let got = db.load_frames(1, 100, 110).unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, 100);
        assert_eq!(got[0].1, frames[0]);
        assert_eq!(got[9].1, frames[9]);

        // Partial overlap.
        let got = db.load_frames(1, 105, 200).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].0, 105);

        // Disjoint range and wrong clip.
        assert!(db.load_frames(1, 0, 50).unwrap().is_empty());
        assert!(db.load_frames(2, 100, 110).unwrap().is_empty());
    }

    #[test]
    fn video_segments_require_existing_clip() {
        let mut db = VideoDb::in_memory();
        let frames = vec![tiny_frame(90)];
        assert!(matches!(
            db.put_video_segment(9, 0, &frames, FrameCodec::default())
                .unwrap_err(),
            DbError::ClipNotFound(9)
        ));
    }

    #[test]
    fn video_segments_span_multiple_records() {
        let mut db = VideoDb::in_memory();
        db.put_clip(&sample_bundle(1)).unwrap();
        let codec = FrameCodec { quant_step: 1 };
        db.put_video_segment(1, 0, &[tiny_frame(10), tiny_frame(20)], codec)
            .unwrap();
        db.put_video_segment(1, 2, &[tiny_frame(30), tiny_frame(40)], codec)
            .unwrap();
        let got = db.load_frames(1, 1, 4).unwrap();
        assert_eq!(
            got.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(got[0].1.pixels[0], 20);
        assert_eq!(got[2].1.pixels[0], 40);
    }

    #[test]
    fn video_survives_reopen_and_compaction() {
        let path = temp_path("video");
        {
            let mut db = VideoDb::open(&path).unwrap();
            db.put_clip(&sample_bundle(1)).unwrap();
            db.put_clip(&sample_bundle(2)).unwrap();
            db.put_video_segment(1, 0, &[tiny_frame(77)], FrameCodec { quant_step: 1 })
                .unwrap();
            db.delete_clip(2).unwrap();
            db.compact().unwrap();
        }
        {
            let mut db = VideoDb::open(&path).unwrap();
            assert_eq!(db.video_segment_count(), 1);
            let got = db.load_frames(1, 0, 1).unwrap();
            assert_eq!(got[0].1.pixels[0], 77);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn deleting_clip_drops_its_video_on_reopen() {
        let path = temp_path("video-del");
        {
            let mut db = VideoDb::open(&path).unwrap();
            db.put_clip(&sample_bundle(1)).unwrap();
            db.put_video_segment(1, 0, &[tiny_frame(9)], FrameCodec::default())
                .unwrap();
            db.delete_clip(1).unwrap();
        }
        {
            let db = VideoDb::open(&path).unwrap();
            assert_eq!(db.video_segment_count(), 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn index_put_load_round_trip() {
        let mut db = VideoDb::in_memory();
        db.put_clip(&sample_bundle(1)).unwrap();
        assert_eq!(db.load_index(1).unwrap(), None, "no index yet");
        let seg = sample_index(1);
        db.put_index(&seg).unwrap();
        assert_eq!(db.index_count(), 1);
        assert_eq!(db.load_index(1).unwrap(), Some(seg));
        assert_eq!(db.load_index(2).unwrap(), None);
    }

    #[test]
    fn index_requires_existing_clip() {
        let mut db = VideoDb::in_memory();
        assert!(matches!(
            db.put_index(&sample_index(4)).unwrap_err(),
            DbError::ClipNotFound(4)
        ));
    }

    #[test]
    fn index_replacement_latest_wins() {
        let mut db = VideoDb::in_memory();
        db.put_clip(&sample_bundle(1)).unwrap();
        db.put_index(&sample_index(1)).unwrap();
        let mut newer = sample_index(1);
        newer.config_hash = 42;
        db.put_index(&newer).unwrap();
        assert_eq!(db.index_count(), 1);
        assert_eq!(db.load_index(1).unwrap().unwrap().config_hash, 42);
    }

    #[test]
    fn deleting_clip_drops_its_index() {
        let mut db = VideoDb::in_memory();
        db.put_clip(&sample_bundle(1)).unwrap();
        db.put_index(&sample_index(1)).unwrap();
        db.delete_clip(1).unwrap();
        assert_eq!(db.index_count(), 0);
        assert_eq!(db.load_index(1).unwrap(), None);
    }

    #[test]
    fn legacy_uncompressed_index_records_still_load() {
        // Archives written before compression existed hold tag-5
        // records; they must keep loading, verifying, and surviving
        // compaction unchanged.
        let mut db = VideoDb::in_memory();
        db.put_clip(&sample_bundle(1)).unwrap();
        let seg = sample_index(1);
        let mut w = Writer::new();
        w.put_u8(TAG_INDEX);
        seg.encode(&mut w).unwrap();
        let off = db.log.append(&w.into_bytes()).unwrap();
        db.indexes.insert(1, off);
        assert_eq!(db.load_index(1).unwrap(), Some(seg.clone()));
        assert!(db.verify().unwrap().is_clean());
        db.compact().unwrap();
        assert_eq!(db.load_index(1).unwrap(), Some(seg));
    }

    #[test]
    fn compressed_index_smaller_than_uncompressed_for_regular_rows() {
        // Index features are regular measurement series; the tag-6
        // record must beat the tag-5 encoding for them.
        let mut seg = sample_index(1);
        seg.windows[0].track_ids = (0..32).collect();
        seg.windows[0].features = (0..32 * 9).map(|i| i as f64 * 0.25).collect();
        seg.windows[1].track_ids = (0..16).collect();
        seg.windows[1].features = (0..16 * 9).map(|i| 40.0 + i as f64 * 0.5).collect();
        let mut wu = Writer::new();
        seg.encode(&mut wu).unwrap();
        let mut wc = Writer::new();
        seg.encode_compressed(&mut wc).unwrap();
        assert!(
            wc.len() < wu.len(),
            "compressed {} >= uncompressed {}",
            wc.len(),
            wu.len()
        );
    }

    #[test]
    fn index_survives_reopen_and_compaction() {
        let path = temp_path("index");
        {
            let mut db = VideoDb::open(&path).unwrap();
            db.put_clip(&sample_bundle(1)).unwrap();
            db.put_clip(&sample_bundle(2)).unwrap();
            db.put_index(&sample_index(1)).unwrap();
            db.delete_clip(2).unwrap();
            db.compact().unwrap();
        }
        {
            let mut db = VideoDb::open(&path).unwrap();
            assert_eq!(db.index_count(), 1);
            let seg = db.load_index(1).unwrap().expect("index survived");
            assert_eq!(seg, sample_index(1));
            let report = db.verify().unwrap();
            assert!(report.is_clean(), "{report:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compacted_file_db_reopens() {
        let path = temp_path("compact");
        {
            let mut db = VideoDb::open(&path).unwrap();
            for id in 1..=5 {
                db.put_clip(&sample_bundle(id)).unwrap();
            }
            for id in 1..=4 {
                db.delete_clip(id).unwrap();
            }
            db.compact().unwrap();
        }
        {
            let mut db = VideoDb::open(&path).unwrap();
            assert_eq!(db.clip_count(), 1);
            assert_eq!(db.load_clip(5).unwrap().meta.clip_id, 5);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
