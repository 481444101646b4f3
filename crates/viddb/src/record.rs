//! Durable record types and their binary encodings.

use crate::codec::{Reader, Writer};
use crate::error::{DbError, Result};

/// Metadata of one stored clip — "the time and place a video is taken"
/// (paper §1) plus camera identity, which the paper's future work needs
/// for cross-camera normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipMeta {
    /// Unique clip id.
    pub clip_id: u64,
    /// Human-readable name.
    pub name: String,
    /// Capture location (e.g. "tunnel-17" or "intersection-taipei-3").
    pub location: String,
    /// Camera identifier.
    pub camera: String,
    /// Capture start time, seconds since the epoch.
    pub start_time: u64,
    /// Number of frames.
    pub frame_count: u32,
    /// Frame width, px.
    pub width: u32,
    /// Frame height, px.
    pub height: u32,
}

/// One tracked vehicle trajectory (centroids packed as f32 pairs — half
/// the storage of f64 at far-sub-pixel precision loss).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackRow {
    /// Tracker id within the clip.
    pub track_id: u64,
    /// Frame of the first centroid.
    pub start_frame: u32,
    /// Consecutive per-frame centroids.
    pub centroids: Vec<(f32, f32)>,
}

/// One trajectory sequence inside a window: per-checkpoint α rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceRow {
    /// Track id the sequence came from.
    pub track_id: u64,
    /// `[1/mdist, vdiff, θ]` per checkpoint.
    pub alphas: Vec<[f64; 3]>,
}

/// One extracted video sequence (retrieval window).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Dense window index within the clip.
    pub window_index: u32,
    /// First covered frame.
    pub start_frame: u32,
    /// Last covered frame (inclusive).
    pub end_frame: u32,
    /// Contained trajectory sequences.
    pub sequences: Vec<SequenceRow>,
}

/// Ground-truth (or analyst-annotated) incident.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentRow {
    /// Incident kind name (e.g. "wall_crash").
    pub kind: String,
    /// First frame.
    pub start_frame: u32,
    /// Last frame (inclusive).
    pub end_frame: u32,
    /// Involved vehicle/track ids.
    pub vehicle_ids: Vec<u64>,
}

/// A persisted retrieval session: which clip was queried, what feedback
/// each round collected, and the accuracy trace. Persisting sessions is
/// what lets the database "customize the search engine for the need of
/// individual users" across visits (§1).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRow {
    /// Unique session id.
    pub session_id: u64,
    /// Clip the session queried.
    pub clip_id: u64,
    /// Query event type (e.g. "accident").
    pub query: String,
    /// Learner name used.
    pub learner: String,
    /// Per-round labeled feedback: `(window_index, relevant)`.
    pub feedback: Vec<Vec<(u32, bool)>>,
    /// Accuracy@n per round (initial + feedback rounds).
    pub accuracies: Vec<f64>,
}

/// Format magic of persisted feature-index segments: the bytes `TSIX`.
pub const INDEX_MAGIC: u32 = u32::from_le_bytes(*b"TSIX");

/// Current `TSIX` segment format version. Bump on any layout change so
/// old segments are rejected (and rebuilt) instead of misdecoded.
pub const INDEX_FORMAT_VERSION: u32 = 1;

/// Format version of *compressed* `TSIX` segments (XOR-delta +
/// bit-packed feature rows, stored under their own record tag). Kept
/// distinct from [`INDEX_FORMAT_VERSION`] so a compressed payload can
/// never be misread through the uncompressed path or vice versa.
pub const INDEX_COMPRESSED_VERSION: u32 = 2;

/// One window's worth of precomputed retrieval features inside an index
/// segment: the frame span, the per-trajectory-sequence track ids, and
/// the flat concatenation of their α feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexWindowRow {
    /// Dense window index within the clip.
    pub window_index: u32,
    /// First checkpoint (inclusive) on the global grid.
    pub start_checkpoint: u64,
    /// First covered frame. Stored wide (u64): index spans come from
    /// the unbounded checkpoint grid, unlike the u32 clip-frame rows.
    pub start_frame: u64,
    /// Last covered frame (inclusive).
    pub end_frame: u64,
    /// Track id of each trajectory sequence, in sequence order.
    pub track_ids: Vec<u64>,
    /// Flat raw feature matrix: `track_ids.len() × feature_dim` values,
    /// row-major (one `feature_dim`-long vector per trajectory
    /// sequence). Bit-exact f64s — index-served features are identical
    /// to freshly extracted ones.
    pub features: Vec<f64>,
}

/// A persisted feature index for one clip — the extracted `Dataset`
/// (paper §5.1) serialized so queries can skip vision and segmentation
/// entirely. Stored under its own record tag with a `TSIX` magic +
/// format version header, and invalidated via `config_hash` (computed
/// over clip id, window/feature configuration, and pipeline version).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSegment {
    /// Clip the index was built from.
    pub clip_id: u64,
    /// Invalidation hash: anything that changes extraction output
    /// changes this hash, so stale indexes are rebuilt, never served.
    pub config_hash: u64,
    /// Feature vector length per trajectory sequence
    /// (`3 × window_size`).
    pub feature_dim: u32,
    /// Per-window feature rows, in temporal order.
    pub windows: Vec<IndexWindowRow>,
}

/// A complete clip's worth of derived data.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipBundle {
    /// Clip metadata.
    pub meta: ClipMeta,
    /// Tracked trajectories.
    pub tracks: Vec<TrackRow>,
    /// Extracted retrieval windows.
    pub windows: Vec<WindowRow>,
    /// Incident annotations.
    pub incidents: Vec<IncidentRow>,
}

// ---- encodings ----------------------------------------------------------

impl ClipMeta {
    /// Serializes the record.
    pub fn encode(&self, w: &mut Writer) -> Result<()> {
        w.put_u64(self.clip_id);
        w.put_str(&self.name)?;
        w.put_str(&self.location)?;
        w.put_str(&self.camera)?;
        w.put_u64(self.start_time);
        w.put_u32(self.frame_count);
        w.put_u32(self.width);
        w.put_u32(self.height);
        Ok(())
    }

    /// Deserializes the record.
    pub fn decode(r: &mut Reader) -> Result<ClipMeta> {
        Ok(ClipMeta {
            clip_id: r.get_u64()?,
            name: r.get_str()?,
            location: r.get_str()?,
            camera: r.get_str()?,
            start_time: r.get_u64()?,
            frame_count: r.get_u32()?,
            width: r.get_u32()?,
            height: r.get_u32()?,
        })
    }
}

impl TrackRow {
    /// Serializes the record.
    pub fn encode(&self, w: &mut Writer) -> Result<()> {
        w.put_u64(self.track_id);
        w.put_u32(self.start_frame);
        w.put_len(self.centroids.len(), "track centroids")?;
        for &(x, y) in &self.centroids {
            w.put_u32(x.to_bits());
            w.put_u32(y.to_bits());
        }
        Ok(())
    }

    /// Deserializes the record.
    pub fn decode(r: &mut Reader) -> Result<TrackRow> {
        let track_id = r.get_u64()?;
        let start_frame = r.get_u32()?;
        let n = r.get_len_bounded(8)?; // (f32, f32) per centroid
        let mut centroids = Vec::with_capacity(n);
        for _ in 0..n {
            let x = f32::from_bits(r.get_u32()?);
            let y = f32::from_bits(r.get_u32()?);
            centroids.push((x, y));
        }
        Ok(TrackRow {
            track_id,
            start_frame,
            centroids,
        })
    }
}

impl SequenceRow {
    fn encode(&self, w: &mut Writer) -> Result<()> {
        w.put_u64(self.track_id);
        w.put_len(self.alphas.len(), "sequence alphas")?;
        for a in &self.alphas {
            for &v in a {
                w.put_f64(v);
            }
        }
        Ok(())
    }

    fn decode(r: &mut Reader) -> Result<SequenceRow> {
        let track_id = r.get_u64()?;
        let n = r.get_len_bounded(24)?; // 3 × f64 per alpha row
        let mut alphas = Vec::with_capacity(n);
        for _ in 0..n {
            alphas.push([r.get_f64()?, r.get_f64()?, r.get_f64()?]);
        }
        Ok(SequenceRow { track_id, alphas })
    }
}

impl WindowRow {
    /// Serializes the record.
    pub fn encode(&self, w: &mut Writer) -> Result<()> {
        w.put_u32(self.window_index);
        w.put_u32(self.start_frame);
        w.put_u32(self.end_frame);
        w.put_len(self.sequences.len(), "window sequences")?;
        for s in &self.sequences {
            s.encode(w)?;
        }
        Ok(())
    }

    /// Deserializes the record.
    pub fn decode(r: &mut Reader) -> Result<WindowRow> {
        let window_index = r.get_u32()?;
        let start_frame = r.get_u32()?;
        let end_frame = r.get_u32()?;
        let n = r.get_len_bounded(12)?; // u64 id + u32 count per sequence
        let mut sequences = Vec::with_capacity(n);
        for _ in 0..n {
            sequences.push(SequenceRow::decode(r)?);
        }
        Ok(WindowRow {
            window_index,
            start_frame,
            end_frame,
            sequences,
        })
    }
}

impl IncidentRow {
    /// Serializes the record.
    pub fn encode(&self, w: &mut Writer) -> Result<()> {
        w.put_str(&self.kind)?;
        w.put_u32(self.start_frame);
        w.put_u32(self.end_frame);
        w.put_len(self.vehicle_ids.len(), "incident vehicle ids")?;
        for &id in &self.vehicle_ids {
            w.put_u64(id);
        }
        Ok(())
    }

    /// Deserializes the record.
    pub fn decode(r: &mut Reader) -> Result<IncidentRow> {
        let kind = r.get_str()?;
        let start_frame = r.get_u32()?;
        let end_frame = r.get_u32()?;
        let n = r.get_len_bounded(8)?; // u64 per vehicle id
        let mut vehicle_ids = Vec::with_capacity(n);
        for _ in 0..n {
            vehicle_ids.push(r.get_u64()?);
        }
        Ok(IncidentRow {
            kind,
            start_frame,
            end_frame,
            vehicle_ids,
        })
    }
}

impl IndexWindowRow {
    fn encode(&self, w: &mut Writer) -> Result<()> {
        w.put_u32(self.window_index);
        w.put_u64(self.start_checkpoint);
        w.put_u64(self.start_frame);
        w.put_u64(self.end_frame);
        w.put_len(self.track_ids.len(), "index track ids")?;
        for &id in &self.track_ids {
            w.put_u64(id);
        }
        w.put_len(self.features.len(), "index features")?;
        for &v in &self.features {
            w.put_f64(v);
        }
        Ok(())
    }

    fn decode(r: &mut Reader, feature_dim: u32) -> Result<IndexWindowRow> {
        let window_index = r.get_u32()?;
        let start_checkpoint = r.get_u64()?;
        let start_frame = r.get_u64()?;
        let end_frame = r.get_u64()?;
        let n = r.get_len_bounded(8)?; // u64 per track id
        let mut track_ids = Vec::with_capacity(n);
        for _ in 0..n {
            track_ids.push(r.get_u64()?);
        }
        let m = r.get_len_bounded(8)?; // f64 per feature
                                       // The flat matrix must be exactly sequences × feature_dim; any
                                       // other shape is a corrupt segment, not a usable index.
        if m != n.saturating_mul(feature_dim as usize) {
            return Err(DbError::LengthOutOfBounds(m as u64));
        }
        let mut features = Vec::with_capacity(m);
        for _ in 0..m {
            features.push(r.get_f64()?);
        }
        Ok(IndexWindowRow {
            window_index,
            start_checkpoint,
            start_frame,
            end_frame,
            track_ids,
            features,
        })
    }
}

impl IndexSegment {
    /// Serializes the segment, magic + format version first.
    pub fn encode(&self, w: &mut Writer) -> Result<()> {
        w.put_u32(INDEX_MAGIC);
        w.put_u32(INDEX_FORMAT_VERSION);
        w.put_u64(self.clip_id);
        w.put_u64(self.config_hash);
        w.put_u32(self.feature_dim);
        w.put_len(self.windows.len(), "index windows")?;
        for win in &self.windows {
            win.encode(w)?;
        }
        Ok(())
    }

    /// Deserializes a segment. A wrong magic or an unknown format
    /// version fails with [`DbError::BadMagic`] — classified as
    /// corruption, so the database drops (and callers rebuild) the
    /// segment instead of serving a misdecoded index.
    pub fn decode(r: &mut Reader) -> Result<IndexSegment> {
        if r.get_u32()? != INDEX_MAGIC {
            return Err(DbError::BadMagic);
        }
        if r.get_u32()? != INDEX_FORMAT_VERSION {
            return Err(DbError::BadMagic);
        }
        let clip_id = r.get_u64()?;
        let config_hash = r.get_u64()?;
        let feature_dim = r.get_u32()?;
        let n = r.get_len_bounded(32)?; // fixed window header alone is 32 bytes
        let mut windows = Vec::with_capacity(n);
        for _ in 0..n {
            windows.push(IndexWindowRow::decode(r, feature_dim)?);
        }
        Ok(IndexSegment {
            clip_id,
            config_hash,
            feature_dim,
            windows,
        })
    }
}

impl IndexSegment {
    /// Serializes the segment with compressed feature rows: identical
    /// header and per-window layout to [`IndexSegment::encode`], except
    /// the format version is [`INDEX_COMPRESSED_VERSION`] and each
    /// window's flat f64 matrix is a length-prefixed
    /// [`crate::compress`] buffer instead of raw 8-byte values.
    pub fn encode_compressed(&self, w: &mut Writer) -> Result<()> {
        w.put_u32(INDEX_MAGIC);
        w.put_u32(INDEX_COMPRESSED_VERSION);
        w.put_u64(self.clip_id);
        w.put_u64(self.config_hash);
        w.put_u32(self.feature_dim);
        w.put_len(self.windows.len(), "index windows")?;
        for win in &self.windows {
            w.put_u32(win.window_index);
            w.put_u64(win.start_checkpoint);
            w.put_u64(win.start_frame);
            w.put_u64(win.end_frame);
            w.put_len(win.track_ids.len(), "index track ids")?;
            for &id in &win.track_ids {
                w.put_u64(id);
            }
            w.put_bytes(&crate::compress::compress_f64s(&win.features)?)?;
        }
        Ok(())
    }

    /// Deserializes a compressed segment. Decompressed feature rows are
    /// bit-exact; shape mismatches, bad magic, and corrupt compressed
    /// streams all fail as corruption (so the database drops and
    /// rebuilds the segment).
    pub fn decode_compressed(r: &mut Reader) -> Result<IndexSegment> {
        if r.get_u32()? != INDEX_MAGIC {
            return Err(DbError::BadMagic);
        }
        if r.get_u32()? != INDEX_COMPRESSED_VERSION {
            return Err(DbError::BadMagic);
        }
        let clip_id = r.get_u64()?;
        let config_hash = r.get_u64()?;
        let feature_dim = r.get_u32()?;
        let n = r.get_len_bounded(32)?; // fixed window header alone is 32 bytes
        let mut windows = Vec::with_capacity(n);
        for _ in 0..n {
            let window_index = r.get_u32()?;
            let start_checkpoint = r.get_u64()?;
            let start_frame = r.get_u64()?;
            let end_frame = r.get_u64()?;
            let t = r.get_len_bounded(8)?; // u64 per track id
            let mut track_ids = Vec::with_capacity(t);
            for _ in 0..t {
                track_ids.push(r.get_u64()?);
            }
            let features = crate::compress::decompress_f64s(r.get_bytes()?)?;
            if features.len() != t.saturating_mul(feature_dim as usize) {
                return Err(DbError::LengthOutOfBounds(features.len() as u64));
            }
            windows.push(IndexWindowRow {
                window_index,
                start_checkpoint,
                start_frame,
                end_frame,
                track_ids,
                features,
            });
        }
        Ok(IndexSegment {
            clip_id,
            config_hash,
            feature_dim,
            windows,
        })
    }
}

impl SessionRow {
    /// Serializes the record.
    pub fn encode(&self, w: &mut Writer) -> Result<()> {
        w.put_u64(self.session_id);
        w.put_u64(self.clip_id);
        w.put_str(&self.query)?;
        w.put_str(&self.learner)?;
        w.put_len(self.feedback.len(), "session rounds")?;
        for round in &self.feedback {
            w.put_len(round.len(), "session round items")?;
            for &(win, rel) in round {
                w.put_u32(win);
                w.put_bool(rel);
            }
        }
        w.put_len(self.accuracies.len(), "session accuracies")?;
        for &a in &self.accuracies {
            w.put_f64(a);
        }
        Ok(())
    }

    /// Deserializes the record.
    pub fn decode(r: &mut Reader) -> Result<SessionRow> {
        let session_id = r.get_u64()?;
        let clip_id = r.get_u64()?;
        let query = r.get_str()?;
        let learner = r.get_str()?;
        let rounds = r.get_len_bounded(4)?; // u32 count per round
        let mut feedback = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let n = r.get_len_bounded(5)?; // u32 + bool per item
            let mut round = Vec::with_capacity(n);
            for _ in 0..n {
                round.push((r.get_u32()?, r.get_bool()?));
            }
            feedback.push(round);
        }
        let n = r.get_len_bounded(8)?; // f64 per accuracy
        let mut accuracies = Vec::with_capacity(n);
        for _ in 0..n {
            accuracies.push(r.get_f64()?);
        }
        Ok(SessionRow {
            session_id,
            clip_id,
            query,
            learner,
            feedback,
            accuracies,
        })
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;

    /// A small but fully populated bundle for round-trip tests.
    pub fn sample_bundle(clip_id: u64) -> ClipBundle {
        ClipBundle {
            meta: ClipMeta {
                clip_id,
                name: format!("clip-{clip_id}"),
                location: "tunnel-17".into(),
                camera: "cam-03".into(),
                start_time: 1_167_609_600,
                frame_count: 400,
                width: 320,
                height: 240,
            },
            tracks: vec![
                TrackRow {
                    track_id: 1,
                    start_frame: 10,
                    centroids: vec![(10.0, 104.5), (13.9, 104.4), (18.1, 104.6)],
                },
                TrackRow {
                    track_id: 2,
                    start_frame: 42,
                    centroids: vec![(5.0, 136.0)],
                },
            ],
            windows: vec![WindowRow {
                window_index: 0,
                start_frame: 0,
                end_frame: 14,
                sequences: vec![SequenceRow {
                    track_id: 1,
                    alphas: vec![[0.0, 0.0, 0.0], [0.1, 0.8, 0.4], [0.05, 0.2, 0.1]],
                }],
            }],
            incidents: vec![IncidentRow {
                kind: "wall_crash".into(),
                start_frame: 120,
                end_frame: 142,
                vehicle_ids: vec![1],
            }],
        }
    }

    /// A small index segment (2 windows, feature_dim 9) for round-trip
    /// and corruption tests.
    pub fn sample_index(clip_id: u64) -> IndexSegment {
        IndexSegment {
            clip_id,
            config_hash: 0xfeed_beef_dead_cafe,
            feature_dim: 9,
            windows: vec![
                IndexWindowRow {
                    window_index: 0,
                    start_checkpoint: 0,
                    start_frame: 0,
                    end_frame: 14,
                    track_ids: vec![1, 2],
                    features: (0..18).map(|i| i as f64 * 0.25).collect(),
                },
                IndexWindowRow {
                    window_index: 1,
                    start_checkpoint: 3,
                    start_frame: 15,
                    end_frame: 29,
                    track_ids: vec![2],
                    features: (0..9).map(|i| -(i as f64)).collect(),
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::sample_bundle;
    use super::*;

    fn round_trip<T: PartialEq + std::fmt::Debug>(
        v: &T,
        enc: impl Fn(&T, &mut Writer) -> Result<()>,
        dec: impl Fn(&mut Reader) -> Result<T>,
    ) {
        let mut w = Writer::new();
        enc(v, &mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = dec(&mut r).unwrap();
        assert_eq!(&back, v);
        assert!(r.is_exhausted(), "trailing bytes after decode");
    }

    #[test]
    fn clip_meta_round_trip() {
        let b = sample_bundle(9);
        round_trip(&b.meta, ClipMeta::encode, ClipMeta::decode);
    }

    #[test]
    fn track_round_trip() {
        let b = sample_bundle(9);
        for t in &b.tracks {
            round_trip(t, TrackRow::encode, TrackRow::decode);
        }
        // Empty centroids edge case.
        let empty = TrackRow {
            track_id: 3,
            start_frame: 0,
            centroids: vec![],
        };
        round_trip(&empty, TrackRow::encode, TrackRow::decode);
    }

    #[test]
    fn window_round_trip() {
        let b = sample_bundle(9);
        round_trip(&b.windows[0], WindowRow::encode, WindowRow::decode);
    }

    #[test]
    fn incident_round_trip() {
        let b = sample_bundle(9);
        round_trip(&b.incidents[0], IncidentRow::encode, IncidentRow::decode);
    }

    #[test]
    fn session_round_trip() {
        let s = SessionRow {
            session_id: 77,
            clip_id: 9,
            query: "accident".into(),
            learner: "MIL_OneClassSVM".into(),
            feedback: vec![vec![(0, true), (3, false)], vec![(5, true)]],
            accuracies: vec![0.4, 0.5, 0.6],
        };
        round_trip(&s, SessionRow::encode, SessionRow::decode);
    }

    #[test]
    fn index_segment_round_trip() {
        let seg = test_fixtures::sample_index(9);
        round_trip(&seg, IndexSegment::encode, IndexSegment::decode);
        // Empty segment edge case (clip with no extractable windows).
        let empty = IndexSegment {
            clip_id: 1,
            config_hash: 7,
            feature_dim: 9,
            windows: vec![],
        };
        round_trip(&empty, IndexSegment::encode, IndexSegment::decode);
    }

    #[test]
    fn index_segment_rejects_wrong_magic_and_version() {
        let seg = test_fixtures::sample_index(9);
        let mut w = Writer::new();
        seg.encode(&mut w).unwrap();
        let bytes = w.into_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            IndexSegment::decode(&mut Reader::new(&bad_magic)),
            Err(DbError::BadMagic)
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xfe; // version 1 -> garbage
        assert!(matches!(
            IndexSegment::decode(&mut Reader::new(&bad_version)),
            Err(DbError::BadMagic)
        ));
    }

    #[test]
    fn index_segment_rejects_feature_shape_mismatch() {
        let mut seg = test_fixtures::sample_index(9);
        seg.windows[0].features.pop(); // 17 values for 2 × 9 slots
        let mut w = Writer::new();
        seg.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let err = IndexSegment::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(
            err.is_corruption(),
            "shape mismatch not corruption: {err:?}"
        );
    }

    #[test]
    fn truncated_index_segment_fails_cleanly() {
        let seg = test_fixtures::sample_index(9);
        let mut w = Writer::new();
        seg.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        for cut in [0usize, 3, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                IndexSegment::decode(&mut r).is_err(),
                "cut at {cut} succeeded"
            );
        }
    }

    #[test]
    fn truncated_record_fails_cleanly() {
        let b = sample_bundle(9);
        let mut w = Writer::new();
        b.windows[0].encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        for cut in [1usize, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(WindowRow::decode(&mut r).is_err(), "cut at {cut} succeeded");
        }
    }

    #[test]
    fn compressed_index_segment_round_trips_bit_exact() {
        let seg = test_fixtures::sample_index(9);
        round_trip(
            &seg,
            IndexSegment::encode_compressed,
            IndexSegment::decode_compressed,
        );
        let empty = IndexSegment {
            clip_id: 1,
            config_hash: 7,
            feature_dim: 9,
            windows: vec![],
        };
        round_trip(
            &empty,
            IndexSegment::encode_compressed,
            IndexSegment::decode_compressed,
        );
        // NaN payloads and signed zeros in feature rows survive bitwise.
        let mut special = test_fixtures::sample_index(2);
        special.windows[1].features = vec![
            f64::from_bits(0x7ff8_0000_dead_beef),
            -0.0,
            f64::NEG_INFINITY,
            5e-324,
            0.0,
            1.5,
            -2.25,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        let mut w = Writer::new();
        special.encode_compressed(&mut w).unwrap();
        let back = IndexSegment::decode_compressed(&mut Reader::new(&w.into_bytes())).unwrap();
        for (a, b) in special.windows[1]
            .features
            .iter()
            .zip(&back.windows[1].features)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn compressed_and_uncompressed_cannot_cross_decode() {
        let seg = test_fixtures::sample_index(9);
        let mut wc = Writer::new();
        seg.encode_compressed(&mut wc).unwrap();
        let compressed = wc.into_bytes();
        let mut wu = Writer::new();
        seg.encode(&mut wu).unwrap();
        let uncompressed = wu.into_bytes();
        // The version field firewalls the two framings.
        assert!(matches!(
            IndexSegment::decode(&mut Reader::new(&compressed)),
            Err(DbError::BadMagic)
        ));
        assert!(matches!(
            IndexSegment::decode_compressed(&mut Reader::new(&uncompressed)),
            Err(DbError::BadMagic)
        ));
    }

    #[test]
    fn truncated_compressed_segment_fails_cleanly() {
        let seg = test_fixtures::sample_index(9);
        let mut w = Writer::new();
        seg.encode_compressed(&mut w).unwrap();
        let bytes = w.into_bytes();
        for cut in [0usize, 3, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                IndexSegment::decode_compressed(&mut r).is_err(),
                "cut at {cut} succeeded"
            );
        }
    }

    #[test]
    fn oversized_collection_fails_typed_not_truncated() {
        // A centroid vector whose length exceeds the u32 prefix would
        // previously have been silently truncated by `as u32`; the
        // checked encoder must refuse with TooLarge before any bytes
        // are framed. Exercised via put_len directly — allocating 2^32
        // centroids is not practical in a unit test, and put_len is the
        // single choke point every record encoder now routes through.
        let mut w = Writer::new();
        let err = w
            .put_len(u32::MAX as usize + 1, "track centroids")
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::TooLarge {
                context: "track centroids",
                ..
            }
        ));
        assert!(!err.is_corruption());
    }
}
