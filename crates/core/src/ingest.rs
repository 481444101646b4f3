//! Conversion between pipeline artifacts and database records.
//!
//! Ingestion stores *raw* (unnormalized) feature rows; normalization is
//! a per-clip query-time concern, so re-deriving bags from a stored
//! bundle ([`crate::bags_from_dataset`] over
//! [`crate::dataset_from_bundle`]) reproduces exactly what
//! [`crate::prepare_clip`] built.

use crate::pipeline::ClipArtifacts;
use crate::query::EventQuery;
use tsvr_sim::IncidentKind;
use tsvr_viddb::{
    ClipBundle, ClipMeta, FrameCodec, IncidentRow, SequenceRow, StoredFrame, TrackRow, VideoDb,
    WindowRow,
};
use tsvr_vision::render::Renderer;

/// Builds a durable bundle from prepared clip artifacts.
pub fn bundle_from_clip(clip: &ClipArtifacts, meta: ClipMeta) -> ClipBundle {
    let tracks = clip
        .vision
        .tracks
        .iter()
        .map(|t| TrackRow {
            track_id: t.id,
            start_frame: t.start_frame(),
            centroids: t
                .points
                .iter()
                .map(|p| (p.centroid.x as f32, p.centroid.y as f32))
                .collect(),
        })
        .collect();

    let windows = clip
        .dataset
        .windows
        .iter()
        .map(|w| WindowRow {
            window_index: u32::try_from(w.index).expect("window index exceeds on-disk u32 range"),
            // The on-disk row keeps its u32 encoding (golden-fixture
            // compatible); clip frame counts are u32 in `ClipMeta`, so
            // any in-range clip fits — a span past u32 is a caller bug.
            start_frame: w
                .start_frame
                .try_into()
                .expect("window start_frame exceeds u32 clip range"),
            end_frame: w
                .end_frame
                .try_into()
                .expect("window end_frame exceeds u32 clip range"),
            sequences: w
                .sequences
                .iter()
                .map(|ts| SequenceRow {
                    track_id: ts.track_id,
                    alphas: ts.alphas.iter().map(|a| a.as_array()).collect(),
                })
                .collect(),
        })
        .collect();

    let incidents = clip
        .sim
        .incidents
        .iter()
        .map(|r| IncidentRow {
            kind: r.kind.name().to_string(),
            start_frame: r.start_frame,
            end_frame: r.end_frame,
            vehicle_ids: r.vehicle_ids.clone(),
        })
        .collect();

    ClipBundle {
        meta,
        tracks,
        windows,
        incidents,
    }
}

/// Archives a clip's pixel stream into the database: frames are
/// re-rendered deterministically from the simulation observations (the
/// pipeline does not keep them in memory) and stored as compressed
/// segments of `segment_len` frames. Returns the number of segments
/// written. The clip bundle must already be stored under `clip_id`.
/// The log is synced before returning, so archived video survives a
/// crash that follows the call.
pub fn archive_clip_video(
    db: &mut VideoDb,
    clip_id: u64,
    clip: &ClipArtifacts,
    codec: FrameCodec,
    segment_len: usize,
) -> Result<usize, tsvr_viddb::DbError> {
    assert!(segment_len >= 1);
    let renderer = Renderer::new(clip.kind, clip.sim.width, clip.sim.height);
    let mut segments = 0usize;
    let mut buffer: Vec<StoredFrame> = Vec::with_capacity(segment_len);
    let mut segment_start = 0u32;
    for obs in &clip.sim.frames {
        if buffer.is_empty() {
            segment_start = obs.frame;
        }
        let frame = renderer.render(&obs.vehicles, obs.frame);
        buffer.push(
            StoredFrame::new(frame.width(), frame.height(), frame.pixels().to_vec())
                .expect("renderer produces consistent dimensions"),
        );
        if buffer.len() == segment_len {
            db.put_video_segment(clip_id, segment_start, &buffer, codec)?;
            segments += 1;
            buffer.clear();
        }
    }
    if !buffer.is_empty() {
        db.put_video_segment(clip_id, segment_start, &buffer, codec)?;
        segments += 1;
    }
    // Archival is a durability point: a clip whose video the caller was
    // told is archived must survive a crash immediately afterwards.
    db.sync()?;
    Ok(segments)
}

/// Ground-truth labels for a stored bundle's windows under a query.
/// Incident kinds stored with unknown names are ignored.
pub fn labels_from_bundle(bundle: &ClipBundle, query: &EventQuery) -> Vec<bool> {
    let incidents = &bundle.incidents;
    let overlaps = |w: &WindowRow| {
        incidents_overlap(incidents, query, w.start_frame.into(), w.end_frame.into())
    };
    bundle.windows.iter().map(overlaps).collect()
}

/// Whether some stored incident of a kind `query` matches overlaps the
/// inclusive frame span `[start_frame, end_frame]`. Kinds stored with
/// unknown names match nothing. Window labels and the planner's event
/// clause both apply this one rule.
pub(crate) fn incidents_overlap(
    incidents: &[IncidentRow],
    query: &EventQuery,
    start_frame: u64,
    end_frame: u64,
) -> bool {
    incidents.iter().any(|r| {
        IncidentKind::from_name(&r.kind).is_some_and(|k| query.matches(k))
            && u64::from(r.start_frame) <= end_frame
            && start_frame <= u64::from(r.end_frame)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::dataset_from_bundle;
    use crate::pipeline::{bags_from_dataset, prepare_clip, PipelineOptions};
    use tsvr_sim::Scenario;
    use tsvr_trajectory::WindowConfig;
    use tsvr_viddb::VideoDb;

    fn meta(clip_id: u64) -> ClipMeta {
        ClipMeta {
            clip_id,
            name: "test clip".into(),
            location: "tunnel-x".into(),
            camera: "cam-1".into(),
            start_time: 1_000_000,
            frame_count: 400,
            width: 320,
            height: 240,
        }
    }

    #[test]
    fn bundle_round_trip_preserves_bags_and_labels() {
        let clip = prepare_clip(&Scenario::tunnel_small(33), &PipelineOptions::default());
        let bundle = bundle_from_clip(&clip, meta(1));

        // Store and reload through the database.
        let mut db = VideoDb::in_memory();
        db.put_clip(&bundle).unwrap();
        let loaded = db.load_clip(1).unwrap();

        let bags = bags_from_dataset(&dataset_from_bundle(&loaded, WindowConfig::default()));
        assert_eq!(bags, clip.bags, "bags diverge after db round trip");

        let q = EventQuery::accidents();
        let labels = labels_from_bundle(&loaded, &q);
        assert_eq!(labels, clip.labels(&q), "labels diverge after round trip");
    }

    #[test]
    fn bundle_counts_match_artifacts() {
        let clip = prepare_clip(&Scenario::tunnel_small(34), &PipelineOptions::default());
        let bundle = bundle_from_clip(&clip, meta(2));
        assert_eq!(bundle.tracks.len(), clip.vision.tracks.len());
        assert_eq!(bundle.windows.len(), clip.dataset.window_count());
        assert_eq!(bundle.incidents.len(), clip.sim.incidents.len());
        assert_eq!(bundle.meta.clip_id, 2);
    }

    #[test]
    fn unknown_incident_kinds_ignored_in_labels() {
        let clip = prepare_clip(&Scenario::tunnel_small(35), &PipelineOptions::default());
        let mut bundle = bundle_from_clip(&clip, meta(3));
        for inc in &mut bundle.incidents {
            inc.kind = "alien_abduction".into();
        }
        let labels = labels_from_bundle(&bundle, &EventQuery::accidents());
        assert!(labels.iter().all(|&l| !l));
    }

    #[test]
    fn video_archival_round_trips_pixels() {
        let mut scenario = Scenario::tunnel_small(37);
        scenario.total_frames = 60; // keep the render cost tiny
        let clip = prepare_clip(&scenario, &PipelineOptions::default());
        let mut db = VideoDb::in_memory();
        db.put_clip(&bundle_from_clip(&clip, meta(5))).unwrap();

        let codec = FrameCodec { quant_step: 8 };
        let segments = archive_clip_video(&mut db, 5, &clip, codec, 25).unwrap();
        assert_eq!(segments, 3); // 25 + 25 + 10
        assert_eq!(db.video_segment_count(), 3);

        // A retrieved 15-frame span decodes to the quantized rendering
        // (spans crossing a segment boundary included).
        let frames = db.load_frames(5, 20, 35).unwrap();
        assert_eq!(frames.len(), 15);
        assert_eq!(frames[0].0, 20);
        let renderer =
            tsvr_vision::render::Renderer::new(clip.kind, clip.sim.width, clip.sim.height);
        let obs = &clip.sim.frames[20];
        let expect = renderer.render(&obs.vehicles, obs.frame);
        let got = &frames[0].1;
        assert_eq!(got.width, expect.width());
        for (g, e) in got.pixels.iter().zip(expect.pixels()) {
            assert_eq!(*g, codec.reconstruct(*e));
        }
    }

    #[test]
    fn track_centroids_stored_with_f32_precision() {
        let clip = prepare_clip(&Scenario::tunnel_small(36), &PipelineOptions::default());
        let bundle = bundle_from_clip(&clip, meta(4));
        for (row, track) in bundle.tracks.iter().zip(&clip.vision.tracks) {
            assert_eq!(row.centroids.len(), track.points.len());
            for (c, p) in row.centroids.iter().zip(&track.points) {
                assert!((c.0 as f64 - p.centroid.x).abs() < 1e-3);
                assert!((c.1 as f64 - p.centroid.y).abs() < 1e-3);
            }
        }
    }
}
