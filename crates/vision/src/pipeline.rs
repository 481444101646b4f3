//! End-to-end vision pipeline: simulator observations → synthetic frames
//! → background subtraction → despeckling → SPCPE refinement → blobs →
//! tracks.
//!
//! This is the programmatic equivalent of the paper's "semantic object
//! tracking" stage (§3): everything downstream (trajectory modeling,
//! event features, MIL retrieval) consumes the [`Track`]s produced here.

use crate::background::{BackgroundModel, Subtraction};
use crate::blob::{extract_blobs, Blob};
use crate::frame::GrayFrame;
use crate::render::Renderer;
use crate::spcpe;
use crate::tracker::{Tracker, TrackerConfig};
use tsvr_sim::world::SimOutput;
use tsvr_sim::ScenarioKind;

pub use crate::tracker::{Track, TrackPoint};

/// Pipeline tuning parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Minimum blob area in pixels (smaller components are noise).
    pub min_blob_area: usize,
    /// Tracker parameters.
    pub tracker: TrackerConfig,
    /// Empty-scene frames used to warm up the background model before
    /// the clip starts (the paper's "background learning" phase).
    pub warmup_frames: u32,
    /// Whether to refine the threshold mask with SPCPE.
    pub use_spcpe: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            min_blob_area: 60,
            tracker: TrackerConfig::default(),
            warmup_frames: 30,
            use_spcpe: true,
        }
    }
}

/// Output of a pipeline run.
#[derive(Debug, Clone)]
pub struct VisionOutput {
    /// All confirmed vehicle trajectories.
    pub tracks: Vec<Track>,
    /// Image width, px.
    pub width: u32,
    /// Image height, px.
    pub height: u32,
    /// Number of blobs detected at each frame (diagnostics).
    pub detections_per_frame: Vec<usize>,
}

impl VisionOutput {
    /// Tracks alive (covering) the given frame.
    pub fn tracks_at(&self, frame: u32) -> impl Iterator<Item = &Track> {
        self.tracks
            .iter()
            .filter(move |t| t.start_frame() <= frame && frame <= t.end_frame())
    }
}

/// Runs the full pipeline over a simulated clip.
pub fn process(sim: &SimOutput, kind: ScenarioKind, cfg: &PipelineConfig) -> VisionOutput {
    let renderer = Renderer::new(kind, sim.width, sim.height);

    // Background warm-up on empty frames (distinct noise salts from the
    // clip itself).
    let mut bg = BackgroundModel::from_frame(&renderer.render(&[], u32::MAX));
    for i in 0..cfg.warmup_frames {
        let f = renderer.render(&[], u32::MAX - 1 - i);
        bg.learn(std::slice::from_ref(&f));
    }

    let mut tracker = Tracker::new(cfg.tracker);
    let mut detections_per_frame = Vec::with_capacity(sim.frames.len());

    // Frames are processed in bounded chunks so the pure per-frame
    // stages (rendering, despeckling, SPCPE refinement, blob
    // extraction) can fan out on the [`tsvr_par`] runtime, while the
    // two order-sensitive stages — the running background update and
    // the tracker — consume frames in exact clip order. The model
    // learns from the raw threshold mask, so the sequential update is
    // one pass per frame and everything derived from its outputs runs
    // in parallel. Every stage computes the same values as the plain
    // sequential loop did, so the output is bit-identical regardless of
    // the thread count; the chunk bound keeps at most a few dozen
    // decoded frames in flight.
    let chunk_len = tsvr_par::current_threads().max(1) * 4;
    for obs_chunk in sim.frames.chunks(chunk_len) {
        // Parallel, pure: synthesize the chunk's frames.
        let frames: Vec<GrayFrame> = tsvr_par::par_map(obs_chunk, |_, obs| {
            renderer.render(&obs.vehicles, obs.frame)
        });

        // Sequential, stateful: classify against the model and update
        // it in clip order (each update feeds the next frame).
        let subtractions: Vec<Subtraction> = frames
            .iter()
            .map(|frame| {
                let _span = tsvr_obs::span!("vision.background");
                bg.subtract_and_update(frame)
            })
            .collect();

        // Parallel, pure: despeckling, SPCPE refinement and blob
        // extraction.
        let chunk_blobs: Vec<Vec<Blob>> = tsvr_par::par_map_index(frames.len(), |i| {
            let _span = tsvr_obs::span!("vision.segment");
            let frame = &frames[i];
            let Subtraction { mask, background } = &subtractions[i];
            let mut mask = mask.majority_filter(4);
            if cfg.use_spcpe {
                let diff = frame.abs_diff(background);
                mask = spcpe::refine(&diff, &mask).mask.majority_filter(4);
            }
            extract_blobs(&mask, cfg.min_blob_area, Some(frame))
        });

        // Sequential, stateful: feed the tracker in clip order.
        for (obs, blobs) in obs_chunk.iter().zip(&chunk_blobs) {
            tsvr_obs::counter!("vision.frames").incr();
            tsvr_obs::histogram!("vision.blobs_per_frame").record(blobs.len() as u64);
            detections_per_frame.push(blobs.len());
            tracker.step(obs.frame, blobs);
        }
    }

    VisionOutput {
        tracks: tracker.finish(),
        width: sim.width,
        height: sim.height,
        detections_per_frame,
    }
}

/// Matches each track to the simulator vehicle it follows, by majority
/// vote over per-frame nearest ground-truth centers within `max_dist`.
/// Returns `None` for tracks that never matched (pure noise).
pub fn match_ground_truth(tracks: &[Track], sim: &SimOutput, max_dist: f64) -> Vec<Option<u64>> {
    tracks
        .iter()
        .map(|t| {
            let mut votes: Vec<(u64, usize)> = Vec::new();
            for p in t.points.iter().filter(|p| !p.coasted) {
                let Some(frame) = sim.frames.get(p.frame as usize) else {
                    continue;
                };
                let nearest = frame
                    .vehicles
                    .iter()
                    .map(|v| (v.id, v.center.dist(p.centroid)))
                    .filter(|&(_, d)| d <= max_dist)
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                if let Some((id, _)) = nearest {
                    match votes.iter_mut().find(|(v, _)| *v == id) {
                        Some((_, n)) => *n += 1,
                        None => votes.push((id, 1)),
                    }
                }
            }
            votes
                .into_iter()
                .max_by_key(|&(_, n)| n)
                .filter(|&(_, n)| n * 2 >= t.points.len())
                .map(|(id, _)| id)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvr_sim::{Scenario, World};

    fn small_run() -> (SimOutput, VisionOutput) {
        let scenario = Scenario::tunnel_small(21);
        let sim = World::run(scenario);
        let out = process(&sim, ScenarioKind::Tunnel, &PipelineConfig::default());
        (sim, out)
    }

    #[test]
    fn pipeline_finds_tracks() {
        let (sim, out) = small_run();
        assert!(!out.tracks.is_empty(), "no tracks found");
        assert_eq!(out.detections_per_frame.len(), sim.frames.len());
        // Roughly as many tracks as distinct vehicles seen (allowing
        // fragmentation).
        let mut gt_ids: Vec<u64> = sim
            .frames
            .iter()
            .flat_map(|f| f.vehicles.iter().map(|v| v.id))
            .collect();
        gt_ids.sort_unstable();
        gt_ids.dedup();
        assert!(
            out.tracks.len() <= gt_ids.len() * 2,
            "{} tracks for {} vehicles",
            out.tracks.len(),
            gt_ids.len()
        );
        assert!(
            out.tracks.len() * 2 >= gt_ids.len(),
            "{} tracks for {} vehicles",
            out.tracks.len(),
            gt_ids.len()
        );
    }

    #[test]
    fn tracked_centroids_are_accurate() {
        let (sim, out) = small_run();
        let matches = match_ground_truth(&out.tracks, &sim, 15.0);
        let matched = matches.iter().filter(|m| m.is_some()).count();
        assert!(
            matched * 10 >= out.tracks.len() * 8,
            "only {matched}/{} tracks matched ground truth",
            out.tracks.len()
        );
        // Average error of matched, detected points should be small.
        let mut err_sum = 0.0;
        let mut err_n = 0usize;
        for (t, m) in out.tracks.iter().zip(&matches) {
            let Some(id) = m else { continue };
            for p in t.points.iter().filter(|p| !p.coasted) {
                if let Some(v) = sim.frames[p.frame as usize]
                    .vehicles
                    .iter()
                    .find(|v| v.id == *id)
                {
                    err_sum += v.center.dist(p.centroid);
                    err_n += 1;
                }
            }
        }
        let avg = err_sum / err_n.max(1) as f64;
        // Cast shadows deliberately smear the segmented blobs, biasing
        // centroids a few px toward the shadow side (that bias is the
        // realistic feature noise the retrieval experiments need), so
        // the accuracy bound is looser than pixel-perfect.
        assert!(avg < 7.0, "average centroid error {avg} px");
    }

    #[test]
    fn track_frames_are_contiguous() {
        let (_, out) = small_run();
        for t in &out.tracks {
            for w in t.points.windows(2) {
                assert_eq!(w[1].frame, w[0].frame + 1, "gap in track {}", t.id);
            }
        }
    }

    #[test]
    fn spcpe_toggle_changes_little_on_clean_scenes() {
        let scenario = Scenario::tunnel_small(22);
        let sim = World::run(scenario);
        let with = process(&sim, ScenarioKind::Tunnel, &PipelineConfig::default());
        let without = process(
            &sim,
            ScenarioKind::Tunnel,
            &PipelineConfig {
                use_spcpe: false,
                ..PipelineConfig::default()
            },
        );
        // Both configurations find a similar number of tracks.
        let a = with.tracks.len() as i64;
        let b = without.tracks.len() as i64;
        assert!((a - b).abs() <= 2, "spcpe {a} vs raw {b}");
    }

    #[test]
    fn intersection_pipeline_tracks_crossing_traffic() {
        let mut scenario = Scenario::intersection_paper(24);
        scenario.total_frames = 300;
        scenario.incidents.clear();
        let sim = World::run(scenario);
        let out = process(&sim, ScenarioKind::Intersection, &PipelineConfig::default());
        assert!(!out.tracks.is_empty(), "no tracks at the intersection");
        // Both travel directions appear: some tracks move mostly in x,
        // others mostly in y.
        let mut horizontal = 0;
        let mut vertical = 0;
        for t in &out.tracks {
            let first = t.points.first().unwrap().centroid;
            let last = t.points.last().unwrap().centroid;
            let dx = (last.x - first.x).abs();
            let dy = (last.y - first.y).abs();
            if dx > dy * 2.0 {
                horizontal += 1;
            } else if dy > dx * 2.0 {
                vertical += 1;
            }
        }
        assert!(horizontal > 0, "no east-west tracks");
        assert!(vertical > 0, "no north-south tracks");
    }

    #[test]
    fn tracks_at_filters_by_frame() {
        let (_, out) = small_run();
        if let Some(t) = out.tracks.first() {
            let mid = (t.start_frame() + t.end_frame()) / 2;
            assert!(out.tracks_at(mid).any(|x| x.id == t.id));
            if t.start_frame() > 0 {
                assert!(!out.tracks_at(t.start_frame() - 1).any(|x| x.id == t.id));
            }
        }
    }
}
