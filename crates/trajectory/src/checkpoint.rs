//! Checkpoint resampling and the per-checkpoint property vector of §4.
//!
//! The paper samples each trajectory every 5 frames ("sampling rate is 5
//! frames/checkpoints") and records three properties per checkpoint:
//!
//! * `vdiff` — the absolute change of speed since the previous
//!   checkpoint;
//! * `θ` — the absolute angle between the current and previous motion
//!   vectors (Fig. 3);
//! * `mdist` — the minimum distance to the nearest other vehicle, used
//!   inverted (`1/mdist`) in the property vector
//!   `α_i = [1/mdist_i, vdiff_i, θ_i]`.

use crate::model::TrajectoryModel;
use tsvr_sim::Vec2;
use tsvr_vision::Track;

/// Where per-checkpoint velocities (and hence `vdiff` and the motion
/// vectors behind `θ`) come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VelocitySource {
    /// §3.2's formulation: fit the centroid series with a least-squares
    /// polynomial ([`TrajectoryModel`]) and read the velocity off the
    /// fitted curve's first derivative, which smooths segmentation
    /// jitter out of the speed signal. The fit is re-anchored at every
    /// checkpoint over a local span of ±2 checkpoint intervals: the
    /// paper demonstrates the fit on short trajectory segments (Fig. 2),
    /// and one low-degree polynomial over a long multi-event track
    /// would smear an abrupt stop into nothing.
    PolyfitDerivative {
        /// Polynomial degree (paper Fig. 2: 4); automatically reduced
        /// when the local span holds too few points.
        degree: usize,
    },
    /// Raw centroid finite differences between consecutive checkpoints
    /// (the pre-§3.2 fallback; noisier but strictly local in time).
    FiniteDifference,
}

/// Configuration of the checkpoint/feature extraction.
#[derive(Debug, Clone, Copy)]
pub struct FeatureConfig {
    /// Frames between checkpoints (paper: 5).
    pub sampling_rate: u32,
    /// Distances above this are treated as "no neighbor" (the paper's
    /// clips are single-camera scenes; a vehicle on the far side of the
    /// image exerts no accident pressure).
    pub max_neighbor_dist: f64,
    /// Floor applied to `mdist` before inversion, so contact (distance
    /// ~0) maps to a finite maximum of `1/min_dist_floor`.
    pub min_dist_floor: f64,
    /// Minimum motion-vector length (px per checkpoint interval) for a
    /// direction to be defined. Below this the vehicle is effectively
    /// stationary and its centroid jitter would turn θ into pure noise
    /// (queued traffic at a red light would otherwise out-score real
    /// direction changes), so θ is reported as 0.
    pub min_motion: f64,
    /// Physical cap for `vdiff` (px/frame) used by the fixed-range
    /// normalization: no plausible vehicle in a surveillance image
    /// changes speed faster than this between checkpoints.
    pub vdiff_cap: f64,
    /// Velocity formulation (paper: the polynomial derivative).
    pub velocity: VelocitySource,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            sampling_rate: 5,
            max_neighbor_dist: 120.0,
            min_dist_floor: 4.0,
            min_motion: 2.5,
            vdiff_cap: 8.0,
            velocity: VelocitySource::PolyfitDerivative { degree: 4 },
        }
    }
}

impl FeatureConfig {
    /// Validates the configuration, returning a description of the
    /// first problem found.
    ///
    /// A zero (or negative, or non-finite) `min_dist_floor` is the
    /// dangerous one: it makes `inv_mdist = 1/mdist` unbounded, and the
    /// resulting ∞/NaN features flow into SVM training undetected and
    /// corrupt every downstream ranking. [`build_series`] rejects
    /// invalid configurations up front instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.sampling_rate < 1 {
            return Err("sampling_rate must be >= 1 frame per checkpoint".into());
        }
        if !(self.min_dist_floor > 0.0 && self.min_dist_floor.is_finite()) {
            return Err(format!(
                "min_dist_floor must be positive and finite (got {}); \
                 a zero floor makes 1/mdist infinite",
                self.min_dist_floor
            ));
        }
        if !(self.max_neighbor_dist > 0.0 && self.max_neighbor_dist.is_finite()) {
            return Err(format!(
                "max_neighbor_dist must be positive and finite (got {})",
                self.max_neighbor_dist
            ));
        }
        if !(self.min_motion >= 0.0 && self.min_motion.is_finite()) {
            return Err(format!(
                "min_motion must be non-negative and finite (got {})",
                self.min_motion
            ));
        }
        if !(self.vdiff_cap > 0.0 && self.vdiff_cap.is_finite()) {
            return Err(format!(
                "vdiff_cap must be positive and finite (got {})",
                self.vdiff_cap
            ));
        }
        if let VelocitySource::PolyfitDerivative { degree } = self.velocity {
            if degree < 1 {
                return Err("polyfit velocity degree must be >= 1".into());
            }
        }
        Ok(())
    }
}

/// The property vector α of one checkpoint (paper §4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alpha {
    /// `1 / mdist` — inverse distance to the nearest other vehicle
    /// (0 when no vehicle is within range).
    pub inv_mdist: f64,
    /// `vdiff` — absolute speed change since the previous checkpoint,
    /// px/frame.
    pub vdiff: f64,
    /// `θ` — absolute angle between consecutive motion vectors, radians.
    pub theta: f64,
}

impl Alpha {
    /// The all-zero vector (a perfectly steady, isolated vehicle).
    pub const ZERO: Alpha = Alpha {
        inv_mdist: 0.0,
        vdiff: 0.0,
        theta: 0.0,
    };

    /// As a 3-element array `[1/mdist, vdiff, θ]`.
    pub fn as_array(&self) -> [f64; 3] {
        [self.inv_mdist, self.vdiff, self.theta]
    }

    /// Fixed-range normalization into `[0, 1]³`, using each feature's
    /// *physical* bounds rather than the per-clip extrema:
    ///
    /// * `1/mdist` is divided by its theoretical maximum
    ///   `1/min_dist_floor` (bodies in contact);
    /// * `vdiff` by `vdiff_cap`;
    /// * `θ` by π (a full reversal).
    ///
    /// Per-clip min–max scaling would inflate ordinary following
    /// distances to near 1 in a clip where no two vehicles ever touch,
    /// making quiet traffic indistinguishable from contact events.
    /// Fixed ranges also keep features comparable across clips, which
    /// is what the paper's future-work normalization asks for.
    pub fn normalized(&self, cfg: &FeatureConfig) -> [f64; 3] {
        [
            (self.inv_mdist * cfg.min_dist_floor).clamp(0.0, 1.0),
            (self.vdiff / cfg.vdiff_cap).clamp(0.0, 1.0),
            (self.theta / std::f64::consts::PI).clamp(0.0, 1.0),
        ]
    }
}

/// A track resampled on the global checkpoint grid.
#[derive(Debug, Clone)]
pub struct CheckpointSeries {
    /// Originating track id.
    pub track_id: u64,
    /// Index of the first covered checkpoint on the global grid
    /// (checkpoint `k` is at frame `k * sampling_rate`).
    pub first_checkpoint: usize,
    /// Centroid position at each covered checkpoint.
    pub positions: Vec<Vec2>,
    /// Property vector at each covered checkpoint (same length as
    /// `positions`; the leading entries — one for the polyfit velocity
    /// source, two for finite differences — have zero `vdiff`/`θ`
    /// because no motion history exists yet).
    pub alphas: Vec<Alpha>,
}

impl CheckpointSeries {
    /// Number of covered checkpoints.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Index one past the last covered checkpoint.
    pub fn end_checkpoint(&self) -> usize {
        self.first_checkpoint + self.len()
    }

    /// Whether checkpoints `[k0, k1)` are all covered.
    pub fn covers(&self, k0: usize, k1: usize) -> bool {
        k0 >= self.first_checkpoint && k1 <= self.end_checkpoint()
    }

    /// Position at global checkpoint `k`, if covered.
    pub fn position_at(&self, k: usize) -> Option<Vec2> {
        if k < self.first_checkpoint {
            return None;
        }
        self.positions.get(k - self.first_checkpoint).copied()
    }

    /// α at global checkpoint `k`, if covered.
    pub fn alpha_at(&self, k: usize) -> Option<Alpha> {
        if k < self.first_checkpoint {
            return None;
        }
        self.alphas.get(k - self.first_checkpoint).copied()
    }
}

/// Resamples every track on the global checkpoint grid and computes the
/// per-checkpoint property vectors. `mdist` at a checkpoint considers
/// every *other* track alive at the same checkpoint (not only those
/// that later qualify as trajectory sequences).
///
/// Pass 2 (the all-pairs neighbor scan) fans out one task per series on
/// the [`tsvr_par`] runtime; each series' α vector depends only on the
/// read-only pass-1 positions, so the parallel result is bit-identical
/// to the sequential loop.
///
/// # Panics
///
/// Panics if `cfg` fails [`FeatureConfig::validate`] — an invalid
/// configuration (e.g. a zero `min_dist_floor`) would silently emit
/// non-finite features.
pub fn build_series(tracks: &[Track], cfg: &FeatureConfig) -> Vec<CheckpointSeries> {
    if let Err(msg) = cfg.validate() {
        panic!("invalid FeatureConfig: {msg}");
    }
    let rate = cfg.sampling_rate;

    // Pass 1: per-track checkpoint positions.
    struct Raw {
        track_id: u64,
        track_index: usize,
        first: usize,
        positions: Vec<Vec2>,
    }
    let mut raws: Vec<Raw> = Vec::new();
    for (track_index, t) in tracks.iter().enumerate() {
        let start = t.start_frame();
        let end = t.end_frame();
        let first = start.div_ceil(rate) as usize;
        let last = (end / rate) as usize;
        if last < first {
            continue;
        }
        let mut positions = Vec::with_capacity(last - first + 1);
        for k in first..=last {
            let frame = k as u32 * rate;
            match t.centroid_at(frame) {
                Some(c) => positions.push(c),
                None => unreachable!("track frames are contiguous"),
            }
        }
        raws.push(Raw {
            track_id: t.id,
            track_index,
            first,
            positions,
        });
    }

    // Fitted tangent velocities per checkpoint (independent
    // least-squares solves per series, so they also fan out).
    let velocities: Vec<Option<Vec<Vec2>>> = match cfg.velocity {
        VelocitySource::PolyfitDerivative { degree } => tsvr_par::par_map(&raws, |_, r| {
            Some(polyfit_velocities(
                &tracks[r.track_index],
                r.first,
                r.positions.len(),
                rate,
                degree,
            ))
        }),
        VelocitySource::FiniteDifference => raws.iter().map(|_| None).collect(),
    };

    // Pass 2: property vectors, with mdist against all other series.
    let alphas_per_series: Vec<Vec<Alpha>> = tsvr_par::par_map(&raws, |i, raw| {
        let vels = velocities[i].as_ref();
        let mut alphas = Vec::with_capacity(raw.positions.len());
        for (j, &pos) in raw.positions.iter().enumerate() {
            let k = raw.first + j;
            // Minimum distance to any other vehicle at this checkpoint.
            let mut mdist = f64::INFINITY;
            for (o, other) in raws.iter().enumerate() {
                if o == i {
                    continue;
                }
                if let Some(op) = other
                    .positions
                    .get(k.wrapping_sub(other.first))
                    .filter(|_| k >= other.first)
                {
                    mdist = mdist.min(pos.dist(*op));
                }
            }
            let inv_mdist = if mdist <= cfg.max_neighbor_dist {
                1.0 / mdist.max(cfg.min_dist_floor)
            } else {
                0.0
            };

            let (vdiff, theta) = match vels {
                // §3.2: velocity is the fitted curve's tangent, defined
                // at every checkpoint, so one step of history suffices.
                Some(vels) if j >= 1 => {
                    let v1 = vels[j - 1];
                    let v2 = vels[j];
                    // Tangent px/frame × rate = px per checkpoint
                    // interval, the unit `min_motion` is stated in.
                    let step = rate as f64;
                    (
                        (v2.norm() - v1.norm()).abs(),
                        if v1.norm() * step >= cfg.min_motion && v2.norm() * step >= cfg.min_motion
                        {
                            v1.angle_between(v2)
                        } else {
                            0.0
                        },
                    )
                }
                // Raw finite differences need two checkpoints of
                // history to form both motion vectors.
                None if j >= 2 => {
                    let m1 = raw.positions[j - 1] - raw.positions[j - 2];
                    let m2 = pos - raw.positions[j - 1];
                    let v1 = m1.norm() / rate as f64;
                    let v2 = m2.norm() / rate as f64;
                    (
                        (v2 - v1).abs(),
                        if m1.norm() >= cfg.min_motion && m2.norm() >= cfg.min_motion {
                            m1.angle_between(m2)
                        } else {
                            0.0
                        },
                    )
                }
                _ => (0.0, 0.0),
            };

            alphas.push(Alpha {
                inv_mdist,
                vdiff,
                theta,
            });
        }
        alphas
    });

    raws.into_iter()
        .zip(alphas_per_series)
        .map(|(raw, alphas)| CheckpointSeries {
            track_id: raw.track_id,
            first_checkpoint: raw.first,
            positions: raw.positions,
            alphas,
        })
        .collect()
}

/// Tangent velocity (px/frame) at each covered checkpoint of one track,
/// from least-squares polynomial fits re-anchored on a local span of
/// ±2 checkpoint intervals around each checkpoint.
fn polyfit_velocities(
    track: &Track,
    first: usize,
    count: usize,
    rate: u32,
    degree: usize,
) -> Vec<Vec2> {
    let start = track.start_frame();
    let end = track.end_frame();
    let half_span = 2 * rate;
    (0..count)
        .map(|j| {
            let frame = (first + j) as u32 * rate;
            let lo = frame.saturating_sub(half_span).max(start);
            let hi = (frame + half_span).min(end);
            let sub = Track {
                id: track.id,
                points: track.points[(lo - start) as usize..=(hi - start) as usize].to_vec(),
                stats: Default::default(),
            };
            match TrajectoryModel::fit(&sub, degree) {
                Ok(m) => m.velocity(frame as f64),
                // Degenerate span (e.g. collinear duplicate centroids
                // defeating the solver): raw one-frame slope.
                Err(_) => {
                    let p = track.points[(frame - start) as usize].centroid;
                    let prev = frame.max(start + 1) - 1;
                    let q = track.points[(prev - start) as usize].centroid;
                    p - q
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvr_sim::Aabb;
    use tsvr_vision::TrackPoint;

    fn track(id: u64, frames: std::ops::Range<u32>, f: impl Fn(f64) -> Vec2) -> Track {
        Track {
            id,
            points: frames
                .map(|fr| {
                    let c = f(fr as f64);
                    TrackPoint {
                        frame: fr,
                        centroid: c,
                        mbr: Aabb::from_corners(c, c),
                        coasted: false,
                    }
                })
                .collect(),
            stats: Default::default(),
        }
    }

    fn cfg() -> FeatureConfig {
        FeatureConfig::default()
    }

    fn fd_cfg() -> FeatureConfig {
        FeatureConfig {
            velocity: VelocitySource::FiniteDifference,
            ..FeatureConfig::default()
        }
    }

    #[test]
    fn grid_alignment() {
        // Track covering frames 7..=23 with rate 5 covers checkpoints
        // 2 (frame 10), 3 (15), 4 (20).
        let t = track(1, 7..24, |f| Vec2::new(f, 0.0));
        let s = build_series(&[t], &cfg());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].first_checkpoint, 2);
        assert_eq!(s[0].len(), 3);
        assert_eq!(s[0].positions[0], Vec2::new(10.0, 0.0));
        assert!(s[0].covers(2, 5));
        assert!(!s[0].covers(1, 4));
        assert!(s[0].position_at(4).is_some());
        assert!(s[0].position_at(5).is_none());
        assert!(s[0].position_at(1).is_none());
    }

    #[test]
    fn steady_motion_has_zero_features() {
        let t = track(1, 0..60, |f| Vec2::new(3.0 * f, 100.0));
        // Finite differences on an exact line are exactly quiet.
        let s = build_series(std::slice::from_ref(&t), &fd_cfg());
        for a in &s[0].alphas {
            assert_eq!(a.inv_mdist, 0.0); // no neighbors
            assert!(a.vdiff < 1e-9);
            assert!(a.theta < 1e-9);
        }
        // The fitted-polynomial tangent recovers the line to solver
        // precision.
        let s = build_series(&[t], &cfg());
        for a in &s[0].alphas {
            assert_eq!(a.inv_mdist, 0.0);
            assert!(a.vdiff < 1e-5, "vdiff {}", a.vdiff);
            assert!(a.theta < 1e-5, "theta {}", a.theta);
        }
    }

    #[test]
    fn sudden_stop_produces_vdiff_spike() {
        // 4 px/frame until frame 30, then stopped. Raw finite
        // differences localize the spike to one checkpoint.
        let t = track(1, 0..60, |f| {
            let x = if f <= 30.0 { 4.0 * f } else { 120.0 };
            Vec2::new(x, 100.0)
        });
        let s = build_series(std::slice::from_ref(&t), &fd_cfg());
        let max_vdiff = s[0].alphas.iter().map(|a| a.vdiff).fold(0.0, f64::max);
        assert!(max_vdiff > 3.0, "max vdiff {max_vdiff}");
        // Steady phases on both sides are quiet.
        assert!(s[0].alphas[2].vdiff < 1e-9);
        assert!(s[0].alphas.last().unwrap().vdiff < 1e-9);

        // The polynomial tangent smears the discontinuity but still
        // registers a clear deceleration signal.
        let s = build_series(&[t], &cfg());
        let max_vdiff = s[0].alphas.iter().map(|a| a.vdiff).fold(0.0, f64::max);
        assert!(max_vdiff > 1.0, "polyfit max vdiff {max_vdiff}");
    }

    #[test]
    fn turn_produces_theta_spike() {
        // Move +x, then turn to +y at frame 30.
        let t = track(1, 0..60, |f| {
            if f <= 30.0 {
                Vec2::new(3.0 * f, 100.0)
            } else {
                Vec2::new(90.0, 100.0 + 3.0 * (f - 30.0))
            }
        });
        let s = build_series(&[t], &fd_cfg());
        let max_theta = s[0].alphas.iter().map(|a| a.theta).fold(0.0, f64::max);
        assert!(
            (max_theta - std::f64::consts::FRAC_PI_2).abs() < 0.4,
            "max theta {max_theta}"
        );
    }

    #[test]
    fn velocity_sources_agree_on_smooth_track() {
        // A gentle constant-curvature arc is exactly representable by
        // the polynomial model and well sampled by finite differences,
        // so the two formulations must agree closely.
        let t = track(1, 0..80, |f| Vec2::new(3.0 * f, 100.0 + 0.01 * f * f));
        let fd = build_series(std::slice::from_ref(&t), &fd_cfg());
        let pf = build_series(&[t], &cfg());
        assert_eq!(fd[0].len(), pf[0].len());
        // Skip the warm-up entries (fd needs two steps of history).
        for (a, b) in fd[0].alphas.iter().zip(&pf[0].alphas).skip(2) {
            assert!(
                (a.vdiff - b.vdiff).abs() < 0.05,
                "vdiff fd {} vs polyfit {}",
                a.vdiff,
                b.vdiff
            );
            assert!(
                (a.theta - b.theta).abs() < 0.05,
                "theta fd {} vs polyfit {}",
                a.theta,
                b.theta
            );
        }
    }

    #[test]
    fn polyfit_smooths_centroid_jitter() {
        // Line plus uncorrelated ±1 px per-frame jitter (hash noise,
        // the shape of segmentation centroid error): raw finite
        // differences see phantom speed changes at every checkpoint;
        // the fitted tangent averages the whole local span.
        let noise = |f: f64| {
            let h = (f as u32).wrapping_mul(2654435761);
            ((h >> 16) & 0xff) as f64 / 127.5 - 1.0
        };
        let t = track(1, 0..80, |f| {
            Vec2::new(3.0 * f + noise(f), 100.0 + noise(f + 1000.0))
        });
        let noisy = build_series(std::slice::from_ref(&t), &fd_cfg());
        let smooth = build_series(&[t], &cfg());
        // Compare interior checkpoints, where the fitting span is
        // centered (at the track edges the off-center evaluation is
        // noisier by construction, for either source).
        let max = |s: &CheckpointSeries| {
            let n = s.alphas.len();
            s.alphas[3..n - 3]
                .iter()
                .map(|a| a.vdiff)
                .fold(0.0, f64::max)
        };
        assert!(
            max(&smooth[0]) < max(&noisy[0]),
            "polyfit {} vs fd {}",
            max(&smooth[0]),
            max(&noisy[0])
        );
    }

    #[test]
    fn config_validation_catches_degenerate_values() {
        assert!(cfg().validate().is_ok());
        assert!(fd_cfg().validate().is_ok());

        let bad = |f: fn(&mut FeatureConfig)| {
            let mut c = cfg();
            f(&mut c);
            c.validate()
        };
        assert!(bad(|c| c.sampling_rate = 0).is_err());
        assert!(bad(|c| c.min_dist_floor = 0.0).is_err());
        assert!(bad(|c| c.min_dist_floor = -1.0).is_err());
        assert!(bad(|c| c.min_dist_floor = f64::NAN).is_err());
        assert!(bad(|c| c.max_neighbor_dist = f64::INFINITY).is_err());
        assert!(bad(|c| c.max_neighbor_dist = 0.0).is_err());
        assert!(bad(|c| c.min_motion = -0.5).is_err());
        assert!(bad(|c| c.min_motion = f64::NAN).is_err());
        assert!(bad(|c| c.vdiff_cap = 0.0).is_err());
        assert!(bad(|c| c.velocity = VelocitySource::PolyfitDerivative { degree: 0 }).is_err());
    }

    #[test]
    #[should_panic(expected = "min_dist_floor")]
    fn build_series_rejects_zero_dist_floor() {
        let t = track(1, 0..30, |f| Vec2::new(f, 0.0));
        let c = FeatureConfig {
            min_dist_floor: 0.0,
            ..FeatureConfig::default()
        };
        let _ = build_series(&[t], &c);
    }

    #[test]
    fn mdist_reflects_proximity() {
        let a = track(1, 0..60, |f| Vec2::new(3.0 * f, 100.0));
        // Converges toward track a.
        let b = track(2, 0..60, |f| Vec2::new(3.0 * f, 160.0 - f));
        let s = build_series(&[a, b], &cfg());
        let inv =
            |s: &CheckpointSeries| -> Vec<f64> { s.alphas.iter().map(|a| a.inv_mdist).collect() };
        let ia = inv(&s[0]);
        // Distance shrinks over time, so 1/mdist grows.
        assert!(ia.last().unwrap() > ia.first().unwrap());
        // Symmetric for the other track.
        let ib = inv(&s[1]);
        for (x, y) in ia.iter().zip(&ib) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn mdist_floor_caps_inverse() {
        let a = track(1, 0..30, |f| Vec2::new(3.0 * f, 100.0));
        let b = track(2, 0..30, |f| Vec2::new(3.0 * f, 100.5)); // almost touching
        let s = build_series(&[a, b], &cfg());
        let max_inv = s[0].alphas.iter().map(|a| a.inv_mdist).fold(0.0, f64::max);
        assert!((max_inv - 1.0 / cfg().min_dist_floor).abs() < 1e-9);
    }

    #[test]
    fn distant_vehicles_do_not_register() {
        let a = track(1, 0..30, |f| Vec2::new(3.0 * f, 10.0));
        let b = track(2, 0..30, |f| Vec2::new(3.0 * f, 300.0));
        let s = build_series(&[a, b], &cfg());
        assert!(s[0].alphas.iter().all(|x| x.inv_mdist == 0.0));
    }

    #[test]
    fn short_track_yields_no_series() {
        // 3 frames at rate 5 may cover at most one checkpoint; a track
        // covering none disappears.
        let t = track(1, 6..9, |f| Vec2::new(f, 0.0));
        let s = build_series(&[t], &cfg());
        assert!(s.is_empty());
    }

    #[test]
    fn alpha_at_respects_grid() {
        let t = track(1, 0..40, |f| Vec2::new(f, 0.0));
        let s = build_series(&[t], &cfg());
        assert!(s[0].alpha_at(0).is_some());
        assert!(s[0].alpha_at(7).is_some());
        assert!(s[0].alpha_at(8).is_none());
        assert_eq!(s[0].alpha_at(0).unwrap(), Alpha::ZERO);
    }

    #[test]
    fn as_array_layout_matches_paper() {
        let a = Alpha {
            inv_mdist: 0.5,
            vdiff: 1.5,
            theta: 0.3,
        };
        assert_eq!(a.as_array(), [0.5, 1.5, 0.3]);
    }
}
