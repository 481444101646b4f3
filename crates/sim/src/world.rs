//! The frame-stepped simulation engine.
//!
//! [`World`] owns the vehicles, the incident scheduler and the ground
//! truth log. Each [`World::step`] advances one frame and returns a
//! [`FrameObservation`] — the list of vehicles visible in the camera
//! image with their poses. Downstream, `tsvr-vision` rasterizes these
//! observations into pixels and re-detects the vehicles, so the learning
//! pipeline never touches the simulator state directly.

use crate::geometry::{wrap_angle, Vec2};
use crate::idm::{self, IdmParams, Leader};
use crate::incident::{IncidentKind, IncidentRecord, IncidentSpec};
use crate::rng::Pcg32;
use crate::road::{LaneId, RoadNetwork, TUNNEL_WALL_BOTTOM, TUNNEL_WALL_TOP};
use crate::scenario::{Scenario, ScenarioKind};
use crate::signal::{SignalController, SignalState};

/// Coarse vehicle class, assigned at spawn time and recoverable by the
/// PCA classifier in `tsvr-vision` (paper §3.1, citing \[13\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VehicleClass {
    /// Sedan/compact.
    Car,
    /// Sport-utility vehicle.
    Suv,
    /// Pick-up truck.
    Pickup,
}

impl VehicleClass {
    /// Body half-extents (half length, half width) in pixels.
    pub fn half_extents(self) -> (f64, f64) {
        match self {
            VehicleClass::Car => (11.0, 5.0),
            VehicleClass::Suv => (12.5, 6.0),
            VehicleClass::Pickup => (14.0, 6.0),
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            VehicleClass::Car => "car",
            VehicleClass::Suv => "suv",
            VehicleClass::Pickup => "pickup",
        }
    }

    /// Inverse of [`VehicleClass::name`].
    pub fn from_name(name: &str) -> Option<VehicleClass> {
        VehicleClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Every class, in display order.
    pub const ALL: [VehicleClass; 3] = [VehicleClass::Car, VehicleClass::Suv, VehicleClass::Pickup];
}

/// One vehicle as seen in the camera image at a given frame.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleObs {
    /// Stable simulator id.
    pub id: u64,
    /// Ground-truth class.
    pub class: VehicleClass,
    /// Center of the vehicle footprint, image pixels.
    pub center: Vec2,
    /// Heading angle in radians (direction of motion).
    pub heading: f64,
    /// Half length along the heading, px.
    pub half_len: f64,
    /// Half width across the heading, px.
    pub half_wid: f64,
    /// Actual displacement magnitude this frame, px/frame.
    pub speed: f64,
}

/// All vehicles visible at one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameObservation {
    /// Frame index, starting at 0.
    pub frame: u32,
    /// Visible vehicles.
    pub vehicles: Vec<VehicleObs>,
}

/// Result of a full simulation run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// One observation per simulated frame.
    pub frames: Vec<FrameObservation>,
    /// Ground-truth incident log.
    pub incidents: Vec<IncidentRecord>,
}

impl SimOutput {
    /// Splits one recording at a frame boundary into two clips, as if
    /// two cameras with adjacent (non-overlapping) coverage filmed the
    /// same scene — the multi-camera handoff substrate. Frames of the
    /// second clip are re-based to start at 0, and each ground-truth
    /// record is carried into every clip whose span it overlaps, with
    /// its frame span clamped to that clip (so an incident straddling
    /// the boundary is ground truth on *both* sides of the handoff).
    pub fn split_at(&self, frame: u32) -> (SimOutput, SimOutput) {
        let cut = (frame as usize).min(self.frames.len());
        let first_frames: Vec<FrameObservation> = self.frames[..cut].to_vec();
        let second_frames: Vec<FrameObservation> = self.frames[cut..]
            .iter()
            .map(|f| FrameObservation {
                frame: f.frame - cut as u32,
                vehicles: f.vehicles.clone(),
            })
            .collect();
        let cut = cut as u32;
        let mut first_inc = Vec::new();
        let mut second_inc = Vec::new();
        for rec in &self.incidents {
            if rec.start_frame < cut {
                first_inc.push(IncidentRecord {
                    end_frame: rec.end_frame.min(cut.saturating_sub(1)),
                    ..rec.clone()
                });
            }
            if rec.end_frame >= cut {
                second_inc.push(IncidentRecord {
                    start_frame: rec.start_frame.max(cut) - cut,
                    end_frame: rec.end_frame - cut,
                    ..rec.clone()
                });
            }
        }
        (
            SimOutput {
                width: self.width,
                height: self.height,
                frames: first_frames,
                incidents: first_inc,
            },
            SimOutput {
                width: self.width,
                height: self.height,
                frames: second_frames,
                incidents: second_inc,
            },
        )
    }
}

/// How a vehicle's pose is driven.
#[derive(Debug, Clone)]
enum Mode {
    /// Following a lane centerline at arc length `s` with lateral offset
    /// `lat` (px, positive to the left of travel).
    Lane { lane: LaneId, s: f64, lat: f64 },
    /// Free motion with an explicit pose (used during/after U-turns).
    Free { pos: Vec2, heading: f64 },
}

/// Scripted behaviour override. `None` means normal IDM driving.
#[derive(Debug, Clone)]
enum Maneuver {
    None,
    /// Brake at `decel` until standstill, then hold position.
    Stopping {
        decel: f64,
    },
    /// Veer laterally at `lat_rate` until reaching `target_lat`, then
    /// crash (switch to `Stopping`).
    WallVeer {
        lat_rate: f64,
        target_lat: f64,
    },
    /// Ignore the leader until the gap falls below `stop_gap`, then
    /// crash-brake at `decel`.
    Distracted {
        stop_gap: f64,
        decel: f64,
    },
    /// Drive at constant speed ignoring signals/leaders until reaching
    /// arc length `stop_s` or colliding with `partner`, then crash.
    RunThrough {
        stop_s: f64,
        partner: u64,
    },
    /// Rotate heading by `remaining` radians at `rate` rad/frame.
    UTurn {
        rate: f64,
        remaining: f64,
    },
    /// Elevated desired speed for `frames_left` frames.
    Speeding {
        factor: f64,
        frames_left: u32,
    },
    /// Brake at `decel` to a crawl, hold the crawl for `hold` frames,
    /// then release back to normal IDM driving. Unlike [`Maneuver::Stopping`]
    /// the vehicle never becomes a wreck — this is the near-miss leader
    /// and the pedestrian-yield behaviour.
    BrakeRelease {
        decel: f64,
        hold: u32,
    },
    /// Hold speed ignoring the leader until the gap falls below
    /// `trigger_gap`, then brake-and-release — the near-miss follower
    /// whose late reaction still resolves the conflict without contact.
    LateBrake {
        trigger_gap: f64,
        decel: f64,
        hold: u32,
    },
    /// Veer laterally to `out_lat` at `lat_rate`, hold for `hold`
    /// frames, then steer back to the centerline (evasive swerve).
    Swerve {
        lat_rate: f64,
        out_lat: f64,
        hold: u32,
        returning: bool,
    },
    /// Steer the lateral offset back to the centerline at `lat_rate`
    /// after a cut-in to an adjacent lane (occlusion-heavy merge).
    MergeIn {
        lat_rate: f64,
    },
    /// Pulse between a crawl and cruise `cycles` times — the stop-and-go
    /// shockwave leader. `phase`: 0 = braking, 1 = crawling, 2 =
    /// re-accelerating.
    StopAndGo {
        cycles: u32,
        phase: u8,
        timer: u32,
    },
}

#[derive(Debug, Clone)]
struct Vehicle {
    id: u64,
    class: VehicleClass,
    half_len: f64,
    half_wid: f64,
    idm: IdmParams,
    mode: Mode,
    speed: f64,
    maneuver: Maneuver,
    /// Frames remaining before a stopped (crashed) vehicle is removed.
    hold_left: Option<u32>,
    prev_center: Option<Vec2>,
}

/// The simulation engine.
pub struct World {
    scenario: Scenario,
    network: RoadNetwork,
    signal: Option<SignalController>,
    rng: Pcg32,
    frame: u32,
    next_id: u64,
    vehicles: Vec<Vehicle>,
    /// Next spawn frame per lane.
    next_spawn: Vec<u32>,
    pending: Vec<IncidentSpec>,
    incidents: Vec<IncidentRecord>,
    /// Arc length of each lane's closest approach to the image center
    /// (conflict-zone anchor for side collisions).
    lane_center_s: Vec<f64>,
}

/// Frames after the scheduled trigger during which the world keeps
/// looking for candidate vehicles before dropping an incident spec.
const TRIGGER_PATIENCE: u32 = 400;

impl World {
    /// Builds a world for a scenario (spawns begin on the first step).
    ///
    /// ```
    /// use tsvr_sim::{Scenario, World};
    ///
    /// let out = World::run(Scenario::tunnel_small(7));
    /// assert_eq!(out.frames.len(), 400);
    /// assert!(out.incidents.iter().any(|r| r.kind.is_accident()));
    /// // Deterministic: same seed, same world.
    /// assert_eq!(World::run(Scenario::tunnel_small(7)).incidents, out.incidents);
    /// ```
    pub fn new(scenario: Scenario) -> World {
        let network = scenario.network();
        let signal = scenario.signal();
        let mut rng = Pcg32::new(scenario.seed, scenario.rng_stream);
        let next_spawn = (0..network.lane_count())
            .map(|_| rng.exponential(1.0 / scenario.mean_spawn_interval).round() as u32)
            .collect();
        let lane_center_s = network
            .lanes
            .iter()
            .map(|lane| {
                let c = Vec2::new(network.width as f64 / 2.0, network.height as f64 / 2.0);
                let n = 200;
                let mut best = (0.0, f64::INFINITY);
                for i in 0..=n {
                    let s = lane.length() * i as f64 / n as f64;
                    let d = lane.position(s).dist(c);
                    if d < best.1 {
                        best = (s, d);
                    }
                }
                best.0
            })
            .collect();
        let pending = scenario.incidents.clone();
        World {
            scenario,
            network,
            signal,
            rng,
            frame: 0,
            next_id: 1,
            vehicles: Vec::new(),
            next_spawn,
            pending,
            incidents: Vec::new(),
            lane_center_s,
        }
    }

    /// Runs a scenario to completion.
    pub fn run(scenario: Scenario) -> SimOutput {
        let total = scenario.total_frames;
        let mut world = World::new(scenario);
        let mut frames = Vec::with_capacity(total as usize);
        for _ in 0..total {
            frames.push(world.step());
        }
        SimOutput {
            width: world.network.width,
            height: world.network.height,
            frames,
            incidents: world.incidents.clone(),
        }
    }

    /// Ground-truth incidents triggered so far.
    pub fn incidents(&self) -> &[IncidentRecord] {
        &self.incidents
    }

    /// Current frame index (frames simulated so far).
    pub fn frame(&self) -> u32 {
        self.frame
    }

    /// Number of live vehicles.
    pub fn vehicle_count(&self) -> usize {
        self.vehicles.len()
    }

    /// Advances the world by one frame and reports what the camera sees.
    pub fn step(&mut self) -> FrameObservation {
        self.trigger_incidents();
        self.advance_vehicles();
        self.despawn();
        self.spawn();
        let obs = self.observe();
        self.frame += 1;
        obs
    }

    // ---- incident triggering -------------------------------------------------

    fn trigger_incidents(&mut self) {
        let frame = self.frame;
        let mut remaining = Vec::new();
        let pending = std::mem::take(&mut self.pending);
        for spec in pending {
            if frame < spec.at_frame {
                remaining.push(spec);
                continue;
            }
            if frame > spec.at_frame + TRIGGER_PATIENCE {
                continue; // drop: no candidate appeared in time
            }
            if !self.try_trigger(spec.kind) {
                remaining.push(spec);
            }
        }
        self.pending = remaining;
    }

    fn try_trigger(&mut self, kind: IncidentKind) -> bool {
        match kind {
            IncidentKind::WallCrash => self.trigger_wall_crash(),
            IncidentKind::SuddenStop => self.trigger_sudden_stop(),
            IncidentKind::RearEndCrash => self.trigger_rear_end(),
            IncidentKind::SideCollision => self.trigger_side_collision(),
            IncidentKind::UTurn => self.trigger_u_turn(),
            IncidentKind::Speeding => self.trigger_speeding(),
            IncidentKind::NearMissBrake => self.trigger_near_miss_brake(),
            IncidentKind::NearMissSwerve => self.trigger_near_miss_swerve(),
            IncidentKind::OcclusionMerge => self.trigger_occlusion_merge(),
            IncidentKind::Shockwave => self.trigger_shockwave(),
            IncidentKind::WrongWay => self.trigger_wrong_way(),
            IncidentKind::Pedestrian => self.trigger_pedestrian(),
        }
    }

    fn record(&mut self, kind: IncidentKind, ids: Vec<u64>) {
        self.incidents.push(IncidentRecord {
            kind,
            start_frame: self.frame,
            end_frame: self.frame + kind.nominal_duration(),
            vehicle_ids: ids,
        });
    }

    /// Indices of vehicles in normal lane driving within the mid-region
    /// of their lane (visible, with room for the event to play out).
    fn candidates(&self) -> Vec<usize> {
        self.vehicles
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                matches!(v.maneuver, Maneuver::None)
                    && v.hold_left.is_none()
                    && match &v.mode {
                        Mode::Lane { lane, s, lat } => {
                            let l = self.network.lane(*lane);
                            *s > 0.28 * l.length() && *s < 0.62 * l.length() && lat.abs() < 4.0
                        }
                        Mode::Free { .. } => false,
                    }
            })
            .map(|(i, _)| i)
            .collect()
    }

    fn trigger_wall_crash(&mut self) -> bool {
        if self.scenario.kind != ScenarioKind::Tunnel {
            return false;
        }
        let cands = self.candidates();
        // Fastest candidate: the paper's wall crashes follow speeding.
        let Some(&idx) = cands.iter().max_by(|&&a, &&b| {
            self.vehicles[a]
                .speed
                .partial_cmp(&self.vehicles[b].speed)
                .unwrap()
        }) else {
            return false;
        };
        let v = &mut self.vehicles[idx];
        let Mode::Lane { lane, .. } = v.mode else {
            return false;
        };
        let lane_y = self.network.lane(lane).position(0.0).y;
        let target_lat = if lane_y < 120.0 {
            // Upper lane: veer to the top wall. Lane heading is +x, so
            // "left of travel" (positive lat) is +y; the top wall needs
            // negative lat.
            TUNNEL_WALL_TOP + v.half_wid - lane_y
        } else {
            TUNNEL_WALL_BOTTOM - v.half_wid - lane_y
        };
        v.speed = (v.speed * 1.6).min(7.0); // loses control while speeding
        v.maneuver = Maneuver::WallVeer {
            lat_rate: target_lat / 12.0,
            target_lat,
        };
        let id = v.id;
        // The *scene* reads as an accident from mid-veer through the
        // impact; the initial drift alone is not yet labeled (a viewer
        // cannot distinguish it from a lane change).
        let start = self.frame + 6;
        self.incidents.push(IncidentRecord {
            kind: IncidentKind::WallCrash,
            start_frame: start,
            end_frame: start + IncidentKind::WallCrash.nominal_duration(),
            vehicle_ids: vec![id],
        });
        true
    }

    fn trigger_sudden_stop(&mut self) -> bool {
        // Slowest eligible vehicle: sudden stops from moderate speeds
        // produce the paper's "graded" event strength (strong wall
        // crashes dominate the initial query; milder stops are only
        // retrieved once the learner has seen similar examples).
        let cands = self.candidates();
        let Some(&idx) = cands
            .iter()
            .filter(|&&i| self.vehicles[i].speed > 1.8)
            .min_by(|&&a, &&b| {
                self.vehicles[a]
                    .speed
                    .partial_cmp(&self.vehicles[b].speed)
                    .unwrap()
            })
        else {
            return false;
        };
        let v = &mut self.vehicles[idx];
        v.maneuver = Maneuver::Stopping { decel: 0.7 };
        let id = v.id;
        self.record(IncidentKind::SuddenStop, vec![id]);
        true
    }

    /// Finds a (leader, follower) pair on a shared lane whose gap lies
    /// in `(min_gap, max_gap)`, both driving normally at or above
    /// `min_speed`; the closest qualifying pair wins. Shared by the
    /// rear-end crash and near-miss triggers — the same geometry with
    /// different resolutions.
    fn following_pair(&self, min_gap: f64, max_gap: f64, min_speed: f64) -> Option<(usize, usize)> {
        let snapshot: Vec<(usize, LaneId, f64, f64)> = self
            .vehicles
            .iter()
            .enumerate()
            .filter_map(|(i, v)| match (&v.mode, &v.maneuver) {
                (Mode::Lane { lane, s, .. }, Maneuver::None) if v.hold_left.is_none() => {
                    Some((i, *lane, *s, v.speed))
                }
                _ => None,
            })
            .collect();
        let mut best: Option<(usize, usize, f64)> = None;
        for &(fi, fl, fs, fv) in &snapshot {
            if fv < min_speed {
                continue;
            }
            for &(li, ll, ls, lv) in &snapshot {
                if li == fi || ll != fl || ls <= fs || lv < min_speed {
                    continue;
                }
                let gap = ls - fs;
                if (min_gap..max_gap).contains(&gap) {
                    match best {
                        Some((_, _, g)) if g <= gap => {}
                        _ => best = Some((li, fi, gap)),
                    }
                }
            }
        }
        best.map(|(li, fi, _)| (li, fi))
    }

    fn trigger_rear_end(&mut self) -> bool {
        // A (leader, follower) pair on the same lane with a medium gap,
        // both driving normally and at speed.
        let Some((li, fi)) = self.following_pair(20.0, 90.0, 1.5) else {
            return false;
        };
        let (lid, fid) = (self.vehicles[li].id, self.vehicles[fi].id);
        self.vehicles[li].maneuver = Maneuver::Stopping { decel: 0.8 };
        self.vehicles[fi].maneuver = Maneuver::Distracted {
            stop_gap: 2.5,
            decel: 2.2,
        };
        // Keep the follower moving briskly into the impact.
        self.vehicles[fi].speed = self.vehicles[fi].speed.max(2.2);
        self.record(IncidentKind::RearEndCrash, vec![lid, fid]);
        true
    }

    fn trigger_side_collision(&mut self) -> bool {
        if self.scenario.kind != ScenarioKind::Intersection {
            return false;
        }
        // One vehicle per crossing approach, both upstream of the
        // conflict zone.
        let mut ew: Vec<(usize, f64)> = Vec::new(); // (index, dist to conflict)
        let mut ns: Vec<(usize, f64)> = Vec::new();
        for (i, v) in self.vehicles.iter().enumerate() {
            let (Mode::Lane { lane, s, .. }, Maneuver::None) = (&v.mode, &v.maneuver) else {
                continue;
            };
            if v.hold_left.is_some() || v.speed < 1.0 {
                continue;
            }
            let dist = self.lane_center_s[*lane] - s;
            if !(25.0..150.0).contains(&dist) {
                continue;
            }
            match self.network.lane(*lane).approach.as_str() {
                "ew" => ew.push((i, dist)),
                "ns" => ns.push((i, dist)),
                _ => {}
            }
        }
        let (Some(&(ei, ed)), Some(&(ni, nd))) = (ew.first(), ns.first()) else {
            return false;
        };
        // Synchronize arrival: both reach the conflict point in T frames.
        let t = (ed / self.vehicles[ei].speed)
            .max(nd / self.vehicles[ni].speed)
            .clamp(10.0, 70.0);
        let (eid, nid) = (self.vehicles[ei].id, self.vehicles[ni].id);
        for (&i, d, partner) in [(&ei, ed, nid), (&ni, nd, eid)] {
            let v = &mut self.vehicles[i];
            v.speed = (d / t).clamp(1.2, 5.5);
            let Mode::Lane { lane, .. } = v.mode else {
                unreachable!()
            };
            // Stop short of the exact conflict point: the bodies end up
            // nearly touching but not overlapping, which matches real
            // collisions as a segmenter sees them (two adjacent blobs,
            // not one merged blob) and keeps both vehicles trackable
            // through the event.
            v.maneuver = Maneuver::RunThrough {
                stop_s: self.lane_center_s[lane] - 10.0,
                partner,
            };
        }
        self.record(IncidentKind::SideCollision, vec![eid, nid]);
        true
    }

    fn trigger_u_turn(&mut self) -> bool {
        let cands = self.candidates();
        let Some(&idx) = cands.first() else {
            return false;
        };
        let v = &mut self.vehicles[idx];
        let Mode::Lane { lane, s, lat } = v.mode else {
            return false;
        };
        let l = self.network.lane(lane);
        let pos = l.offset_position(s, lat);
        let heading = l.heading(s).angle();
        v.mode = Mode::Free { pos, heading };
        v.speed = v.speed.clamp(1.5, 2.5);
        v.maneuver = Maneuver::UTurn {
            rate: std::f64::consts::PI / 26.0,
            remaining: std::f64::consts::PI,
        };
        let id = v.id;
        self.record(IncidentKind::UTurn, vec![id]);
        true
    }

    fn trigger_speeding(&mut self) -> bool {
        // Prefer a vehicle early in its lane so the speeding phase stays
        // in view.
        let Some(idx) = self
            .vehicles
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                matches!(v.maneuver, Maneuver::None)
                    && v.hold_left.is_none()
                    && match &v.mode {
                        Mode::Lane { lane, s, .. } => *s < 0.45 * self.network.lane(*lane).length(),
                        _ => false,
                    }
            })
            .map(|(i, _)| i)
            .next()
        else {
            return false;
        };
        let v = &mut self.vehicles[idx];
        v.maneuver = Maneuver::Speeding {
            factor: 2.0,
            frames_left: IncidentKind::Speeding.nominal_duration(),
        };
        let id = v.id;
        self.record(IncidentKind::Speeding, vec![id]);
        true
    }

    fn trigger_near_miss_brake(&mut self) -> bool {
        // Wider gap than the rear-end crash: the follower reacts late
        // but still has room to resolve by braking alone.
        let Some((li, fi)) = self.following_pair(35.0, 110.0, 1.5) else {
            return false;
        };
        let (lid, fid) = (self.vehicles[li].id, self.vehicles[fi].id);
        self.vehicles[li].maneuver = Maneuver::BrakeRelease {
            decel: 0.9,
            hold: 22,
        };
        self.vehicles[fi].maneuver = Maneuver::LateBrake {
            trigger_gap: 14.0,
            decel: 1.1,
            hold: 10,
        };
        self.vehicles[fi].speed = self.vehicles[fi].speed.max(2.0);
        self.record(IncidentKind::NearMissBrake, vec![lid, fid]);
        true
    }

    fn trigger_near_miss_swerve(&mut self) -> bool {
        let Some((li, fi)) = self.following_pair(30.0, 100.0, 1.5) else {
            return false;
        };
        let Mode::Lane { lane, .. } = self.vehicles[fi].mode else {
            return false;
        };
        let (lid, fid) = (self.vehicles[li].id, self.vehicles[fi].id);
        self.vehicles[li].maneuver = Maneuver::BrakeRelease {
            decel: 0.9,
            hold: 26,
        };
        // Swerve toward the road center, away from the nearer wall
        // (positive lat is +y for the tunnel's +x heading).
        let lane_y = self.network.lane(lane).position(0.0).y;
        let out_lat = if lane_y < 120.0 { 10.0 } else { -10.0 };
        self.vehicles[fi].maneuver = Maneuver::Swerve {
            lat_rate: 1.1,
            out_lat,
            hold: 16,
            returning: false,
        };
        self.vehicles[fi].speed = self.vehicles[fi].speed.max(2.2);
        self.record(IncidentKind::NearMissSwerve, vec![lid, fid]);
        true
    }

    fn trigger_occlusion_merge(&mut self) -> bool {
        if self.scenario.kind != ScenarioKind::Tunnel {
            return false;
        }
        // A vehicle slightly ahead of one in the adjacent lane cuts in
        // just in front of it; during the lateral transit their blobs
        // pass close enough to merge in the segmenter.
        let snapshot: Vec<(usize, LaneId, f64)> = self
            .vehicles
            .iter()
            .enumerate()
            .filter_map(|(i, v)| match (&v.mode, &v.maneuver) {
                (Mode::Lane { lane, s, .. }, Maneuver::None)
                    if v.hold_left.is_none() && v.speed > 1.2 =>
                {
                    Some((i, *lane, *s))
                }
                _ => None,
            })
            .collect();
        let mut best: Option<(usize, usize, f64)> = None;
        for &(ai, al, as_) in &snapshot {
            for &(bi, bl, bs) in &snapshot {
                if ai == bi || al == bl {
                    continue;
                }
                let gap = as_ - bs;
                if (5.0..45.0).contains(&gap) {
                    match best {
                        Some((_, _, g)) if g <= gap => {}
                        _ => best = Some((ai, bi, gap)),
                    }
                }
            }
        }
        let Some((ai, bi, _)) = best else {
            return false;
        };
        let (aid, bid) = (self.vehicles[ai].id, self.vehicles[bi].id);
        let Mode::Lane { lane: al, .. } = self.vehicles[ai].mode else {
            return false;
        };
        let Mode::Lane { lane: bl, .. } = self.vehicles[bi].mode else {
            return false;
        };
        let ya = self.network.lane(al).position(0.0).y;
        let yb = self.network.lane(bl).position(0.0).y;
        if let Mode::Lane { lane, lat, .. } = &mut self.vehicles[ai].mode {
            // Re-home onto the target lane at the physical y it already
            // occupies, then steer the offset back to the centerline.
            *lane = bl;
            *lat = ya - yb;
        }
        self.vehicles[ai].maneuver = Maneuver::MergeIn { lat_rate: 2.2 };
        self.record(IncidentKind::OcclusionMerge, vec![aid, bid]);
        true
    }

    fn trigger_shockwave(&mut self) -> bool {
        // The leader with the largest platoon behind it: the wave needs
        // followers to propagate through.
        let cands = self.candidates();
        let mut best: Option<(usize, Vec<u64>)> = None;
        for &i in &cands {
            let Mode::Lane { lane, s, .. } = self.vehicles[i].mode else {
                continue;
            };
            let followers: Vec<u64> = self
                .vehicles
                .iter()
                .filter(|o| match &o.mode {
                    Mode::Lane {
                        lane: ol, s: os, ..
                    } => *ol == lane && *os < s && s - *os <= 160.0,
                    Mode::Free { .. } => false,
                })
                .map(|o| o.id)
                .collect();
            match &best {
                Some((_, f)) if f.len() >= followers.len() => {}
                _ => best = Some((i, followers)),
            }
        }
        let Some((i, followers)) = best else {
            return false;
        };
        if followers.is_empty() {
            return false;
        }
        let mut ids = vec![self.vehicles[i].id];
        ids.extend(followers);
        self.vehicles[i].maneuver = Maneuver::StopAndGo {
            cycles: 2,
            phase: 0,
            timer: 0,
        };
        self.record(IncidentKind::Shockwave, ids);
        true
    }

    fn trigger_wrong_way(&mut self) -> bool {
        let cands = self.candidates();
        let Some(&idx) = cands.first() else {
            return false;
        };
        let v = &mut self.vehicles[idx];
        let Mode::Lane { lane, s, lat } = v.mode else {
            return false;
        };
        let l = self.network.lane(lane);
        let pos = l.offset_position(s, lat);
        let heading = l.heading(s).angle();
        // Turn around faster than a leisurely U-turn, then keep driving
        // against the flow until leaving the scene (the `Free` despawn
        // margin removes it past the image edge).
        v.mode = Mode::Free { pos, heading };
        v.speed = v.speed.clamp(1.8, 2.6);
        v.maneuver = Maneuver::UTurn {
            rate: std::f64::consts::PI / 14.0,
            remaining: std::f64::consts::PI,
        };
        let id = v.id;
        self.record(IncidentKind::WrongWay, vec![id]);
        true
    }

    fn trigger_pedestrian(&mut self) -> bool {
        if self.scenario.kind != ScenarioKind::Tunnel {
            return false;
        }
        // An approaching vehicle with road ahead of it yields to the
        // crossing pedestrian.
        let Some(idx) = self
            .vehicles
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                matches!(v.maneuver, Maneuver::None)
                    && v.hold_left.is_none()
                    && v.speed > 1.5
                    && match &v.mode {
                        Mode::Lane { .. } => {
                            let c = self.center_of(v);
                            (60.0..200.0).contains(&c.x)
                        }
                        Mode::Free { .. } => false,
                    }
            })
            .map(|(i, _)| i)
            .next()
        else {
            return false;
        };
        let veh_x = self.center_of(&self.vehicles[idx]).x;
        let vid = self.vehicles[idx].id;
        self.vehicles[idx].maneuver = Maneuver::BrakeRelease {
            decel: 0.55,
            hold: 30,
        };
        // A pedestrian-scale mover entering at the top wall and crossing
        // the roadway ahead of the yielding vehicle. Class is nominal
        // (the vision classifier will see a blob far below car size).
        let ped_id = self.next_id;
        self.next_id += 1;
        let mut idm = self.scenario.idm;
        idm.desired_speed = 1.2;
        idm.max_accel = 0.05;
        self.vehicles.push(Vehicle {
            id: ped_id,
            class: VehicleClass::Car,
            half_len: 2.5,
            half_wid: 2.0,
            idm,
            mode: Mode::Free {
                pos: Vec2::new((veh_x + 55.0).min(290.0), TUNNEL_WALL_TOP - 4.0),
                heading: std::f64::consts::FRAC_PI_2,
            },
            speed: 1.2,
            maneuver: Maneuver::None,
            hold_left: None,
            prev_center: None,
        });
        self.record(IncidentKind::Pedestrian, vec![ped_id, vid]);
        true
    }

    // ---- dynamics -------------------------------------------------------------

    /// Leader search: nearest in-lane vehicle ahead of `s` on `lane`,
    /// excluding vehicles far off the centerline (crashed into a wall).
    fn find_leader(&self, me: usize, lane: LaneId, s: f64) -> Option<Leader> {
        let my_half = self.vehicles[me].half_len;
        let mut best: Option<(f64, f64, f64)> = None; // (s', speed, half_len)
        for (i, v) in self.vehicles.iter().enumerate() {
            if i == me {
                continue;
            }
            let Mode::Lane {
                lane: vl,
                s: vs,
                lat,
            } = v.mode
            else {
                continue;
            };
            if vl != lane || vs <= s || lat.abs() > 6.0 {
                continue;
            }
            match best {
                Some((bs, _, _)) if bs <= vs => {}
                _ => best = Some((vs, v.speed, v.half_len)),
            }
        }
        best.map(|(vs, speed, half)| Leader {
            gap: (vs - s - my_half - half).max(0.0),
            speed,
        })
    }

    /// Signal stop line acting as a virtual stationary leader.
    fn signal_leader(&self, lane: LaneId, s: f64, half_len: f64) -> Option<Leader> {
        let signal = self.signal.as_ref()?;
        let l = self.network.lane(lane);
        let stop = l.stop_line?;
        if l.approach.is_empty() {
            return None;
        }
        let state = signal.state(&l.approach, self.frame);
        if state == SignalState::Green {
            return None;
        }
        // Already past (or braking cannot help): proceed.
        if s + half_len >= stop {
            return None;
        }
        Some(Leader {
            gap: (stop - s - half_len).max(0.0),
            speed: 0.0,
        })
    }

    fn advance_vehicles(&mut self) {
        let n = self.vehicles.len();
        // Pass 1: pure queries against the immutable state.
        #[derive(Clone, Copy)]
        struct Plan {
            leader: Option<Leader>,
            signal: Option<Leader>,
            partner_dist: Option<f64>,
        }
        let mut plans = Vec::with_capacity(n);
        for i in 0..n {
            let v = &self.vehicles[i];
            let plan = match &v.mode {
                Mode::Lane { lane, s, .. } => {
                    let leader = self.find_leader(i, *lane, *s);
                    let signal = self.signal_leader(*lane, *s, v.half_len);
                    let partner_dist = match &v.maneuver {
                        Maneuver::RunThrough { partner, .. } => {
                            let me = self.center_of(v);
                            self.vehicles
                                .iter()
                                .find(|o| o.id == *partner)
                                .map(|o| self.center_of(o).dist(me))
                        }
                        _ => None,
                    };
                    Plan {
                        leader,
                        signal,
                        partner_dist,
                    }
                }
                Mode::Free { .. } => Plan {
                    leader: None,
                    signal: None,
                    partner_dist: None,
                },
            };
            plans.push(plan);
        }

        // Pass 2: mutate.
        #[allow(clippy::needless_range_loop)] // parallel arrays: plans[i] drives vehicles[i]
        for i in 0..n {
            let plan = plans[i];
            let lateral_jitter = self.scenario.lateral_jitter;
            let crash_hold = self.scenario.crash_hold_frames;
            let jitter = self.rng.normal(0.0, lateral_jitter);
            let v = &mut self.vehicles[i];
            if v.hold_left.is_some() {
                continue; // parked wreck
            }
            match v.maneuver.clone() {
                Maneuver::None => {
                    // IDM against the nearer of leader and signal line.
                    let constraint = match (plan.leader, plan.signal) {
                        (Some(a), Some(b)) => Some(if a.gap < b.gap { a } else { b }),
                        (a, b) => a.or(b),
                    };
                    let (_, nv) = idm::step(&v.idm, 0.0, v.speed, constraint, 1.0);
                    v.speed = nv;
                    if let Mode::Lane { s, lat, .. } = &mut v.mode {
                        *s += v.speed;
                        *lat = (*lat + jitter).clamp(-2.5, 2.5);
                    } else if let Mode::Free { pos, heading } = &mut v.mode {
                        *pos = *pos + Vec2::new(heading.cos(), heading.sin()) * v.speed;
                    }
                }
                Maneuver::Stopping { decel } => {
                    v.speed = (v.speed - decel).max(0.0);
                    if let Mode::Lane { s, .. } = &mut v.mode {
                        *s += v.speed;
                    } else if let Mode::Free { pos, heading } = &mut v.mode {
                        *pos = *pos + Vec2::new(heading.cos(), heading.sin()) * v.speed;
                    }
                    if v.speed == 0.0 {
                        v.maneuver = Maneuver::None;
                        v.hold_left = Some(crash_hold);
                    }
                }
                Maneuver::WallVeer {
                    lat_rate,
                    target_lat,
                } => {
                    if let Mode::Lane { s, lat, .. } = &mut v.mode {
                        *s += v.speed;
                        *lat += lat_rate;
                        if (target_lat >= 0.0 && *lat >= target_lat)
                            || (target_lat < 0.0 && *lat <= target_lat)
                        {
                            *lat = target_lat;
                            v.maneuver = Maneuver::Stopping { decel: 2.0 };
                        }
                    }
                }
                Maneuver::Distracted { stop_gap, decel } => {
                    let gap = plan.leader.map(|l| l.gap).unwrap_or(f64::INFINITY);
                    if gap <= stop_gap {
                        // Impact: crash-brake from now on.
                        v.maneuver = Maneuver::Stopping { decel };
                    }
                    if let Mode::Lane { s, .. } = &mut v.mode {
                        *s += v.speed;
                    }
                }
                Maneuver::RunThrough { stop_s, .. } => {
                    let collided = plan
                        .partner_dist
                        .map(|d| d < v.half_len * 2.0)
                        .unwrap_or(false);
                    let reached = matches!(&v.mode, Mode::Lane { s, .. } if *s >= stop_s - 2.0);
                    if collided || reached {
                        v.maneuver = Maneuver::Stopping { decel: 2.5 };
                    } else if let Mode::Lane { s, .. } = &mut v.mode {
                        *s += v.speed;
                    }
                }
                Maneuver::UTurn { rate, remaining } => {
                    if let Mode::Free { pos, heading } = &mut v.mode {
                        *heading = wrap_angle(*heading + rate);
                        *pos = *pos + Vec2::new(heading.cos(), heading.sin()) * v.speed;
                    }
                    let left = remaining - rate.abs();
                    v.maneuver = if left <= 0.0 {
                        Maneuver::None
                    } else {
                        Maneuver::UTurn {
                            rate,
                            remaining: left,
                        }
                    };
                }
                Maneuver::Speeding {
                    factor,
                    frames_left,
                } => {
                    let mut p = v.idm;
                    p.desired_speed *= factor;
                    p.max_accel *= 2.0;
                    let (_, nv) = idm::step(&p, 0.0, v.speed, plan.leader, 1.0);
                    v.speed = nv;
                    if let Mode::Lane { s, lat, .. } = &mut v.mode {
                        *s += v.speed;
                        *lat = (*lat + jitter).clamp(-2.5, 2.5);
                    }
                    v.maneuver = if frames_left <= 1 {
                        Maneuver::None
                    } else {
                        Maneuver::Speeding {
                            factor,
                            frames_left: frames_left - 1,
                        }
                    };
                }
                Maneuver::BrakeRelease { decel, hold } => {
                    if v.speed > 0.35 {
                        v.speed = (v.speed - decel).max(0.3);
                    } else if hold > 0 {
                        v.maneuver = Maneuver::BrakeRelease {
                            decel,
                            hold: hold - 1,
                        };
                    } else {
                        v.maneuver = Maneuver::None;
                    }
                    if let Mode::Lane { s, .. } = &mut v.mode {
                        *s += v.speed;
                    } else if let Mode::Free { pos, heading } = &mut v.mode {
                        *pos = *pos + Vec2::new(heading.cos(), heading.sin()) * v.speed;
                    }
                }
                Maneuver::LateBrake {
                    trigger_gap,
                    decel,
                    hold,
                } => {
                    let gap = plan.leader.map(|l| l.gap).unwrap_or(f64::INFINITY);
                    if gap <= trigger_gap {
                        v.speed = (v.speed - decel).max(0.3);
                        v.maneuver = Maneuver::BrakeRelease { decel, hold };
                    }
                    if let Mode::Lane { s, .. } = &mut v.mode {
                        *s += v.speed;
                    }
                }
                Maneuver::Swerve {
                    lat_rate,
                    out_lat,
                    hold,
                    returning,
                } => {
                    if let Mode::Lane { s, lat, .. } = &mut v.mode {
                        *s += v.speed;
                        let step = lat_rate * out_lat.signum();
                        if !returning {
                            *lat += step;
                            let reached = (out_lat >= 0.0 && *lat >= out_lat)
                                || (out_lat < 0.0 && *lat <= out_lat);
                            if reached {
                                *lat = out_lat;
                                v.maneuver = if hold > 0 {
                                    Maneuver::Swerve {
                                        lat_rate,
                                        out_lat,
                                        hold: hold - 1,
                                        returning: false,
                                    }
                                } else {
                                    Maneuver::Swerve {
                                        lat_rate,
                                        out_lat,
                                        hold: 0,
                                        returning: true,
                                    }
                                };
                            }
                        } else {
                            *lat -= step;
                            let back =
                                (out_lat >= 0.0 && *lat <= 0.0) || (out_lat < 0.0 && *lat >= 0.0);
                            if back {
                                *lat = 0.0;
                                v.maneuver = Maneuver::None;
                            }
                        }
                    }
                }
                Maneuver::MergeIn { lat_rate } => {
                    if let Mode::Lane { s, lat, .. } = &mut v.mode {
                        *s += v.speed;
                        if lat.abs() <= lat_rate {
                            *lat = 0.0;
                            v.maneuver = Maneuver::None;
                        } else {
                            *lat -= lat_rate * lat.signum();
                        }
                    }
                }
                Maneuver::StopAndGo {
                    cycles,
                    phase,
                    timer,
                } => {
                    let mut next = Maneuver::StopAndGo {
                        cycles,
                        phase,
                        timer,
                    };
                    match phase {
                        0 => {
                            v.speed = (v.speed - 0.5).max(0.3);
                            if v.speed <= 0.35 {
                                next = Maneuver::StopAndGo {
                                    cycles,
                                    phase: 1,
                                    timer: 12,
                                };
                            }
                        }
                        1 => {
                            next = if timer > 0 {
                                Maneuver::StopAndGo {
                                    cycles,
                                    phase: 1,
                                    timer: timer - 1,
                                }
                            } else {
                                Maneuver::StopAndGo {
                                    cycles,
                                    phase: 2,
                                    timer: 0,
                                }
                            };
                        }
                        _ => {
                            v.speed = (v.speed + 0.2).min(v.idm.desired_speed);
                            if v.speed >= v.idm.desired_speed {
                                next = if cycles <= 1 {
                                    Maneuver::None
                                } else {
                                    Maneuver::StopAndGo {
                                        cycles: cycles - 1,
                                        phase: 0,
                                        timer: 0,
                                    }
                                };
                            }
                        }
                    }
                    v.maneuver = next;
                    if let Mode::Lane { s, .. } = &mut v.mode {
                        *s += v.speed;
                    }
                }
            }
        }

        // Decrement wreck-hold counters.
        for v in &mut self.vehicles {
            if let Some(h) = &mut v.hold_left {
                *h = h.saturating_sub(1);
            }
        }
    }

    fn center_of(&self, v: &Vehicle) -> Vec2 {
        match &v.mode {
            Mode::Lane { lane, s, lat } => self.network.lane(*lane).offset_position(*s, *lat),
            Mode::Free { pos, .. } => *pos,
        }
    }

    fn heading_of(&self, v: &Vehicle) -> f64 {
        match &v.mode {
            Mode::Lane { lane, s, .. } => self.network.lane(*lane).heading(*s).angle(),
            Mode::Free { heading, .. } => *heading,
        }
    }

    fn despawn(&mut self) {
        let net = &self.network;
        let margin = 50.0;
        let w = net.width as f64;
        let h = net.height as f64;
        self.vehicles.retain(|v| {
            if matches!(v.hold_left, Some(0)) {
                return false;
            }
            match &v.mode {
                Mode::Lane { lane, s, .. } => *s < net.lane(*lane).length(),
                Mode::Free { pos, .. } => {
                    pos.x > -margin && pos.x < w + margin && pos.y > -margin && pos.y < h + margin
                }
            }
        });
    }

    fn spawn(&mut self) {
        for lane_id in 0..self.network.lane_count() {
            if self.frame < self.next_spawn[lane_id] {
                continue;
            }
            // Entry must be clear.
            let entry_blocked = self.vehicles.iter().any(
                |v| matches!(&v.mode, Mode::Lane { lane, s, .. } if *lane == lane_id && *s < 45.0),
            );
            if entry_blocked {
                self.next_spawn[lane_id] = self.frame + 3;
                continue;
            }
            let class = match self.rng.uniform_u32(100) {
                0..=59 => VehicleClass::Car,
                60..=84 => VehicleClass::Suv,
                _ => VehicleClass::Pickup,
            };
            let (half_len, half_wid) = class.half_extents();
            let mut idm = self.scenario.idm;
            let jitter = 1.0 + self.rng.normal(0.0, self.scenario.speed_jitter);
            idm.desired_speed = (idm.desired_speed * jitter).max(1.0);
            let v = Vehicle {
                id: self.next_id,
                class,
                half_len,
                half_wid,
                speed: idm.desired_speed,
                idm,
                mode: Mode::Lane {
                    lane: lane_id,
                    s: 0.0,
                    lat: self.rng.uniform(-1.0, 1.0),
                },
                maneuver: Maneuver::None,
                hold_left: None,
                prev_center: None,
            };
            self.next_id += 1;
            self.vehicles.push(v);
            let gap = self
                .rng
                .exponential(1.0 / self.scenario.mean_spawn_interval)
                .round()
                .max(1.0) as u32;
            self.next_spawn[lane_id] = self.frame + gap;
        }
    }

    fn observe(&mut self) -> FrameObservation {
        let w = self.network.width as f64;
        let h = self.network.height as f64;
        let mut out = Vec::new();
        let centers: Vec<Vec2> = self.vehicles.iter().map(|v| self.center_of(v)).collect();
        let headings: Vec<f64> = self.vehicles.iter().map(|v| self.heading_of(v)).collect();
        for (i, v) in self.vehicles.iter_mut().enumerate() {
            let center = centers[i];
            // Report heading from the actual displacement when the
            // vehicle moved (captures veering), else the nominal one.
            let (heading, speed) = match v.prev_center {
                Some(p) if center.dist(p) > 1e-9 => ((center - p).angle(), center.dist(p)),
                _ => (headings[i], 0.0),
            };
            v.prev_center = Some(center);
            if center.x < 0.0 || center.x >= w || center.y < 0.0 || center.y >= h {
                continue;
            }
            out.push(VehicleObs {
                id: v.id,
                class: v.class,
                center,
                heading,
                half_len: v.half_len,
                half_wid: v.half_wid,
                speed,
            });
        }
        FrameObservation {
            frame: self.frame,
            vehicles: out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn run_small(seed: u64) -> SimOutput {
        World::run(Scenario::tunnel_small(seed))
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_small(7);
        let b = run_small(7);
        assert_eq!(a.frames.len(), b.frames.len());
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(fa, fb);
        }
        assert_eq!(a.incidents, b.incidents);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_small(1);
        let b = run_small(2);
        let same = a
            .frames
            .iter()
            .zip(&b.frames)
            .filter(|(x, y)| x == y)
            .count();
        assert!(same < a.frames.len());
    }

    #[test]
    fn produces_one_observation_per_frame() {
        let out = run_small(3);
        assert_eq!(out.frames.len(), 400);
        for (i, f) in out.frames.iter().enumerate() {
            assert_eq!(f.frame as usize, i);
        }
    }

    #[test]
    fn vehicles_stay_inside_image() {
        let out = run_small(4);
        for f in &out.frames {
            for v in &f.vehicles {
                assert!(v.center.x >= 0.0 && v.center.x < out.width as f64);
                assert!(v.center.y >= 0.0 && v.center.y < out.height as f64);
            }
        }
    }

    #[test]
    fn traffic_actually_flows() {
        let out = run_small(5);
        let total: usize = out.frames.iter().map(|f| f.vehicles.len()).sum();
        assert!(total > 100, "only {total} vehicle-frames observed");
        // Some vehicle crosses the whole image.
        let mut max_x = 0.0f64;
        for f in &out.frames {
            for v in &f.vehicles {
                max_x = max_x.max(v.center.x);
            }
        }
        assert!(max_x > 250.0);
    }

    #[test]
    fn scheduled_incidents_trigger() {
        let out = run_small(6);
        let kinds: Vec<IncidentKind> = out.incidents.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&IncidentKind::WallCrash), "{kinds:?}");
        assert!(kinds.contains(&IncidentKind::SuddenStop), "{kinds:?}");
    }

    #[test]
    fn incident_records_reference_live_vehicles() {
        let out = run_small(8);
        for rec in &out.incidents {
            assert!(!rec.vehicle_ids.is_empty());
            assert!(rec.end_frame > rec.start_frame);
            // The vehicle must be observed at (or just before) the start
            // frame.
            let seen = out.frames[rec.start_frame as usize]
                .vehicles
                .iter()
                .chain(&out.frames[(rec.start_frame as usize).saturating_sub(1)].vehicles)
                .any(|v| rec.vehicle_ids.contains(&v.id));
            assert!(seen, "incident {rec:?} vehicle never observed at start");
        }
    }

    #[test]
    fn wall_crash_vehicle_stops_near_wall() {
        let out = run_small(9);
        let Some(rec) = out
            .incidents
            .iter()
            .find(|r| r.kind == IncidentKind::WallCrash)
        else {
            panic!("no wall crash triggered");
        };
        let vid = rec.vehicle_ids[0];
        // Find the vehicle's last observation: it should be close to a
        // wall (y near 80 or 160) and nearly stopped.
        let mut last: Option<&VehicleObs> = None;
        for f in &out.frames {
            for v in &f.vehicles {
                if v.id == vid {
                    last = Some(v);
                }
            }
        }
        let last = last.expect("crashed vehicle never observed");
        let near_top = (last.center.y - TUNNEL_WALL_TOP).abs() < 12.0;
        let near_bottom = (last.center.y - TUNNEL_WALL_BOTTOM).abs() < 12.0;
        assert!(near_top || near_bottom, "final y = {}", last.center.y);
        assert!(last.speed < 0.3, "final speed = {}", last.speed);
    }

    #[test]
    fn sudden_stop_vehicle_decelerates_sharply() {
        let out = run_small(10);
        let rec = out
            .incidents
            .iter()
            .find(|r| r.kind == IncidentKind::SuddenStop)
            .expect("no sudden stop");
        let vid = rec.vehicle_ids[0];
        let speeds: Vec<f64> = out
            .frames
            .iter()
            .flat_map(|f| f.vehicles.iter())
            .filter(|v| v.id == vid)
            .map(|v| v.speed)
            .collect();
        let vmax = speeds.iter().cloned().fold(0.0, f64::max);
        let vmin = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(vmax > 1.8, "vmax {vmax}");
        assert!(vmin < 0.1, "vmin {vmin}");
    }

    #[test]
    fn intersection_side_collision_brings_two_vehicles_together() {
        let out = World::run(Scenario::intersection_paper(11));
        let rec = out
            .incidents
            .iter()
            .find(|r| r.kind == IncidentKind::SideCollision)
            .expect("no side collision triggered");
        assert_eq!(rec.vehicle_ids.len(), 2);
        // After the nominal duration both vehicles should be near each
        // other (collided in the conflict zone).
        let probe = (rec.end_frame as usize + 10).min(out.frames.len() - 1);
        let mut pos = Vec::new();
        for f in &out.frames[rec.start_frame as usize..=probe] {
            let ps: Vec<Vec2> = f
                .vehicles
                .iter()
                .filter(|v| rec.vehicle_ids.contains(&v.id))
                .map(|v| v.center)
                .collect();
            if ps.len() == 2 {
                pos.push(ps[0].dist(ps[1]));
            }
        }
        let min_dist = pos.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min_dist < 40.0, "vehicles never got close: {min_dist}");
    }

    #[test]
    fn u_turn_reverses_heading() {
        let out = World::run(Scenario::intersection_paper(12));
        let rec = out
            .incidents
            .iter()
            .find(|r| r.kind == IncidentKind::UTurn)
            .expect("no u-turn");
        let vid = rec.vehicle_ids[0];
        let headings: Vec<f64> = out.frames[rec.start_frame as usize..]
            .iter()
            .flat_map(|f| f.vehicles.iter())
            .filter(|v| v.id == vid && v.speed > 0.1)
            .map(|v| v.heading)
            .collect();
        assert!(headings.len() > 5);
        let first = headings[1];
        let last = *headings.last().unwrap();
        let diff = crate::geometry::wrap_angle(last - first).abs();
        assert!(diff > 2.0, "heading change only {diff} rad");
    }

    #[test]
    fn wrecks_eventually_removed() {
        let out = run_small(13);
        let rec = out
            .incidents
            .iter()
            .find(|r| r.kind == IncidentKind::WallCrash)
            .expect("no wall crash");
        let vid = rec.vehicle_ids[0];
        let last_seen = out
            .frames
            .iter()
            .rev()
            .find(|f| f.vehicles.iter().any(|v| v.id == vid))
            .map(|f| f.frame)
            .unwrap();
        assert!(
            last_seen < rec.end_frame + 3 * Scenario::tunnel_small(13).crash_hold_frames,
            "wreck still visible at {last_seen}"
        );
    }

    /// FNV-1a over every observation and incident of a run — a compact
    /// stand-in for byte comparison against a pinned golden value.
    fn fingerprint(out: &SimOutput) -> u64 {
        fn mix(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x100000001b3)
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for f in &out.frames {
            h = mix(h, u64::from(f.frame));
            for v in &f.vehicles {
                h = mix(h, v.id);
                h = mix(h, v.center.x.to_bits());
                h = mix(h, v.center.y.to_bits());
                h = mix(h, v.heading.to_bits());
                h = mix(h, v.speed.to_bits());
            }
        }
        for r in &out.incidents {
            h = mix(h, u64::from(r.start_frame));
            h = mix(h, u64::from(r.end_frame));
            for id in &r.vehicle_ids {
                h = mix(h, *id);
            }
        }
        h
    }

    #[test]
    fn preset_worlds_replay_on_the_legacy_stream() {
        // The per-scenario RNG stream refactor must never move the
        // paper presets off the legacy stream: pin the stream id and a
        // golden fingerprint of a full tunnel_small replay, so any
        // future fleet change that perturbs existing trajectories fails
        // here instead of silently shifting every calibrated number.
        for s in [
            Scenario::tunnel_paper(1),
            Scenario::intersection_paper(1),
            Scenario::tunnel_small(1),
        ] {
            assert_eq!(s.rng_stream, crate::rng::DEFAULT_STREAM);
        }
        let fp = fingerprint(&run_small(7));
        assert_eq!(
            fp, 0x09a3df3fb83b0674,
            "tunnel_small(7) drifted from the pinned replay: fp = {fp:#x}"
        );
    }

    #[test]
    fn split_at_partitions_frames_and_clamps_records() {
        let out = run_small(6);
        let (a, b) = out.split_at(150);
        assert_eq!(a.frames.len(), 150);
        assert_eq!(b.frames.len(), 250);
        assert_eq!(b.frames[0].frame, 0);
        assert_eq!(b.frames.last().unwrap().frame, 249);
        // Same vehicles on both sides of the boundary.
        assert_eq!(b.frames[0].vehicles, out.frames[150].vehicles);
        for r in &a.incidents {
            assert!(r.end_frame < 150);
        }
        // Splitting past the end keeps everything in the first half.
        let (c, d) = out.split_at(10_000);
        assert_eq!(c.frames.len(), out.frames.len());
        assert!(d.frames.is_empty());
        assert_eq!(c.incidents.len(), out.incidents.len());
    }

    #[test]
    fn paper_presets_run_to_completion() {
        let t = World::run(Scenario::tunnel_paper(42));
        assert_eq!(t.frames.len(), 2504);
        assert!(t.incidents.iter().filter(|r| r.kind.is_accident()).count() >= 4);
        let i = World::run(Scenario::intersection_paper(42));
        assert_eq!(i.frames.len(), 592);
        assert!(i.incidents.iter().filter(|r| r.kind.is_accident()).count() >= 2);
    }
}
