//! The scenario fleet: named, seeded, deterministic `World` recipes that
//! are deliberately *hard* for the retrieval pipeline, each wired to the
//! oracle through its ground-truth incident log.
//!
//! The paper evaluates on two staged clips; the fleet extends that with
//! the near-miss taxonomy of Kataoka et al. (two risk grades: the
//! conflict resolves by braking vs. by swerving), occlusion-heavy
//! merges, stop-and-go shockwaves, wrong-way drivers, pedestrian
//! incursions, and a multi-camera handoff where the incident spans a
//! camera boundary. Every member derives its RNG stream from its own
//! name ([`crate::rng::split_stream`]), so adding or reordering members
//! can never perturb another member's — or a preset's — trajectories.

use crate::incident::{IncidentKind, IncidentSpec};
use crate::rng::split_stream;
use crate::scenario::Scenario;
use crate::world::SimOutput;

/// One named member of the scenario fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetMember {
    /// Registry name; also the CLI spelling (`tsvr sim --scenario <name>`)
    /// and the RNG stream key.
    pub name: &'static str,
    /// One-line description for `tsvr sim --list`.
    pub summary: &'static str,
    /// The incident kind a retrieval query over this member targets.
    pub target: IncidentKind,
    /// Number of cameras the recording is split across (1, or 2 for the
    /// handoff member whose incident spans the camera boundary).
    pub cameras: u32,
}

/// The full fleet, in registry order.
pub fn members() -> &'static [FleetMember] {
    &[
        FleetMember {
            name: "near_miss_brake",
            summary: "leader brakes to a crawl; follower resolves by late hard braking",
            target: IncidentKind::NearMissBrake,
            cameras: 1,
        },
        FleetMember {
            name: "near_miss_swerve",
            summary: "leader brakes; follower resolves by swerving around at speed",
            target: IncidentKind::NearMissSwerve,
            cameras: 1,
        },
        FleetMember {
            name: "occlusion_merge",
            summary: "cut-in to the adjacent lane with blob-merging proximity",
            target: IncidentKind::OcclusionMerge,
            cameras: 1,
        },
        FleetMember {
            name: "shockwave",
            summary: "stop-and-go wave pulsing through a platoon",
            target: IncidentKind::Shockwave,
            cameras: 1,
        },
        FleetMember {
            name: "wrong_way",
            summary: "driver turns around and travels against the flow",
            target: IncidentKind::WrongWay,
            cameras: 1,
        },
        FleetMember {
            name: "pedestrian",
            summary: "pedestrian crosses the roadway; a vehicle yields",
            target: IncidentKind::Pedestrian,
            cameras: 1,
        },
        FleetMember {
            name: "handoff",
            summary: "wrong-way incident spanning a two-camera boundary (sharded retrieval)",
            target: IncidentKind::WrongWay,
            cameras: 2,
        },
    ]
}

/// Looks up a member by name.
pub fn member(name: &str) -> Option<FleetMember> {
    members().iter().copied().find(|m| m.name == name)
}

/// Builds the world recipe for a fleet member. Returns `None` for
/// unknown names. Same `(name, seed)`, same world — bit-identically,
/// on any thread count.
pub fn scenario(name: &str, seed: u64) -> Option<Scenario> {
    let mut s = Scenario::tunnel_paper(seed);
    s.rng_stream = split_stream(name);
    // Distractor placement is shared: the target query must always have
    // confusable negatives (other anomalies) in the same clip.
    match name {
        "near_miss_brake" => {
            s.total_frames = 480;
            s.mean_spawn_interval = 70.0;
            s.incidents = vec![
                IncidentSpec::new(IncidentKind::NearMissBrake, 110),
                IncidentSpec::new(IncidentKind::SuddenStop, 210),
                IncidentSpec::new(IncidentKind::NearMissBrake, 300),
                IncidentSpec::new(IncidentKind::Speeding, 390),
            ];
        }
        "near_miss_swerve" => {
            s.total_frames = 480;
            s.mean_spawn_interval = 70.0;
            s.incidents = vec![
                IncidentSpec::new(IncidentKind::NearMissSwerve, 110),
                IncidentSpec::new(IncidentKind::Speeding, 210),
                IncidentSpec::new(IncidentKind::NearMissSwerve, 300),
                IncidentSpec::new(IncidentKind::SuddenStop, 390),
            ];
        }
        "occlusion_merge" => {
            s.total_frames = 480;
            // Denser traffic: the cut-in needs adjacent-lane pairs.
            s.mean_spawn_interval = 55.0;
            s.incidents = vec![
                IncidentSpec::new(IncidentKind::OcclusionMerge, 110),
                IncidentSpec::new(IncidentKind::UTurn, 200),
                IncidentSpec::new(IncidentKind::OcclusionMerge, 290),
                IncidentSpec::new(IncidentKind::Speeding, 380),
            ];
        }
        "shockwave" => {
            s.total_frames = 520;
            // Densest traffic: the wave needs platoons to run through.
            s.mean_spawn_interval = 40.0;
            s.incidents = vec![
                IncidentSpec::new(IncidentKind::Shockwave, 140),
                IncidentSpec::new(IncidentKind::SuddenStop, 260),
                IncidentSpec::new(IncidentKind::Shockwave, 360),
            ];
        }
        "wrong_way" => {
            s.total_frames = 480;
            s.mean_spawn_interval = 75.0;
            s.incidents = vec![
                IncidentSpec::new(IncidentKind::WrongWay, 110),
                IncidentSpec::new(IncidentKind::UTurn, 210),
                IncidentSpec::new(IncidentKind::WrongWay, 300),
                IncidentSpec::new(IncidentKind::Speeding, 390),
            ];
        }
        "pedestrian" => {
            s.total_frames = 480;
            s.mean_spawn_interval = 75.0;
            s.incidents = vec![
                IncidentSpec::new(IncidentKind::Pedestrian, 110),
                IncidentSpec::new(IncidentKind::SuddenStop, 210),
                IncidentSpec::new(IncidentKind::Pedestrian, 300),
                IncidentSpec::new(IncidentKind::Speeding, 390),
            ];
        }
        "handoff" => {
            s.total_frames = 520;
            s.mean_spawn_interval = 65.0;
            s.incidents = vec![
                IncidentSpec::new(IncidentKind::WallCrash, 100),
                IncidentSpec::new(IncidentKind::Speeding, 180),
                // The target: splitting the recording at the middle of
                // this record puts the incident on both cameras.
                IncidentSpec::new(IncidentKind::WrongWay, 250),
                IncidentSpec::new(IncidentKind::SuddenStop, 410),
            ];
        }
        _ => return None,
    }
    Some(s)
}

/// The camera-boundary frame for a two-camera member: the midpoint of
/// the first target-kind record, so the incident provably spans both
/// cameras. Falls back to the clip midpoint if the target never fired.
pub fn handoff_split_frame(out: &SimOutput, target: IncidentKind) -> u32 {
    out.incidents
        .iter()
        .find(|r| r.kind == target)
        .map(|r| (r.start_frame + r.end_frame) / 2)
        .unwrap_or(out.frames.len() as u32 / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DEFAULT_STREAM;
    use crate::world::World;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: std::collections::HashSet<_> = members().iter().map(|m| m.name).collect();
        assert_eq!(names.len(), members().len());
        for m in members() {
            let s = scenario(m.name, 1).expect("member must build a scenario");
            assert_eq!(s.rng_stream, split_stream(m.name));
            assert_ne!(s.rng_stream, DEFAULT_STREAM);
            let targets = s.incidents.iter().filter(|i| i.kind == m.target).count();
            assert!(targets >= 1, "{} has no target incident", m.name);
            assert!(
                s.incidents.iter().any(|i| i.kind != m.target),
                "{} has no distractors",
                m.name
            );
        }
        assert!(scenario("ufo_landing", 1).is_none());
        assert!(member("near_miss_brake").is_some());
        assert!(member("ufo_landing").is_none());
    }

    #[test]
    fn every_member_triggers_its_target() {
        for m in members() {
            let out = World::run(scenario(m.name, 2007).unwrap());
            let hits = out.incidents.iter().filter(|r| r.kind == m.target).count();
            assert!(
                hits >= 1,
                "{}: target {:?} never triggered",
                m.name,
                m.target
            );
        }
    }

    #[test]
    fn handoff_split_spans_both_cameras() {
        let m = member("handoff").unwrap();
        let out = World::run(scenario("handoff", 2007).unwrap());
        let cut = handoff_split_frame(&out, m.target);
        let (a, b) = out.split_at(cut);
        assert_eq!(a.frames.len() + b.frames.len(), out.frames.len());
        assert!(
            a.incidents.iter().any(|r| r.kind == m.target),
            "target missing from camera A"
        );
        assert!(
            b.incidents.iter().any(|r| r.kind == m.target),
            "target missing from camera B"
        );
        // Frame indices re-based per camera.
        assert_eq!(b.frames[0].frame, 0);
        for r in &b.incidents {
            assert!(r.end_frame < b.frames.len() as u32 + 120);
        }
    }

    #[test]
    fn members_replay_bit_identically() {
        for m in members() {
            let a = World::run(scenario(m.name, 5).unwrap());
            let b = World::run(scenario(m.name, 5).unwrap());
            assert_eq!(a.frames, b.frames, "{} replay diverged", m.name);
            assert_eq!(a.incidents, b.incidents);
        }
    }
}
