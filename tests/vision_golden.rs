//! Golden pin on the vision pipeline's output.
//!
//! `tests/determinism.rs` and `tests/parallel_identity.rs` compare two
//! runs of the same code, so a change to segmentation that alters any
//! track would pass them. This test pins a digest of
//! `pipeline::process` output (every track point, blob statistic and
//! per-frame detection count, floats hashed by their bits) for two
//! small scenarios. A kernel rewrite that claims bit identity must
//! leave both digests unchanged; a deliberate change to segmentation
//! must update them and say why.

use tsvr::sim::{Scenario, ScenarioKind, World};
use tsvr::vision::pipeline::{process, PipelineConfig, VisionOutput};

/// 64-bit FNV-1a: stable across platforms, runs and Rust releases,
/// which `DefaultHasher` does not promise.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(out: &VisionOutput) -> u64 {
    let mut h = Fnv::new();
    h.u64(out.tracks.len() as u64);
    for t in &out.tracks {
        h.u64(t.id);
        h.u64(t.points.len() as u64);
        for p in &t.points {
            h.u64(u64::from(p.frame));
            for v in [p.centroid.x, p.centroid.y] {
                h.f64(v);
            }
            for v in [p.mbr.min.x, p.mbr.min.y, p.mbr.max.x, p.mbr.max.y] {
                h.f64(v);
            }
            h.u64(u64::from(p.coasted));
        }
        let s = &t.stats;
        for v in [s.width, s.height, s.area, s.fill, s.intensity] {
            h.f64(v);
        }
    }
    h.u64(out.detections_per_frame.len() as u64);
    for &n in &out.detections_per_frame {
        h.u64(n as u64);
    }
    h.0
}

fn run(scenario: Scenario, kind: ScenarioKind, cfg: &PipelineConfig) -> u64 {
    let sim = World::run(scenario);
    let out = process(&sim, kind, cfg);
    assert!(
        !out.tracks.is_empty(),
        "pin a scenario that tracks something"
    );
    digest(&out)
}

#[test]
fn tunnel_small_vision_output_is_pinned() {
    let d = run(
        Scenario::tunnel_small(7),
        ScenarioKind::Tunnel,
        &PipelineConfig::default(),
    );
    assert_eq!(d, 0x8577_5fa5_a808_2557, "tunnel_small(7) digest {d:#018x}");
}

#[test]
fn short_intersection_vision_output_is_pinned() {
    let mut scenario = Scenario::intersection_paper(2007);
    scenario.total_frames = 300;
    let d = run(
        scenario,
        ScenarioKind::Intersection,
        &PipelineConfig::default(),
    );
    assert_eq!(
        d, 0x1b97_5170_92ce_8860,
        "intersection_paper(2007)[..300] digest {d:#018x}"
    );
}

#[test]
fn threshold_only_vision_output_is_pinned() {
    // The despeckled threshold mask without SPCPE refinement.
    let cfg = PipelineConfig {
        use_spcpe: false,
        ..PipelineConfig::default()
    };
    let d = run(Scenario::tunnel_small(7), ScenarioKind::Tunnel, &cfg);
    assert_eq!(
        d, 0xa4fd_af28_d537_84a9,
        "tunnel_small(7) without SPCPE digest {d:#018x}"
    );
}
