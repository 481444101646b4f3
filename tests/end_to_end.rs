//! Cross-crate integration tests: the full pipeline from simulation to
//! interactive retrieval, exercised through the public facade.

use std::sync::{Arc, OnceLock};
use tsvr::core::{
    prepare_clip, ClipArtifacts, EventQuery, LearnerKind, PipelineOptions, Session, SessionReport,
};
use tsvr::mil::GroundTruthOracle;
use tsvr::sim::{Scenario, World};

fn shared_clip() -> &'static ClipArtifacts {
    static CLIP: OnceLock<ClipArtifacts> = OnceLock::new();
    CLIP.get_or_init(|| prepare_clip(&Scenario::tunnel_small(77), &PipelineOptions::default()))
}

/// `rounds` accident-oracle rounds of top-5 feedback over the clip.
fn accident_rounds(clip: &ClipArtifacts, kind: LearnerKind, rounds: usize) -> SessionReport {
    let query = EventQuery::accidents();
    let oracle = GroundTruthOracle::new(clip.labels(&query));
    Session::open(1, 1, query.name, kind, Arc::new(clip.bags.clone()))
        .run_rounds(&oracle, 5, rounds)
        .unwrap()
}

#[test]
fn pipeline_produces_consistent_artifacts() {
    let clip = shared_clip();
    assert_eq!(clip.sim.frames.len(), 400);
    assert!(!clip.vision.tracks.is_empty());
    assert_eq!(clip.bags.len(), clip.dataset.window_count());
    // Every bag's instances reference tracks that exist.
    let track_ids: Vec<u64> = clip.vision.tracks.iter().map(|t| t.id).collect();
    for bag in &clip.bags {
        for inst in &bag.instances {
            assert!(
                track_ids.contains(&inst.key),
                "instance references unknown track"
            );
        }
    }
}

#[test]
fn windows_tile_the_clip_in_order() {
    let clip = shared_clip();
    let mut prev_end = 0;
    for w in &clip.dataset.windows {
        assert!(w.start_frame >= prev_end || w.index == 0);
        assert_eq!(
            w.end_frame - w.start_frame + 1,
            15,
            "paper window = 15 frames"
        );
        prev_end = w.start_frame;
    }
}

#[test]
fn vision_sees_the_simulated_traffic() {
    let clip = shared_clip();
    // Every long-lived simulated vehicle should have produced a track.
    let mut sim_spans: std::collections::HashMap<u64, u32> = Default::default();
    for f in &clip.sim.frames {
        for v in &f.vehicles {
            *sim_spans.entry(v.id).or_default() += 1;
        }
    }
    let long_lived = sim_spans.values().filter(|&&n| n > 60).count();
    assert!(
        clip.vision.tracks.len() + 2 >= long_lived,
        "{} tracks for {} long-lived vehicles",
        clip.vision.tracks.len(),
        long_lived
    );
}

#[test]
fn accident_retrieval_beats_chance_after_feedback() {
    let clip = shared_clip();
    let labels = clip.labels(&EventQuery::accidents());
    let relevant = labels.iter().filter(|&&l| l).count();
    assert!(relevant >= 2, "scenario scripted 2 accidents");
    let report = accident_rounds(clip, LearnerKind::paper_ocsvm(), 3);
    let base_rate = relevant as f64 / clip.bags.len() as f64;
    let final_acc = *report.accuracies.last().unwrap();
    assert!(
        final_acc > base_rate,
        "final accuracy {final_acc} does not beat base rate {base_rate}"
    );
    assert!(
        final_acc >= report.accuracies[0] - 1e-9,
        "feedback made things worse"
    );
}

#[test]
fn different_queries_give_different_labels() {
    let clip = shared_clip();
    let accidents = clip.labels(&EventQuery::accidents());
    let speeding = clip.labels(&EventQuery::speeding());
    // tunnel_small schedules accidents only, so the speeding query has
    // no relevant windows.
    assert!(accidents.iter().any(|&l| l));
    assert!(!speeding.iter().any(|&l| l));
}

#[test]
fn all_learners_complete_a_session() {
    let clip = shared_clip();
    for kind in [
        LearnerKind::paper_ocsvm(),
        LearnerKind::paper_weighted_rf(),
        LearnerKind::DiverseDensity { scale: 8.0 },
        LearnerKind::EmDd { scale: 8.0 },
        LearnerKind::MiSvm { c: 10.0 },
    ] {
        let report = accident_rounds(clip, kind, 2);
        assert_eq!(report.accuracies.len(), 3, "{kind:?}");
        // A ranking must be a permutation of bag ids.
        let mut last = report.rankings.last().unwrap().clone();
        last.sort_unstable();
        let expect: Vec<usize> = (0..clip.bags.len()).collect();
        assert_eq!(last, expect, "{kind:?} ranking is not a permutation");
    }
}

#[test]
fn paper_presets_have_paper_scale() {
    // Simulation only (no rendering) to keep this fast in debug builds.
    let t = World::run(Scenario::tunnel_paper(1));
    assert_eq!(t.frames.len(), 2504);
    let i = World::run(Scenario::intersection_paper(1));
    assert_eq!(i.frames.len(), 592);
    assert!(t.incidents.iter().any(|r| r.kind.is_accident()));
    assert!(i.incidents.iter().any(|r| r.kind.is_accident()));
}
