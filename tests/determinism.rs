//! Integration: the entire system is a pure function of the scenario
//! seed — the property every experiment in EXPERIMENTS.md relies on.

use std::sync::Arc;
use tsvr::core::{prepare_clip, EventQuery, LearnerKind, PipelineOptions, Session};
use tsvr::mil::GroundTruthOracle;
use tsvr::sim::Scenario;

#[test]
fn identical_seeds_identical_everything() {
    let a = prepare_clip(&Scenario::tunnel_small(88), &PipelineOptions::default());
    let b = prepare_clip(&Scenario::tunnel_small(88), &PipelineOptions::default());
    assert_eq!(a.sim.incidents, b.sim.incidents);
    assert_eq!(a.vision.tracks, b.vision.tracks);
    assert_eq!(a.bags, b.bags);

    let query = EventQuery::accidents();
    let oracle = GroundTruthOracle::new(a.labels(&query));
    assert_eq!(oracle.labels(), b.labels(&query));
    let [ra, rb] = [a.bags, b.bags].map(|bags| {
        Session::open(1, 1, query.name, LearnerKind::paper_ocsvm(), Arc::new(bags))
            .run_rounds(&oracle, 5, 2)
            .unwrap()
    });
    assert_eq!(ra.accuracies, rb.accuracies);
    assert_eq!(ra.rankings, rb.rankings);
}

#[test]
fn different_seeds_differ() {
    let a = prepare_clip(&Scenario::tunnel_small(88), &PipelineOptions::default());
    let b = prepare_clip(&Scenario::tunnel_small(89), &PipelineOptions::default());
    assert_ne!(a.bags, b.bags);
}
