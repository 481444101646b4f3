//! Integration: robustness of the interactive loop to imperfect users.
//!
//! The paper assumes a cooperative human; a deployed system gets
//! mislabeled feedback. The one-class formulation with Eq. 9's δ should
//! degrade gracefully rather than collapse.

use std::sync::{Arc, OnceLock};
use tsvr::core::{prepare_clip, ClipArtifacts, EventQuery, LearnerKind, PipelineOptions, Session};
use tsvr::mil::oracle::NoisyOracle;
use tsvr::mil::{GroundTruthOracle, Oracle};
use tsvr::sim::Scenario;

fn shared_clip() -> &'static ClipArtifacts {
    static CLIP: OnceLock<ClipArtifacts> = OnceLock::new();
    CLIP.get_or_init(|| prepare_clip(&Scenario::tunnel_small(66), &PipelineOptions::default()))
}

fn run_with_error_rate(rate: f64, seed: u64) -> f64 {
    let clip = shared_clip();
    let truth = GroundTruthOracle::new(clip.labels(&EventQuery::accidents()));
    let noisy = NoisyOracle::new(truth.clone(), rate, seed);
    let bags = Arc::new(clip.bags.clone());
    let mut session = Session::open(1, 1, "accident", LearnerKind::paper_ocsvm(), bags);
    session.run_rounds(&noisy, 5, 3).unwrap();
    // Score the final ranking against the TRUE labels, regardless of
    // the noisy labels used for training.
    tsvr::mil::metrics::accuracy_at(session.ranking(), truth.labels(), 5)
}

#[test]
fn noiseless_oracle_matches_ground_truth_session() {
    let clip = shared_clip();
    let truth = GroundTruthOracle::new(clip.labels(&EventQuery::accidents()));
    let noisy = NoisyOracle::new(truth.clone(), 0.0, 1);
    for i in 0..clip.bags.len() {
        assert_eq!(truth.label(i), noisy.label(i));
    }
    let clean = run_with_error_rate(0.0, 1);
    assert!(clean > 0.0);
}

#[test]
fn mild_label_noise_degrades_gracefully() {
    let clean = run_with_error_rate(0.0, 3);
    // Average over a few noise seeds to avoid cherry-picking.
    let noisy: f64 = (0..4).map(|s| run_with_error_rate(0.1, s)).sum::<f64>() / 4.0;
    assert!(
        noisy >= clean * 0.5,
        "10% label noise halved retrieval quality: clean {clean}, noisy {noisy}"
    );
}

#[test]
fn heavy_noise_still_terminates() {
    // Even a 50%-random user must not panic or hang the session.
    let acc = run_with_error_rate(0.5, 9);
    assert!((0.0..=1.0).contains(&acc));
}
