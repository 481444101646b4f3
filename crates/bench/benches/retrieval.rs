//! Retrieval-loop benchmarks: the figure-8/9 session machinery at its
//! real scale (a full feedback session over a small clip's bag database,
//! plus learner training and ranking in isolation).

use std::hint::black_box;
use std::sync::Arc;
use tsvr_bench::harness::Bencher;
use tsvr_core::{prepare_clip, EventQuery, LearnerKind, PipelineOptions, Session};
use tsvr_mil::session::rank_by;
use tsvr_mil::{heuristic, GroundTruthOracle, Learner};
use tsvr_sim::Scenario;
use tsvr_svm::Kernel;

fn main() {
    let mut b = Bencher::new("retrieval");
    let clip = prepare_clip(&Scenario::tunnel_small(7), &PipelineOptions::default());
    let labels = clip.labels(&EventQuery::accidents());
    let oracle = GroundTruthOracle::new(labels.clone());
    let bags = Arc::new(clip.bags.clone());
    let session = |kind| {
        Session::open(0, 0, "accident", kind, Arc::clone(black_box(&bags)))
            .run_rounds(&oracle, 10, 4)
            .unwrap()
    };

    b.bench("session_ocsvm_small_clip", || {
        session(LearnerKind::paper_ocsvm())
    });
    b.bench("session_weighted_rf_small_clip", || {
        session(LearnerKind::paper_weighted_rf())
    });

    b.bench("heuristic_rank_all_bags", || {
        rank_by(black_box(&clip.bags), heuristic::bag_score)
    });

    let feedback: Vec<(usize, bool)> = clip
        .bags
        .iter()
        .take(10)
        .map(|b| (b.id, labels[b.id]))
        .collect();
    b.bench("ocsvm_learn_one_round", || {
        let mut l = tsvr_mil::OcSvmMilLearner::new(Kernel::Rbf { gamma: 10.0 });
        l.learn(black_box(&clip.bags), black_box(&feedback));
        l
    });

    let scenario = Scenario::tunnel_small(7);
    b.bench("prepare_clip/tunnel_400_frames", || {
        prepare_clip(black_box(&scenario), &PipelineOptions::default())
    });
}
