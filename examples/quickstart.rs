//! Quickstart: simulate a short surveillance clip, run the full
//! pipeline (render → segment → track → features → windows), and
//! retrieve accident scenes with the interactive MIL framework.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use tsvr::core::{prepare_clip, EventQuery, LearnerKind, PipelineOptions, Session};
use tsvr::mil::GroundTruthOracle;
use tsvr::sim::Scenario;

fn main() {
    // A 400-frame tunnel clip with two scripted accidents.
    let scenario = Scenario::tunnel_small(7);
    println!("simulating {} frames...", scenario.total_frames);
    let clip = prepare_clip(&scenario, &PipelineOptions::default());

    println!(
        "pipeline: {} tracked vehicles -> {} windows / {} trajectory sequences",
        clip.vision.tracks.len(),
        clip.dataset.window_count(),
        clip.dataset.sequence_count()
    );
    println!(
        "ground truth: {} incidents ({} accident windows)",
        clip.sim.incidents.len(),
        clip.labels(&EventQuery::accidents())
            .iter()
            .filter(|&&l| l)
            .count()
    );

    // Interactive retrieval: 5 results per page, 2 feedback rounds.
    let query = EventQuery::accidents();
    let oracle = GroundTruthOracle::new(clip.labels(&query));
    let bags = Arc::new(clip.bags.clone());
    let mut session = Session::open(1, 1, query.name, LearnerKind::paper_ocsvm(), bags);
    let report = session
        .run_rounds(&oracle, 5, 2)
        .expect("pages hold clip windows");

    println!("\nretrieval accuracy@5 per round ({}):", report.learner);
    for (round, acc) in report.accuracies.iter().enumerate() {
        let label = if round == 0 {
            "initial (heuristic)".to_string()
        } else {
            format!("after feedback round {round}")
        };
        println!("  {label:<24} {:>5.0}%", acc * 100.0);
    }
    println!("\ntop-5 windows of the final round: {:?}", session.page(5));
}
