//! The paper's clip-2 setting, plus what §4 promises: the same event
//! model re-targeted at a *different* event type. Queries the
//! intersection clip first for accidents (Figure 9) and then for
//! U-turns, reusing the same features and learner.
//!
//! Run with: `cargo run --release --example intersection_collisions`

use std::sync::Arc;
use tsvr::core::{
    prepare_clip, ClipArtifacts, EventQuery, LearnerKind, PipelineOptions, Session, SessionReport,
};
use tsvr::mil::GroundTruthOracle;
use tsvr::sim::Scenario;

/// Three rounds of top-10 feedback on `query` with the paper's OC-SVM.
fn run_query(clip: &ClipArtifacts, query: &EventQuery) -> SessionReport {
    let oracle = GroundTruthOracle::new(clip.labels(query));
    let bags = Arc::new(clip.bags.clone());
    Session::open(0, 0, query.name, LearnerKind::paper_ocsvm(), bags)
        .run_rounds(&oracle, 10, 3)
        .expect("pages hold clip windows")
}

fn print_report(title: &str, r: &SessionReport) {
    println!("\n{title} ({}):", r.learner);
    for (round, acc) in r.accuracies.iter().enumerate() {
        println!("  round {round}: {:>5.0}%", acc * 100.0);
    }
    println!(
        "  ({} relevant windows; page ceiling {:.0}%)",
        r.relevant_total,
        r.ceiling * 100.0
    );
}

fn main() {
    println!("preparing the intersection clip (592 frames)...");
    let clip = prepare_clip(
        &Scenario::intersection_paper(2007),
        &PipelineOptions::default(),
    );
    println!(
        "{} tracked vehicles, {} windows, {} trajectory sequences",
        clip.vision.tracks.len(),
        clip.dataset.window_count(),
        clip.dataset.sequence_count()
    );

    // Query 1: multi-vehicle accidents (side collisions, rear-end
    // crashes) — the paper's evaluation query.
    let accidents = run_query(&clip, &EventQuery::accidents());
    print_report("accident query", &accidents);

    // Query 2: U-turns — the paper's §4 notes the event model "may also
    // be adjusted to detect U-turns, speeding and any other event that
    // involves the abnormal behavior of a vehicle". Nothing changes but
    // which windows the oracle (user) calls relevant.
    let uturns = run_query(&clip, &EventQuery::u_turns());
    print_report("u-turn query", &uturns);

    println!("\nsame features, same learner — only the user's feedback differs between\nthe two queries. That is the point of the relevance-feedback design.");
}
