//! The paper's clip-1 experiment as a workflow: a 2504-frame tunnel
//! clip, an accident query, and a comparison of the proposed MIL
//! One-class SVM against the weighted-RF baseline over four feedback
//! rounds (Figure 8).
//!
//! Run with: `cargo run --release --example tunnel_accidents`

use std::sync::Arc;
use tsvr::core::{prepare_clip, EventQuery, LearnerKind, PipelineOptions, Session};
use tsvr::mil::GroundTruthOracle;
use tsvr::sim::Scenario;

fn main() {
    println!("preparing the tunnel clip (2504 frames; this renders and segments\nevery frame, expect a few seconds)...");
    let clip = prepare_clip(&Scenario::tunnel_paper(2007), &PipelineOptions::default());

    let query = EventQuery::accidents();
    println!("\nincidents in the clip:");
    for rec in &clip.sim.incidents {
        println!(
            "  {:<16} frames {:>4}..{:<4} vehicles {:?}{}",
            rec.kind.name(),
            rec.start_frame,
            rec.end_frame,
            rec.vehicle_ids,
            if query.matches(rec.kind) {
                ""
            } else {
                "  (not an accident)"
            }
        );
    }

    // The paper's protocol: top 20, four feedback rounds.
    let oracle = GroundTruthOracle::new(clip.labels(&query));
    let bags = Arc::new(clip.bags.clone());
    let [mil, wrf] = [LearnerKind::paper_ocsvm(), LearnerKind::paper_weighted_rf()].map(|kind| {
        Session::open(0, 0, query.name, kind, Arc::clone(&bags))
            .run_rounds(&oracle, 20, 4)
            .expect("pages hold clip windows")
    });

    println!("\naccuracy@20 per round:");
    println!(
        "{:<20}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "", "Initial", "First", "Second", "Third", "Fourth"
    );
    for r in [&mil, &wrf] {
        print!("{:<20}", r.learner);
        for a in &r.accuracies {
            print!("{:>8.0}%", a * 100.0);
        }
        println!();
    }
    println!(
        "\n({} of {} windows show accidents; the best any method can reach in a\n20-item page is {:.0}%)",
        mil.relevant_total,
        clip.bags.len(),
        mil.ceiling * 100.0
    );
}
