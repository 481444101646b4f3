//! §4's claim, tested: "this event model may also be adjusted to detect
//! U-turns, speeding and any other event that involves the abnormal
//! behavior of a vehicle." Runs the *same* features and learner against
//! U-turn and speeding queries on the paper clips — only the user's
//! notion of "relevant" changes.

use std::sync::Arc;

use tsvr_bench::{clip1, clip2, paper_rounds, PAPER_SEED};
use tsvr_core::pipeline::median_heuristic_gamma;
use tsvr_core::{EventQuery, LearnerKind, Session};
use tsvr_mil::qbe::QueryByExample;
use tsvr_mil::GroundTruthOracle;
use tsvr_svm::Kernel;

fn main() {
    println!("Other event types (paper §4) — same features, same learner, different user");
    println!("===========================================================================");
    for (name, clip) in [
        ("clip 1 (tunnel)", clip1(PAPER_SEED)),
        ("clip 2 (intersection)", clip2(PAPER_SEED)),
    ] {
        println!("\n{name}");
        println!(
            "{:<12}{:>10}{:>10}{:>10}{:>10}{:>10}{:>11}",
            "query", "relevant", "initial", "r1", "r2", "final", "ceiling"
        );
        for query in [
            EventQuery::accidents(),
            EventQuery::u_turns(),
            EventQuery::speeding(),
        ] {
            let report = paper_rounds(&clip, &query, LearnerKind::paper_ocsvm());
            if report.relevant_total == 0 {
                println!("{:<12}{:>10}  (no such events in this clip)", query.name, 0);
                continue;
            }
            println!(
                "{:<12}{:>10}{:>9.0}%{:>9.0}%{:>9.0}%{:>9.0}%{:>10.0}%",
                query.name,
                report.relevant_total,
                report.accuracies[0] * 100.0,
                report.accuracies[1] * 100.0,
                report.accuracies[2] * 100.0,
                report.accuracies.last().unwrap() * 100.0,
                report.ceiling * 100.0
            );
        }
    }
    println!("\nU-turns ride the θ feature, speeding the vdiff feature; the accident\nmodel's α vector covers all three without modification.");

    // The speeding query cannot bootstrap on clip 1: its signature is too
    // weak for the square-sum heuristic, so the initial page shows the
    // user nothing to confirm. Query-by-example (§7 future work) fixes
    // the cold start: seed with ONE known speeding window.
    let clip = clip1(PAPER_SEED);
    let query = EventQuery::speeding();
    let labels = clip.labels(&query);
    let Some(example) = labels.iter().position(|&l| l) else {
        return;
    };
    let mut qbe = QueryByExample::new(Kernel::Rbf {
        gamma: median_heuristic_gamma(&clip.bags),
    });
    qbe.add_example_bag(&clip.bags[example]);
    let oracle = GroundTruthOracle::new(labels);
    // Seeded: the first page comes from the example, not the heuristic.
    let report = Session::seeded(0, 0, query.name, Box::new(qbe), Arc::new(clip.bags))
        .run_rounds(&oracle, 20, 4)
        .expect("ranked windows are in the clip");
    println!("\nspeeding on clip 1, seeded with example window {example} (query by example):");
    println!(
        "  rounds: {}  (vs 0% flat for the heuristic-bootstrapped session)",
        report
            .accuracies
            .iter()
            .map(|a| format!("{:.0}%", a * 100.0))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
}
