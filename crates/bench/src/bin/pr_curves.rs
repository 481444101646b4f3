//! Extension analysis: precision/recall/AP per feedback round.
//!
//! The paper argues (§6.2) that precision and recall are "not
//! applicable" in a deployed large-scale system because the total number
//! of correct results is unknown — hence its accuracy@20 measure. With
//! simulated ground truth the totals *are* known, so this binary reports
//! what the paper could not: recall@20 and average precision per round,
//! for both clips and both methods.

use tsvr_bench::{clip1, clip2, paper_rounds, PAPER_SEED};
use tsvr_core::{EventQuery, LearnerKind};
use tsvr_mil::metrics::{average_precision, recall_at};

fn main() {
    let accidents = EventQuery::accidents();
    println!("Precision/recall analysis (ground truth known — see paper §6.2)");
    println!("================================================================");
    for (name, clip) in [
        ("clip 1 (tunnel)", clip1(PAPER_SEED)),
        ("clip 2 (intersection)", clip2(PAPER_SEED)),
    ] {
        let labels = clip.labels(&accidents);
        println!(
            "\n{name}: {} relevant of {} windows",
            labels.iter().filter(|&&l| l).count(),
            labels.len()
        );
        println!(
            "{:<20}{:>7}{:>10}{:>12}{:>9}",
            "method", "round", "acc@20", "recall@20", "AP"
        );
        for kind in [LearnerKind::paper_ocsvm(), LearnerKind::paper_weighted_rf()] {
            let report = paper_rounds(&clip, &accidents, kind);
            for (round, ranking) in report.rankings.iter().enumerate() {
                println!(
                    "{:<20}{:>7}{:>9.0}%{:>11.0}%{:>9.3}",
                    if round == 0 { report.learner } else { "" },
                    round,
                    report.accuracies[round] * 100.0,
                    recall_at(ranking, &labels, 20) * 100.0,
                    average_precision(ranking, &labels)
                );
            }
        }
    }
    println!("\nAP summarizes the entire ranking: it keeps separating the methods even\nwhen accuracy@20 saturates against the relevant-window ceiling.");
}
