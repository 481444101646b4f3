//! **Ablation A1** — weight normalization in the weighted-RF baseline.
//!
//! The paper (§6.2) compares three schemes for normalizing the
//! inverse-σ feature weights — none, linear min–max, and
//! percentage-of-total — and reports that "the latter \[percentage\]
//! outperforms both the linear normalization and no normalization at
//! all". This ablation reruns the accident sessions under all three.

use tsvr_bench::{clip1, clip2, paper_rounds, print_accuracy_table, PAPER_SEED};
use tsvr_core::{EventQuery, LearnerKind};
use tsvr_mil::Normalization;

fn main() {
    let accidents = EventQuery::accidents();
    for (name, clip) in [
        ("clip 1 (tunnel)", clip1(PAPER_SEED)),
        ("clip 2 (intersection)", clip2(PAPER_SEED)),
    ] {
        let wrf = |n| paper_rounds(&clip, &accidents, LearnerKind::WeightedRf(n));
        let raw = wrf(Normalization::None);
        let linear = wrf(Normalization::Linear);
        let pct = wrf(Normalization::Percentage);
        print_accuracy_table(
            &format!("Ablation A1 — weight normalization, {name}"),
            &[&pct, &linear, &raw],
        );
    }
    println!("\npaper finding: percentage normalization beats linear (which can zero out a\nfeature entirely) and raw 1/sigma weights (which bias the score).");
}
