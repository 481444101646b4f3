//! **Ablation A2** — the `z` adjustment of Eq. 9.
//!
//! The paper sets the One-class SVM outlier fraction to
//! `δ = 1 − (h/H + z)` and reports that "z = 0.05 works well". This
//! ablation sweeps `z` on both clips.

use tsvr_bench::{clip1, clip2, paper_rounds, PAPER_SEED};
use tsvr_core::{EventQuery, LearnerKind};

fn main() {
    let accidents = EventQuery::accidents();
    println!("Ablation A2 — Eq. 9's z parameter (final-round accuracy@20)");
    println!("============================================================");
    let c1 = clip1(PAPER_SEED);
    let c2 = clip2(PAPER_SEED);
    println!(
        "{:>6} {:>22} {:>22}",
        "z", "clip1 final (init)", "clip2 final (init)"
    );
    for z in [0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3] {
        let r1 = paper_rounds(&c1, &accidents, LearnerKind::OcSvmAuto { z });
        let r2 = paper_rounds(&c2, &accidents, LearnerKind::OcSvmAuto { z });
        println!(
            "{:>6.2} {:>15.0}% ({:>3.0}%) {:>15.0}% ({:>3.0}%)",
            z,
            r1.accuracies.last().unwrap() * 100.0,
            r1.accuracies[0] * 100.0,
            r2.accuracies.last().unwrap() * 100.0,
            r2.accuracies[0] * 100.0
        );
    }
    println!("\npaper: z = 0.05 'works well'; z shifts how many training TSs the one-class\nSVM may discard as outliers on top of the h/H estimate.");
}
