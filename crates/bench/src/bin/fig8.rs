//! Regenerates **Figure 8**: retrieval accuracy within the top 20 video
//! sequences for clip 1 (tunnel), per feedback round, for the proposed
//! MIL One-class SVM framework vs. the weighted-RF baseline.
//!
//! Paper shape: both methods start at 40% (identical initial round);
//! the MIL framework "increases steadily from 40% to 60%" while the
//! weighted RF gains only ~10% overall and "keeps bouncing around
//! between 35% and 50%".

use tsvr_bench::{clip1, paper_rounds, print_accuracy_table, PAPER_SEED};
use tsvr_core::{EventQuery, LearnerKind};

fn main() {
    let accidents = EventQuery::accidents();
    let clip = clip1(PAPER_SEED);
    let mil = paper_rounds(&clip, &accidents, LearnerKind::paper_ocsvm());
    let wrf = paper_rounds(&clip, &accidents, LearnerKind::paper_weighted_rf());
    print_accuracy_table(
        "Figure 8 — retrieval accuracy, clip 1 (tunnel, 2504 frames)",
        &[&mil, &wrf],
    );
    println!("\npaper reference:");
    println!(
        "{:<22}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "MIL_OCSVM (paper)", "40%", "~45%", "~50%", "~55%", "60%"
    );
    println!(
        "{:<22}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "Weighted_RF (paper)", "40%", "~35-50%", "~50%", "50%", "~40-50%"
    );
}
