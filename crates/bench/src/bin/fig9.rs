//! Regenerates **Figure 9**: retrieval accuracy within the top 20 video
//! sequences for clip 2 (road intersection), per feedback round.
//!
//! Paper shape: accidents here "often involve two or more vehicles";
//! the MIL framework's gains are smaller than on clip 1 but it remains
//! "far better than that of the weighted RF method, in which
//! performance degradation occurs right after the initial iteration".

use tsvr_bench::{clip2, paper_rounds, print_accuracy_table, PAPER_SEED};
use tsvr_core::{EventQuery, LearnerKind};

fn main() {
    let accidents = EventQuery::accidents();
    let clip = clip2(PAPER_SEED);
    let mil = paper_rounds(&clip, &accidents, LearnerKind::paper_ocsvm());
    let wrf = paper_rounds(&clip, &accidents, LearnerKind::paper_weighted_rf());
    print_accuracy_table(
        "Figure 9 — retrieval accuracy, clip 2 (intersection, 592 frames)",
        &[&mil, &wrf],
    );
    println!(
        "\npaper shape: MIL improves moderately; Weighted_RF degrades after the initial round."
    );
}
