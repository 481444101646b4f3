//! **Extension** — classic MIL baselines from the paper's §2.1 review.
//!
//! Runs Diverse Density \[6\] and EM-DD \[7\] through the same interactive
//! sessions as the paper's One-class-SVM learner and the weighted-RF
//! baseline, on both clips. Not a paper table; included because the
//! paper positions its contribution against exactly these algorithms.

use tsvr_bench::{clip1, clip2, paper_rounds, print_accuracy_table, PAPER_SEED};
use tsvr_core::{EventQuery, LearnerKind};

fn main() {
    let accidents = EventQuery::accidents();
    for (name, clip) in [
        ("clip 1 (tunnel)", clip1(PAPER_SEED)),
        ("clip 2 (intersection)", clip2(PAPER_SEED)),
    ] {
        let ocsvm = paper_rounds(&clip, &accidents, LearnerKind::paper_ocsvm());
        let wrf = paper_rounds(&clip, &accidents, LearnerKind::paper_weighted_rf());
        let dd = paper_rounds(
            &clip,
            &accidents,
            LearnerKind::DiverseDensity { scale: 8.0 },
        );
        let emdd = paper_rounds(&clip, &accidents, LearnerKind::EmDd { scale: 8.0 });
        let misvm = paper_rounds(&clip, &accidents, LearnerKind::MiSvm { c: 10.0 });
        print_accuracy_table(
            &format!("MIL learner comparison — {name}"),
            &[&ocsvm, &wrf, &dd, &emdd, &misvm],
        );
    }
}
