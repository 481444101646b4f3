//! Robustness check: the Fig. 8/9 shapes must hold across simulation
//! seeds, not just at the calibrated `PAPER_SEED`. Runs both clips over
//! several seeds and reports the per-round mean accuracy (and the
//! MIL-vs-baseline verdict per seed).

use tsvr_bench::{clip1, clip2, paper_rounds};
use tsvr_core::{EventQuery, LearnerKind};

fn main() {
    let accidents = EventQuery::accidents();
    let seeds = [2007u64, 101, 202, 303, 404];
    for (name, make) in [
        ("clip 1 (tunnel)", clip1 as fn(u64) -> _),
        ("clip 2 (intersection)", clip2 as fn(u64) -> _),
    ] {
        println!("\n{name} over seeds {seeds:?}");
        println!(
            "{:>6} {:>28} {:>28} {:>10}",
            "seed", "MIL rounds 0..4", "WRF rounds 0..4", "MIL wins?"
        );
        let mut mil_sum = [0.0f64; 5];
        let mut wrf_sum = [0.0f64; 5];
        let mut wins = 0;
        for &seed in &seeds {
            let clip = make(seed);
            let mil = paper_rounds(&clip, &accidents, LearnerKind::paper_ocsvm());
            let wrf = paper_rounds(&clip, &accidents, LearnerKind::paper_weighted_rf());
            let fmt = |r: &tsvr_core::SessionReport| {
                r.accuracies
                    .iter()
                    .map(|a| format!("{:>3.0}", a * 100.0))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let mil_final = *mil.accuracies.last().unwrap();
            let wrf_final = *wrf.accuracies.last().unwrap();
            let win = mil_final >= wrf_final;
            if win {
                wins += 1;
            }
            for (i, a) in mil.accuracies.iter().enumerate() {
                mil_sum[i] += a;
            }
            for (i, a) in wrf.accuracies.iter().enumerate() {
                wrf_sum[i] += a;
            }
            println!(
                "{:>6} {:>28} {:>28} {:>10}",
                seed,
                fmt(&mil),
                fmt(&wrf),
                if win { "yes" } else { "NO" }
            );
        }
        let n = seeds.len() as f64;
        println!(
            "{:>6} {:>28} {:>28} {:>7}/{}",
            "mean",
            mil_sum
                .iter()
                .map(|s| format!("{:>3.0}", s / n * 100.0))
                .collect::<Vec<_>>()
                .join(" "),
            wrf_sum
                .iter()
                .map(|s| format!("{:>3.0}", s / n * 100.0))
                .collect::<Vec<_>>()
                .join(" "),
            wins,
            seeds.len()
        );
    }
    println!("\nshape claim: MIL final >= weighted-RF final on every seed, and the mean\nMIL curve is non-decreasing across rounds.");
}
