//! **Ablation A3** — window size and sampling rate (paper §5.1).
//!
//! The paper derives window size 3 from the typical car-crash length
//! (~15 frames) at 5 frames/checkpoint. This ablation sweeps the window
//! size (and one alternative sampling rate) and reruns the clip-1
//! accident session, showing the event-length argument empirically.

use tsvr_bench::{paper_rounds, PAPER_SEED};
use tsvr_core::{prepare_clip, EventQuery, LearnerKind, PipelineOptions};
use tsvr_mil::Normalization;
use tsvr_sim::Scenario;
use tsvr_trajectory::checkpoint::FeatureConfig;
use tsvr_trajectory::WindowConfig;

fn run(window_size: usize, sampling_rate: u32) -> (usize, usize, f64, f64, f64) {
    let opts = PipelineOptions {
        window: WindowConfig {
            window_size,
            stride: window_size,
            features: FeatureConfig {
                sampling_rate,
                ..FeatureConfig::default()
            },
        },
        ..PipelineOptions::default()
    };
    let clip = prepare_clip(&Scenario::tunnel_paper(PAPER_SEED), &opts);
    let accidents = EventQuery::accidents();
    let mil = paper_rounds(&clip, &accidents, LearnerKind::paper_ocsvm());
    let wrf = paper_rounds(
        &clip,
        &accidents,
        LearnerKind::WeightedRf(Normalization::Percentage),
    );
    (
        clip.dataset.window_count(),
        clip.dataset.sequence_count(),
        mil.accuracies[0],
        *mil.accuracies.last().unwrap(),
        *wrf.accuracies.last().unwrap(),
    )
}

fn main() {
    println!("Ablation A3 — window size / sampling rate (clip 1, accuracy@20)");
    println!("================================================================");
    println!(
        "{:>7} {:>6} {:>9} {:>6} {:>9} {:>10} {:>10}",
        "window", "rate", "windows", "TSs", "initial", "MIL final", "WRF final"
    );
    for (w, rate) in [
        (2usize, 5u32),
        (3, 5),
        (4, 5),
        (5, 5),
        (6, 5),
        (3, 3),
        (3, 8),
    ] {
        let (wins, tss, init, mil, wrf) = run(w, rate);
        println!(
            "{:>7} {:>6} {:>9} {:>6} {:>8.0}% {:>9.0}% {:>9.0}%",
            w,
            rate,
            wins,
            tss,
            init * 100.0,
            mil * 100.0,
            wrf * 100.0
        );
    }
    println!("\npaper: 15-frame events at 5 frames/checkpoint give window size 3; larger\nwindows dilute the event signature, smaller ones cut it in half.");
}
