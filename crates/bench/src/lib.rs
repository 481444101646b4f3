//! Shared helpers for the figure-regeneration binaries and the bench
//! targets. Each binary in `src/bin/` regenerates one table or figure of
//! the paper; see DESIGN.md's experiment index. The `benches/` targets
//! run on the in-tree [`harness`].

pub mod harness;

use std::sync::Arc;

use tsvr_core::{
    prepare_clip, ClipArtifacts, EventQuery, LearnerKind, PipelineOptions, Session, SessionReport,
};
use tsvr_mil::GroundTruthOracle;
use tsvr_sim::Scenario;

/// The seed used by all headline experiments (fixed for
/// reproducibility; ablations vary it explicitly).
pub const PAPER_SEED: u64 = 2007;

/// Prepares the paper's clip 1 (tunnel, 2504 frames).
pub fn clip1(seed: u64) -> ClipArtifacts {
    prepare_clip(&Scenario::tunnel_paper(seed), &PipelineOptions::default())
}

/// Prepares the paper's clip 2 (intersection, 592 frames).
pub fn clip2(seed: u64) -> ClipArtifacts {
    prepare_clip(
        &Scenario::intersection_paper(seed),
        &PipelineOptions::default(),
    )
}

/// Runs the paper's protocol (§6) for `query` with a learner over a
/// prepared clip: the heuristic first page, then four rounds in which
/// the ground-truth oracle labels the top 20. The session is never
/// stored, so its session and clip ids are 0.
pub fn paper_rounds(
    clip: &ClipArtifacts,
    query: &EventQuery,
    learner: LearnerKind,
) -> SessionReport {
    let oracle = GroundTruthOracle::new(clip.labels(query));
    Session::open(0, 0, query.name, learner, Arc::new(clip.bags.clone()))
        .run_rounds(&oracle, 20, 4)
        .expect("ranked windows are in the clip")
}

/// Formats an accuracy series like the paper's round labels.
pub fn print_accuracy_table(title: &str, reports: &[&SessionReport]) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len()));
    print!("{:<22}", "method");
    for label in ["Initial", "First", "Second", "Third", "Fourth"]
        .iter()
        .take(reports.first().map(|r| r.accuracies.len()).unwrap_or(0))
    {
        print!("{label:>9}");
    }
    println!();
    for r in reports {
        print!("{:<22}", r.learner);
        for a in &r.accuracies {
            print!("{:>8.0}%", a * 100.0);
        }
        println!();
    }
    if let Some(r) = reports.first() {
        println!(
            "(relevant windows: {}, accuracy ceiling at top-20: {:.0}%)",
            r.relevant_total,
            r.ceiling * 100.0
        );
    }
}

/// Per-clip dataset statistics (the §6.2 prose numbers).
pub struct ClipStats {
    /// Total frames.
    pub frames: usize,
    /// Confirmed tracks.
    pub tracks: usize,
    /// Windows (video sequences).
    pub windows: usize,
    /// Trajectory sequences across all windows.
    pub sequences: usize,
    /// Accident-relevant windows.
    pub relevant: usize,
}

/// Computes dataset statistics for a prepared clip.
pub fn clip_stats(clip: &ClipArtifacts) -> ClipStats {
    ClipStats {
        frames: clip.sim.frames.len(),
        tracks: clip.vision.tracks.len(),
        windows: clip.dataset.window_count(),
        sequences: clip.dataset.sequence_count(),
        relevant: clip
            .labels(&EventQuery::accidents())
            .iter()
            .filter(|&&l| l)
            .count(),
    }
}
