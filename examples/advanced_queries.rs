//! The paper's §7 future-work query types, implemented: **query by
//! example** (hand the system a window you liked, get more like it) and
//! **query by sketch** (draw a trajectory shape, get tracks shaped like
//! it). Both reuse the pipeline artifacts of a prepared clip.
//!
//! Run with: `cargo run --release --example advanced_queries`

use std::sync::Arc;
use tsvr::core::pipeline::median_heuristic_gamma;
use tsvr::core::{prepare_clip, EventQuery, PipelineOptions, Session, SketchQuery};
use tsvr::mil::qbe::QueryByExample;
use tsvr::mil::session::rank_by;
use tsvr::mil::{GroundTruthOracle, Learner, Oracle};
use tsvr::sim::Scenario;
use tsvr::svm::Kernel;

fn main() {
    println!("preparing the tunnel clip...");
    let clip = prepare_clip(&Scenario::tunnel_paper(2007), &PipelineOptions::default());
    let labels = clip.labels(&EventQuery::accidents());
    let oracle = GroundTruthOracle::new(labels.clone());

    // ---- query by example ---------------------------------------------------
    // The "user" picks one known accident window as the example.
    let example_id = labels
        .iter()
        .position(|&l| l)
        .expect("clip has accident windows");
    println!("\nquery by example: 'find windows like window {example_id}' (an accident scene)");
    let gamma = median_heuristic_gamma(&clip.bags);
    let mut qbe = QueryByExample::new(Kernel::Rbf { gamma });
    qbe.add_example_bag(&clip.bags[example_id]);

    // One-shot ranking, no feedback at all:
    let ranking = rank_by(&clip.bags, |b| qbe.score(b));
    let hits = ranking.iter().take(20).filter(|&&b| labels[b]).count();
    println!(
        "  one-shot accuracy@20 from a single example: {}%",
        hits * 5
    );

    // Or the full interactive session, seeded by the example (the
    // initial page comes from the example, later pages refine it):
    let bags = Arc::new(clip.bags.clone());
    let report = Session::seeded(0, 0, "accident", Box::new(qbe), bags)
        .run_rounds(&oracle, 20, 2)
        .expect("pages hold clip windows");
    println!(
        "  with 2 feedback rounds on top: {:?}",
        report
            .accuracies
            .iter()
            .map(|a| format!("{:.0}%", a * 100.0))
            .collect::<Vec<_>>()
    );

    // ---- query by sketch ----------------------------------------------------
    println!("\nquery by sketch: 'find trajectories shaped like this straight pass'");
    let sketch = SketchQuery::straight_pass();
    let ranked_tracks = sketch.rank_tracks(&clip.vision.tracks);
    println!("  best-matching tracks (id, shape distance):");
    for (t, d) in ranked_tracks.iter().take(5) {
        println!(
            "    track {:>3}  dist {:.4}  frames {}..={}",
            t.id,
            d,
            t.start_frame(),
            t.end_frame()
        );
    }
    let worst = ranked_tracks.last().unwrap();
    println!(
        "  least similar: track {} (dist {:.4}) — {}",
        worst.0.id,
        worst.1,
        if labels.is_empty() {
            ""
        } else {
            "likely a crash/veer trajectory"
        }
    );

    // Window-level sketch retrieval:
    let windows = sketch.rank_windows(&clip);
    println!(
        "  top windows by sketch: {:?}",
        windows.iter().take(5).map(|(w, _)| *w).collect::<Vec<_>>()
    );
    let _ = oracle.relevant_count();
}
