//! Vision-stack benchmarks: rendering, background subtraction, SPCPE
//! refinement, blob extraction and tracking, at the paper's QVGA frame
//! size.

use std::hint::black_box;
use tsvr_bench::harness::Bencher;
use tsvr_sim::{Scenario, ScenarioKind, World};
use tsvr_vision::background::BackgroundModel;
use tsvr_vision::blob::extract_blobs;
use tsvr_vision::render::Renderer;
use tsvr_vision::spcpe;
use tsvr_vision::tracker::{Tracker, TrackerConfig};

fn busy_frame_setup() -> (Renderer, tsvr_sim::world::SimOutput) {
    let mut scenario = Scenario::tunnel_small(5);
    scenario.mean_spawn_interval = 60.0; // busier scene
    let sim = World::run(scenario);
    let renderer = Renderer::new(ScenarioKind::Tunnel, sim.width, sim.height);
    (renderer, sim)
}

fn main() {
    let mut b = Bencher::new("vision");
    let (renderer, sim) = busy_frame_setup();
    let obs = sim.frames.iter().max_by_key(|f| f.vehicles.len()).unwrap();

    b.bench("render_320x240", || {
        renderer.render(black_box(&obs.vehicles), obs.frame)
    });

    let frame = renderer.render(&obs.vehicles, obs.frame);
    let bg = BackgroundModel::from_frame(renderer.background());
    b.bench("background_subtract_320x240", || {
        bg.clone().subtract_and_update(black_box(&frame))
    });

    let sub = bg.clone().subtract_and_update(&frame);
    let diff = frame.abs_diff(&sub.background);
    let mask = sub.mask.majority_filter(4);
    b.bench("despeckle_320x240", || {
        black_box(&sub.mask).majority_filter(4)
    });
    b.bench("spcpe_refine_320x240", || {
        spcpe::refine(black_box(&diff), black_box(&mask))
    });

    let refined = spcpe::refine(&diff, &mask).mask;
    b.bench("blob_extract_320x240", || {
        extract_blobs(black_box(&refined), 60, Some(&frame))
    });

    // Pre-extract blobs for 60 frames, then time tracking alone.
    let mut bg = BackgroundModel::from_frame(renderer.background());
    let blob_seq: Vec<_> = sim
        .frames
        .iter()
        .take(60)
        .map(|obs| {
            let frame = renderer.render(&obs.vehicles, obs.frame);
            let mask = bg.subtract_and_update(&frame).mask.majority_filter(4);
            extract_blobs(&mask, 60, Some(&frame))
        })
        .collect();
    b.bench("tracker_60_frames", || {
        let mut tk = Tracker::new(TrackerConfig::default());
        for (i, blobs) in blob_seq.iter().enumerate() {
            tk.step(i as u32, black_box(blobs));
        }
        tk.finish()
    });
}
