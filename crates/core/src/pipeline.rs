//! End-to-end clip preparation and the learner kinds sessions build.

use crate::labels::label_windows;
use crate::query::EventQuery;
use tsvr_mil::dd::{DiverseDensityLearner, EmDdLearner};
use tsvr_mil::MiSvmLearner;
use tsvr_mil::{Bag, Instance, Learner, Normalization, OcSvmMilLearner, WeightedRfLearner};
use tsvr_sim::world::SimOutput;
use tsvr_sim::{Scenario, ScenarioKind, World};
use tsvr_svm::Kernel;
use tsvr_trajectory::{Dataset, WindowConfig};
use tsvr_vision::{PipelineConfig, VisionOutput};

/// Options for the clip-preparation pipeline.
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Vision (render/segment/track) parameters.
    pub vision: PipelineConfig,
    /// Window/feature extraction parameters.
    pub window: WindowConfig,
}

/// Everything derived from one clip, ready for retrieval sessions.
#[derive(Debug, Clone)]
pub struct ClipArtifacts {
    /// Scene layout the clip was produced from.
    pub kind: ScenarioKind,
    /// Simulator output (frames + ground-truth incidents).
    pub sim: SimOutput,
    /// Vision output (tracked trajectories).
    pub vision: VisionOutput,
    /// Extracted windows and trajectory sequences.
    pub dataset: Dataset,
    /// MIL bags with fixed-range-normalized feature rows.
    pub bags: Vec<Bag>,
}

impl ClipArtifacts {
    /// Ground-truth bag labels for a query.
    pub fn labels(&self, query: &EventQuery) -> Vec<bool> {
        label_windows(&self.dataset, &self.sim.incidents, query)
    }
}

/// Runs simulation → rendering → segmentation/tracking → feature
/// extraction → bag construction for one scenario.
pub fn prepare_clip(scenario: &Scenario, opts: &PipelineOptions) -> ClipArtifacts {
    let _span = tsvr_obs::tspan!("core.prepare_clip");
    prepare_sim(World::run(scenario.clone()), scenario.kind, opts)
}

/// Runs the downstream half of [`prepare_clip`] on an already-simulated
/// recording: rendering → segmentation/tracking → feature extraction →
/// bag construction. This is the entry point for recordings that are
/// not one whole `World::run` output — e.g. the per-camera halves of a
/// multi-camera handoff split ([`tsvr_sim::SimOutput::split_at`]).
pub fn prepare_sim(sim: SimOutput, kind: ScenarioKind, opts: &PipelineOptions) -> ClipArtifacts {
    let _span = tsvr_obs::tspan!("core.prepare_sim");
    let vision = tsvr_vision::pipeline::process(&sim, kind, &opts.vision);
    let dataset = Dataset::build(&vision.tracks, opts.window);
    let bags = bags_from_dataset(&dataset);
    ClipArtifacts {
        kind,
        sim,
        vision,
        dataset,
        bags,
    }
}

/// Converts a dataset into MIL bags with fixed-range-normalized rows
/// (see [`tsvr_trajectory::checkpoint::Alpha::normalized`]). Windows
/// are independent, so the conversion fans out per window on the
/// [`tsvr_par`] runtime (order-preserving: `bags[i]` is window `i`).
pub fn bags_from_dataset(dataset: &Dataset) -> Vec<Bag> {
    let cfg = dataset.config.features;
    tsvr_par::par_map(&dataset.windows, |_, w| {
        let instances = w
            .sequences
            .iter()
            .map(|ts| {
                let rows: Vec<Vec<f64>> = ts
                    .alphas
                    .iter()
                    .map(|a| a.normalized(&cfg).to_vec())
                    .collect();
                Instance::new(ts.track_id, rows)
            })
            .collect();
        Bag::new(w.index, instances)
    })
}

/// RBF width from the database-level median heuristic:
/// `γ = ln 2 / median(‖u − v‖²)` over every trajectory-sequence feature
/// vector in the bag database, so the kernel evaluates to ½ at the
/// typical inter-vector distance. Unsupervised — it needs no feedback —
/// and per-clip, which matters because feature spreads differ strongly
/// between scenes (sparse tunnel vs. queueing intersection). Distances
/// are subsampled above 400 vectors to bound the O(n²) scan.
pub fn median_heuristic_gamma(bags: &[Bag]) -> f64 {
    const FALLBACK: f64 = 2.0;
    let vecs: Vec<Vec<f64>> = bags
        .iter()
        .flat_map(|b| b.instances.iter().map(|i| i.concat()))
        .collect();
    if vecs.len() < 2 {
        return FALLBACK;
    }
    // Deterministic stride subsampling.
    let stride = vecs.len().div_ceil(400);
    let sample: Vec<&Vec<f64>> = vecs.iter().step_by(stride).collect();
    // One task per anchor row of the upper-triangle distance scan; rows
    // are flattened back in anchor order, so `dists` holds exactly the
    // sequence the sequential double loop pushed. The cost hint — an
    // average row touches half the sample at a few ns per dimension —
    // keeps tiny clips sequential.
    let dim = sample[0].len().max(1) as u64;
    let est = (sample.len() as u64 / 2).saturating_mul(dim).max(1);
    let mut dists: Vec<f64> = tsvr_par::par_map_index_est(sample.len(), est, |i| {
        let a = sample[i];
        sample[i + 1..]
            .iter()
            .map(|b| tsvr_linalg::vecops::sq_dist(a, b))
            .filter(|&d| d > 1e-12)
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .collect();
    if dists.is_empty() {
        return FALLBACK;
    }
    dists.sort_by(|a, b| a.total_cmp(b));
    let median = dists[dists.len() / 2];
    // K = 1/16 at the median distance: narrow enough that the learned
    // region hugs the (heterogeneous) relevant signatures instead of
    // averaging them into the quiet-traffic cluster.
    4.0 * (2.0f64).ln() / median
}

/// Learner selection for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LearnerKind {
    /// The paper's method: One-class SVM MIL (RBF kernel) with the
    /// kernel width resolved per clip by [`median_heuristic_gamma`].
    OcSvmAuto {
        /// Eq. 9's `z`.
        z: f64,
    },
    /// One-class SVM MIL with a fixed RBF width (for ablations).
    OcSvm {
        /// RBF γ.
        gamma: f64,
        /// Eq. 9's `z`.
        z: f64,
    },
    /// The weighted relevance-feedback baseline.
    WeightedRf(Normalization),
    /// Diverse Density reference baseline.
    DiverseDensity {
        /// Distance scale.
        scale: f64,
    },
    /// EM-DD reference baseline.
    EmDd {
        /// Distance scale.
        scale: f64,
    },
    /// MI-SVM baseline (Andrews et al. \[16\]); the RBF width is resolved
    /// per clip like the one-class learner's.
    MiSvm {
        /// Soft-margin penalty.
        c: f64,
    },
}

impl LearnerKind {
    /// The paper's configuration (RBF kernel, z = 0.05, per-clip width).
    pub fn paper_ocsvm() -> LearnerKind {
        LearnerKind::OcSvmAuto { z: 0.05 }
    }

    /// The paper's best baseline configuration (percentage weights).
    pub fn paper_weighted_rf() -> LearnerKind {
        LearnerKind::WeightedRf(Normalization::Percentage)
    }

    /// The [`Learner::name`] the built learner will report, resolved
    /// without building (building an auto-width learner costs a full
    /// median-heuristic pass). Persisted [`SessionRow`](tsvr_viddb::SessionRow)s
    /// store this name, so it is also the replay-compatibility key.
    pub fn learner_name(self) -> &'static str {
        match self {
            LearnerKind::OcSvmAuto { .. } | LearnerKind::OcSvm { .. } => "MIL_OneClassSVM",
            LearnerKind::WeightedRf(Normalization::None) => "Weighted_RF_raw",
            LearnerKind::WeightedRf(Normalization::Linear) => "Weighted_RF_linear",
            LearnerKind::WeightedRf(Normalization::Percentage) => "Weighted_RF",
            LearnerKind::DiverseDensity { .. } => "DiverseDensity",
            LearnerKind::EmDd { .. } => "EM-DD",
            LearnerKind::MiSvm { .. } => "MI-SVM",
        }
    }

    /// The paper-default configuration whose learner reports `name` —
    /// the inverse of [`LearnerKind::learner_name`], used to rebuild a
    /// session from its persisted row without the caller guessing the
    /// kind. `None` for names no shipped learner reports.
    pub fn from_learner_name(name: &str) -> Option<LearnerKind> {
        Some(match name {
            "MIL_OneClassSVM" => LearnerKind::paper_ocsvm(),
            "Weighted_RF_raw" => LearnerKind::WeightedRf(Normalization::None),
            "Weighted_RF_linear" => LearnerKind::WeightedRf(Normalization::Linear),
            "Weighted_RF" => LearnerKind::WeightedRf(Normalization::Percentage),
            "DiverseDensity" => LearnerKind::DiverseDensity { scale: 8.0 },
            "EM-DD" => LearnerKind::EmDd { scale: 8.0 },
            "MI-SVM" => LearnerKind::MiSvm { c: 10.0 },
            _ => return None,
        })
    }

    /// Parses a learner as users name it: the short names `ocsvm`,
    /// `wrf`, `misvm`, `dd` and `emdd`, any stored display name
    /// ([`LearnerKind::from_learner_name`]), or empty for the paper's
    /// OC-SVM. `None` for anything else.
    pub fn from_spec(spec: &str) -> Option<LearnerKind> {
        Some(match spec {
            "" | "ocsvm" => LearnerKind::paper_ocsvm(),
            "wrf" => LearnerKind::paper_weighted_rf(),
            "misvm" => LearnerKind::MiSvm { c: 10.0 },
            "dd" => LearnerKind::DiverseDensity { scale: 8.0 },
            "emdd" => LearnerKind::EmDd { scale: 8.0 },
            name => return LearnerKind::from_learner_name(name),
        })
    }

    /// Instantiates the learner for a given bag database (needed to
    /// resolve the auto kernel width).
    pub fn build_for(self, bags: &[Bag]) -> Box<dyn Learner> {
        match self {
            LearnerKind::OcSvmAuto { z } => {
                let gamma = median_heuristic_gamma(bags);
                Box::new(OcSvmMilLearner::new(Kernel::Rbf { gamma }).with_z(z))
            }
            LearnerKind::OcSvm { gamma, z } => {
                Box::new(OcSvmMilLearner::new(Kernel::Rbf { gamma }).with_z(z))
            }
            LearnerKind::WeightedRf(n) => Box::new(WeightedRfLearner::new(n)),
            LearnerKind::DiverseDensity { scale } => Box::new(DiverseDensityLearner::new(scale)),
            LearnerKind::EmDd { scale } => Box::new(EmDdLearner::new(scale)),
            LearnerKind::MiSvm { c } => {
                let gamma = median_heuristic_gamma(bags);
                Box::new(MiSvmLearner::new(Kernel::Rbf { gamma }, c))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionReport};
    use std::sync::Arc;
    use tsvr_mil::GroundTruthOracle;

    fn small_clip() -> ClipArtifacts {
        prepare_clip(&Scenario::tunnel_small(31), &PipelineOptions::default())
    }

    #[test]
    fn prepare_clip_produces_consistent_artifacts() {
        let clip = small_clip();
        assert_eq!(clip.bags.len(), clip.dataset.window_count());
        assert!(clip.dataset.sequence_count() > 0, "no trajectory sequences");
        // Bag rows are normalized into [0,1].
        for bag in &clip.bags {
            for inst in &bag.instances {
                for row in &inst.points {
                    assert_eq!(row.len(), 3);
                    for &v in row {
                        assert!((0.0..=1.0).contains(&v), "unnormalized value {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn accident_labels_exist_for_incident_clip() {
        let clip = small_clip();
        let labels = clip.labels(&EventQuery::accidents());
        assert_eq!(labels.len(), clip.bags.len());
        let relevant = labels.iter().filter(|&&l| l).count();
        assert!(
            relevant > 0,
            "no relevant windows despite scripted accidents"
        );
        assert!(relevant < labels.len(), "everything relevant");
    }

    /// Runs `rounds` accident-oracle rounds of top-5 feedback.
    fn run_rounds(clip: &ClipArtifacts, kind: LearnerKind, rounds: usize) -> SessionReport {
        let query = EventQuery::accidents();
        let oracle = GroundTruthOracle::new(clip.labels(&query));
        let bags = Arc::new(clip.bags.clone());
        Session::open(1, 1, query.name, kind, bags)
            .run_rounds(&oracle, 5, rounds)
            .unwrap()
    }

    #[test]
    fn ocsvm_session_runs_end_to_end() {
        let clip = small_clip();
        let report = run_rounds(&clip, LearnerKind::paper_ocsvm(), 2);
        assert_eq!(report.accuracies.len(), 3);
        assert_eq!(report.learner, "MIL_OneClassSVM");
        for &a in &report.accuracies {
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn all_learner_kinds_run() {
        let clip = small_clip();
        for kind in [
            LearnerKind::paper_ocsvm(),
            LearnerKind::paper_weighted_rf(),
            LearnerKind::WeightedRf(Normalization::None),
            LearnerKind::WeightedRf(Normalization::Linear),
            LearnerKind::DiverseDensity { scale: 4.0 },
            LearnerKind::EmDd { scale: 4.0 },
        ] {
            let report = run_rounds(&clip, kind, 1);
            assert_eq!(report.accuracies.len(), 2, "{:?}", kind);
        }
    }

    #[test]
    fn learner_names_round_trip_through_kinds() {
        let clip = small_clip();
        for kind in [
            LearnerKind::paper_ocsvm(),
            LearnerKind::paper_weighted_rf(),
            LearnerKind::WeightedRf(Normalization::None),
            LearnerKind::WeightedRf(Normalization::Linear),
            LearnerKind::DiverseDensity { scale: 8.0 },
            LearnerKind::EmDd { scale: 8.0 },
            LearnerKind::MiSvm { c: 10.0 },
        ] {
            // The unbuild name matches what the built learner reports…
            assert_eq!(kind.learner_name(), kind.build_for(&clip.bags).name());
            // …and maps back to a kind reporting the same name.
            let back = LearnerKind::from_learner_name(kind.learner_name()).unwrap();
            assert_eq!(back.learner_name(), kind.learner_name());
        }
        assert!(LearnerKind::from_learner_name("NotALearner").is_none());
        // Short names, display names and the empty default all parse.
        for (spec, name) in [
            ("", "MIL_OneClassSVM"),
            ("ocsvm", "MIL_OneClassSVM"),
            ("wrf", "Weighted_RF"),
            ("misvm", "MI-SVM"),
            ("dd", "DiverseDensity"),
            ("emdd", "EM-DD"),
            ("Weighted_RF_raw", "Weighted_RF_raw"),
        ] {
            assert_eq!(LearnerKind::from_spec(spec).unwrap().learner_name(), name);
        }
        assert!(LearnerKind::from_spec("magic").is_none());
    }

    #[test]
    fn preparation_is_deterministic() {
        let a = small_clip();
        let b = small_clip();
        assert_eq!(a.bags, b.bags);
        assert_eq!(a.sim.incidents, b.sim.incidents);
    }
}
