//! # tsvr-core
//!
//! The end-to-end incident-retrieval framework (paper Fig. 6): raw video
//! (simulated + rendered) → object segmentation & tracking → trajectory
//! modeling → event features → windows/bags → interactive MIL retrieval
//! with relevance feedback — plus ingestion into, and retrieval from,
//! the `tsvr-viddb` database.
//!
//! The typical flow:
//!
//! ```
//! use tsvr_core::{prepare_clip, run_session, EventQuery, LearnerKind, PipelineOptions};
//! use tsvr_mil::SessionConfig;
//! use tsvr_sim::Scenario;
//!
//! let scenario = Scenario::tunnel_small(7);
//! let clip = prepare_clip(&scenario, &PipelineOptions::default());
//! let query = EventQuery::accidents();
//! let report = run_session(
//!     &clip,
//!     &query,
//!     LearnerKind::OcSvm { gamma: 2.0, z: 0.05 },
//!     SessionConfig { top_n: 5, feedback_rounds: 2, ..SessionConfig::default() },
//! );
//! assert_eq!(report.accuracies.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod ingest;
pub mod labels;
pub mod multiclip;
pub mod pipeline;
pub mod qlang;
pub mod query;
pub mod replay;
pub mod sketch;

pub use index::{
    build_index, config_hash, dataset_from_bundle, dataset_from_segment, load_index,
    segment_from_dataset, PIPELINE_VERSION,
};
pub use ingest::{archive_clip_video, bags_from_bundle, bundle_from_clip, labels_from_bundle};
pub use labels::label_windows;
pub use multiclip::{rank_topk, ClipWindows, MultiClipIndex, Scorer, ShardWindows};
pub use pipeline::{
    bags_from_dataset, median_heuristic_gamma, prepare_clip, prepare_sim, run_session,
    ClipArtifacts, LearnerKind, PipelineOptions,
};
pub use qlang::{
    classify_tracks, nearest_names, parse as parse_query, Clause, ClassRoster, Cmp, DegradedShard,
    FeatureField, PlanError, PlanOutcome, PlanStats, Planner, Query, QueryError, NOMINAL_FPS,
};
pub use query::{EventQuery, RankedWindow, TopK, UnknownEventName};
pub use replay::{continue_session, replay_session, ReplayError};
pub use sketch::SketchQuery;
