//! # tsvr-core
//!
//! The end-to-end incident-retrieval framework (paper Fig. 6): raw video
//! (simulated + rendered) → object segmentation & tracking → trajectory
//! modeling → event features → windows/bags → interactive MIL retrieval
//! with relevance feedback — plus ingestion into, and retrieval from,
//! the `tsvr-viddb` database.
//!
//! The typical flow: [`prepare_clip`] turns a scenario into bags, and a
//! [`Session`] runs the interactive rounds over them
//! ([`Session::run_rounds`] has a worked example).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod ingest;
pub mod labels;
pub mod multiclip;
pub mod pipeline;
pub mod qlang;
pub mod query;
pub mod session;
pub mod sketch;
pub mod view;

pub use index::{
    build_index, config_hash, dataset_from_bundle, dataset_from_segment, fresh_segment, load_index,
    segment_from_dataset, PIPELINE_VERSION,
};
pub use ingest::{archive_clip_video, bundle_from_clip, labels_from_bundle};
pub use labels::label_windows;
pub use multiclip::{rank_topk, ClipWindows, MultiClipIndex, Scorer, ShardWindows};
pub use pipeline::{
    bags_from_dataset, median_heuristic_gamma, prepare_clip, prepare_sim, ClipArtifacts,
    LearnerKind, PipelineOptions,
};
pub use qlang::{
    classify_tracks, nearest_names, parse as parse_query, ClassRoster, Clause, Cmp, DegradedShard,
    FeatureField, PlanError, PlanOutcome, PlanStats, Planner, Query, QueryError, NOMINAL_FPS,
};
pub use query::{EventQuery, RankedWindow, TopK, UnknownEventName};
pub use session::{latest_checkpoints, Session, SessionError, SessionReport};
pub use sketch::SketchQuery;
pub use view::{ClipView, ClipViews};
