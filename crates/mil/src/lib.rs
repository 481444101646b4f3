//! # tsvr-mil
//!
//! The paper's primary contribution: an interactive Multiple Instance
//! Learning framework for semantic video retrieval with relevance
//! feedback (§5).
//!
//! The mapping (§5.1): a Video Sequence (window of video) is a *bag*,
//! the Trajectory Sequences of the vehicles inside it are *instances*.
//! The user labels whole bags ("relevant"/"irrelevant"); instance labels
//! are latent. A bag is relevant iff it contains at least one relevant
//! instance (Eq. 3–4).
//!
//! * [`bag`] — bags and instances (sequences of per-checkpoint feature
//!   rows);
//! * [`heuristic`] — the initial, feedback-free query scorer (§5.3);
//! * [`ocsvm`] — the proposed learner: One-class SVM trained on the
//!   trajectory sequences of relevant bags, with the outlier fraction
//!   `δ = 1 − (h/H + z)` of Eq. 9;
//! * [`weighted_rf`] — the comparison baseline: per-feature re-weighting
//!   by inverse standard deviation with three normalization schemes
//!   (§6.2);
//! * [`oracle`] — relevance oracles standing in for the human user;
//! * [`session`] — the [`Learner`] interface and the deterministic
//!   ranking rule; the round loop (rank → top-n feedback → learn →
//!   re-rank) is `tsvr_core::Session`;
//! * [`metrics`] — accuracy@n and auxiliary retrieval metrics;
//! * [`dd`] — Diverse Density and EM-DD reference baselines from the MIL
//!   literature the paper reviews (§2.1);
//! * [`misvm`] — the MI-SVM baseline (Andrews et al. \[16\]);
//! * [`qbe`] — query by example (the paper's §7 future work).
//!
//! Feature rows are assumed pre-scaled to comparable ranges (the
//! pipeline applies fixed physical-range normalization); see `tsvr-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bag;
pub mod dd;
pub mod error;
pub mod heuristic;
pub mod metrics;
pub mod misvm;
pub mod ocsvm;
pub mod oracle;
pub mod qbe;
pub mod session;
pub mod weighted_rf;

pub use bag::{Bag, Instance};
pub use error::MilError;
pub use misvm::MiSvmLearner;
pub use ocsvm::OcSvmMilLearner;
pub use oracle::{GroundTruthOracle, Oracle};
pub use qbe::QueryByExample;
pub use session::Learner;
pub use weighted_rf::{Normalization, WeightedRfLearner};
