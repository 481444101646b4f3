//! # tsvr-viddb
//!
//! The transportation surveillance video *database* layer.
//!
//! The paper's setting (§1) is a database: "a large amount of
//! transportation surveillance videos are collected and stored in the
//! database … organized with the corresponding metadata such as the time
//! and place a video is taken", and its future-work section plans
//! per-camera normalization before "storing them into the database".
//! This crate supplies that substrate:
//!
//! * [`codec`] — a compact little-endian binary codec with CRC-32
//!   integrity (no serialization crates are available offline);
//! * [`record`] — durable record types: clip metadata (time / place /
//!   camera), vehicle tracks, extracted windows with trajectory-sequence
//!   features, ground-truth incidents, and retrieval-session history;
//! * [`storage`] — pluggable byte-storage backends: memory, file, and
//!   a seeded fault injector for crash-consistency testing;
//! * [`log`] — an append-only, checksummed record log with torn-write
//!   recovery, mid-log corruption quarantine, bounded retry, and an
//!   explicit `sync` durability point, over any [`storage`] backend;
//! * [`frames`] — lossy-quantized, delta-coded, RLE-compressed video
//!   frame segments, so retrieved Video Sequences can be played back;
//! * [`cache`] — an LRU buffer cache for decoded clip bundles;
//! * [`compress`] — XOR-delta + bit-packed compression for the flat
//!   f64 feature rows of index segments (per-chunk raw fallback, bit-
//!   exact round trip);
//! * [`db`] — [`db::VideoDb`]: the log + in-memory catalog + cache, with
//!   metadata queries (by location, camera, time range) and session
//!   persistence;
//! * [`shard`] — [`shard::ShardedDb`]: a directory of independently
//!   compacted per-`(camera, time-bucket)` [`db::VideoDb`] shards
//!   behind a manifest log, routing writes by shard key and degrading
//!   per shard on damage. It is the one archive handle: a single-file
//!   `VideoDb` archive opens as its one-shard view.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod compress;
pub mod db;
pub mod error;
pub mod frames;
pub mod log;
pub mod record;
pub mod shard;
pub mod storage;

pub use cache::CacheStats;
pub use db::{FaultReport, QuarantineEntry, VerifyReport, VideoDb};
pub use error::DbError;
pub use frames::{FrameCodec, StoredFrame};
pub use log::{CorruptRegion, RecoveryReport};
pub use record::{
    ClipBundle, ClipMeta, IncidentRow, IndexSegment, IndexWindowRow, SequenceRow, SessionRow,
    TrackRow, WindowRow, INDEX_COMPRESSED_VERSION, INDEX_FORMAT_VERSION, INDEX_MAGIC,
};
pub use shard::{
    AnyDb, ClipStub, RouteStatus, ShardId, ShardInfo, ShardRoute, ShardedDb,
    DEFAULT_TIME_BUCKET_SECS, MANIFEST_FILE, SINGLE_FILE_SHARD,
};
pub use storage::{FaultHandle, FaultKind, FaultyStorage, FileStorage, MemStorage, OpKind, Storage};
