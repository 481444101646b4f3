//! Cross-clip retrieval — the capability the paper names as its main
//! limitation.
//!
//! §6.2: "Ideally, all the video clips in a transportation surveillance
//! video database shall be mined and retrieved as a whole. However … it
//! requires that we normalize all the video clips taken at different
//! locations with different camera parameters." The paper retrieves
//! per clip because its features are camera-relative. This library's
//! features are normalized by *physical* ranges (see
//! `tsvr_trajectory::checkpoint::Alpha::normalized`), so windows from
//! different clips live in the same feature space and one retrieval
//! session can rank the entire database.

use crate::query::{RankedWindow, TopK};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use tsvr_mil::{Bag, Learner};
use tsvr_viddb::{DbError, ShardedDb};

/// A unified, cross-clip bag database.
#[derive(Debug, Clone)]
pub struct MultiClipIndex {
    /// Unified bags with dense ids 0..n.
    pub bags: Vec<Bag>,
    /// Ground-truth labels aligned with `bags` for the query used to
    /// build the index.
    pub labels: Vec<bool>,
    /// For each unified bag id: the `(clip_id, window_index)` it came
    /// from.
    pub origin: Vec<(u64, u64)>,
}

impl MultiClipIndex {
    /// Number of unified windows.
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.bags.is_empty()
    }

    /// Resolves a unified bag id back to its clip and window.
    pub fn resolve(&self, bag_id: usize) -> Option<(u64, u64)> {
        self.origin.get(bag_id).copied()
    }

    /// Builds a unified index from per-clip parts, however each clip's
    /// bags were read (fresh index or archived bundle, see
    /// [`crate::ClipView::load`]). Each part is `(clip_id, bags, labels)`
    /// with `bags[i]` being window `i` of that clip; bag ids are
    /// re-densified across clips.
    pub fn from_parts(parts: Vec<(u64, Vec<Bag>, Vec<bool>)>) -> MultiClipIndex {
        let mut bags = Vec::new();
        let mut labels = Vec::new();
        let mut origin = Vec::new();
        for (clip_id, clip_bags, clip_labels) in parts {
            debug_assert_eq!(clip_bags.len(), clip_labels.len());
            for (bag, label) in clip_bags.into_iter().zip(clip_labels) {
                // usize → u64 is lossless on every supported platform;
                // the old `as u32` narrowing aliased windows past 2³².
                let window_index = bag.id as u64;
                let id = bags.len();
                bags.push(Bag::new(id, bag.instances));
                labels.push(label);
                origin.push((clip_id, window_index));
            }
        }
        MultiClipIndex {
            bags,
            labels,
            origin,
        }
    }
}

/// One clip's windows as MIL bags, ready for cross-clip scoring.
/// `bags[i].id` is the window index within the clip (the
/// [`crate::pipeline::bags_from_dataset`] convention). `B` is `&Bag`
/// when the bags are borrowed from elsewhere (the planner's views).
#[derive(Debug, Clone)]
pub struct ClipWindows<B = Bag> {
    /// The clip the bags came from.
    pub clip_id: u64,
    /// Per-window bags in window order.
    pub bags: Vec<B>,
}

/// One shard's worth of clips, the unit of parallel scatter-gather:
/// the query layer builds one `ShardWindows` per healthy
/// [`ShardedDb`] shard and ranks shards concurrently.
#[derive(Debug, Clone)]
pub struct ShardWindows<B = Bag> {
    /// Shard file name (diagnostic only; never affects ranking).
    pub shard: String,
    /// The shard's clips, each with its windows as MIL bags.
    pub clips: Vec<ClipWindows<B>>,
}

impl<B> ShardWindows<B> {
    /// Groups clips by the shard `db` stores each in, shards in name
    /// order and clips in input order. A clip the database does not
    /// know is [`DbError::ClipNotFound`].
    pub fn group(db: &ShardedDb, clips: Vec<ClipWindows<B>>) -> Result<Vec<Self>, DbError> {
        let mut by_shard: BTreeMap<&str, Vec<ClipWindows<B>>> = BTreeMap::new();
        for clip in clips {
            let shard = db
                .shard_of_clip(clip.clip_id)
                .ok_or(DbError::ClipNotFound(clip.clip_id))?;
            by_shard.entry(shard).or_default().push(clip);
        }
        Ok(by_shard
            .into_iter()
            .map(|(shard, clips)| ShardWindows {
                shard: shard.to_string(),
                clips,
            })
            .collect())
    }
}

/// Merges per-shard local top-k lists into the global top-k.
///
/// This is where the scatter-gather determinism argument lives: any
/// window in the *global* top `k` is necessarily in its own shard's
/// local top `k` (removing other shards' windows can only improve its
/// local rank), so merging locals loses nothing. And [`TopK`] is
/// insertion-order-insensitive — its tie-break covers the full window
/// identity `(score, clip_id, window_index)` — so the merge result
/// does not depend on which shard's list arrives first. Together:
/// ranking is byte-identical across every partition of clips into
/// shards (the one-shard partition included), at any thread count.
fn merge_local_topk(locals: Vec<Vec<RankedWindow>>, k: usize) -> Vec<RankedWindow> {
    let mut topk = TopK::new(k);
    for local in locals {
        for r in local {
            topk.push(r.score, r.clip_id, r.window_index);
        }
    }
    topk.into_sorted()
}

/// How a ranking scores each window's bag.
#[derive(Clone, Copy)]
pub enum Scorer<'a> {
    /// The stateless event heuristic ([`tsvr_mil::heuristic::bag_score`]).
    Heuristic,
    /// A trained session learner.
    Learner(&'a (dyn Learner + Sync)),
}

impl Scorer<'_> {
    fn score(self, bag: &Bag) -> f64 {
        match self {
            Scorer::Heuristic => tsvr_mil::heuristic::bag_score(bag),
            Scorer::Learner(l) => l.score(bag),
        }
    }
}

/// Top-k over sharded clips, the one ranking path for every caller: a
/// flat list of clips is the one-shard case. Shards scatter across
/// threads via [`tsvr_par::par_map`] (order-preserving), each computes
/// its local top-k *sequentially* (per-window [`Scorer`] calls, so
/// shard-level parallelism is not nested inside bag-level parallelism),
/// and the locals gather through [`merge_local_topk`]. The result is
/// the same bytes for any partition of the clips into shards, at any
/// thread count.
pub fn rank_topk<B: Borrow<Bag> + Sync>(
    shards: &[ShardWindows<B>],
    scorer: Scorer<'_>,
    k: usize,
) -> Vec<RankedWindow> {
    let _span = tsvr_obs::span!("query.multiclip.sharded");
    tsvr_obs::counter!("query.scatter.shards").add(shards.len() as u64);
    let locals = tsvr_par::par_map_est(shards, shard_cost_hint_ns(shards), |_, shard| {
        let mut topk = TopK::new(k);
        for clip in &shard.clips {
            for bag in clip.bags.iter().map(Borrow::borrow) {
                topk.push(scorer.score(bag), clip.clip_id, bag.id as u64);
            }
        }
        topk.into_sorted()
    });
    merge_local_topk(locals, k)
}

/// Estimated nanoseconds to rank one shard: the average bag count per
/// shard at a couple of microseconds per bag (score + top-k push).
/// Coarse on purpose — it only needs to keep a handful of near-empty
/// shards off the fork-join path.
fn shard_cost_hint_ns<B>(shards: &[ShardWindows<B>]) -> u64 {
    let bags: usize = shards
        .iter()
        .map(|s| s.clips.iter().map(|c| c.bags.len()).sum::<usize>())
        .sum();
    let avg = bags as u64 / shards.len().max(1) as u64;
    avg.saturating_mul(2_000).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::dataset_from_bundle;
    use crate::ingest::{bundle_from_clip, labels_from_bundle};
    use crate::pipeline::{bags_from_dataset, prepare_clip, LearnerKind, PipelineOptions};
    use crate::query::EventQuery;
    use crate::session::Session;
    use std::sync::Arc;
    use tsvr_mil::GroundTruthOracle;
    use tsvr_sim::Scenario;
    use tsvr_trajectory::WindowConfig;
    use tsvr_viddb::{ClipBundle, ClipMeta};

    fn meta(clip_id: u64, location: &str) -> ClipMeta {
        ClipMeta {
            clip_id,
            name: format!("clip {clip_id}"),
            location: location.into(),
            camera: format!("cam-{clip_id}"),
            start_time: clip_id * 1000,
            frame_count: 400,
            width: 320,
            height: 240,
        }
    }

    /// The cross-clip accident index over stored bundles.
    fn accident_index(bundles: &[&ClipBundle]) -> MultiClipIndex {
        let query = EventQuery::accidents();
        MultiClipIndex::from_parts(
            bundles
                .iter()
                .map(|b| {
                    let dataset = dataset_from_bundle(b, WindowConfig::default());
                    (
                        b.meta.clip_id,
                        bags_from_dataset(&dataset),
                        labels_from_bundle(b, &query),
                    )
                })
                .collect(),
        )
    }

    fn two_bundles() -> (ClipBundle, ClipBundle) {
        let a = prepare_clip(&Scenario::tunnel_small(11), &PipelineOptions::default());
        let b = prepare_clip(&Scenario::tunnel_small(22), &PipelineOptions::default());
        (
            bundle_from_clip(&a, meta(1, "tunnel-a")),
            bundle_from_clip(&b, meta(2, "tunnel-b")),
        )
    }

    #[test]
    fn unified_index_covers_both_clips() {
        let (a, b) = two_bundles();
        let idx = accident_index(&[&a, &b]);
        assert_eq!(idx.len(), a.windows.len() + b.windows.len());
        assert_eq!(idx.labels.len(), idx.len());
        // Bag ids are dense and origin resolves to both clips.
        let clips: std::collections::HashSet<u64> = idx.origin.iter().map(|&(c, _)| c).collect();
        assert_eq!(clips.len(), 2);
        for (i, bag) in idx.bags.iter().enumerate() {
            assert_eq!(bag.id, i);
        }
        assert!(idx.resolve(0).is_some());
        assert!(idx.resolve(idx.len()).is_none());
    }

    #[test]
    fn relevant_windows_from_both_clips_exist() {
        let (a, b) = two_bundles();
        let idx = accident_index(&[&a, &b]);
        // Each tunnel_small clip scripts accidents; the unified labels
        // must contain relevant windows attributed to both clips.
        let relevant_clips: std::collections::HashSet<u64> = idx
            .labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .map(|(i, _)| idx.origin[i].0)
            .collect();
        assert_eq!(relevant_clips.len(), 2, "accidents from both clips");
    }

    #[test]
    fn one_session_retrieves_across_clips() {
        let (a, b) = two_bundles();
        let idx = accident_index(&[&a, &b]);
        let oracle = GroundTruthOracle::new(idx.labels.clone());
        let bags = Arc::new(idx.bags.clone());
        let mut session = Session::open(1, 1, "accident", LearnerKind::paper_ocsvm(), bags);
        let report = session.run_rounds(&oracle, 10, 3).unwrap();
        // The final page draws results from more than one camera.
        let final_page: Vec<u64> = session
            .page(10)
            .iter()
            .map(|&bag| idx.resolve(bag).unwrap().0)
            .collect();
        let distinct: std::collections::HashSet<u64> = final_page.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "cross-clip session retrieved from one camera only: {final_page:?}"
        );
        // And retrieval quality beats the base rate.
        let base = idx.labels.iter().filter(|&&l| l).count() as f64 / idx.len() as f64;
        assert!(*report.accuracies.last().unwrap() > base);
    }

    #[test]
    fn empty_input_gives_empty_index() {
        let idx = accident_index(&[]);
        assert!(idx.is_empty());
    }

    fn two_clip_windows() -> Vec<ClipWindows> {
        let a = prepare_clip(&Scenario::tunnel_small(11), &PipelineOptions::default());
        let b = prepare_clip(&Scenario::tunnel_small(22), &PipelineOptions::default());
        vec![
            ClipWindows {
                clip_id: 1,
                bags: a.bags,
            },
            ClipWindows {
                clip_id: 2,
                bags: b.bags,
            },
        ]
    }

    /// Every clip in one shard: the reference partition.
    fn one_shard(clips: &[ClipWindows]) -> Vec<ShardWindows> {
        vec![ShardWindows {
            shard: "s0".into(),
            clips: clips.to_vec(),
        }]
    }

    #[test]
    fn heuristic_ranking_spans_clips() {
        let clips = two_clip_windows();
        let total: usize = clips.iter().map(|c| c.bags.len()).sum();
        let k = 8.min(total);
        let top = rank_topk(&one_shard(&clips), Scorer::Heuristic, k);
        assert_eq!(top.len(), k);
        // Best-first, fully ordered.
        for pair in top.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        // Scores agree with scoring the bag directly.
        for r in &top {
            let clip = clips.iter().find(|c| c.clip_id == r.clip_id).unwrap();
            let bag = clip
                .bags
                .iter()
                .find(|b| b.id as u64 == r.window_index)
                .unwrap();
            assert_eq!(
                r.score.to_bits(),
                tsvr_mil::heuristic::bag_score(bag).to_bits()
            );
        }
    }

    #[test]
    fn learner_ranking_matches_learner_scores() {
        let clips = two_clip_windows();
        let all_bags: Vec<tsvr_mil::Bag> = clips.iter().flat_map(|c| c.bags.clone()).collect();
        let learner = LearnerKind::paper_weighted_rf().build_for(&all_bags);
        let top = rank_topk(&one_shard(&clips), Scorer::Learner(&*learner), 5);
        assert_eq!(top.len(), 5);
        for r in &top {
            let clip = clips.iter().find(|c| c.clip_id == r.clip_id).unwrap();
            let bag = clip
                .bags
                .iter()
                .find(|b| b.id as u64 == r.window_index)
                .unwrap();
            assert_eq!(r.score.to_bits(), learner.score(bag).to_bits());
        }
    }

    /// Byte-level equality of two rankings.
    fn assert_rankings_identical(a: &[RankedWindow], b: &[RankedWindow]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!((x.clip_id, x.window_index), (y.clip_id, y.window_index));
        }
    }

    /// Every way to split the clips into shards must give the same
    /// bytes as the one-shard partition, at one thread and at many.
    #[test]
    fn sharded_topk_byte_identical_to_single_shard_at_any_thread_count() {
        let clips = two_clip_windows();
        let k = 8;
        let all_bags: Vec<tsvr_mil::Bag> = clips.iter().flat_map(|c| c.bags.clone()).collect();
        let learner = LearnerKind::paper_weighted_rf().build_for(&all_bags);
        let saved = tsvr_par::current_threads();
        tsvr_par::set_threads(1);
        let ref_h = rank_topk(&one_shard(&clips), Scorer::Heuristic, k);
        let ref_l = rank_topk(&one_shard(&clips), Scorer::Learner(&*learner), k);
        // The batched learner path agrees with the reference too.
        let batched = learner.score_all(&all_bags);
        for r in &ref_l {
            let offset = if r.clip_id == 1 {
                0
            } else {
                clips[0].bags.len()
            };
            assert_eq!(
                r.score.to_bits(),
                batched[offset + r.window_index as usize].to_bits()
            );
        }

        let partitions: Vec<Vec<ShardWindows>> = vec![
            // One clip per shard.
            clips
                .iter()
                .map(|c| ShardWindows {
                    shard: format!("s{}", c.clip_id),
                    clips: vec![c.clone()],
                })
                .collect(),
            // Reversed shard order — merge must not care.
            clips
                .iter()
                .rev()
                .map(|c| ShardWindows {
                    shard: format!("s{}", c.clip_id),
                    clips: vec![c.clone()],
                })
                .collect(),
            // An empty shard mixed in.
            vec![
                ShardWindows {
                    shard: "empty".into(),
                    clips: vec![],
                },
                ShardWindows {
                    shard: "all".into(),
                    clips: clips.clone(),
                },
            ],
        ];
        for threads in [1, 4] {
            tsvr_par::set_threads(threads);
            for shards in partitions.iter().chain([&one_shard(&clips)]) {
                assert_rankings_identical(&rank_topk(shards, Scorer::Heuristic, k), &ref_h);
                assert_rankings_identical(
                    &rank_topk(shards, Scorer::Learner(&*learner), k),
                    &ref_l,
                );
            }
        }
        tsvr_par::set_threads(saved);
    }

    #[test]
    fn sharded_topk_of_nothing_is_empty() {
        assert!(rank_topk::<Bag>(&[], Scorer::Heuristic, 5).is_empty());
        let shards: [ShardWindows; 1] = [ShardWindows {
            shard: "empty".into(),
            clips: vec![],
        }];
        assert!(rank_topk(&shards, Scorer::Heuristic, 5).is_empty());
    }

    #[test]
    fn group_follows_the_database_shard_of_each_clip() {
        let mut db = tsvr_viddb::ShardedDb::from(tsvr_viddb::VideoDb::in_memory());
        let (a, _) = two_bundles();
        db.put_clip(&a).unwrap();
        let clip = |clip_id| ClipWindows::<Bag> {
            clip_id,
            bags: vec![],
        };
        let shards = ShardWindows::group(&db, vec![clip(1)]).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].shard, tsvr_viddb::SINGLE_FILE_SHARD);
        assert!(matches!(
            ShardWindows::group(&db, vec![clip(1), clip(5)]),
            Err(DbError::ClipNotFound(5))
        ));
    }
}
