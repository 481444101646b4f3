//! One clip's decoded, immutable read state: its windows (§5.1), their
//! bags and its stored incidents. [`ClipView::load`] is the one "fresh
//! index, else bundle" read of the planner, served sessions and the CLI.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::index::{dataset_from_bundle, load_index};
use crate::ingest::incidents_overlap;
use crate::pipeline::bags_from_dataset;
use crate::query::EventQuery;
use tsvr_mil::Bag;
use tsvr_trajectory::{Dataset, WindowConfig};
use tsvr_viddb::{ClipBundle, DbError, IncidentRow, ShardedDb};

/// Views by clip id. [`crate::Planner::run_with`] reads through one and
/// adds the views it loads; the retrieval service keeps one for its
/// lifetime.
pub type ClipViews = HashMap<u64, Arc<ClipView>>;

/// One clip's windows, bags and stored incidents, decoded under the
/// default [`WindowConfig`].
#[derive(Debug)]
pub struct ClipView {
    clip_id: u64,
    /// Spans, track ids and raw α rows, window `i` at position `i`.
    dataset: Dataset,
    /// `bags[i]` is window `i`.
    bags: Arc<Vec<Bag>>,
    /// Set at load for a bundle-served clip; an index-served clip
    /// decodes its bundle for them the first time they are asked for.
    incidents: OnceLock<Vec<IncidentRow>>,
    index_served: bool,
}

impl ClipView {
    /// Reads a clip from its stored feature index when that is fresh
    /// ([`crate::fresh_segment`] counts `index.hit`, `index.miss` or
    /// `index.stale`), else from its bundle. Both sources yield
    /// bit-identical windows and bags, and neither runs vision.
    pub fn load(db: &mut ShardedDb, clip_id: u64) -> Result<ClipView, DbError> {
        let shard = db.routed_shard(clip_id)?;
        let Some(dataset) = load_index(shard, clip_id, &WindowConfig::default())? else {
            return Ok(ClipView::from_bundle(shard.load_clip(clip_id)?));
        };
        Ok(ClipView {
            clip_id,
            bags: Arc::new(bags_from_dataset(&dataset)),
            dataset,
            incidents: OnceLock::new(),
            index_served: true,
        })
    }

    /// The view of a bundle the caller has already decoded.
    pub fn from_bundle(bundle: ClipBundle) -> ClipView {
        let dataset = dataset_from_bundle(&bundle, WindowConfig::default());
        ClipView {
            clip_id: bundle.meta.clip_id,
            bags: Arc::new(bags_from_dataset(&dataset)),
            dataset,
            incidents: bundle.incidents.into(),
            index_served: false,
        }
    }

    /// The clip's id.
    pub(crate) fn clip_id(&self) -> u64 {
        self.clip_id
    }

    /// The window rows, as the feature index stores them.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The clip's bags; `bags[i]` is window `i`.
    pub fn bags(&self) -> &Arc<Vec<Bag>> {
        &self.bags
    }

    /// Whether the view was read from a fresh feature index.
    pub fn index_served(&self) -> bool {
        self.index_served
    }

    /// The clip's stored incident rows. An index-served view decodes
    /// its bundle from `db` on the first call only.
    pub(crate) fn incidents(&self, db: &mut ShardedDb) -> Result<&[IncidentRow], DbError> {
        if let Some(rows) = self.incidents.get() {
            return Ok(rows);
        }
        let rows = db.load_clip(self.clip_id)?.incidents;
        Ok(self.incidents.get_or_init(|| rows))
    }

    /// Ground-truth labels of the clip's windows under `query`:
    /// `labels[i]` is whether a stored incident of a matching kind
    /// overlaps window `i`.
    pub fn labels(&self, db: &mut ShardedDb, query: &EventQuery) -> Result<Vec<bool>, DbError> {
        let incidents = self.incidents(db)?;
        Ok(self
            .dataset
            .windows
            .iter()
            .map(|w| incidents_overlap(incidents, query, w.start_frame, w.end_frame))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_index;
    use crate::ingest::{bundle_from_clip, labels_from_bundle};
    use crate::pipeline::{prepare_clip, PipelineOptions};
    use tsvr_sim::Scenario;
    use tsvr_viddb::{ClipMeta, VideoDb};

    #[test]
    fn index_and_bundle_views_are_identical() {
        let clip = prepare_clip(&Scenario::tunnel_small(71), &PipelineOptions::default());
        let bundle = bundle_from_clip(
            &clip,
            ClipMeta {
                clip_id: 1,
                name: "view".into(),
                location: "tunnel".into(),
                camera: "cam".into(),
                start_time: 0,
                frame_count: 400,
                width: clip.sim.width,
                height: clip.sim.height,
            },
        );
        let mut db = ShardedDb::from(VideoDb::in_memory());
        db.put_clip(&bundle).unwrap();
        let from_bundle = ClipView::load(&mut db, 1).unwrap();
        build_index(db.routed_shard(1).unwrap(), 1, &clip.dataset).unwrap();
        let from_index = ClipView::load(&mut db, 1).unwrap();

        assert!(!from_bundle.index_served() && from_index.index_served());
        assert_eq!(from_index.bags(), from_bundle.bags());
        assert_eq!(from_index.bags().as_slice(), clip.bags.as_slice());
        let query = EventQuery::accidents();
        let labels = labels_from_bundle(&bundle, &query);
        assert_eq!(from_bundle.labels(&mut db, &query).unwrap(), labels);
        assert_eq!(from_index.labels(&mut db, &query).unwrap(), labels);
        assert_eq!(
            from_index.incidents(&mut db).unwrap(),
            bundle.incidents.as_slice()
        );
    }
}
