//! Event queries.
//!
//! The paper's user "specifies an event of interest as the query
//! target" (§5.3); the evaluation queries accidents, and §4 notes the
//! event model "may also be adjusted to detect U-turns, speeding and any
//! other event". A query here is a named set of incident kinds that the
//! feedback oracle treats as relevant.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use tsvr_sim::IncidentKind;

/// Typed failure of [`EventQuery::from_name`]: the (normalized) name
/// matched no composite and no [`IncidentKind`]. Carries the nearest
/// valid names so callers — the CLI, the serve protocol, the query
/// planner — can say "did you mean …" instead of a bare not-found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEventName {
    /// The name as the caller gave it (before normalization).
    pub given: String,
    /// Valid names closest to `given` by edit distance, best first.
    pub suggestions: Vec<&'static str>,
}

impl fmt::Display for UnknownEventName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown event {:?}", self.given)?;
        if !self.suggestions.is_empty() {
            write!(f, " (did you mean {}?)", self.suggestions.join(" or "))?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownEventName {}

/// A named query over incident kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventQuery {
    /// Display name (stored with persisted sessions).
    pub name: &'static str,
    /// Incident kinds considered relevant.
    pub kinds: Vec<IncidentKind>,
}

impl EventQuery {
    /// The paper's evaluation query: traffic accidents.
    pub fn accidents() -> EventQuery {
        EventQuery {
            name: "accident",
            kinds: vec![
                IncidentKind::WallCrash,
                IncidentKind::SuddenStop,
                IncidentKind::RearEndCrash,
                IncidentKind::SideCollision,
            ],
        }
    }

    /// U-turn query (§4's alternative event type).
    pub fn u_turns() -> EventQuery {
        EventQuery {
            name: "u_turn",
            kinds: vec![IncidentKind::UTurn],
        }
    }

    /// Speeding query.
    pub fn speeding() -> EventQuery {
        EventQuery {
            name: "speeding",
            kinds: vec![IncidentKind::Speeding],
        }
    }

    /// A single-kind query targeting one incident kind (the fleet
    /// members' queries: each scenario is retrieved by its own target).
    pub fn for_kind(kind: IncidentKind) -> EventQuery {
        EventQuery {
            name: kind.name(),
            kinds: vec![kind],
        }
    }

    /// Every name [`EventQuery::from_name`] accepts: the composites
    /// first, then each [`IncidentKind`] name.
    pub fn valid_names() -> Vec<&'static str> {
        let mut names = vec!["accident"];
        names.extend(IncidentKind::ALL.iter().map(|k| k.name()));
        names
    }

    /// Parses a query name: the named composites (`accident`) first,
    /// then any single [`IncidentKind`] name (`u_turn`, `wrong_way`,
    /// `near_miss_brake`, ...). The name is normalized before matching
    /// — surrounding whitespace is trimmed, ASCII case is folded, and
    /// `-`/space separators become `_` — so `" Wrong-Way "` parses.
    /// An unmatched name is a typed [`UnknownEventName`] carrying the
    /// nearest valid names.
    pub fn from_name(name: &str) -> Result<EventQuery, UnknownEventName> {
        let normalized: String = name
            .trim()
            .chars()
            .map(|c| match c {
                '-' | ' ' => '_',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        match normalized.as_str() {
            "accident" | "accidents" => Ok(EventQuery::accidents()),
            other => IncidentKind::from_name(other)
                .map(EventQuery::for_kind)
                .ok_or_else(|| UnknownEventName {
                    given: name.to_string(),
                    suggestions: crate::qlang::nearest_names(
                        &normalized,
                        &EventQuery::valid_names(),
                    ),
                }),
        }
    }

    /// Whether an incident kind matches this query.
    pub fn matches(&self, kind: IncidentKind) -> bool {
        self.kinds.contains(&kind)
    }
}

/// One retrieval result: a window of a clip with its score.
#[derive(Debug, Clone, Copy)]
pub struct RankedWindow {
    /// Retrieval score; `NaN` inputs are mapped to `-∞` on entry.
    pub score: f64,
    /// Clip the window belongs to.
    pub clip_id: u64,
    /// Window index within that clip. `u64` — not `u32` — so a `usize`
    /// bag id converts losslessly on every supported platform; the old
    /// `as u32` narrowing silently aliased windows past 2³² (the same
    /// class of bug as the pre-widening u32 frame spans).
    pub window_index: u64,
}

impl RankedWindow {
    /// Total rank order: higher score first, ties broken by lower clip
    /// id then lower window index. Because the tie-break covers the
    /// full identity of a window, the order — and therefore any top-k
    /// cut through it — is unique, which is what makes cross-clip
    /// results reproducible at any thread count.
    fn rank(&self, other: &RankedWindow) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.clip_id.cmp(&self.clip_id))
            .then_with(|| other.window_index.cmp(&self.window_index))
    }
}

impl PartialEq for RankedWindow {
    fn eq(&self, other: &Self) -> bool {
        self.rank(other) == Ordering::Equal
    }
}

impl Eq for RankedWindow {}

impl PartialOrd for RankedWindow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedWindow {
    /// `Greater` means *ranks better* (see [`RankedWindow::rank`]).
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank(other)
    }
}

/// A bounded top-k accumulator over [`RankedWindow`]s.
///
/// Internally a min-heap of the k best entries seen so far: the root is
/// the *worst kept* result, so each offer is one comparison in the
/// common case and `O(log k)` when it displaces the root. Scores that
/// are `NaN` are mapped to `-∞` before insertion (the `mil` ranking
/// convention), so an undefined score can never panic the merge or
/// shadow a real result.
#[derive(Debug)]
pub struct TopK {
    capacity: usize,
    heap: BinaryHeap<std::cmp::Reverse<RankedWindow>>,
}

impl TopK {
    /// Creates an accumulator keeping the best `capacity` windows.
    pub fn new(capacity: usize) -> TopK {
        TopK {
            capacity,
            heap: BinaryHeap::with_capacity(capacity.saturating_add(1)),
        }
    }

    /// Offers one scored window.
    pub fn push(&mut self, score: f64, clip_id: u64, window_index: u64) {
        if self.capacity == 0 {
            return;
        }
        tsvr_obs::counter!("query.topk.pushed").incr();
        let entry = RankedWindow {
            score: if score.is_nan() {
                f64::NEG_INFINITY
            } else {
                score
            },
            clip_id,
            window_index,
        };
        if self.heap.len() < self.capacity {
            self.heap.push(std::cmp::Reverse(entry));
        } else if entry > self.heap.peek().expect("non-empty at capacity").0 {
            tsvr_obs::counter!("query.topk.evicted").incr();
            self.heap.pop();
            self.heap.push(std::cmp::Reverse(entry));
        } else {
            tsvr_obs::counter!("query.topk.evicted").incr();
        }
    }

    /// Number of windows currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the accumulator, returning the kept windows best-first.
    pub fn into_sorted(self) -> Vec<RankedWindow> {
        let mut v: Vec<RankedWindow> = self.heap.into_iter().map(|r| r.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accident_query_covers_all_accident_kinds() {
        let q = EventQuery::accidents();
        for k in [
            IncidentKind::WallCrash,
            IncidentKind::SuddenStop,
            IncidentKind::RearEndCrash,
            IncidentKind::SideCollision,
        ] {
            assert!(q.matches(k));
            assert!(k.is_accident());
        }
        assert!(!q.matches(IncidentKind::UTurn));
        assert!(!q.matches(IncidentKind::Speeding));
    }

    #[test]
    fn alternative_queries_are_disjoint_from_accidents() {
        let a = EventQuery::accidents();
        let u = EventQuery::u_turns();
        let s = EventQuery::speeding();
        assert!(u.kinds.iter().all(|&k| !a.matches(k)));
        assert!(s.kinds.iter().all(|&k| !a.matches(k)));
        assert!(u.matches(IncidentKind::UTurn));
        assert!(s.matches(IncidentKind::Speeding));
    }

    #[test]
    fn query_names_round_trip_through_from_name() {
        assert_eq!(
            EventQuery::from_name("accident"),
            Ok(EventQuery::accidents())
        );
        assert_eq!(EventQuery::from_name("u_turn"), Ok(EventQuery::u_turns()));
        assert_eq!(
            EventQuery::from_name("speeding"),
            Ok(EventQuery::speeding())
        );
        assert!(EventQuery::from_name("warp_drive").is_err());
        // Every incident kind — including the fleet kinds — is queryable
        // by name, and the query is the single-kind query.
        for k in IncidentKind::ALL {
            let q = EventQuery::from_name(k.name());
            if k.is_accident() {
                assert!(q.is_ok());
            } else {
                assert_eq!(q, Ok(EventQuery::for_kind(k)));
                assert_eq!(q.unwrap().name, k.name());
            }
        }
    }

    #[test]
    fn from_name_normalizes_case_space_and_hyphens() {
        assert_eq!(
            EventQuery::from_name("  Accident "),
            Ok(EventQuery::accidents())
        );
        assert_eq!(
            EventQuery::from_name("Wrong-Way"),
            Ok(EventQuery::for_kind(IncidentKind::WrongWay))
        );
        assert_eq!(
            EventQuery::from_name("sudden stop"),
            Ok(EventQuery::for_kind(IncidentKind::SuddenStop))
        );
    }

    #[test]
    fn unknown_event_name_carries_nearest_suggestions() {
        let err = EventQuery::from_name("acident").unwrap_err();
        assert_eq!(err.given, "acident");
        assert_eq!(err.suggestions.first().copied(), Some("accident"));
        let msg = err.to_string();
        assert!(
            msg.contains("acident") && msg.contains("did you mean"),
            "{msg}"
        );
        // A name nothing resembles still errors (suggestions may be
        // empty or distant, but never panic).
        assert!(EventQuery::from_name("zzzzzzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn topk_order_matches_mil_rank_with_ties() {
        // Single-clip pin: TopK's (score desc, clip id, window index)
        // order must coincide with `mil::metrics::rank_with_ties`'s
        // index tie-break, so a precision@k computed over a mil ranking
        // agrees with what the TopK-served query path would return for
        // the same scores.
        let scores = [0.4, f64::NAN, 0.9, 0.4, 0.4, 0.2, 0.9];
        let mut tk = TopK::new(scores.len());
        for (w, &s) in scores.iter().enumerate() {
            tk.push(s, 0, w as u64);
        }
        let topk_order: Vec<usize> = tk
            .into_sorted()
            .iter()
            .map(|r| r.window_index as usize)
            .collect();
        assert_eq!(topk_order, tsvr_mil::metrics::rank_with_ties(&scores));
    }

    #[test]
    fn topk_keeps_best_and_sorts_descending() {
        let mut tk = TopK::new(3);
        for (i, s) in [0.1, 0.9, 0.5, 0.7, 0.2].into_iter().enumerate() {
            tk.push(s, 1, i as u64);
        }
        let out = tk.into_sorted();
        let scores: Vec<f64> = out.iter().map(|r| r.score).collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn topk_ties_break_by_clip_then_window() {
        let mut tk = TopK::new(4);
        tk.push(0.5, 2, 7);
        tk.push(0.5, 1, 9);
        tk.push(0.5, 1, 3);
        tk.push(0.5, 2, 1);
        let out = tk.into_sorted();
        let keys: Vec<(u64, u64)> = out.iter().map(|r| (r.clip_id, r.window_index)).collect();
        assert_eq!(keys, vec![(1, 3), (1, 9), (2, 1), (2, 7)]);
    }

    #[test]
    fn topk_maps_nan_to_lowest_and_never_panics() {
        let mut tk = TopK::new(2);
        tk.push(f64::NAN, 1, 0);
        tk.push(0.1, 1, 1);
        tk.push(f64::NAN, 2, 2);
        tk.push(-5.0, 2, 3);
        let out = tk.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].clip_id, out[0].window_index), (1, 1));
        assert_eq!((out[1].clip_id, out[1].window_index), (2, 3));
        assert_eq!(out[0].score, 0.1);
    }

    #[test]
    fn topk_insertion_order_does_not_matter() {
        let mut entries: Vec<(f64, u64, u64)> = (0u32..40)
            .map(|i| (f64::from(i % 7) * 0.3, u64::from(i / 10), u64::from(i)))
            .collect();
        let mut a = TopK::new(5);
        for &(s, c, w) in &entries {
            a.push(s, c, w);
        }
        entries.reverse();
        let mut b = TopK::new(5);
        for &(s, c, w) in &entries {
            b.push(s, c, w);
        }
        let ka: Vec<(u64, u64)> = a
            .into_sorted()
            .iter()
            .map(|r| (r.clip_id, r.window_index))
            .collect();
        let kb: Vec<(u64, u64)> = b
            .into_sorted()
            .iter()
            .map(|r| (r.clip_id, r.window_index))
            .collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn topk_zero_capacity_is_inert() {
        let mut tk = TopK::new(0);
        tk.push(1.0, 1, 1);
        assert!(tk.is_empty());
        assert_eq!(tk.len(), 0);
        assert!(tk.into_sorted().is_empty());
    }
}
