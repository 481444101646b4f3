//! Point-in-time snapshots of the registry, with JSON and table export.
//!
//! JSON schema (stable; the `tsvr stats` subcommand and the
//! `BENCH_*.json` tooling both parse it):
//!
//! ```json
//! {
//!   "schema": "tsvr-obs/1",
//!   "counters": [{"name": "svm.kernel.evals", "value": 123}],
//!   "histograms": [{
//!     "name": "mil.round", "unit": "ns",
//!     "count": 4, "sum": 1000, "min": 200, "max": 350,
//!     "buckets": [{"lo": 128, "hi": 255, "count": 3},
//!                 {"lo": 256, "hi": 511, "count": 1}]
//!   }]
//! }
//! ```
//!
//! `unit` is `"ns"` for span histograms and `"count"` otherwise; only
//! non-empty buckets are listed, each with its inclusive value range.

use std::fmt::Write as _;

use crate::json::{Json, ParseError};

/// Identifies the snapshot JSON schema version.
pub const SCHEMA: &str = "tsvr-obs/1";

/// One counter's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered dotted name.
    pub name: String,
    /// Counter value at capture time.
    pub value: u64,
}

/// One non-empty histogram bucket: `count` samples in `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Inclusive lower bound of the bucket's value range.
    pub lo: u64,
    /// Inclusive upper bound of the bucket's value range.
    pub hi: u64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// One histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered dotted name.
    pub name: String,
    /// `"ns"` for span histograms, `"count"` otherwise.
    pub unit: String,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets in ascending value order.
    pub buckets: Vec<BucketSnapshot>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the q-th sample (an overestimate of at most
    /// one bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.hi.min(self.max);
            }
        }
        self.max
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters, in name order.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms (including span timers), in name order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Serialize to the stable JSON schema described in the module docs.
    pub fn to_json(&self) -> String {
        let mut out = self.to_json_value().to_string();
        out.push('\n');
        out
    }

    /// The same document as [`Snapshot::to_json`], as a [`Json`] value —
    /// for embedding in a larger document (the serve protocol's `stats`
    /// response).
    pub fn to_json_value(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(c.name.clone())),
                    ("value".into(), Json::Num(c.value as f64)),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("lo".into(), Json::Num(b.lo as f64)),
                            ("hi".into(), Json::Num(b.hi as f64)),
                            ("count".into(), Json::Num(b.count as f64)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::Str(h.name.clone())),
                    ("unit".into(), Json::Str(h.unit.clone())),
                    ("count".into(), Json::Num(h.count as f64)),
                    ("sum".into(), Json::Num(h.sum as f64)),
                    ("min".into(), Json::Num(h.min as f64)),
                    ("max".into(), Json::Num(h.max as f64)),
                    ("buckets".into(), Json::Arr(buckets)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("counters".into(), Json::Arr(counters)),
            ("histograms".into(), Json::Arr(histograms)),
        ])
    }

    /// Parse a snapshot previously produced by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, ParseError> {
        let doc = Json::parse(text)?;
        Snapshot::from_json_value(&doc)
    }

    /// Inverse of [`Snapshot::to_json_value`].
    pub fn from_json_value(doc: &Json) -> Result<Snapshot, ParseError> {
        let bad = |message: &str| ParseError {
            message: message.to_string(),
            offset: 0,
        };
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(bad(&format!("unsupported schema '{other}'"))),
            None => return Err(bad("missing 'schema' field")),
        }
        let field = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("missing or invalid '{key}'")))
        };
        let mut counters = Vec::new();
        for c in doc.get("counters").and_then(Json::as_arr).unwrap_or(&[]) {
            counters.push(CounterSnapshot {
                name: c
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("counter missing 'name'"))?
                    .to_string(),
                value: field(c, "value")?,
            });
        }
        let mut histograms = Vec::new();
        for h in doc.get("histograms").and_then(Json::as_arr).unwrap_or(&[]) {
            let mut buckets = Vec::new();
            for b in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
                buckets.push(BucketSnapshot {
                    lo: field(b, "lo")?,
                    hi: field(b, "hi")?,
                    count: field(b, "count")?,
                });
            }
            histograms.push(HistogramSnapshot {
                name: h
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("histogram missing 'name'"))?
                    .to_string(),
                unit: h
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("count")
                    .to_string(),
                count: field(h, "count")?,
                sum: field(h, "sum")?,
                min: field(h, "min")?,
                max: field(h, "max")?,
                buckets,
            });
        }
        Ok(Snapshot {
            counters,
            histograms,
        })
    }

    /// Render a human-readable table (what `tsvr stats` prints).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.counters.is_empty() && self.histograms.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<40} {:>14}", "COUNTER", "VALUE");
            for c in &self.counters {
                let _ = writeln!(out, "{:<40} {:>14}", c.name, c.value);
            }
        }
        if !self.histograms.is_empty() {
            if !self.counters.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{:<28} {:>6} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "SPAN/HISTOGRAM", "UNIT", "COUNT", "MEAN", "P50", "P95", "MAX"
            );
            for h in &self.histograms {
                let ns = h.unit == "ns";
                let _ = writeln!(
                    out,
                    "{:<28} {:>6} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    h.name,
                    h.unit,
                    h.count,
                    fmt_value(h.mean(), ns),
                    fmt_value(h.quantile(0.50) as f64, ns),
                    fmt_value(h.quantile(0.95) as f64, ns),
                    fmt_value(h.max as f64, ns),
                );
            }
        }
        out
    }
}

/// Format a value for the table; nanosecond values get a time suffix.
fn fmt_value(v: f64, nanos: bool) -> String {
    if !nanos {
        return if v.fract() == 0.0 {
            format!("{}", v as u64)
        } else {
            format!("{v:.1}")
        };
    }
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{}ns", v as u64)
    }
}
