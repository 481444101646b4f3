//! Metrics, their within-run statistics, and the two output lines.

use tsvr_obs::json::Json;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples (or units of work) the value was computed from.
    pub n: usize,
    /// First and third quartile of the samples, when the value is a
    /// statistic over per-operation samples.
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n,
            quartiles: None,
        }
    }

    /// The `q`-quantile of `samples`, carrying their quartiles.
    pub fn quantile(name: &str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Metric {
            name: name.to_string(),
            unit,
            value: quantile(&sorted, q),
            n: sorted.len(),
            quartiles: Some((quantile(&sorted, 0.25), quantile(&sorted, 0.75))),
        }
    }

    /// The median of each kind of work's samples `(kind, value)`,
    /// averaged over the kinds. Unlike the median of the pooled
    /// samples, it does not jump between kinds whose costs differ
    /// widely. Carries the pooled quartiles.
    pub fn mean_of_medians(name: &str, unit: &'static str, samples: &[(usize, f64)]) -> Metric {
        let mut kinds: Vec<usize> = samples.iter().map(|s| s.0).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let medians: Vec<f64> = kinds
            .iter()
            .map(|&k| {
                let of_kind: Vec<f64> = samples.iter().filter(|s| s.0 == k).map(|s| s.1).collect();
                median(&of_kind)
            })
            .collect();
        let pooled: Vec<f64> = samples.iter().map(|s| s.1).collect();
        Metric {
            value: medians.iter().sum::<f64>() / medians.len().max(1) as f64,
            ..Metric::quantile(name, unit, &pooled, 0.5)
        }
    }
}

/// Linear interpolation between closest ranks of an ascending slice;
/// 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The ROADMAP envelope: bench, host, mode, metrics, identity, pass.
pub fn envelope(host: Json, mode: Json, metrics: &[Metric], identity: Json) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let (q1, q3) = m.quartiles.map_or((Json::Null, Json::Null), |(a, b)| {
                (Json::Num(a), Json::Num(b))
            });
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name.clone())),
                ("unit".into(), Json::Str(m.unit.into())),
                ("value".into(), Json::Num(m.value)),
                ("n".into(), Json::Num(m.n as f64)),
                ("q1".into(), q1),
                ("q3".into(), q3),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("bench".into(), Json::Str("e2e".into())),
        ("host".into(), host),
        ("mode".into(), mode),
        ("metrics".into(), Json::Arr(metrics)),
        ("identity".into(), identity),
        ("pass".into(), Json::Bool(true)),
    ])
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// as `{value, unit}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(true)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A human-readable table of the metrics.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let quartiles = m
            .quartiles
            .map(|(a, b)| format!("  [q1 {a:.4}, q3 {b:.4}]"))
            .unwrap_or_default();
        out.push_str(&format!(
            "{:<48} {:>14.4} {:<6} n={}{quartiles}\n",
            m.name, m.value, m.unit, m.n
        ));
    }
    out
}
