//! The shared bench plumbing: fast mode, timing helpers, the timing
//! loop behind the `benches/` targets, and [`Report`] — the one report
//! every bench bin in `src/bin/` writes.
//!
//! The workspace builds fully offline, so the bench targets are plain
//! `fn main` binaries (`harness = false`) driving [`Bencher`] instead
//! of an external benchmark framework. Each benchmark is warmed up,
//! auto-calibrated to a target batch duration, then timed over several
//! batches; the median batch is reported as ns/iter.
//!
//! # Fast mode
//!
//! `TSVR_BENCH_FAST=1` (any value but `0`) selects each bin's smoke
//! variant — smaller inputs, fewer rounds, looser timing gates — and
//! runs every [`Bencher`] benchmark for a single short batch. CI smoke
//! runs use it where wall time matters more than measurement quality.
//! [`fast_mode`] is the only reader of the variable.
//!
//! # The report envelope
//!
//! A bench bin collects its results in a [`Report`] and writes
//! `BENCH_<bench>.json` in the working directory as one JSON object:
//!
//! ```text
//! {"bench": "<bench>",
//!  "host": {"available_parallelism": N, "par_threads": N},
//!  "mode": {"fast": bool, ...the bin's configuration...},
//!  "metrics": [{"name": "...", "unit": "...", "value": x}, ...],
//!  "identity": {"<check>": bool, ...},
//!  "pass": bool}
//! ```
//!
//! `metrics` holds every measured number (and the targets it is judged
//! against); `identity` holds the bit-identity checks that make a
//! speedup comparable at all. The pass rule is the same for every bin:
//! `pass` = the bin's own gates AND every identity flag AND every metric
//! finite. When `pass` is false the bin exits 1 after writing the file,
//! so a smoke run fails loudly and the file still shows why. The e2e
//! benchmark (`e2e-bench/`) writes the same envelope.

use std::time::{Duration, Instant};

use tsvr_obs::json::Json;

/// Target wall time per measured batch.
const BATCH_TARGET: Duration = Duration::from_millis(50);
/// Measured batches per benchmark (median is reported).
const BATCHES: usize = 7;

/// Whether `TSVR_BENCH_FAST` selects the smoke variant.
pub fn fast_mode() -> bool {
    std::env::var_os("TSVR_BENCH_FAST").is_some_and(|v| v != "0")
}

/// The upper median: sorts `xs` and returns `xs[len / 2]`.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Runs `f` once, returning its wall time in nanoseconds and its
/// output (dropped by the caller, outside the timed region).
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos() as f64, out)
}

/// The machine a report was measured on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism()`, 1 if unknown.
    pub available_parallelism: usize,
    /// The `tsvr-par` worker count resolved from `--threads`,
    /// `TSVR_THREADS` or the hardware.
    pub par_threads: usize,
}

/// The current host.
pub fn host() -> Host {
    Host {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        par_threads: tsvr_par::current_threads(),
    }
}

/// One bench bin's results, written as the envelope described in the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct Report {
    bench: String,
    host: Host,
    mode: Vec<(String, Json)>,
    metrics: Vec<(String, &'static str, f64)>,
    identity: Vec<(String, bool)>,
}

impl Report {
    /// An empty report for `bench` on the current host; `mode.fast`
    /// records [`fast_mode`].
    pub fn new(bench: &str) -> Report {
        Report {
            bench: bench.to_string(),
            host: host(),
            mode: vec![("fast".into(), Json::Bool(fast_mode()))],
            metrics: Vec::new(),
            identity: Vec::new(),
        }
    }

    /// Records a configuration entry (workload, rounds, pass rule, ...).
    pub fn mode(&mut self, key: &str, value: Json) -> &mut Report {
        self.mode.push((key.to_string(), value));
        self
    }

    /// Records a measured value (or the target it is judged against).
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) -> &mut Report {
        self.metrics.push((name.to_string(), unit, value));
        self
    }

    /// Records a bit-identity check; a false one fails the report.
    pub fn identity(&mut self, name: &str, ok: bool) -> &mut Report {
        self.identity.push((name.to_string(), ok));
        self
    }

    /// The pass rule: `gates` AND every identity flag AND every metric
    /// finite.
    fn pass(&self, gates: bool) -> bool {
        gates
            && self.identity.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|(_, _, v)| v.is_finite())
    }

    /// The envelope, with `pass` decided by [`pass`](Self::pass).
    fn to_json(&self, gates: bool) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("unit".into(), Json::Str((*unit).into())),
                    ("value".into(), Json::Num(*value)),
                ])
            })
            .collect();
        let identity = self
            .identity
            .iter()
            .map(|(name, ok)| (name.clone(), Json::Bool(*ok)))
            .collect();
        Json::Obj(vec![
            ("bench".into(), Json::Str(self.bench.clone())),
            (
                "host".into(),
                Json::Obj(vec![
                    (
                        "available_parallelism".into(),
                        Json::Num(self.host.available_parallelism as f64),
                    ),
                    (
                        "par_threads".into(),
                        Json::Num(self.host.par_threads as f64),
                    ),
                ]),
            ),
            ("mode".into(), Json::Obj(self.mode.clone())),
            ("metrics".into(), Json::Arr(metrics)),
            ("identity".into(), Json::Obj(identity)),
            ("pass".into(), Json::Bool(self.pass(gates))),
        ])
    }

    /// Writes `BENCH_<bench>.json` and prints the verdict, naming every
    /// failed identity check and non-finite metric; exits 1 when the
    /// report does not pass.
    pub fn finish(&self, gates: bool) {
        let path = format!("BENCH_{}.json", self.bench);
        let pass = self.pass(gates);
        std::fs::write(&path, format!("{}\n", self.to_json(gates)))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        for (name, _) in self.identity.iter().filter(|(_, ok)| !ok) {
            eprintln!("{}: identity check {name} failed", self.bench);
        }
        for (name, _, v) in self.metrics.iter().filter(|(_, _, v)| !v.is_finite()) {
            eprintln!("{}: metric {name} is {v}", self.bench);
        }
        if !gates {
            eprintln!("{}: a gate failed (see the output above)", self.bench);
        }
        println!(
            "{}: {} — wrote {path}",
            self.bench,
            if pass { "PASS" } else { "FAIL" }
        );
        if !pass {
            std::process::exit(1);
        }
    }
}

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name as printed.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per measured batch.
    pub iters: u64,
}

/// A named group of benchmarks, printed like libtest's bench output.
pub struct Bencher {
    group: String,
    results: Vec<Measurement>,
}

impl Bencher {
    /// Start a group; `group` prefixes every benchmark name.
    pub fn new(group: &str) -> Self {
        Bencher {
            group: group.to_string(),
            results: Vec::new(),
        }
    }

    /// Time `f`, which must consume its computation (return or
    /// otherwise observe it) so the optimizer keeps the work.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) -> &Measurement {
        // Warm up and calibrate: find an iteration count whose batch
        // lands near the target duration.
        let mut iters: u64 = 1;
        let calibrated = loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= BATCH_TARGET || iters >= 1 << 30 {
                break iters;
            }
            let scale = BATCH_TARGET.as_secs_f64() / dt.as_secs_f64().max(1e-9);
            iters = (iters as f64 * scale.clamp(1.5, 100.0)).ceil() as u64;
        };
        let batches = if fast_mode() { 1 } else { BATCHES };
        let iters = if fast_mode() {
            calibrated.min(3)
        } else {
            calibrated
        };
        let mut samples: Vec<f64> = (0..batches)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        let median = median(&mut samples);
        let full = format!("{}/{}", self.group, name);
        println!("bench: {full:<44} {:>12.1} ns/iter ({iters} iters)", median);
        self.results.push(Measurement {
            name: full,
            ns_per_iter: median,
            iters,
        });
        self.results.last().expect("just pushed")
    }

    /// All measurements taken so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut r = Report::new("unit");
        r.mode("workload", Json::Str("synthetic".into()))
            .metric("speedup", "x", 1.25)
            .metric("bytes", "B", 4096.0)
            .identity("rankings_byte_identical", true);
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let doc = r.to_json(true);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("unit"));
        assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").and_then(Json::as_arr).unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(metrics[1].get("unit").and_then(Json::as_str), Some("B"));
        let host = doc.get("host").unwrap();
        assert!(host.get("available_parallelism").and_then(Json::as_u64) >= Some(1));
        assert_eq!(
            doc.get("identity")
                .and_then(|i| i.get("rankings_byte_identical")),
            Some(&Json::Bool(true))
        );
        // A failed gate alone fails the report.
        assert_eq!(r.to_json(false).get("pass"), Some(&Json::Bool(false)));
    }

    #[test]
    fn false_identity_flag_fails_the_report() {
        let mut r = report();
        r.identity("compression_bit_exact", false);
        assert!(!r.pass(true));
        assert_eq!(r.to_json(true).get("pass"), Some(&Json::Bool(false)));
    }

    #[test]
    fn committed_reports_are_passing_envelopes() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let Some(bench) = name
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
            else {
                continue;
            };
            let doc = Json::parse(&std::fs::read_to_string(root.join(&name)).unwrap()).unwrap();
            let keys: Vec<&str> = match &doc {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("{name}: not an object: {other}"),
            };
            assert_eq!(
                keys,
                ["bench", "host", "mode", "metrics", "identity", "pass"],
                "{name}"
            );
            assert_eq!(
                doc.get("bench").and_then(Json::as_str),
                Some(bench),
                "{name}"
            );
            assert!(doc
                .get("host")
                .unwrap()
                .get("available_parallelism")
                .is_some());
            for m in doc.get("metrics").and_then(Json::as_arr).unwrap() {
                assert!(
                    m.get("name").and_then(Json::as_str).is_some(),
                    "{name}: {m}"
                );
                assert!(
                    m.get("unit").and_then(Json::as_str).is_some(),
                    "{name}: {m}"
                );
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name}: {m}"
                );
            }
            let Some(Json::Obj(identity)) = doc.get("identity") else {
                panic!("{name}: identity is not an object")
            };
            assert!(
                identity.iter().all(|(_, ok)| *ok == Json::Bool(true)),
                "{name}"
            );
            assert_eq!(doc.get("pass"), Some(&Json::Bool(true)), "{name}");
            seen += 1;
        }
        assert!(seen > 0, "no BENCH_*.json next to the workspace root");
    }

    #[test]
    fn nan_metric_fails_the_report() {
        let mut r = report();
        r.metric("speedup_of_nothing", "x", f64::NAN);
        assert!(!r.pass(true));
        assert_eq!(r.to_json(true).get("pass"), Some(&Json::Bool(false)));
    }
}
