//! The bench's own layer timers, and readers for the `tsvr-obs`
//! registry snapshot.

use std::collections::BTreeMap;
use std::time::Instant;

use tsvr_obs::Snapshot;

/// Busy time per named public call. Off in untraced runs, where `time`
/// only calls through and never reads the clock.
#[derive(Debug, Default)]
pub struct Ledger {
    on: bool,
    slots: BTreeMap<&'static str, (u64, u64)>,
}

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            slots: BTreeMap::new(),
        }
    }

    pub fn time<R>(&mut self, slot: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let entry = self.slots.entry(slot).or_default();
        entry.0 += t.elapsed().as_nanos() as u64;
        entry.1 += 1;
        out
    }

    pub fn ns(&self, slot: &str) -> u64 {
        self.slots.get(slot).map_or(0, |s| s.0)
    }

    pub fn calls(&self, slot: &str) -> u64 {
        self.slots.get(slot).map_or(0, |s| s.1)
    }

    /// Busy time over every slot.
    pub fn total_ns(&self) -> u64 {
        self.slots.values().map(|s| s.0).sum()
    }
}

/// Read access to one registry snapshot.
pub struct Snap(pub Snapshot);

impl Snap {
    /// Summed nanoseconds and sample count of a span or histogram.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.0
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map_or((0, 0), |h| (h.sum, h.count))
    }

    pub fn sum_ms(&self, name: &str) -> f64 {
        self.hist(name).0 as f64 / 1e6
    }

    pub fn mean(&self, name: &str) -> f64 {
        let (sum, count) = self.hist(name);
        per(sum as f64, count as f64)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }
}

/// `x / n`, or 0 when the layer did no work in the run (`n == 0`).
pub fn per(x: f64, n: f64) -> f64 {
    if n == 0.0 {
        0.0
    } else {
        x / n
    }
}
