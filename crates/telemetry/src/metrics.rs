//! Typed in-process metrics: monotonic counters, gauges, and histograms
//! with percentile queries.
//!
//! These are the aggregation primitives behind the per-level tables: the
//! engines feed raw samples (frontier sizes, retry latencies, checkpoint
//! bytes) and the exporters query percentiles and totals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The unit a metric is denominated in, carried alongside the value so
/// exposition (Prometheus text, `xbfs-metrics-v1` JSON, dashboards) can
/// label series honestly instead of guessing from the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricUnit {
    /// A dimensionless count (requests, events, items).
    #[default]
    Count,
    /// Bytes.
    Bytes,
    /// Milliseconds.
    Millis,
    /// Microseconds (the modeled device clock's native unit).
    Micros,
    /// An enumerated state code (e.g. worker 0=idle/1=running/2=quarantined).
    State,
}

impl MetricUnit {
    /// Stable lowercase token used in both exposition formats.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricUnit::Count => "count",
            MetricUnit::Bytes => "bytes",
            MetricUnit::Millis => "ms",
            MetricUnit::Micros => "us",
            MetricUnit::State => "state",
        }
    }
}

/// A monotonic counter (adds only).
///
/// The value is a single `AtomicU64`, so a scrape observes it with one
/// 64-bit load — there is no paired cell (no separate count/sum, no unit
/// stored behind a lock) that could tear against it mid-update. The unit
/// is immutable metadata fixed at construction.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    unit: MetricUnit,
}

impl Counter {
    /// A zeroed, dimensionless counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed counter denominated in `unit`.
    pub fn with_unit(unit: MetricUnit) -> Self {
        Self {
            value: AtomicU64::new(0),
            unit,
        }
    }

    /// The unit this counter was created with.
    pub fn unit(&self) -> MetricUnit {
        self.unit
    }

    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value: one atomic load, torn-read-free by construction.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value gauge (stores an `f64` via its bit pattern).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge initialized to 0.0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `value` if that is larger (a high-water mark
    /// that racing writers never lower).
    pub fn set_max(&self, value: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (value > f64::from_bits(cur)).then_some(value.to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A sample-retaining histogram with exact percentile queries.
///
/// The workloads here record at most a few thousand samples per run (one
/// per level or per kernel), so keeping raw samples and sorting on query is
/// both exact and cheap — no bucketing error to reason about in tests.
#[derive(Debug, Default)]
pub struct Histogram {
    samples: Mutex<Vec<f64>>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample (non-finite samples are dropped).
    pub fn record(&self, value: f64) {
        if value.is_finite() {
            self.samples
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(value);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .sum()
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let n = self.len();
        (n > 0).then(|| self.sum() / n as f64)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .reduce(f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .reduce(f64::max)
    }

    /// Exact percentile with linear interpolation between closest ranks
    /// (the NIST / numpy `linear` definition): `p` in `[0, 100]`;
    /// `percentile(0)` is the minimum, `percentile(100)` the maximum,
    /// and `percentile(50)` of `[1, 2, 3, 4]` is `2.5`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut v = self
            .samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(v[lo] + (v[hi] - v[lo]) * frac)
    }

    /// Snapshot of the raw samples, in recording order.
    pub fn samples(&self) -> Vec<f64> {
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        assert_eq!(c.unit(), MetricUnit::Count);
        let b = Counter::with_unit(MetricUnit::Bytes);
        b.add(1024);
        assert_eq!(b.get(), 1024);
        assert_eq!(b.unit(), MetricUnit::Bytes);
        let g = Gauge::new();
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
        g.set_max(3.0);
        g.set_max(2.0);
        assert_eq!(g.get(), 3.0);
    }

    /// Regression test for scrape consistency: concurrent scrapes of a
    /// counter under heavy write load must only ever observe monotone,
    /// exact intermediate values — a torn read (e.g. a 32-bit half
    /// update, or a value/unit pair read across an update) would show
    /// up as a regression or an impossible value.
    #[test]
    fn counter_scrapes_are_monotone_under_concurrent_writes() {
        use std::sync::Arc;

        const WRITERS: usize = 4;
        const ADDS_PER_WRITER: u64 = 50_000;
        const DELTA: u64 = 0x1_0000_0001; // straddles the 32-bit boundary

        let c = Arc::new(Counter::with_unit(MetricUnit::Bytes));
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..ADDS_PER_WRITER {
                        c.add(DELTA);
                    }
                })
            })
            .collect();

        // Scrape continuously while the writers run.
        let mut last = 0u64;
        loop {
            let v = c.get();
            assert!(v >= last, "scrape went backwards: {last} -> {v}");
            assert_eq!(
                v % DELTA,
                0,
                "torn read: {v} is not a multiple of the delta"
            );
            assert_eq!(c.unit(), MetricUnit::Bytes);
            last = v;
            if v == WRITERS as u64 * ADDS_PER_WRITER * DELTA {
                break;
            }
            std::thread::yield_now();
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(c.get(), WRITERS as u64 * ADDS_PER_WRITER * DELTA);
    }

    #[test]
    fn histogram_basic_stats() {
        let h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            h.record(v);
        }
        h.record(f64::NAN); // dropped
        assert_eq!(h.len(), 4);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.sum(), 10.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(h.percentile(100.0), Some(4.0));
        assert_eq!(h.percentile(50.0), Some(2.5));
        assert_eq!(h.percentile(25.0), Some(1.75));
        assert!(Histogram::new().percentile(50.0).is_none());
    }
}
