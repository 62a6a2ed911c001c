//! Runtime metrics: named atomic counters, gauges, and histograms.
//!
//! Each fact has one count. An object that already counts for itself —
//! a `taskrt` runtime, a `vmpi` world's fault plan — keeps its own
//! counters and adds them here once, when it is dropped. The registry
//! only holds live counts that have no other home: the `vmpi` message
//! counters, `tampi.bound_requests` and the `vmpi.transit_us`
//! histogram. Handles are cloned `Arc`s around atomics, so such a live
//! count is one atomic RMW (a histogram observe is three) with no lock;
//! its layer caches the handle (a registry lookup takes the map lock)
//! and gates the increment behind [`crate::is_enabled`].

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// A signed high-water mark: the largest level any source reported.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    inner: Arc<AtomicI64>,
}

impl Gauge {
    /// Raises the level to at least `v` (high-watermark tracking).
    pub fn fetch_max(&self, v: i64) {
        self.inner.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds exact zeros, bucket `b ≥ 1`
/// holds values whose bit length is `b`, i.e. `[2^(b-1), 2^b)`. 64-bit
/// values have bit lengths 0..=64, hence 65 buckets.
const BUCKETS: usize = 65;

/// Which bucket `v` lands in: its bit length (0 for `v == 0`).
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b` (what percentiles report).
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Inclusive lower bound of bucket `b`.
fn bucket_lo(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂-bucket histogram of `u64` samples (latencies in µs, sizes in
/// bytes). Observation is three relaxed RMWs; percentiles are extracted
/// from the bucket counts and therefore quantized to a bucket's upper
/// bound — exact rank selection within power-of-two resolution.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

/// Point-in-time view of a [`Histogram`], for reports and rendering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples observed.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Exact-rank p50, quantized to the bucket upper bound.
    pub p50: u64,
    /// Exact-rank p95, quantized to the bucket upper bound.
    pub p95: u64,
    /// Exact-rank p99, quantized to the bucket upper bound.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Samples observed so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples observed so far.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Consistent snapshot (counts are read once) with p50/p95/p99.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.inner.sum.load(Ordering::Relaxed),
            p50: percentile_of(&counts, 50.0),
            p95: percentile_of(&counts, 95.0),
            p99: percentile_of(&counts, 99.0),
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| (bucket_lo(b), c))
                .collect(),
        }
    }
}

/// Exact-rank percentile over a bucket-count vector: the upper bound of
/// the bucket holding the `ceil(p/100 · total)`-th smallest sample.
fn percentile_of(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (b, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_hi(b);
        }
    }
    bucket_hi(BUCKETS - 1)
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The process-global registry of named metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<&'static str, Slot>>,
}

impl MetricsRegistry {
    /// Returns (creating on first use) the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a gauge or histogram.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut slots = self.slots.lock();
        match slots
            .entry(name)
            .or_insert_with(|| Slot::Counter(Counter::default()))
        {
            Slot::Counter(c) => c.clone(),
            Slot::Gauge(_) => panic!("metric '{name}' is a gauge, not a counter"),
            Slot::Histogram(_) => panic!("metric '{name}' is a histogram, not a counter"),
        }
    }

    /// Returns (creating on first use) the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut slots = self.slots.lock();
        match slots
            .entry(name)
            .or_insert_with(|| Slot::Gauge(Gauge::default()))
        {
            Slot::Gauge(g) => g.clone(),
            Slot::Counter(_) => panic!("metric '{name}' is a counter, not a gauge"),
            Slot::Histogram(_) => panic!("metric '{name}' is a histogram, not a gauge"),
        }
    }

    /// Returns (creating on first use) the histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a counter or gauge.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut slots = self.slots.lock();
        match slots
            .entry(name)
            .or_insert_with(|| Slot::Histogram(Histogram::default()))
        {
            Slot::Histogram(h) => h.clone(),
            Slot::Counter(_) => panic!("metric '{name}' is a counter, not a histogram"),
            Slot::Gauge(_) => panic!("metric '{name}' is a gauge, not a histogram"),
        }
    }

    /// Snapshot of every scalar metric, sorted by name. Counter values
    /// are reported as `i64` (saturating) so one table covers both kinds;
    /// histograms contribute their sample count (their full shape comes
    /// from [`MetricsRegistry::histogram_snapshots`]).
    pub fn snapshot(&self) -> Vec<(&'static str, i64)> {
        self.slots
            .lock()
            .iter()
            .map(|(name, slot)| {
                let v = match slot {
                    Slot::Counter(c) => i64::try_from(c.get()).unwrap_or(i64::MAX),
                    Slot::Gauge(g) => g.get(),
                    Slot::Histogram(h) => i64::try_from(h.count()).unwrap_or(i64::MAX),
                };
                (*name, v)
            })
            .collect()
    }

    /// Snapshot of every histogram, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        self.slots
            .lock()
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Histogram(h) => Some((*name, h.snapshot())),
                _ => None,
            })
            .collect()
    }
}

/// The process-global metrics registry. One per process by design: it
/// sums every runtime, world and `--jobs` job the process ran, which is
/// the total `--metrics` prints once they have all been dropped.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::default();
        let c = reg.counter("test.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying atomic.
        assert_eq!(reg.counter("test.count").get(), 5);

        let g = reg.gauge("test.level");
        g.fetch_max(7);
        g.fetch_max(5);
        assert_eq!(g.get(), 7);
        g.fetch_max(11);
        assert_eq!(g.get(), 11);

        let snap = reg.snapshot();
        assert_eq!(snap, vec![("test.count", 5), ("test.level", 11)]);
    }

    #[test]
    #[should_panic(expected = "is a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::default();
        reg.counter("oops");
        reg.gauge("oops");
    }

    #[test]
    #[should_panic(expected = "is a gauge, not a histogram")]
    fn histogram_kind_mismatch_panics() {
        let reg = MetricsRegistry::default();
        reg.gauge("oops.h");
        reg.histogram("oops.h");
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::default();
        // 100 samples: 50× 1µs, 45× 100µs, 5× 10000µs.
        for _ in 0..50 {
            h.observe(1);
        }
        for _ in 0..45 {
            h.observe(100);
        }
        for _ in 0..5 {
            h.observe(10_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 50 + 45 * 100 + 5 * 10_000);
        // Rank 50 lands in the bucket of 1 → upper bound 1; rank 95 in
        // the bucket of 100 ([64,127]) → 127; rank 99 in the bucket of
        // 10000 ([8192,16383]) → 16383.
        let snap = h.snapshot();
        assert_eq!((snap.p50, snap.p95, snap.p99), (1, 127, 16383));
        assert_eq!(snap.buckets, vec![(1, 50), (64, 45), (8192, 5)]);
    }

    #[test]
    fn histogram_zero_and_extreme_values() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        let snap = h.snapshot();
        assert_eq!((snap.p50, snap.p99), (0, u64::MAX));
        assert_eq!(snap.buckets.len(), 2);
        assert_eq!(snap.buckets[0], (0, 1));
    }

    #[test]
    fn histogram_registry_roundtrip() {
        let reg = MetricsRegistry::default();
        let h = reg.histogram("test.lat_us");
        h.observe(5);
        h.observe(9);
        // Same name returns the same underlying histogram.
        assert_eq!(reg.histogram("test.lat_us").count(), 2);
        // Scalar snapshot carries the sample count.
        assert_eq!(reg.snapshot(), vec![("test.lat_us", 2)]);
        let hists = reg.histogram_snapshots();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, "test.lat_us");
        assert_eq!(hists[0].1.count, 2);
    }
}
