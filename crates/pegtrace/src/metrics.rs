//! Counters and log-scale latency histograms.
//!
//! The histogram is the crate's one data structure with a design
//! argument. Requirements from the serving path: recording must be
//! lock-free (it sits on every request and inside the worker transport's
//! per-exchange accounting), readout must give p50/p99/max without
//! storing samples (the predecessor ring buffer kept 4096 samples per
//! worker and sorted a clone per readout), and two histograms must merge
//! exactly (client-side load generators sum per-client histograms;
//! [`MetricsRegistry::merge_from`] sums registries).
//!
//! The bucket layout is **log-linear**: values `0..64` map to their own
//! exact bucket, and every octave above is split into 64 linear
//! sub-buckets, so the relative quantization error is bounded by 1/64
//! (< 1.6%) at every scale. With microsecond samples the bucketed range
//! reaches 2^58 µs (~9000 years) before clamping, so saturation is a
//! non-issue; the maximum is additionally tracked exactly. Quantiles read by exact rank walk over
//! the cumulative bucket counts — the reported value is the bucket's
//! lower edge clamped to the exact maximum, deterministic for a given
//! set of recorded buckets.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Linear sub-buckets per octave (and the width of the exact range).
const SUBBUCKETS: u64 = 64;
/// log2 of [`SUBBUCKETS`].
const SUB_BITS: u32 = 6;
/// Octaves above the exact range: values up to `2^(6+52)` µs land in a
/// real bucket, everything larger clamps into the last one.
const OCTAVES: usize = 52;
/// Total bucket count.
const N_BUCKETS: usize = SUBBUCKETS as usize * (OCTAVES + 1);

/// Bucket index for a microsecond value. Values past the last octave
/// (≥ 2^58 µs, ~9000 years) clamp into the final bucket.
fn bucket_of(us: u64) -> usize {
    if us < SUBBUCKETS {
        return us as usize;
    }
    let msb = 63 - us.leading_zeros();
    let octave = msb - SUB_BITS + 1;
    if octave as usize > OCTAVES {
        return N_BUCKETS - 1;
    }
    let sub = (us >> (octave - 1)) - SUBBUCKETS;
    (octave as usize) * SUBBUCKETS as usize + sub as usize
}

/// Lower edge (µs) of a bucket — what quantile readout reports.
fn bucket_floor(idx: usize) -> u64 {
    let octave = idx as u64 >> SUB_BITS;
    let sub = idx as u64 & (SUBBUCKETS - 1);
    if octave == 0 {
        return sub;
    }
    (SUBBUCKETS + sub) << (octave - 1)
}

/// A monotone named counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zeroed counter (registry-less use).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-linear latency histogram in microseconds.
/// Lock-free to record, mergeable, exact max. Cloning shares the cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

struct HistogramCells {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={}µs, p99={}µs, max={}µs)",
            s.count, s.p50_us, s.p99_us, s.max_us
        )
    }
}

impl Histogram {
    /// A fresh empty histogram (registry-less use: per-worker transport
    /// accounting, tests).
    pub fn new() -> Histogram {
        Histogram(Arc::new(HistogramCells {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }))
    }

    /// Records one microsecond sample.
    pub fn record_us(&self, us: u64) {
        let cells = &self.0;
        cells.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum_us.fetch_add(us, Ordering::Relaxed);
        cells.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros() as u64);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Adds every sample of `other` into this histogram (element-wise
    /// bucket sums — exact, order-independent).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(&other.0.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(other.0.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0.sum_us.fetch_add(other.0.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0.max_us.fetch_max(other.0.max_us.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The value at quantile `q` (0..=1) by exact rank walk: the lower
    /// edge of the bucket holding the rank, clamped to the exact
    /// maximum. Zero when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let max = self.0.max_us.load(Ordering::Relaxed);
        // Nearest-rank: the smallest sample with cumulative count ≥ q·N.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        if rank == count {
            // The top rank is the maximum, which is tracked exactly.
            return max;
        }
        let mut seen = 0u64;
        for (idx, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_floor(idx).min(max);
            }
        }
        max
    }

    /// A consistent-enough readout of the whole histogram (counts may
    /// advance between field loads under concurrent writers; readers
    /// wanting exactness snapshot quiescent histograms).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum_us = self.0.sum_us.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum_us,
            mean_us: sum_us.checked_div(count).unwrap_or(0),
            p50_us: self.quantile_us(0.50),
            p90_us: self.quantile_us(0.90),
            p99_us: self.quantile_us(0.99),
            max_us: self.0.max_us.load(Ordering::Relaxed),
        }
    }
}

/// One histogram readout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, µs.
    pub sum_us: u64,
    /// Integer mean, µs.
    pub mean_us: u64,
    /// Median, µs.
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Exact maximum, µs.
    pub max_us: u64,
}

/// A namespace of named counters and histograms. `BTreeMap`-backed so
/// every dump iterates in one deterministic (lexicographic) order.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, created on first use. The
    /// returned handle shares the cell — hold it instead of re-looking
    /// up on hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Every counter's `(name, value)`, in name order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Every histogram's `(name, snapshot)`, in name order.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// Merges every metric of `other` into this registry (counters add,
    /// histograms merge element-wise; names union).
    pub fn merge_from(&self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.counter(&name).add(value);
        }
        let theirs = other.histograms.lock().unwrap();
        for (name, h) in theirs.iter() {
            self.histogram(name).merge_from(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exact_below_64_and_within_bound_above() {
        // Exact range: every value its own bucket.
        for v in 0..SUBBUCKETS {
            assert_eq!(bucket_floor(bucket_of(v)), v);
        }
        // Log-linear range: floor ≤ v and relative error < 1/64.
        for v in [64u64, 65, 100, 127, 128, 1000, 4096, 1_000_000, (1 << 57) + 12_345] {
            let floor = bucket_floor(bucket_of(v));
            assert!(floor <= v, "floor {floor} > {v}");
            assert!((v - floor) as f64 <= v as f64 / SUBBUCKETS as f64, "bucket too wide at {v}");
        }
        // Past the last octave: clamp, don't panic.
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        // Buckets are monotone in the value.
        let mut last = 0;
        for v in (0..20_000u64).step_by(7) {
            let b = bucket_of(v);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn quantiles_are_exact_in_the_exact_range_and_max_is_exact() {
        let h = Histogram::new();
        for v in 1..=50u64 {
            h.record_us(v);
        }
        assert_eq!(h.count(), 50);
        assert_eq!(h.quantile_us(0.5), 25);
        assert_eq!(h.quantile_us(0.02), 1);
        assert_eq!(h.quantile_us(1.0), 50);
        let s = h.snapshot();
        assert_eq!((s.p50_us, s.max_us, s.sum_us), (25, 50, (1..=50).sum()));
        // A big outlier: p99 moves to it, clamped to the exact max.
        h.record_us(987_654);
        assert_eq!(h.snapshot().max_us, 987_654);
        assert!(h.quantile_us(1.0) == 987_654);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for (i, v) in [3u64, 77, 1000, 12, 65_537, 4, 900].iter().enumerate() {
            if i % 2 == 0 { &a } else { &b }.record_us(*v);
            all.record_us(*v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    }

    #[test]
    fn registry_names_are_stable_and_shared() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("serve.requests");
        c.incr();
        reg.counter("serve.requests").add(2);
        assert_eq!(c.get(), 3);
        reg.histogram("serve.query_us").record(Duration::from_micros(42));
        reg.counter("a.first");
        let names: Vec<String> = reg.counters().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["a.first", "serve.requests"]);
        let hists = reg.histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].1.count, 1);

        let other = MetricsRegistry::new();
        other.counter("serve.requests").add(10);
        other.histogram("client.query_us").record_us(5);
        reg.merge_from(&other);
        assert_eq!(reg.counter("serve.requests").get(), 13);
        assert_eq!(reg.histograms().len(), 2);
    }
}
