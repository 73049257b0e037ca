//! Hot-path metrics: counters, gauges, and log-linear histograms, all
//! lock-free to update and mergeable across threads, collected in a
//! per-thread registry keyed by dotted names
//! (`subsystem.component.metric`, e.g. `engine.buffer.hits`).
//!
//! Components that already own per-instance statistics (the buffer pool's
//! `BufferPoolStats`) keep their own `Arc<Counter>`s and *attach* them to
//! the registry: a snapshot sums the owned value plus every live attached
//! instance, so per-instance accessors and registry totals stay consistent
//! without double bookkeeping.
//!
//! # Ownership
//!
//! The registry — which names exist and which instances are attached —
//! belongs to the thread that drives a run, like the recorder (see
//! [`crate::recorder`](mod@crate::recorder)); a spawned thread starts with an empty one and
//! inherits nothing. The metrics themselves are atomics behind `Arc`s:
//! a handle looked up on the driving thread may be updated from any
//! worker and still lands in the driver's snapshot.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous level (queue depth, resident pages) with a tracked
/// high watermark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    hwm: AtomicI64,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.hwm.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` and returns the new value.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        let new = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.hwm.fetch_max(new, Ordering::Relaxed);
        new
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever set.
    #[inline]
    pub fn high_watermark(&self) -> i64 {
        self.hwm.load(Ordering::Relaxed)
    }

    /// Resets level and watermark to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.hwm.store(0, Ordering::Relaxed);
    }
}

/// Values below this are their own bucket (exact small-value resolution).
const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per power of two above the linear range.
const SUBBUCKETS: usize = 16;
/// log2 of `LINEAR_CUTOFF`.
const MIN_EXP: u32 = 4;
/// Total bucket count: 16 linear + 16 per exponent for exponents 4..=63.
pub const NUM_BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - MIN_EXP as usize) * SUBBUCKETS;

/// Maps a value to its bucket index. Relative error is bounded by 1/16
/// (one sub-bucket) everywhere above the linear range, exact below it.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - MIN_EXP)) & (SUBBUCKETS as u64 - 1)) as usize;
    LINEAR_CUTOFF as usize + ((exp - MIN_EXP) as usize) * SUBBUCKETS + sub
}

/// The smallest value that maps to bucket `idx` (used as the quantile
/// representative, so reported quantiles are conservative lower bounds).
#[inline]
fn bucket_lower(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_CUTOFF as usize;
    let exp = MIN_EXP + (rel / SUBBUCKETS) as u32;
    let sub = (rel % SUBBUCKETS) as u64;
    (1u64 << exp) + (sub << (exp - MIN_EXP))
}

/// A log-linear histogram of `u64` samples: exact below 16, then 16
/// sub-buckets per power of two (≤6.25% relative bucket width). Updates
/// are a single relaxed `fetch_add`; histograms merge bucket-wise, so
/// per-thread instances can be combined after a parallel section.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating only at u64 wrap, which the
    /// workloads here never approach).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the lower bound
    /// of the containing bucket (within 6.25% of the true rank value).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_lower(idx);
            }
        }
        self.max()
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs in value
    /// order — the raw shape a telemetry lakehouse ingests, as opposed
    /// to the point-quantile [`HistogramSummary`].
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_lower(idx), n))
            })
            .collect()
    }

    /// Adds all of `other`'s samples into `self`, bucket-wise.
    pub fn merge(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v != 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        if other.count() > 0 {
            self.min
                .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
            self.max.fetch_max(other.max(), Ordering::Relaxed);
        }
    }

    /// Clears all samples.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket lower bound).
    pub p50: u64,
    /// 90th percentile (bucket lower bound).
    pub p90: u64,
    /// 99th percentile (bucket lower bound).
    pub p99: u64,
}

/// Point-in-time view of every registered metric, name-sorted so
/// rendering it is deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals (owned value + live attached instances).
    pub counters: Vec<(String, u64)>,
    /// Gauge `(current, high-watermark)` pairs.
    pub gauges: Vec<(String, i64, i64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistogramSummary)>,
}

struct CounterSlot {
    owned: Arc<Counter>,
    attached: Vec<Weak<Counter>>,
}

struct RegistryInner {
    counters: BTreeMap<String, CounterSlot>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

thread_local! {
    static REGISTRY: RefCell<RegistryInner> = const {
        RefCell::new(RegistryInner {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        })
    };
}

/// A handle to the calling thread's metrics registry. Obtain it with
/// [`metrics()`]. It is not `Send`: it names the state of the thread
/// that asked for it.
#[derive(Clone, Copy)]
pub struct Registry {
    _thread_owned: PhantomData<*const ()>,
}

/// The calling thread's registry.
#[inline]
pub fn metrics() -> Registry {
    Registry {
        _thread_owned: PhantomData,
    }
}

impl Registry {
    /// The counter registered under `name`, created on first use. Clone
    /// the `Arc` once at setup and update through it on hot paths — the
    /// lookup allocates the name and walks the map.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        REGISTRY.with_borrow_mut(|inner| {
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| CounterSlot {
                    owned: Arc::new(Counter::new()),
                    attached: Vec::new(),
                })
                .owned
                .clone()
        })
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        REGISTRY.with_borrow_mut(|inner| {
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new()))
                .clone()
        })
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        REGISTRY.with_borrow_mut(|inner| {
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new()))
                .clone()
        })
    }

    /// Attaches an externally-owned counter under `name`: snapshots sum
    /// it with the owned counter while the `Arc` stays alive. This is
    /// how per-instance stats (one buffer pool among several) feed the
    /// registry totals without giving up their own accessors.
    pub fn attach_counter(&self, name: &str, counter: &Arc<Counter>) {
        REGISTRY.with_borrow_mut(|inner| {
            let slot = inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| CounterSlot {
                    owned: Arc::new(Counter::new()),
                    attached: Vec::new(),
                });
            slot.attached.retain(|w| w.strong_count() > 0);
            slot.attached.push(Arc::downgrade(counter));
        });
    }

    /// A name-sorted snapshot of every metric. Counter totals include
    /// attached instances.
    pub fn snapshot(&self) -> MetricsSnapshot {
        REGISTRY.with_borrow(|inner| {
            let counters = inner
                .counters
                .iter()
                .map(|(name, slot)| {
                    let total: u64 = slot.owned.get()
                        + slot
                            .attached
                            .iter()
                            .filter_map(|w| w.upgrade())
                            .map(|c| c.get())
                            .sum::<u64>();
                    (name.clone(), total)
                })
                .collect();
            let gauges = inner
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get(), g.high_watermark()))
                .collect();
            let histograms = inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), summarize(h)))
                .collect();
            MetricsSnapshot {
                counters,
                gauges,
                histograms,
            }
        })
    }

    /// The non-empty buckets of every registered histogram, name-sorted:
    /// `(name, [(bucket_lower, count), …])`. This is the raw-bucket feed
    /// for the telemetry lakehouse, which wants rows rather than
    /// pre-digested quantiles.
    pub fn histogram_buckets(&self) -> Vec<(String, Vec<(u64, u64)>)> {
        REGISTRY.with_borrow(|inner| {
            inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.nonzero_buckets()))
                .collect()
        })
    }

    /// Removes every metric and attachment. Components re-create their
    /// metrics on next use, so this is safe between runs.
    pub fn clear(&self) {
        REGISTRY.with_borrow_mut(|inner| {
            inner.counters.clear();
            inner.gauges.clear();
            inner.histograms.clear();
        });
    }
}

fn summarize(h: &Histogram) -> HistogramSummary {
    HistogramSummary {
        count: h.count(),
        sum: h.sum(),
        min: h.min(),
        max: h.max(),
        mean: h.mean(),
        p50: h.quantile(0.50),
        p90: h.quantile(0.90),
        p99: h.quantile(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(3);
        g.add(4);
        g.add(-5);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_watermark(), 7);
    }

    #[test]
    fn bucket_index_is_exact_below_cutoff() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
    }

    #[test]
    fn bucket_lower_inverts_bucket_index() {
        // The lower bound of every bucket must map back to that bucket,
        // and bucket boundaries must be monotone.
        let mut prev = 0;
        for idx in 0..NUM_BUCKETS {
            let lo = bucket_lower(idx);
            assert_eq!(bucket_index(lo), idx, "idx={idx} lo={lo}");
            if idx > 0 {
                assert!(lo > prev || idx <= LINEAR_CUTOFF as usize, "idx={idx}");
            }
            prev = lo;
        }
        // Extremes land in the first and last bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for v in [17u64, 100, 999, 12_345, 1 << 20, (1 << 40) + 12_345] {
            let lo = bucket_lower(bucket_index(v));
            assert!(lo <= v);
            let err = (v - lo) as f64 / v as f64;
            assert!(err <= 1.0 / 16.0, "v={v} lo={lo} err={err}");
        }
    }

    #[test]
    fn histogram_quantiles_bracket_true_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // Quantiles are bucket lower bounds: within 6.25% below the true value.
        let p50 = h.quantile(0.5);
        assert!(
            p50 <= 500 && p50 as f64 >= 500.0 * (1.0 - 1.0 / 16.0),
            "p50={p50}"
        );
        let p99 = h.quantile(0.99);
        assert!(
            p99 <= 990 && p99 as f64 >= 990.0 * (1.0 - 1.0 / 16.0),
            "p99={p99}"
        );
        assert_eq!(h.quantile(0.0), h.quantile(1.0 / 1000.0));
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            combined.record(v * 3);
        }
        for v in 0..500u64 {
            b.record(v * 7 + 1);
            combined.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.sum(), combined.sum());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), combined.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_empty_keeps_min_sentinel() {
        let a = Histogram::new();
        let empty = Histogram::new();
        a.record(42);
        a.merge(&empty);
        assert_eq!(a.min(), 42);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn registry_interns_and_snapshots() {
        let reg = metrics();
        let c1 = reg.counter("x.hits");
        let c2 = reg.counter("x.hits");
        c1.add(3);
        c2.add(2);
        assert_eq!(c1.get(), 5, "same name returns same counter");

        let external = Arc::new(Counter::new());
        external.add(10);
        reg.attach_counter("x.hits", &external);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("x.hits".to_string(), 15)]);

        // Dropping the external instance removes its contribution.
        drop(external);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("x.hits".to_string(), 5)]);
    }

    #[test]
    fn registry_snapshot_is_name_sorted() {
        let reg = metrics();
        reg.counter("z.last");
        reg.counter("a.first");
        reg.gauge("m.mid").set(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "z.last");
        assert_eq!(snap.gauges, vec![("m.mid".to_string(), 7, 7)]);
    }

    #[test]
    fn nonzero_buckets_round_trip_through_bucket_lower() {
        let h = Histogram::new();
        for v in [0u64, 3, 3, 100, 100, 100, 50_000] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), h.count());
        // Lower bounds are sorted, unique, and map back to their bucket.
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for &(lo, _) in &buckets {
            assert_eq!(bucket_lower(bucket_index(lo)), lo);
        }
        // Exact small values keep exact buckets.
        assert!(buckets.contains(&(0, 1)));
        assert!(buckets.contains(&(3, 2)));
        assert!(Histogram::new().nonzero_buckets().is_empty());
    }

    #[test]
    fn registry_histograms_reach_snapshot_and_buckets() {
        let reg = metrics();
        let h = reg.histogram("lat");
        for v in [5, 5, 9] {
            h.record(v);
        }
        assert_eq!(
            reg.histogram_buckets(),
            vec![("lat".to_string(), vec![(5, 2), (9, 1)])]
        );
        let snap = reg.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(
            (snap.histograms[0].1.count, snap.histograms[0].1.sum),
            (3, 19)
        );
    }
}
