//! Lock-cheap metric primitives: counters, gauges, and fixed-bucket
//! latency histograms with percentile estimation.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap to clone and
//! are a no-op when obtained from a disabled recorder: every operation is
//! a single `Option` branch. When enabled they update atomics shared with
//! the registry, so hot paths never take a lock after the handle is
//! created.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Shared storage behind a [`Counter`].
#[derive(Debug, Default)]
pub(crate) struct CounterCell {
    value: AtomicU64,
}

impl CounterCell {
    pub(crate) fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Monotone event counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterCell>>);

impl Counter {
    /// A permanently disabled counter.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.add(n);
        }
    }

    /// Current count (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.value())
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// Shared storage behind a [`Gauge`]: an f64 stored as bits.
#[derive(Debug)]
pub(crate) struct GaugeCell {
    bits: AtomicU64,
}

impl Default for GaugeCell {
    fn default() -> Self {
        GaugeCell { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl GaugeCell {
    pub(crate) fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn update(&self, f: impl Fn(f64) -> f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn add(&self, delta: f64) {
        self.update(|v| v + delta);
    }
}

/// Last-value gauge handle (e.g. loss, queue depth, replay size).
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCell>>);

impl Gauge {
    /// A permanently disabled gauge.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Overwrites the gauge value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.set(v);
        }
    }

    /// Adds `delta` to the gauge (atomically, CAS loop).
    #[inline]
    pub fn add(&self, delta: f64) {
        if let Some(cell) = &self.0 {
            cell.add(delta);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn value(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.value())
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Buckets per power of two. Finer sub-bucketing tightens the relative
/// error of percentile estimates (~ 1 / (2 * SUB) of one octave).
const SUB: usize = 8;
/// Smallest representable exponent: values below 2^MIN_EXP land in bucket 0.
const MIN_EXP: i32 = -20; // ~ 1e-6
/// Largest representable exponent: values >= 2^(MAX_EXP+1) land in the top
/// bucket.
const MAX_EXP: i32 = 30; // ~ 1e9
/// Total bucket count.
pub(crate) const NUM_BUCKETS: usize = ((MAX_EXP - MIN_EXP + 1) as usize) * SUB;

/// Maps a sample to its bucket index.
fn bucket_index(v: f64) -> usize {
    if !(v.is_finite()) || v <= 0.0 {
        return 0;
    }
    let exp = v.log2().floor() as i32;
    if exp < MIN_EXP {
        return 0;
    }
    if exp > MAX_EXP {
        return NUM_BUCKETS - 1;
    }
    // frac in [1, 2): which of the SUB slices of this octave?
    let frac = v / (exp as f64).exp2();
    let sub = (((frac - 1.0) * SUB as f64) as usize).min(SUB - 1);
    ((exp - MIN_EXP) as usize) * SUB + sub
}

/// Upper bound of a bucket — the value reported for percentiles falling in
/// that bucket (a conservative estimate: never under-reports latency).
fn bucket_upper(idx: usize) -> f64 {
    let exp = MIN_EXP + (idx / SUB) as i32;
    let sub = (idx % SUB) as f64;
    (1.0 + (sub + 1.0) / SUB as f64) * (exp as f64).exp2()
}

/// Shared storage behind a [`Histogram`].
pub(crate) struct HistogramCell {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of samples, f64 bits updated by CAS.
    sum_bits: AtomicU64,
    /// Max sample, f64 bits updated by CAS.
    max_bits: AtomicU64,
}

impl std::fmt::Debug for HistogramCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramCell")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl HistogramCell {
    pub(crate) fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let v = v.max(0.0);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        cas_f64(&self.sum_bits, |s| s + v);
        cas_f64(&self.max_bits, |m| if v > m { v } else { m });
    }

    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    pub(crate) fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    pub(crate) fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in [0, 1]) as the upper bound of the
    /// bucket containing the sample of rank `ceil(q * count)`.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Never report above the true observed max.
                return bucket_upper(idx).min(self.max());
            }
        }
        self.max()
    }
}

fn cas_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        if next == cur {
            return;
        }
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Fixed-bucket log-scale histogram handle with percentile estimation.
///
/// Samples are dimensionless f64s; by convention the workspace records
/// latencies in **microseconds**. Relative estimation error is bounded by
/// the bucket width: 1/8 of an octave (< 12.5%).
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCell>>);

impl Histogram {
    /// A permanently disabled histogram.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.record(v);
        }
    }

    /// Records a duration as microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64() * 1e6);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.count())
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.sum())
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.mean())
    }

    /// Largest recorded sample.
    pub fn max(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.max())
    }

    /// Estimated `q`-quantile (`q` in [0, 1]); see type docs for error
    /// bounds.
    pub fn quantile(&self, q: f64) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.quantile(q))
    }

    /// Convenience percentile accessors.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_histogram() -> Histogram {
        Histogram(Some(Arc::new(HistogramCell::default())))
    }

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::noop();
        c.inc();
        c.add(10);
        assert_eq!(c.value(), 0);

        let g = Gauge::noop();
        g.set(3.0);
        assert_eq!(g.value(), 0.0);

        let h = Histogram::noop();
        h.record(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter(Some(Arc::new(CounterCell::default())));
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);

        let g = Gauge(Some(Arc::new(GaugeCell::default())));
        g.set(2.5);
        assert_eq!(g.value(), 2.5);
        g.add(-0.5);
        assert!((g.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0usize;
        let mut v = 1e-7;
        while v < 1e8 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
            v *= 1.07;
        }
    }

    #[test]
    fn bucket_upper_bounds_contain_their_values() {
        for v in [0.5, 1.0, 3.7, 100.0, 12345.6] {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "upper({idx}) < {v}");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) <= v * 1.0000001, "lower bound above {v}");
            }
        }
    }

    // Satellite requirement: percentile math vs hand-computed values.
    #[test]
    fn percentiles_match_hand_computed_uniform() {
        let h = live_histogram();
        // 1..=1000: exact p50 = 500, p95 = 950, p99 = 990.
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-6);
        assert_eq!(h.max(), 1000.0);
        // Bucket upper bounds over-estimate by at most 1/8 octave (12.5%).
        for (q, exact) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantile(q);
            assert!(est >= exact * 0.999, "q{q}: {est} < {exact}");
            assert!(est <= exact * 1.125 + 1e-9, "q{q}: {est} too far above {exact}");
        }
    }

    #[test]
    fn percentiles_match_hand_computed_point_mass() {
        let h = live_histogram();
        for _ in 0..100 {
            h.record(42.0);
        }
        // Every quantile must land in 42's bucket; capped at the max.
        assert_eq!(h.quantile(0.01), 42.0);
        assert_eq!(h.p50(), 42.0);
        assert_eq!(h.p99(), 42.0);
    }

    #[test]
    fn percentiles_two_mass_distribution() {
        let h = live_histogram();
        // 90 samples at 1.0, 10 samples at 1000.0:
        // p50 -> 1.0's bucket, p95 and p99 -> 1000.0's bucket.
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..10 {
            h.record(1000.0);
        }
        assert!(h.p50() <= 1.125 + 1e-9);
        assert!(h.p95() >= 900.0);
        assert_eq!(h.p99(), 1000.0); // capped at observed max
    }

    #[test]
    fn histogram_ignores_nonfinite_and_clamps_negative() {
        let h = live_histogram();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        h.record(-5.0); // clamped to 0, still counted
        assert_eq!(h.count(), 1);
    }
}
