//! Log-bucketed, fixed-memory, mergeable latency histograms.
//!
//! A [`Histogram`] is 64 power-of-two buckets of atomic counters: sample `v`
//! lands in bucket `⌈log2(v+1)⌉`, so bucket 0 holds exactly the zeros and
//! bucket `i` holds `[2^(i-1), 2^i)`. Recording is a handful of relaxed
//! atomic adds — cheap enough to sit on every RPC — and memory is constant
//! regardless of sample count. Snapshots are plain `u64` arrays that can be
//! merged (for per-thread recording) and diffed (for per-query windows), and
//! quantiles are answered from the bucket boundaries: `p99` of a log-bucketed
//! histogram is exact to within one power of two, which is all the paper's
//! tail-latency plots need.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets; covers the full `u64` range.
pub const NUM_BUCKETS: usize = 64;

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros(v)` capped.
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(NUM_BUCKETS - 1)
}

/// Inclusive upper bound of a bucket (used as the quantile estimate).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Concurrent log-bucketed histogram. All updates are relaxed atomics; any
/// thread may record while another snapshots.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Per-bucket exemplar: the TraceId of the latest sample recorded into
    /// that bucket via [`record_with_exemplar`](Self::record_with_exemplar)
    /// (0 = none). Lets a tail quantile link to one concrete trace.
    exemplars: [AtomicU64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// An exemplar-bearing bucket: its inclusive upper bound, its current sample
/// count, and the TraceId of the latest exemplar-carrying sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketExemplar {
    pub upper: u64,
    pub count: u64,
    pub trace_id: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample (conventionally microseconds).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record one sample and, when `trace_id` is non-zero, remember it as
    /// the sample's bucket's exemplar (latest write wins). This is how
    /// `rpc_p99` links to a concrete exportable trace.
    pub fn record_with_exemplar(&self, v: u64, trace_id: u64) {
        self.record(v);
        if trace_id != 0 {
            self.exemplars[bucket_index(v)].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Every exemplar-bearing bucket, in ascending bucket order (so output
    /// derived from this is deterministic for a given state).
    pub fn exemplars(&self) -> Vec<BucketExemplar> {
        (0..NUM_BUCKETS)
            .filter_map(|i| {
                let trace_id = self.exemplars[i].load(Ordering::Relaxed);
                if trace_id == 0 {
                    return None;
                }
                Some(BucketExemplar {
                    upper: bucket_upper(i),
                    count: self.buckets[i].load(Ordering::Relaxed),
                    trace_id,
                })
            })
            .collect()
    }

    /// The exemplar of the highest exemplar-bearing bucket — the TraceId
    /// most representative of the tail (0 = none recorded).
    pub fn latest_tail_exemplar(&self) -> u64 {
        self.exemplars().last().map(|e| e.trace_id).unwrap_or(0)
    }

    /// Fold another histogram's snapshot into this one (per-thread merge).
    pub fn merge(&self, other: &HistogramSnapshot) {
        for (i, &n) in other.buckets.iter().enumerate() {
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
        self.max.fetch_max(other.max, Ordering::Relaxed);
    }

    /// Frozen copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket (between experiment runs).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for e in &self.exemplars {
            e.store(0, Ordering::Relaxed);
        }
    }
}

/// Frozen view of a [`Histogram`]: plain numbers, freely copyable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; NUM_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Combine two snapshots sample-for-sample (associative + commutative, so
    /// per-thread histograms merge into exactly the single-threaded result).
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
        }
    }

    /// Samples recorded since `earlier`. Saturating, so a `reset()` between
    /// the snapshots yields zeros instead of a debug-build panic. `max` keeps
    /// the high-water mark (a maximum cannot be windowed by subtraction).
    pub fn delta_since(&self, earlier: &Self) -> Self {
        Self {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Estimate the `q`-quantile (`0.0 < q <= 1.0`): the upper bound of the
    /// bucket holding the `⌈q·count⌉`-th smallest sample, clamped to the
    /// observed maximum so a single-valued distribution reports exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// One-line human summary: `count=… p50=… p95=… p99=… max=…`.
    pub fn summary(&self) -> String {
        format!(
            "count={} p50={} p95={} p99={} max={}",
            self.count,
            self.p50(),
            self.p95(),
            self.p99(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // Every bucket's upper bound maps back into that bucket.
        for i in 1..NUM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_of_uniform_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // Log-bucketed: p50 of 1..=1000 is in [500, 1000).
        let p50 = s.p50();
        assert!((500..1000).contains(&p50), "p50={p50}");
        assert!(s.p99() >= s.p95() && s.p95() >= s.p50());
        assert_eq!(s.quantile(1.0), 1000.min(s.max));
    }

    #[test]
    fn single_valued_distribution_is_exact() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(5000);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 5000);
        assert_eq!(s.p99(), 5000);
        assert_eq!(s.max, 5000);
    }

    #[test]
    fn merge_equals_single_threaded_recording() {
        let samples: Vec<u64> = (0..4000u64).map(|i| (i * 2654435761) % 100_000).collect();
        let single = Histogram::new();
        for &v in &samples {
            single.record(v);
        }
        // Same samples split across 8 per-thread histograms, recorded
        // concurrently, then merged.
        let merged = std::thread::scope(|scope| {
            let handles: Vec<_> = samples
                .chunks(500)
                .map(|chunk| {
                    scope.spawn(move || {
                        let h = Histogram::new();
                        for &v in chunk {
                            h.record(v);
                        }
                        h.snapshot()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold(HistogramSnapshot::default(), |acc, s| acc.merge(&s))
        });
        assert_eq!(merged, single.snapshot());
    }

    #[test]
    fn delta_since_saturates_across_reset() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.reset();
        h.record(30);
        let delta = h.snapshot().delta_since(&before);
        // No panic, and no underflow wraparound.
        assert_eq!(delta.count, 0);
        assert!(delta.buckets.iter().all(|&b| b <= 1));
    }

    #[test]
    fn concurrent_recording_into_one_histogram() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 8000);
    }

    #[test]
    fn exemplars_remember_latest_trace_per_bucket() {
        let h = Histogram::new();
        h.record_with_exemplar(10, 0xa); // bucket for 10
        h.record_with_exemplar(12, 0xb); // same bucket: overwrites
        h.record_with_exemplar(5000, 0xc); // higher bucket
        h.record_with_exemplar(7, 0); // zero trace_id: counted, no exemplar
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        // Ascending bucket order, deterministically.
        assert!(ex[0].upper < ex[1].upper);
        assert_eq!(ex[0].trace_id, 0xb, "latest write wins within a bucket");
        assert_eq!(ex[1].trace_id, 0xc);
        assert_eq!(ex[0].count, 2, "10 and 12 share the [8,16) bucket");
        assert_eq!(h.latest_tail_exemplar(), 0xc);
        assert_eq!(h.snapshot().count, 4);
        h.reset();
        assert!(h.exemplars().is_empty());
        assert_eq!(h.latest_tail_exemplar(), 0);
    }

    #[test]
    fn empty_histogram() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
