//! Fixed-bucket log₂ histograms.
//!
//! The whole observability stack standardises on one histogram shape: 64
//! power-of-two buckets over `u64` magnitudes, plus an exact `count` and
//! `sum`. The type is `Copy` (520 bytes) so per-thread scratch lives on the
//! stack of the chunk hot path and folds into the shared registry without a
//! single allocation — the same discipline as `MemoStats` in `mlr-memo`.
//!
//! Bucket `0` holds the value `0`; bucket `b > 0` covers `[2^(b-1), 2^b)`.
//! Percentiles are nearest-rank over bucket *lower bounds*, so a reported
//! percentile never exceeds any sample that landed in its bucket — late
//! (negative-slack) jobs can never round up to a positive slack, and a
//! single sample below a threshold stays below it.

/// Number of log₂ buckets. 64 covers the full `u64` range: bucket 63 is
/// `[2^62, u64::MAX]`.
pub const HIST_BUCKETS: usize = 64;

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`, saturating
/// at the top bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Lower bound of a bucket — the representative value percentiles report.
#[inline]
pub fn bucket_floor(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// A fixed-bucket log₂ histogram over `u64` magnitudes. `Copy`, fixed-size,
/// allocation-free; merging is element-wise addition.
#[derive(Clone, Copy, Debug)]
pub struct Histogram {
    /// Exact number of recorded samples.
    pub count: u64,
    /// Exact sum of recorded samples (saturating).
    pub sum: u64,
    /// Per-bucket sample counts.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    /// Exact arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile over bucket lower bounds; `p` in `[0, 1]`.
    /// Matches the rank convention the runtime's old sorted-vector
    /// percentile used: rank `round(p * (count - 1))`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_floor(index);
            }
        }
        bucket_floor(HIST_BUCKETS - 1)
    }
}

/// A signed histogram over seconds, at microsecond resolution: one log₂
/// histogram for negative magnitudes, one for non-negative. The runtime's
/// deadline-slack ledger uses this — it is bounded (fixed 2×520 bytes) no
/// matter how many jobs are decided, unlike the old 4096-sample ring.
#[derive(Clone, Copy, Debug, Default)]
pub struct SignedHistogram {
    /// Magnitudes of strictly negative samples, in microseconds.
    pub negative: Histogram,
    /// Non-negative samples, in microseconds.
    pub positive: Histogram,
}

impl SignedHistogram {
    /// An empty signed histogram.
    pub const fn new() -> Self {
        Self {
            negative: Histogram::new(),
            positive: Histogram::new(),
        }
    }

    /// Records a signed sample in seconds.
    #[inline]
    pub fn record_seconds(&mut self, seconds: f64) {
        let micros = (seconds.abs() * 1e6) as u64;
        if seconds < 0.0 {
            self.negative.record(micros);
        } else {
            self.positive.record(micros);
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.negative.count + self.positive.count
    }

    /// Element-wise merge.
    pub fn merge(&mut self, other: &SignedHistogram) {
        self.negative.merge(&other.negative);
        self.positive.merge(&other.positive);
    }

    /// Nearest-rank percentile in seconds, walking negatives (most negative
    /// first) then positives. Negative representatives use the bucket floor
    /// of the magnitude negated, so a late sample never reports as early.
    pub fn percentile_seconds(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * (total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        // Negative samples in ascending order = descending magnitude.
        for index in (0..HIST_BUCKETS).rev() {
            seen += self.negative.buckets[index];
            if seen > rank {
                return -(bucket_floor(index) as f64) * 1e-6;
            }
        }
        for (index, &n) in self.positive.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_floor(index) as f64 * 1e-6;
            }
        }
        bucket_floor(HIST_BUCKETS - 1) as f64 * 1e-6
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
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for b in 1..HIST_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_floor(b)), b);
            assert_eq!(bucket_index(bucket_floor(b + 1) - 1), b);
        }
    }

    #[test]
    fn percentile_is_a_lower_bound_and_monotone() {
        let mut h = Histogram::new();
        for v in [3u64, 17, 17, 120, 5000, 5000, 5000, 70_000] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        let p0 = h.percentile(0.0);
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        assert!(p0 <= p50 && p50 <= p99);
        // Lower-bound representatives never exceed the true max.
        assert!(p99 <= 70_000);
        // p0 shares the smallest sample's bucket.
        assert_eq!(p0, bucket_floor(bucket_index(3)));
    }

    #[test]
    fn signed_percentiles_order_negatives_first() {
        let mut s = SignedHistogram::new();
        s.record_seconds(-4.0);
        s.record_seconds(-0.5);
        s.record_seconds(2.0);
        s.record_seconds(8.0);
        assert_eq!(s.count(), 4);
        assert!(s.percentile_seconds(0.0) <= -2.0, "most negative first");
        assert!(s.percentile_seconds(1.0) > 0.0);
        // All-negative input can never report positive slack.
        let mut late = SignedHistogram::new();
        late.record_seconds(-0.001);
        assert!(late.percentile_seconds(0.5) <= 0.0);
        assert!(late.percentile_seconds(0.99) <= 0.0);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..1000u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.record(v * 37);
            all.record(v * 37);
        }
        a.merge(&b);
        assert_eq!(a.count, all.count);
        assert_eq!(a.sum, all.sum);
        assert_eq!(a.buckets, all.buckets);
        assert_eq!(a.percentile(0.9), all.percentile(0.9));
    }
}
