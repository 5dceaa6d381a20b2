//! Descriptive statistics, histograms and empirical CDFs.
//!
//! The evaluation section of the paper reports percentiles (P99 value-store
//! latency), cumulative distributions (Figure 16's query-latency CDF under
//! contention) and averages over many runs. These helpers back those
//! harnesses and are also used by the offload planner to summarise profiles.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes summary statistics over a sample. Returns a zeroed summary for
    /// an empty sample.
    pub fn of(sample: &[f64]) -> Self {
        if sample.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p99: 0.0,
            };
        }
        let count = sample.len();
        let mean = sample.iter().sum::<f64>() / count as f64;
        let var = sample.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Self {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(&sorted, 50.0),
            p99: percentile_sorted(&sorted, 99.0),
        }
    }
}

/// Linear-interpolated percentile of an already-sorted sample.
///
/// `p` is in percent (0–100). Values outside that range are clamped.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Linear-interpolated percentile of an unsorted sample.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&sorted, p)
}

/// An empirical cumulative distribution function built from a sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from a sample (copied and sorted internally).
    pub fn new(sample: &[f64]) -> Self {
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Self { sorted }
    }

    /// Fraction of observations ≤ `x`, in `[0, 1]`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // Number of elements <= x via binary search for the partition point.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile function); `q` in `[0, 1]`.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q * 100.0)
    }

    /// Emits `(x, F(x))` pairs at each distinct observation — the series a
    /// plotting tool would consume to draw the CDF curve of Figure 16.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` when the ECDF was built from an empty sample.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// A fixed-width histogram over `[lo, hi)` with `bins` buckets; values outside
/// the range are clamped into the first/last bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    ///
    /// # Panics
    /// Panics when `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f64).floor() as isize).clamp(0, bins as isize - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Running mean/variance accumulator (Welford's algorithm) used where samples
/// are produced in a stream, e.g. per-chunk timings during a long run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current population variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Current population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!(approx_eq(s.mean, 3.0, 1e-12));
        assert!(approx_eq(s.std_dev, 2.0f64.sqrt(), 1e-12));
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!(approx_eq(s.median, 3.0, 1e-12));
    }

    #[test]
    fn summary_of_empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert!(approx_eq(percentile_sorted(&sorted, 0.0), 10.0, 1e-12));
        assert!(approx_eq(percentile_sorted(&sorted, 100.0), 40.0, 1e-12));
        assert!(approx_eq(percentile_sorted(&sorted, 50.0), 25.0, 1e-12));
        assert!(approx_eq(
            percentile(&[40.0, 10.0, 30.0, 20.0], 50.0),
            25.0,
            1e-12
        ));
    }

    #[test]
    fn ecdf_eval_and_quantile() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(2.0), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert!(approx_eq(e.quantile(0.5), 2.5, 1e-12));
        let curve = e.curve();
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[3], (4.0, 1.0));
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.5, 3.0, 9.9, 25.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts()[0], 2); // -1.0 clamped, 0.5
        assert_eq!(h.counts()[4], 2); // 9.9, 25.0 clamped
    }

    #[test]
    fn running_matches_batch() {
        let sample = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut r = Running::new();
        for &x in &sample {
            r.push(x);
        }
        let s = Summary::of(&sample);
        assert_eq!(r.count(), sample.len() as u64);
        assert!(approx_eq(r.mean(), s.mean, 1e-12));
        assert!(approx_eq(r.std_dev(), s.std_dev, 1e-12));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_empty_panics() {
        percentile_sorted(&[], 50.0);
    }
}
