//! Percentiles and empirical CDFs.
//!
//! The evaluation section of the paper reports percentiles (P99 value-store
//! latency) and cumulative distributions (Figure 16's query-latency CDF under
//! contention). These helpers back those harnesses.

use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn percentile_interpolates() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert!(approx_eq(percentile_sorted(&sorted, 0.0), 10.0, 1e-12));
        assert!(approx_eq(percentile_sorted(&sorted, 100.0), 40.0, 1e-12));
        assert!(approx_eq(percentile_sorted(&sorted, 50.0), 25.0, 1e-12));
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
    #[should_panic(expected = "empty sample")]
    fn percentile_of_empty_panics() {
        percentile_sorted(&[], 50.0);
    }
}
