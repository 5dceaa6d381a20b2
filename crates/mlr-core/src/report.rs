//! Experiment reports.

use mlr_memo::MemoStats;
use serde::{Deserialize, Serialize};

/// Projection of the measured behaviour onto one of the paper's problem
/// sizes using the hardware cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperScaleProjection {
    /// Cubic problem dimension (1024, 1536, 2048).
    pub n: usize,
    /// Simulated seconds per ADMM iteration of the exact Algorithm-2 run.
    pub original_seconds: f64,
    /// Simulated seconds per ADMM iteration of the memoized Algorithm-2 run.
    pub mlr_seconds: f64,
    /// `mlr_seconds / original_seconds`: Figure 8's normalized time, with
    /// memoization as the only difference (the paper's baseline is
    /// Algorithm 1).
    pub normalized_time: f64,
}

impl PaperScaleProjection {
    /// Performance improvement as a percentage (the paper reports 34.6–65.4 %
    /// against Algorithm 1).
    pub fn improvement_percent(&self) -> f64 {
        100.0 * (1.0 - self.normalized_time)
    }
}

/// What [`crate::MlrPipeline::check_exact`] judges an exact reference by.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExactQuality {
    /// Final loss ÷ first-iteration loss.
    pub loss_drop: f64,
    /// Relative error of the reconstruction against the ground truth.
    pub err_vs_truth: f64,
}

/// Result of running the exact and memoized pipelines on the same problem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlrReport {
    /// Why the exact run failed [`crate::MlrPipeline::check_exact`];
    /// `None` when it passed. Every other number here compares against that
    /// run, so it means nothing unless this is `None`.
    pub invalid_reason: Option<String>,
    /// Reconstruction accuracy of the memoized run against the exact run
    /// (paper Eq. 5).
    pub accuracy: f64,
    /// Fraction of memoizable FFT invocations whose computation was avoided.
    pub avoided_fraction: f64,
    /// Distribution of the three memoization cases (failed, db hit, cache
    /// hit) over all memoizable invocations.
    pub case_distribution: (f64, f64, f64),
    /// Wall-clock seconds of the exact run's FFT computations.
    pub exact_compute_seconds: f64,
    /// Wall-clock seconds of the memoized run's FFT computations.
    pub memo_compute_seconds: f64,
    /// Loss curve of the exact run.
    pub exact_loss: Vec<(usize, f64)>,
    /// Loss curve of the memoized run.
    pub memo_loss: Vec<(usize, f64)>,
    /// Full memoization statistics of the memoized run.
    pub memo_stats: MemoStats,
    /// Hit rate of the compute-node memoization cache.
    pub cache_hit_rate: f64,
    /// Final size of the memoization *value* database in bytes — the stored
    /// FFT results only, half of what the store keeps resident.
    pub db_bytes: u64,
    /// Final resident bytes of the memoization store: the values plus the
    /// raw input each entry keeps for the τ gate (what a byte budget caps).
    pub db_resident_bytes: u64,
}

impl MlrReport {
    /// Whether the exact reference passed
    /// [`crate::MlrPipeline::check_exact`].
    pub fn valid(&self) -> bool {
        self.invalid_reason.is_none()
    }

    /// Fraction of FFT compute wall-clock saved by memoization in the actual
    /// (laptop-scale) runs.
    pub fn compute_saving(&self) -> f64 {
        if self.exact_compute_seconds <= 0.0 {
            return 0.0;
        }
        (1.0 - self.memo_compute_seconds / self.exact_compute_seconds).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_improvement() {
        let p = PaperScaleProjection {
            n: 1024,
            original_seconds: 68.0,
            mlr_seconds: 44.5,
            normalized_time: 44.5 / 68.0,
        };
        assert!((p.improvement_percent() - 34.6).abs() < 1.0);
    }

    #[test]
    fn compute_saving_guards_zero() {
        let r = MlrReport {
            invalid_reason: None,
            accuracy: 1.0,
            avoided_fraction: 0.0,
            case_distribution: (0.0, 0.0, 0.0),
            exact_compute_seconds: 0.0,
            memo_compute_seconds: 0.0,
            exact_loss: vec![],
            memo_loss: vec![],
            memo_stats: MemoStats::new(),
            cache_hit_rate: 0.0,
            db_bytes: 0,
            db_resident_bytes: 0,
        };
        assert_eq!(r.compute_saving(), 0.0);
    }
}
