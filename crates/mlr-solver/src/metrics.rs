//! Reconstruction-quality metrics and convergence histories.
//!
//! * `E = ‖R_comp − R_LB‖_F / ‖R_comp‖_F` (paper Eq. 4) compares the
//!   memoized reconstruction against the exact one; `Accuracy = 1 − E`
//!   (Eq. 5) is what Table 1 sweeps over τ.
//! * [`ConvergenceHistory`] records the per-iteration objective value and
//!   phase timings that Figures 2 and 17 plot.

use mlr_math::norms;
use mlr_math::Array3;
use serde::{Deserialize, Serialize};

/// The paper's accuracy metric: `1 − ‖reference − candidate‖_F / ‖reference‖_F`.
pub fn accuracy_vs_reference(reference: &Array3<f64>, candidate: &Array3<f64>) -> f64 {
    norms::accuracy(reference, candidate)
}

/// Per-iteration record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Outer ADMM iteration index.
    pub iteration: usize,
    /// Objective `½‖Lu − d‖² + α·TV(u)` over two iterates: the last
    /// gradient's [`Self::data_loss`] plus `α·TV` of the clamped final one.
    pub loss: f64,
    /// `½‖Lu − d‖²` from the last LSP gradient: at the iterate before the
    /// final CG step and before the non-negativity clamp.
    pub data_loss: f64,
    /// Wall-clock seconds of the LSP phase (inner steps and clamp).
    pub lsp_seconds: f64,
    /// Wall-clock seconds of the rest of the iteration: the one pass that
    /// updates the dual field and sums the residuals and the TV, then the ρ rule.
    pub rsp_seconds: f64,
    /// Always 0: the λ update runs in [`Self::rsp_seconds`]'s pass.
    pub lambda_seconds: f64,
    /// Always 0: the penalty update is timed in [`Self::rsp_seconds`].
    pub penalty_seconds: f64,
}

impl IterationRecord {
    /// Total wall-clock of the iteration.
    pub fn total_seconds(&self) -> f64 {
        self.lsp_seconds + self.rsp_seconds + self.lambda_seconds + self.penalty_seconds
    }
}

/// Convergence history of one ADMM run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceHistory {
    records: Vec<IterationRecord>,
}

impl ConvergenceHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one iteration record.
    pub fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// All records in iteration order.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// The loss series `(iteration, loss)` — the curve of Figure 17.
    pub fn loss_series(&self) -> Vec<(usize, f64)> {
        self.records.iter().map(|r| (r.iteration, r.loss)).collect()
    }

    /// Final loss (`None` for an empty history).
    pub fn final_loss(&self) -> Option<f64> {
        self.records.last().map(|r| r.loss)
    }

    /// Fraction of the total time spent in the LSP phase (the paper reports
    /// more than 67 %).
    pub fn lsp_fraction(&self) -> f64 {
        let total: f64 = self.records.iter().map(|r| r.total_seconds()).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.records.iter().map(|r| r.lsp_seconds).sum::<f64>() / total
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no iterations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::{Array3, Shape3};

    fn record(it: usize, loss: f64, lsp: f64) -> IterationRecord {
        IterationRecord {
            iteration: it,
            loss,
            data_loss: loss * 0.8,
            lsp_seconds: lsp,
            rsp_seconds: 0.1,
            lambda_seconds: 0.05,
            penalty_seconds: 0.05,
        }
    }

    #[test]
    fn accuracy_of_identical_volumes_is_one() {
        let a = Array3::filled(Shape3::cube(4), 1.5);
        assert_eq!(accuracy_vs_reference(&a, &a.clone()), 1.0);
    }

    #[test]
    fn history_series_and_fractions() {
        let mut h = ConvergenceHistory::new();
        h.push(record(0, 10.0, 1.0));
        h.push(record(1, 5.0, 1.0));
        h.push(record(2, 2.0, 1.0));
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert_eq!(h.final_loss(), Some(2.0));
        assert_eq!(h.loss_series()[1], (1, 5.0));
        let lsp_frac = h.lsp_fraction();
        assert!((lsp_frac - 1.0 / 1.2).abs() < 1e-12);
        assert!((h.records()[2].total_seconds() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn empty_history() {
        let h = ConvergenceHistory::new();
        assert_eq!(h.final_loss(), None);
        assert_eq!(h.lsp_fraction(), 0.0);
        assert!(h.is_empty());
    }
}
