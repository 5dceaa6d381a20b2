//! The validity gate: what makes a reconstruction count as correct.
//!
//! A speed-up over a reference that diverged is a speed-up over a volume of
//! zeros (the non-negativity clamp turns a diverged iterate into exactly
//! that), so every exact reference must have converged to something before
//! any number measured against it means anything.

use mlr_core::MlrPipeline;
use mlr_math::norms::relative_error;
use mlr_math::Array3;
use mlr_solver::AdmmResult;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An exact reference must shrink its loss below this share of the first
/// iteration's ...
pub const MAX_EXACT_LOSS_DROP: f64 = 0.05;
/// ... and end closer than this (relative error) to the phantom it was
/// simulated from; the all-zero volume scores 1.
pub const MAX_EXACT_ERR_VS_TRUTH: f64 = 0.75;

/// The two numbers the gate judges an exact reference by.
pub struct ExactQuality {
    /// Final loss ÷ first-iteration loss.
    pub loss_drop: f64,
    /// Relative error of the reconstruction against the ground truth.
    pub err_vs_truth: f64,
}

/// Why a reconstruction does not count.
pub enum Failure {
    /// It did not complete: a panic, a job that was not admitted or did not
    /// resolve `Completed`. Counted in `failed`.
    Failed(String),
    /// It completed with an output that fails a check. Counted in `failed`
    /// and makes the pass incorrect.
    Wrong(String),
}

fn wrong<T>(why: String) -> Result<T, Failure> {
    Err(Failure::Wrong(why))
}

/// Runs one reconstruction, turning a panic into a reportable failure.
pub fn guarded<T>(what: &str, run: impl FnOnce() -> T) -> Result<T, Failure> {
    catch_unwind(AssertUnwindSafe(run)).map_err(|_| Failure::Failed(format!("{what} panicked")))
}

/// A volume that is finite and not all zero.
pub fn check_volume(what: &str, volume: &Array3<f64>) -> Result<(), Failure> {
    let values = volume.as_slice();
    if values.iter().any(|v| !v.is_finite()) {
        return wrong(format!("{what} has non-finite voxels"));
    }
    if values.iter().all(|&v| v == 0.0) {
        return wrong(format!("{what} is all zero"));
    }
    Ok(())
}

/// The gate on an exact reference of `pipeline`.
pub fn check_exact(pipeline: &MlrPipeline, exact: &AdmmResult) -> Result<ExactQuality, Failure> {
    check_volume("exact reference", &exact.reconstruction)?;
    let losses = exact.history.loss_series();
    let (first, last) = match (losses.first(), losses.last()) {
        (Some(&(_, first)), Some(&(_, last))) => (first, last),
        _ => return wrong("exact reference recorded no iterations".into()),
    };
    let quality = ExactQuality {
        loss_drop: last / first,
        err_vs_truth: relative_error(&pipeline.dataset().ground_truth, &exact.reconstruction),
    };
    // A NaN is not within any limit.
    let within = |value: f64, limit: f64| value.is_finite() && value < limit;
    if !within(quality.loss_drop, MAX_EXACT_LOSS_DROP) {
        return wrong(format!(
            "exact reference did not converge: final/first loss {:.4} (limit {MAX_EXACT_LOSS_DROP})",
            quality.loss_drop
        ));
    }
    if !within(quality.err_vs_truth, MAX_EXACT_ERR_VS_TRUTH) {
        return wrong(format!(
            "exact reference is far from the phantom: relative error {:.3} (limit {MAX_EXACT_ERR_VS_TRUTH})",
            quality.err_vs_truth
        ));
    }
    Ok(quality)
}

/// With memoization switched off the memoized entry point must reproduce
/// `run_exact` bit for bit; otherwise the two timings compare different
/// arithmetic.
pub fn check_disabled_memo_is_exact(
    pipeline: &MlrPipeline,
    exact: &AdmmResult,
) -> Result<(), Failure> {
    let disabled = MlrPipeline::new(pipeline.config().with_memoization(false));
    let (result, _) = guarded("memoization-off run", || disabled.run_memoized())?;
    if same_bits(&result.reconstruction, &exact.reconstruction) {
        Ok(())
    } else {
        wrong("run_memoized with memoization off differs from run_exact".into())
    }
}

/// Bit-for-bit equality (`==` on floats would call two NaNs different and
/// `0.0`/`-0.0` equal).
pub fn same_bits(a: &Array3<f64>, b: &Array3<f64>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_core::MlrConfig;

    /// Why the workloads pin `initial_step`: at the `quick` default of 0.05
    /// the exact solver diverges at 32³ and the clamp returns zeros. Run
    /// with `--release`; the debug build takes minutes.
    #[test]
    fn gate_trips_on_the_unpinned_quick_config() {
        let pipeline = MlrPipeline::new(MlrConfig::quick(32, 16));
        let exact = pipeline.run_exact();
        assert!(check_exact(&pipeline, &exact).is_err());
    }

    #[test]
    fn gate_passes_with_the_pinned_step() {
        let mut config = MlrConfig::quick(32, 16);
        config.admm.initial_step = 0.01;
        let pipeline = MlrPipeline::new(config);
        let exact = pipeline.run_exact();
        assert!(check_exact(&pipeline, &exact).is_ok());
        assert!(check_disabled_memo_is_exact(&pipeline, &exact).is_ok());
    }
}
