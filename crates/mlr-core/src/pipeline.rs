//! The end-to-end mLR pipeline.

use crate::config::MlrConfig;
use crate::report::{ExactQuality, MlrReport, PaperScaleProjection};
use mlr_lamino::{FftExecutor, LaminoDataset, LaminoGeometry, LaminoOperator};
use mlr_memo::{
    CapacityBudget, EncoderConfig, JobId, MemoConfig, MemoDb, MemoStore, MemoizedExecutor,
};
use mlr_sim::workload::{AdmmWorkload, ProblemSize};
use mlr_sim::CostModel;
use mlr_solver::{AdmmResult, AdmmSolver, CancelToken};
use std::sync::Arc;

/// An exact reference must shrink its loss below this share of the first
/// iteration's ...
pub const MAX_EXACT_LOSS_DROP: f64 = 0.05;
/// ... and end closer than this (relative error) to the phantom it was
/// simulated from; the all-zero volume scores 1.
pub const MAX_EXACT_ERR_VS_TRUTH: f64 = 0.75;

/// Outer iterations of memoizable chunk traffic a pipeline's memo store
/// holds by default: each `F_u2D` / `F*_u2D` chunk's raw input and value at
/// 8 B an element (`Complex32`, as [`CapacityBudget`] counts them), both
/// stages `n_inner` times an iteration. One iteration's worth made runs
/// erratic; two kept avoided work and accuracy at their unbounded values
/// from 24³ to 96³ (ROADMAP item 24).
pub const STORE_ITERATIONS: u64 = 2;

/// The end-to-end pipeline: dataset simulation, exact reconstruction,
/// memoized reconstruction, comparison and paper-scale projection.
pub struct MlrPipeline {
    config: MlrConfig,
    dataset: LaminoDataset,
    operator: LaminoOperator,
}

impl MlrPipeline {
    /// Builds the pipeline: simulates the dataset and constructs the
    /// laminography operator. An unbounded `config.memo.budget` becomes
    /// [`STORE_ITERATIONS`] outer iterations of the geometry's memoizable
    /// chunk traffic, so every store built from [`Self::config`] is bounded.
    pub fn new(mut config: MlrConfig) -> Self {
        let p = &config.problem;
        let geometry = LaminoGeometry::cube(p.n, p.n_angles, p.tilt_degrees);
        if !config.memo.budget.is_bounded() {
            let chunk_elems = geometry.u1_shape().len() + geometry.half_spectrum_shape().len();
            let iteration = 2 * config.admm.n_inner * chunk_elems * 8;
            config.memo.budget = CapacityBudget::bytes(STORE_ITERATIONS * iteration as u64);
        }
        let operator = LaminoOperator::new(geometry, config.chunk_size);
        let dataset = LaminoDataset::simulate_with(&operator, p.phantom, p.noise, p.seed);
        Self {
            config,
            dataset,
            operator,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MlrConfig {
        &self.config
    }

    /// The simulated dataset (phantom + projections).
    pub fn dataset(&self) -> &LaminoDataset {
        &self.dataset
    }

    /// The laminography operator.
    pub fn operator(&self) -> &LaminoOperator {
        &self.operator
    }

    /// Exists for `examples/benchmark`'s frozen call shapes (nothing else
    /// may call it); a `[benchmark]` PR removes it. A key is
    /// `mlr_memo::sketch` of its chunk: there is nothing to configure.
    pub fn encoder_config(&self) -> EncoderConfig {
        EncoderConfig
    }

    /// Builds a memo store compatible with this pipeline (same τ and the
    /// capacity budget of [`Self::config`], bounded by default), suitable
    /// for sharing across several pipelines/jobs.
    pub fn build_shared_store(&self) -> Arc<MemoDb> {
        self.build_shared_store_with(self.config.memo.budget)
    }

    /// Builds a memo store with an explicit capacity budget,
    /// overriding whatever the pipeline configuration carries — the entry
    /// point the budget-sweep harnesses use, and the only way to an
    /// unbounded store (`CapacityBudget::unbounded()`).
    pub fn build_shared_store_with(&self, budget: CapacityBudget) -> Arc<MemoDb> {
        let db_config = MemoConfig {
            budget,
            ..self.config.memo
        }
        .db_config();
        Arc::new(MemoDb::new(db_config))
    }

    /// Runs the exact (non-memoized) ADMM-FFT reconstruction.
    pub fn run_exact(&self) -> AdmmResult {
        let solver = AdmmSolver::new(self.config.admm);
        solver.run(&self.operator, &self.dataset.projections)
    }

    /// The validity gate on an exact reference: its volume is finite and
    /// not all zero, its loss fell below [`MAX_EXACT_LOSS_DROP`] of the
    /// first iteration's, and its relative error against the phantom is
    /// below [`MAX_EXACT_ERR_VS_TRUTH`]. A diverged solver trips it: the
    /// non-negativity clamp turns a diverged iterate into zeros, and a
    /// speed-up or an accuracy measured against zeros means nothing.
    pub fn check_exact(&self, exact: &AdmmResult) -> Result<ExactQuality, String> {
        let values = exact.reconstruction.as_slice();
        if values.iter().any(|v| !v.is_finite()) {
            return Err("exact reference has non-finite voxels".into());
        }
        if values.iter().all(|&v| v == 0.0) {
            return Err("exact reference is all zero".into());
        }
        let losses = exact.history.loss_series();
        let (Some(&(_, first)), Some(&(_, last))) = (losses.first(), losses.last()) else {
            return Err("exact reference recorded no iterations".into());
        };
        let quality = ExactQuality {
            loss_drop: last / first,
            err_vs_truth: 1.0
                - mlr_solver::accuracy_vs_reference(
                    &self.dataset.ground_truth,
                    &exact.reconstruction,
                ),
        };
        // A NaN is not within any limit.
        let within = |value: f64, limit: f64| value.is_finite() && value < limit;
        if !within(quality.loss_drop, MAX_EXACT_LOSS_DROP) {
            return Err(format!(
                "exact reference did not converge: final/first loss {:.4} (limit {MAX_EXACT_LOSS_DROP})",
                quality.loss_drop
            ));
        }
        if !within(quality.err_vs_truth, MAX_EXACT_ERR_VS_TRUTH) {
            return Err(format!(
                "exact reference is far from the phantom: relative error {:.3} (limit {MAX_EXACT_ERR_VS_TRUTH})",
                quality.err_vs_truth
            ));
        }
        Ok(quality)
    }

    /// Runs the memoized (mLR) reconstruction over a private store; returns
    /// the result and the executor holding all memoization statistics.
    pub fn run_memoized(&self) -> (AdmmResult, MemoizedExecutor) {
        let executor = self.memo_executor(self.build_shared_store(), 0);
        self.run_with_executor(executor, &CancelToken::new())
    }

    /// An executor for this pipeline over an injected (typically shared)
    /// memo store on behalf of job `job`: `config.memo` applied, nothing
    /// else. With a store shared between pipelines, FFT results memoized by
    /// one reconstruction are reused by the others. Chain
    /// `with_telemetry` for a recorder; it does not change the
    /// reconstruction.
    pub fn memo_executor(&self, store: Arc<dyn MemoStore>, job: JobId) -> MemoizedExecutor {
        MemoizedExecutor::with_store(self.config.memo, store, job)
    }

    /// Runs the memoized reconstruction through a caller-built executor —
    /// a [`MemoizedExecutor`], or a wrapper that observes one. The ADMM
    /// driver polls `cancel` at every iteration boundary, so a cancelled (or
    /// deadline-expired) job stops early and keeps the memo entries it
    /// already published available to every other tenant of a shared store;
    /// a token that never fires changes nothing.
    pub fn run_with_executor<E: FftExecutor>(
        &self,
        executor: E,
        cancel: &CancelToken,
    ) -> (AdmmResult, E) {
        let solver = AdmmSolver::new(self.config.admm);
        let result =
            solver.run_with_cancel(&self.operator, &self.dataset.projections, &executor, cancel);
        (result, executor)
    }

    /// Runs both pipelines and assembles the comparison report.
    pub fn run_comparison(&self) -> MlrReport {
        let exact = self.run_exact();
        let (memo, executor) = self.run_memoized();

        let accuracy =
            mlr_solver::accuracy_vs_reference(&exact.reconstruction, &memo.reconstruction);
        let stats = executor.stats();
        let exact_compute_seconds: f64 =
            exact.history.records().iter().map(|r| r.lsp_seconds).sum();
        let memo_compute_seconds: f64 = memo.history.records().iter().map(|r| r.lsp_seconds).sum();

        MlrReport {
            invalid_reason: self.check_exact(&exact).err(),
            accuracy,
            avoided_fraction: stats.total().avoided_fraction(),
            case_distribution: stats.case_distribution(),
            exact_compute_seconds,
            memo_compute_seconds,
            exact_loss: exact.history.loss_series(),
            memo_loss: memo.history.loss_series(),
            memo_stats: stats,
            cache_hit_rate: executor.cache_stats().hit_rate(),
            db_bytes: executor.db_value_bytes(),
            db_resident_bytes: executor.store().resident_bytes(),
        }
    }

    /// Projects the measured memoization behaviour onto one of the paper's
    /// problem sizes using the analytic cost model
    /// ([`AdmmWorkload::iteration`]). Both sides run Algorithm 2; the
    /// baseline is the exact run, every stage at its exposed price. mLR
    /// charges `F_u1D` the same, and each `F_u2D` chunk its
    /// [`AdmmWorkload::memo_chunk_seconds`] price weighed by the measured
    /// `(failed, db hit, cache hit)` shares of all chunks, the rest exact:
    /// only `F_u2D` / `F*_u2D` chunks reach the memo engine. So the
    /// projection measures memoization alone, not cancellation.
    pub fn project_to_paper_scale(
        &self,
        n: usize,
        case_distribution: (f64, f64, f64),
    ) -> PaperScaleProjection {
        let size = ProblemSize::cube(n, 16);
        let workload = AdmmWorkload::new(size);
        let cost = CostModel::polaris();
        let (fu1d, fu2d) = workload.exact_stages(&cost);
        let memo_fu2d = workload
            .memo_chunk_seconds(&cost, workload.fu2d_time(&cost))
            .expected(case_distribution)
            * size.num_chunks() as f64;
        let original_iter = workload.iteration(&cost, fu1d, fu2d);
        let mlr_iter = workload.iteration(&cost, fu1d, memo_fu2d);
        PaperScaleProjection {
            n,
            original_seconds: original_iter,
            mlr_seconds: mlr_iter,
            normalized_time: mlr_iter / original_iter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MlrConfig;

    fn tiny_pipeline(tau: f64) -> MlrPipeline {
        MlrPipeline::new(MlrConfig::quick(12, 8).with_tau(tau).with_iterations(6))
    }

    #[test]
    fn comparison_report_is_consistent() {
        let p = tiny_pipeline(0.92);
        let report = p.run_comparison();
        // Memoization must not destroy the reconstruction.
        assert!(report.accuracy > 0.8, "accuracy {}", report.accuracy);
        assert!(report.accuracy <= 1.0 + 1e-12);
        // Something was memoized across 6 iterations of a converging solver.
        assert!(report.avoided_fraction > 0.0, "nothing was reused");
        let (t, (f, d, c)) = (report.memo_stats.total(), report.case_distribution);
        let unprobed = (t.computed + t.prefiltered) as f64 / t.total() as f64;
        assert!((f + d + c + unprobed - 1.0).abs() < 1e-9);
        assert!(report.db_bytes > 0 && report.db_resident_bytes > report.db_bytes);
        // Loss curves recorded for both runs.
        assert_eq!(report.exact_loss.len(), 6);
        assert_eq!(report.memo_loss.len(), 6);
    }

    #[test]
    fn validity_gate_trips_on_a_diverged_reference() {
        let mut config = MlrConfig::quick(12, 8).with_iterations(4);
        config.admm.initial_step = 50.0;
        let p = MlrPipeline::new(config);
        let exact = p.run_exact();
        assert!(p.check_exact(&exact).is_err());
        assert!(!p.run_comparison().valid());
        let converging = tiny_pipeline(0.92);
        let quality = converging
            .check_exact(&converging.run_exact())
            .expect("the 12³ quick config converges");
        assert!(quality.loss_drop < MAX_EXACT_LOSS_DROP);
        assert!(quality.err_vs_truth < MAX_EXACT_ERR_VS_TRUTH);
    }

    #[test]
    fn disabling_memoization_gives_identical_reconstruction() {
        let p = MlrPipeline::new(
            MlrConfig::quick(12, 8)
                .with_iterations(4)
                .with_memoization(false),
        );
        let exact = p.run_exact();
        let (memo, executor) = p.run_memoized();
        let err = mlr_math::norms::relative_error(&exact.reconstruction, &memo.reconstruction);
        assert!(
            err < 1e-12,
            "disabled memoization must be bit-equivalent, err {err}"
        );
        assert_eq!(executor.stats().total().db_hits, 0);
    }

    #[test]
    fn injected_sharded_store_matches_private_database() {
        // The runtime's determinism contract: one job over an injected
        // shared store reconstructs bit-identically to the private store of
        // `run_memoized` — same hits, same evictions — under a budget tight
        // enough to evict.
        let (_, probe) = tiny_pipeline(0.92).run_memoized();
        let cap = CapacityBudget::bytes(probe.store().resident_bytes() / 2);
        let config = tiny_pipeline(0.92).config;
        let p = MlrPipeline::new(config.with_memo_budget(cap));
        let (private, reference) = p.run_memoized();
        let executor = p.memo_executor(p.build_shared_store(), 7);
        let (shared, executor) = p.run_with_executor(executor, &CancelToken::new());
        assert_eq!(
            private.reconstruction.as_slice(),
            shared.reconstruction.as_slice()
        );
        assert_eq!(executor.job(), 7);
        let cases = |e: &MemoizedExecutor| {
            let t = e.stats().total();
            let s = e.store().stats();
            (
                (
                    t.computed,
                    t.failed_memo,
                    t.db_hits,
                    t.cache_hits,
                    t.prefiltered,
                ),
                (s.entries, s.queries, s.hits, s.inserts, s.evictions),
            )
        };
        assert_eq!(cases(&executor), cases(&reference));
        let stats = executor.store().stats();
        assert!(stats.hits > 0 && stats.evictions > 0, "vacuous: {stats:?}");
    }

    #[test]
    fn paper_scale_projection_shows_improvement() {
        let p = tiny_pipeline(0.92);
        // Use the paper's reported case distribution directly.
        let proj_1k = p.project_to_paper_scale(1024, (0.53, 0.19, 0.28));
        let proj_2k = p.project_to_paper_scale(2048, (0.53, 0.19, 0.28));
        assert!(proj_1k.normalized_time < 1.0);
        assert!(proj_1k.improvement_percent() > 10.0);
        assert!(proj_2k.normalized_time < 1.0);
        // No hits: memoization only adds the failed chunks' key and query,
        // and both sides run Algorithm 2, so nothing else can gain.
        for n in [1024, 2048] {
            let proj_none = p.project_to_paper_scale(n, (1.0, 0.0, 0.0));
            assert!(proj_none.normalized_time >= 1.0, "{n}: {proj_none:?}");
        }
    }

    #[test]
    fn projection_prices_each_case_at_the_figure_10_price() {
        // Only the two 2-D stages of each LSP inner iteration depend on the
        // case distribution, so the gap between two projections is their
        // gap: per chunk, Σ over cases of (case fraction × the case's
        // price), the price Figure 10 prints.
        let p = tiny_pipeline(0.92);
        let size = ProblemSize::cube(1024, 16);
        let w = AdmmWorkload::new(size);
        let cost = CostModel::polaris();
        let c = w.memo_chunk_seconds(&cost, w.fu2d_time(&cost));
        let lsp_term = |(failed, db, cache): (f64, f64, f64)| -> f64 {
            let exact = 1.0 - failed - db - cache;
            let chunk = exact * c.exact + failed * c.failed + db * c.db_hit + cache * c.cache_hit;
            // F_u2D and F*_u2D, in each of N_inner = 4 inner iterations.
            2.0 * chunk * size.num_chunks() as f64 * 4.0
        };
        let reference = (0.0, 0.0, 0.0);
        for dist in [
            (1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0),
            (0.53, 0.19, 0.28),
        ] {
            let gap = p.project_to_paper_scale(1024, dist).mlr_seconds
                - p.project_to_paper_scale(1024, reference).mlr_seconds;
            let expected = lsp_term(dist) - lsp_term(reference);
            assert!(
                (gap - expected).abs() <= 1e-9 * expected.abs(),
                "{dist:?}: projection gap {gap} s, case prices {expected} s"
            );
        }
        // What the frozen benchmark reads, pinned to the bit (seconds).
        let [p1, p2] = [1024, 2048].map(|n| p.project_to_paper_scale(n, (0.4, 0.4, 0.2)));
        for (read, pinned) in [
            (c.exact, 0.026843701850000002),
            (c.failed, 0.027015880551298704),
            (c.db_hit, 0.00649030707776929),
            (c.cache_hit, 0.001144424855144855),
            (p1.original_seconds, 29.189549719635522),
            (p1.mlr_seconds, 22.424830704035482),
            (p2.original_seconds, 233.51513775708418),
            (p2.mlr_seconds, 179.30679043228383),
        ] {
            assert_eq!(read.to_bits(), f64::to_bits(pinned), "{read} s");
        }
    }
}
