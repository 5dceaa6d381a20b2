//! End-to-end integration tests spanning the whole workspace: phantom →
//! projections → exact and memoized ADMM-TV reconstruction → report.
use mlr_core::{MlrConfig, MlrPipeline};
use mlr_lamino::{DirectExecutor, LaminoDataset, LaminoGeometry, LaminoOperator};
use mlr_lamino::{PhantomKind, ProjectionNoise};
use mlr_math::rng::seeded;
use mlr_math::{Array3, Shape3};
use mlr_solver::lsp::lsp_gradient_cancelled;
use mlr_solver::{AdmmConfig, AdmmSolver, AdmmWorkspace, FrequencyData, VectorField};
use rand::Rng;

mod reference;

#[test]
fn full_pipeline_memoized_reconstruction_stays_accurate() {
    let config = MlrConfig::quick(12, 8).with_iterations(6);
    let pipeline = MlrPipeline::new(config);
    let report = pipeline.run_comparison();
    assert!(report.accuracy > 0.85, "accuracy {}", report.accuracy);
    assert!(report.avoided_fraction > 0.0);
    // A stricter threshold must be at least as accurate.
    let strict = MlrPipeline::new(MlrConfig::quick(12, 8).with_iterations(6).with_tau(0.99));
    let strict_report = strict.run_comparison();
    assert!(strict_report.accuracy + 1e-6 >= report.accuracy - 0.05);
}

/// Algorithm 1 through the reference loop against the solver's Algorithm 2:
/// reconstructions and losses agree to rounding.
#[test]
fn algorithm1_and_algorithm2_match_through_the_full_solver() {
    let cases = [
        (
            LaminoGeometry::cube(10, 6, 30.0),
            3,
            AdmmConfig {
                outer_iterations: 3,
                n_inner: 2,
                ..AdmmConfig::default()
            },
        ),
        (
            LaminoGeometry::cube(12, 8, 32.0),
            5,
            AdmmConfig {
                outer_iterations: 4,
                n_inner: 3,
                alpha: 1e-4,
                ..AdmmConfig::default()
            },
        ),
    ];
    for (geometry, seed, cfg) in cases {
        let noise = ProjectionNoise::None;
        let ds = LaminoDataset::simulate(geometry.clone(), PhantomKind::Brain, noise, seed);
        let op = LaminoOperator::new(geometry, 4);
        let cancelled = AdmmSolver::new(cfg).run(&op, &ds.projections);
        let variant = reference::Variant::Original;
        let original = reference::run(&cfg, variant, &op, &ds.projections, &DirectExecutor);
        let err =
            mlr_math::norms::relative_error(&original.reconstruction, &cancelled.reconstruction);
        assert!(
            err < 1e-6,
            "seed {seed}: cancellation changed the result: {err}"
        );
        let records = cancelled.history.records();
        assert_eq!(records.len(), original.losses.len());
        for (r, &(loss, _)) in records.iter().zip(&original.losses) {
            assert!((r.loss - loss).abs() < 1e-6 * loss.max(1.0), "seed {seed}");
        }
    }
}

/// Algorithm 1's gradient in the reference loop against the solver's
/// Algorithm 2 gradient at one random iterate (`ψ = λ = 0`): the claim
/// behind operation cancellation, one inner step deep.
#[test]
fn algorithm1_and_algorithm2_gradients_agree() {
    let op = LaminoOperator::new(LaminoGeometry::cube(8, 6, 32.0), 4);
    let mut rng = seeded(3);
    let mut random = |shape: Shape3| {
        let values = (0..shape.len()).map(|_| rng.gen::<f64>() - 0.5);
        Array3::from_vec(shape, values.collect())
    };
    let u = random(op.geometry().volume_shape());
    let d = random(op.geometry().data_shape());
    let rho = 0.5;
    let mut ws = AdmmWorkspace::new(&op);
    ws.u = u.clone();
    let freq = FrequencyData::new(&op, &d);
    let loss = lsp_gradient_cancelled(&op, &mut ws, &freq, rho, &DirectExecutor);
    let target = VectorField::zeros(u.shape());
    let (grad, reference_loss) =
        reference::gradient_original(&op, &u, &d, &target, rho, &DirectExecutor);

    let peak = grad.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let diff = mlr_math::norms::max_abs_diff(grad.as_slice(), ws.grad.as_slice());
    assert!(diff < 1e-8 * peak.max(1.0), "gradient mismatch {diff}");
    let loss_diff = (loss - reference_loss).abs();
    assert!(
        loss_diff < 1e-8 * reference_loss.max(1.0),
        "{loss} vs {reference_loss}"
    );
}
