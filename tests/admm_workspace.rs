//! The workspace solver against the allocating loop it replaced
//! ([`reference`], under Algorithm 2). The fused passes keep every
//! element's expression and every sum's order and start value, so the two
//! must agree to the bit: on the reconstruction, on every loss and data
//! loss, and — through a memoizing executor, which sees every chunk the
//! solver dispatches — on the case counts and the store's statistics.
//! `mlr_solver::tv`'s composed forms, which the stencil tests compare
//! against, are held to the reference's copies too. The loop over the
//! two-field dual state and the `u`/`G` history, which the solver ran
//! before, must agree with it up to rounding, with equal case counts.

use mlr_core::{MlrConfig, MlrPipeline};
use mlr_fft::fft2d::to_complex;
use mlr_lamino::{DetectorSpec, DirectExecutor, FftExecutor, LaminoGeometry, LaminoOperator};
use mlr_math::norms::{max_abs_diff, relative_error};
use mlr_math::rng::seeded;
use mlr_math::{Array3, Complex64, Shape3};
use mlr_solver::lsp::lsp_gradient_cancelled;
use mlr_solver::tv::{self, divergence, gradient};
use mlr_solver::{AdmmSolver, AdmmWorkspace, FrequencyData};
use mlr_solver::{DualField, VectorField};
use rand::Rng;
use reference::FieldOps;

mod reference;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn random_volume(shape: Shape3, seed: u64) -> Array3<f64> {
    let mut rng = seeded(seed);
    let data = (0..shape.len()).map(|_| rng.gen::<f64>() - 0.5).collect();
    Array3::from_vec(shape, data)
}

fn random_field(shape: Shape3, seed: u64) -> VectorField {
    VectorField {
        x: random_volume(shape, seed),
        y: random_volume(shape, seed + 1),
        z: random_volume(shape, seed + 2),
    }
}

/// Three different extents, so a stride or a boundary taken on the wrong
/// axis cannot hide behind a cube's symmetry.
const ODD_SHAPE: Shape3 = Shape3::new(7, 5, 6);

/// A dual state over `ODD_SHAPE`: random `a`, its threshold and `ρ_used`.
fn random_dual(seed: u64, threshold: f64, rho_used: f64) -> DualField {
    let mut dual = DualField::zeros(ODD_SHAPE);
    (dual.arg, dual.threshold, dual.rho) = (random_field(ODD_SHAPE, seed), threshold, rho_used);
    dual
}

#[test]
fn coupling_stencil_is_the_composed_regulariser_bit_for_bit() {
    let u = random_volume(ODD_SHAPE, 1);
    // One state across the cases, so the rolling buffers carry over.
    let mut dual = random_dual(2, 0.0, 0.5);
    for (threshold, rho_used, rho) in [(0.0, 0.5, 0.5), (0.3, 2.0, 0.5), (0.8, 1e-6, 3.0)] {
        (dual.threshold, dual.rho) = (threshold, rho_used);
        let g_data = random_volume(ODD_SHAPE, 9);
        let (mut g_field, scaled) = reference::split_dual(&dual.arg, threshold);
        g_field.axpby(1.0, &scaled, -rho_used / rho);
        let composed = reference::add_regulariser(g_data.clone(), &u, &g_field, rho);
        let mut fused = g_data;
        dual.add_coupling_gradient(&mut fused, &u, rho);
        assert_eq!(
            bits(fused.as_slice()),
            bits(composed.as_slice()),
            "threshold {threshold}, ρ_used {rho_used}, ρ {rho}"
        );
    }
}

#[test]
fn composed_references_are_the_copies_of_the_allocating_loop() {
    let u = random_volume(ODD_SHAPE, 40);
    let p = random_field(ODD_SHAPE, 41);
    let fields = |a: &VectorField| [&a.x, &a.y, &a.z].map(|c| bits(c.as_slice()));
    assert_eq!(fields(&gradient(&u)), fields(&reference::gradient(&u)));
    assert_eq!(
        bits(divergence(&p).as_slice()),
        bits(reference::divergence(&p).as_slice())
    );
    for threshold in [0.0, 0.3, 0.8] {
        let (a, b) = (tv::shrink(&p, threshold), reference::shrink(&p, threshold));
        assert_eq!(fields(&a), fields(&b), "threshold {threshold}");
    }
    assert_eq!(tv::tv_norm(&u).to_bits(), reference::tv_norm(&u).to_bits());
}

#[test]
fn rsp_pass_is_the_composed_update_bit_for_bit() {
    let u = random_volume(ODD_SHAPE, 20);
    let cases = [
        (0.05, 0.5, 0.0, 0.5),
        (1e-4, 2.0, 0.3, 1.0),
        (0.3, 1e3, 0.8, 2e3),
    ];
    for (alpha, rho, threshold, rho_used) in cases {
        let mut dual = random_dual(21, threshold, rho_used);
        let a0 = dual.arg.clone();
        let sums = dual.rsp_update(&u, alpha, rho);

        let grad_u = gradient(&u);
        let (_, scaled) = reference::split_dual(&a0, threshold);
        let mut a_ref = grad_u.clone();
        a_ref.axpby(1.0, &scaled, rho_used / rho);
        let psi_ref = tv::shrink(&a_ref, alpha / rho);
        let mut primal = grad_u;
        primal.axpby(1.0, &psi_ref, -1.0);

        let case = format!("α = {alpha}, ρ = {rho}, threshold {threshold}, ρ_used {rho_used}");
        let (a, b) = (&dual.arg, &a_ref);
        for (x, y) in [(&a.x, &b.x), (&a.y, &b.y), (&a.z, &b.z)] {
            assert_eq!(bits(x.as_slice()), bits(y.as_slice()), "{case}");
        }
        let state = [dual.threshold, dual.rho];
        assert_eq!(bits(&state), bits(&[alpha / rho, rho]), "{case}");
        let expect = [primal.norm_sqr(), psi_ref.norm_sqr(), tv::tv_norm(&u)];
        assert_eq!(
            bits(&[sums.primal_sqr, sums.psi_sqr, sums.tv]),
            bits(&expect),
            "{case}"
        );
    }
}

/// The detectors the half-spectrum pass is held to: even, odd, mixed and
/// tall (2h × w) sides under one 16³ volume and 6 angles. At an odd side
/// the fill's centred mirror and `H`'s DFT mirror pair different points.
fn detector_geometries() -> Vec<LaminoGeometry> {
    let base = LaminoGeometry::cube(16, 6, 35.0);
    let sides = [(16, 16), (15, 15), (16, 13), (13, 16), (32, 16)];
    sides
        .into_iter()
        .map(|(h, w)| LaminoGeometry {
            detector: DetectorSpec::new(h, w),
            ..base.clone()
        })
        .collect()
}

fn complex_bits(a: &Array3<Complex64>) -> Vec<(u64, u64)> {
    let parts = |z: &Complex64| (z.re.to_bits(), z.im.to_bits());
    a.as_slice().iter().map(parts).collect()
}

#[test]
fn fused_residual_is_the_composed_tail_bit_for_bit() {
    for g in detector_geometries() {
        let label = format!("{:?}", g.detector);
        let op = LaminoOperator::new(g.clone(), 4);
        let d = random_volume(g.data_shape(), 31);
        let freq = FrequencyData::new(&op, &d);
        let u1 = op.fu1d(&random_volume(g.volume_shape(), 30));
        let mut fused = Array3::zeros(g.half_spectrum_shape());
        op.fu2d_half_into(&u1, &DirectExecutor, &mut fused);
        let loss = freq.fused_residual(&mut fused, &mut Vec::new());
        // fill → subtract → H → loss → scale → fold.
        let mut rhat = op.fu2d(&u1, &DirectExecutor);
        let loss_ref = reference::residual_tail(&mut rhat, &reference::frequency_data(&op, &d));
        let mut composed = Array3::zeros(g.half_spectrum_shape());
        op.fold(&rhat, &mut composed);
        assert_eq!(loss.to_bits(), loss_ref.to_bits(), "{label}");
        assert_eq!(complex_bits(&fused), complex_bits(&composed), "{label}");
    }
}

/// The half-spectrum pass against the full-spectrum composition it
/// replaced, with the unprojected `d̂`: one gradient and its loss.
#[test]
fn half_spectrum_gradient_is_the_full_spectrum_one_up_to_rounding() {
    let rho = 0.5;
    for g in detector_geometries() {
        let label = format!("{:?}", g.detector);
        let op = LaminoOperator::new(g.clone(), 4);
        let (u, d) = (
            random_volume(g.volume_shape(), 32),
            random_volume(g.data_shape(), 33),
        );
        let mut ws = AdmmWorkspace::new(&op);
        ws.u = u.clone();
        let loss = lsp_gradient_cancelled(
            &op,
            &mut ws,
            &FrequencyData::new(&op, &d),
            rho,
            &DirectExecutor,
        );

        let scale = 1.0 / (g.detector.rows * g.detector.cols) as f64;
        let unprojected = (op.f2d(&to_complex(&d)), scale);
        let mut rhat = op.fu2d(&op.fu1d(&u), &DirectExecutor);
        let loss_ref = reference::residual_tail(&mut rhat, &unprojected);
        let g_data = op.fu1d_adjoint(&op.fu2d_adjoint(&rhat, &DirectExecutor));
        let zero = VectorField::zeros(u.shape());
        let grad = reference::add_regulariser(g_data, &u, &zero, rho);

        let peak = grad.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let diff = max_abs_diff(grad.as_slice(), ws.grad.as_slice()) / peak;
        assert!(diff < 1e-12, "{label}: gradient off by {diff:e}");
        let loss_diff = (loss - loss_ref).abs() / loss_ref;
        assert!(loss_diff < 1e-12, "{label}: loss off by {loss_diff:e}");
    }
}

/// The workspace solver and the Algorithm 2 reference over one pipeline and
/// one executor per side (`make_exec` builds a fresh one for each).
fn assert_same_run<E: FftExecutor>(
    name: &str,
    pipeline: &MlrPipeline,
    make_exec: impl Fn() -> E,
) -> (E, E) {
    let (op, d) = (pipeline.operator(), &pipeline.dataset().projections);
    let cfg = pipeline.config().admm;
    let (ws_exec, ref_exec) = (make_exec(), make_exec());
    let ws = AdmmSolver::new(cfg).run_with(op, d, &ws_exec);
    let reference = reference::run(&cfg, reference::Variant::Cancelled, op, d, &ref_exec);
    assert_eq!(
        bits(ws.reconstruction.as_slice()),
        bits(reference.reconstruction.as_slice()),
        "{name}: reconstruction"
    );
    let losses: Vec<(u64, u64)> = ws
        .history
        .records()
        .iter()
        .map(|r| (r.loss.to_bits(), r.data_loss.to_bits()))
        .collect();
    let ref_losses: Vec<(u64, u64)> = reference
        .losses
        .iter()
        .map(|(l, dl)| (l.to_bits(), dl.to_bits()))
        .collect();
    assert_eq!(losses, ref_losses, "{name}: losses");
    assert_eq!(
        ws.final_rho.to_bits(),
        reference.final_rho.to_bits(),
        "{name}: ρ"
    );
    (ws_exec, ref_exec)
}

/// Through the direct executor and a memoizing one.
fn assert_matches_reference(name: &str) {
    let pipeline = MlrPipeline::new(config(name));
    assert_same_run(&format!("{name} direct"), &pipeline, || DirectExecutor);
    let (ws, reference) = assert_same_run(&format!("{name} memoized"), &pipeline, || {
        pipeline.memo_executor(pipeline.build_shared_store(1), 0)
    });
    assert_eq!(ws.stats(), reference.stats(), "{name}: case counts");
    assert_eq!(
        ws.store().stats(),
        reference.store().stats(),
        "{name}: store statistics"
    );
}

/// `MlrConfig::quick(n, angles)` with the benchmark's smoke overrides.
fn smoke_config(n: usize, iterations: usize, tau: f64, chunk: usize, step: f64) -> MlrConfig {
    let mut config = MlrConfig::quick(n, 8)
        .with_iterations(iterations)
        .with_tau(tau);
    config.chunk_size = chunk;
    config.admm.initial_step = step;
    config
}

/// The benchmark's four smoke configs and 24³ at chunk 1.
fn five_configs() -> [(&'static str, MlrConfig); 5] {
    let mut chunk_one = MlrConfig::quick(24, 12).with_iterations(4);
    chunk_one.chunk_size = 1;
    chunk_one.admm.initial_step = 0.02;
    [
        ("hit-32", smoke_config(16, 8, 0.92, 8, 0.04)),
        ("strict-48", smoke_config(16, 5, 0.99, 8, 0.04)),
        ("smallchunk-24", smoke_config(12, 8, 0.92, 1, 0.07)),
        ("serve-24x12", smoke_config(12, 6, 0.92, 8, 0.07)),
        ("24³ chunk 1", chunk_one),
    ]
}

fn config(name: &str) -> MlrConfig {
    let mut configs = five_configs().into_iter();
    configs
        .find(|(n, _)| *n == name)
        .expect("one of the five")
        .1
}

#[test]
fn hit_32_smoke_matches_the_allocating_loop() {
    assert_matches_reference("hit-32");
}

#[test]
fn strict_48_smoke_matches_the_allocating_loop() {
    assert_matches_reference("strict-48");
}

#[test]
fn smallchunk_24_smoke_matches_the_allocating_loop() {
    assert_matches_reference("smallchunk-24");
}

#[test]
fn serve_24x12_smoke_matches_the_allocating_loop() {
    assert_matches_reference("serve-24x12");
}

#[test]
fn chunk_one_at_24_matches_the_allocating_loop() {
    assert_matches_reference("24³ chunk 1");
}

#[test]
fn solver_matches_the_two_field_loop_up_to_rounding() {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
    for (name, config) in five_configs() {
        let pipeline = MlrPipeline::new(config);
        let (op, d) = (pipeline.operator(), &pipeline.dataset().projections);
        let cfg = pipeline.config().admm;
        let memo = || pipeline.memo_executor(pipeline.build_shared_store(1), 0);
        let (ws_exec, ref_exec) = (memo(), memo());
        let ws = AdmmSolver::new(cfg).run_with(op, d, &ws_exec);
        let two_field =
            reference::run_two_field(&cfg, reference::Variant::Cancelled, op, d, &ref_exec);
        let err = relative_error(&two_field.reconstruction, &ws.reconstruction);
        assert!(err <= 1e-12, "{name}: reconstruction off by {err}");
        let records = ws.history.records();
        assert_eq!(records.len(), two_field.losses.len(), "{name}");
        for (r, &(loss, data_loss)) in records.iter().zip(&two_field.losses) {
            assert!(
                close(r.loss, loss) && close(r.data_loss, data_loss),
                "{name}: losses"
            );
        }
        assert!(close(ws.final_rho, two_field.final_rho), "{name}: ρ");
        assert_eq!(ws_exec.stats(), ref_exec.stats(), "{name}: case counts");
        let stores = (ws_exec.store().stats(), ref_exec.store().stats());
        assert_eq!(stores.0, stores.1, "{name}: store statistics");
    }
}
