//! The workspace solver against the allocating loop it replaced
//! ([`reference`], under Algorithm 2, rounding its state to `f32` where the
//! solver narrows it). The fused passes keep every element's expression and
//! every sum's order and start value, so the two must agree to the bit: on
//! the reconstruction, on every loss and data loss, and — through a
//! memoizing executor, which sees every chunk the solver dispatches — on the
//! case counts and the store's statistics. The reference's composed TV
//! pieces, which the stencil tests compare against, are held to their
//! defining properties here. The loop over the two-field dual state and the
//! `u`/`G` history, which the solver ran before, must agree with the
//! one-field loop in double storage up to rounding, with equal case counts.

use mlr_core::{MlrConfig, MlrPipeline};
use mlr_fft::fft2d::to_complex;
use mlr_lamino::{DetectorSpec, DirectExecutor, FftExecutor, LaminoGeometry, LaminoOperator};
use mlr_math::norms::{max_abs_diff, relative_error};
use mlr_math::rng::seeded;
use mlr_math::{Array3, Complex64, Shape3};
use mlr_solver::lsp::lsp_gradient_cancelled;
use mlr_solver::{AdmmSolver, AdmmWorkspace, DualField, FrequencyData};
use rand::Rng;
use reference::{divergence, gradient, shrink, tv_norm, ArrayOps, FieldOps, Storage, VectorField};

mod reference;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn random_volume(shape: Shape3, seed: u64) -> Array3<f64> {
    let mut rng = seeded(seed);
    let data = (0..shape.len()).map(|_| rng.gen::<f64>() - 0.5).collect();
    Array3::from_vec(shape, data)
}

/// [`random_volume`] rounded to `f32` once, so the solver's `f32` state and
/// the reference's `f64` arrays hold the same values.
fn random_single(shape: Shape3, seed: u64) -> Array3<f64> {
    let mut a = random_volume(shape, seed);
    Storage::Single.round(&mut a);
    a
}

fn random_field(shape: Shape3, seed: u64) -> VectorField {
    VectorField {
        x: random_volume(shape, seed),
        y: random_volume(shape, seed + 1),
        z: random_volume(shape, seed + 2),
    }
}

fn narrow(a: &Array3<f64>) -> Array3<f32> {
    Array3::from_vec(a.shape(), a.as_slice().iter().map(|&v| v as f32).collect())
}

fn widen(a: &Array3<f32>) -> Array3<f64> {
    Array3::from_vec(
        a.shape(),
        a.as_slice().iter().map(|&v| f64::from(v)).collect(),
    )
}

/// The solver's `f32` dual field as the reference's `f64` one.
fn widen_field([x, y, z]: &[Array3<f32>; 3]) -> VectorField {
    let [x, y, z] = [x, y, z].map(widen);
    VectorField { x, y, z }
}

/// Three different extents, so a stride or a boundary taken on the wrong
/// axis cannot hide behind a cube's symmetry.
const ODD_SHAPE: Shape3 = Shape3::new(7, 5, 6);

/// A dual state over `ODD_SHAPE`: random `a`, its threshold and `ρ_used`.
fn random_dual(seed: u64, threshold: f64, rho_used: f64) -> DualField {
    let mut dual = DualField::zeros(ODD_SHAPE);
    dual.arg = [0, 1, 2].map(|c| narrow(&random_volume(ODD_SHAPE, seed + c)));
    (dual.threshold, dual.rho) = (threshold, rho_used);
    dual
}

#[test]
fn coupling_stencil_is_the_composed_regulariser_bit_for_bit() {
    let u = random_single(ODD_SHAPE, 1);
    // One state across the cases, so the rolling buffers carry over.
    let mut dual = random_dual(2, 0.0, 0.5);
    for (threshold, rho_used, rho) in [(0.0, 0.5, 0.5), (0.3, 2.0, 0.5), (0.8, 1e-6, 3.0)] {
        (dual.threshold, dual.rho) = (threshold, rho_used);
        let g_data = random_volume(ODD_SHAPE, 9);
        let (mut g_field, scaled) = reference::split_dual(&widen_field(&dual.arg), threshold);
        g_field.axpby(1.0, &scaled, -rho_used / rho);
        let composed = reference::add_regulariser(g_data.clone(), &u, &g_field, rho);
        let mut fused = g_data;
        dual.add_coupling_gradient(&mut fused, &narrow(&u), rho);
        assert_eq!(
            bits(fused.as_slice()),
            bits(composed.as_slice()),
            "threshold {threshold}, ρ_used {rho_used}, ρ {rho}"
        );
    }
}

#[test]
fn gradient_of_constant_is_zero() {
    let u = Array3::filled(Shape3::cube(6), 3.7);
    assert_eq!(gradient(&u), VectorField::zeros(u.shape()));
    assert_eq!(tv_norm(&u), 0.0);
}

#[test]
fn gradient_of_linear_ramp() {
    let n = 5;
    let ramp = (0..n).flat_map(|i| vec![2.0 * i as f64; n * n]).collect();
    let g = gradient(&Array3::from_vec(Shape3::cube(n), ramp));
    // Interior x-differences are 2, boundary plane is 0, other axes are 0.
    assert_eq!(g.x[(0, 0, 0)], 2.0);
    assert_eq!(g.x[(n - 2, 1, 1)], 2.0);
    assert_eq!(g.x[(n - 1, 1, 1)], 0.0);
    assert_eq!(g.y[(1, 1, 1)], 0.0);
    assert_eq!(g.z[(1, 1, 1)], 0.0);
}

#[test]
fn gradient_divergence_adjointness() {
    // divergence() is ∇ᵀ = −div, so <grad u, p> == <u, divergence(p)>.
    let u = random_volume(ODD_SHAPE, 1);
    let p = random_field(ODD_SHAPE, 10);
    let lhs = gradient(&u).dot(&p);
    let rhs = u.dot(&divergence(&p));
    assert!(
        (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
        "{lhs} vs {rhs}"
    );
}

#[test]
fn shrink_thresholds_small_vectors_to_zero() {
    let mut f = VectorField::zeros(Shape3::cube(3));
    f.x[(0, 0, 0)] = 0.1;
    f.y[(1, 1, 1)] = 3.0;
    f.z[(1, 1, 1)] = 4.0; // magnitude 5 at (1,1,1)
    let s = shrink(&f, 1.0);
    assert_eq!(s.x[(0, 0, 0)], 0.0);
    // Magnitude shrinks from 5 to 4, direction preserved (3,4)/5.
    assert!((s.y[(1, 1, 1)] - 3.0 * 0.8).abs() < 1e-12);
    assert!((s.z[(1, 1, 1)] - 4.0 * 0.8).abs() < 1e-12);
}

#[test]
fn shrink_is_identity_at_zero_threshold() {
    let f = random_field(Shape3::cube(4), 20);
    let s = shrink(&f, 0.0);
    for (a, b) in [(&s.x, &f.x), (&s.y, &f.y), (&s.z, &f.z)] {
        assert!(max_abs_diff(a.as_slice(), b.as_slice()) < 1e-12);
    }
}

#[test]
fn tv_norm_positive_for_nonconstant() {
    assert!(tv_norm(&random_volume(Shape3::cube(5), 30)) > 0.0);
}

#[test]
fn rsp_pass_is_the_composed_update_bit_for_bit() {
    let u = random_single(ODD_SHAPE, 20);
    let cases = [
        (0.05, 0.5, 0.0, 0.5),
        (1e-4, 2.0, 0.3, 1.0),
        (0.3, 1e3, 0.8, 2e3),
    ];
    for (alpha, rho, threshold, rho_used) in cases {
        let mut dual = random_dual(21, threshold, rho_used);
        let a0 = widen_field(&dual.arg);
        let sums = dual.rsp_update(&narrow(&u), alpha, rho);

        let grad_u = gradient(&u);
        let (_, scaled) = reference::split_dual(&a0, threshold);
        let mut a_ref = grad_u.clone();
        a_ref.axpby(1.0, &scaled, rho_used / rho);
        let psi_ref = shrink(&a_ref, alpha / rho);
        Storage::Single.round_field(&mut a_ref);
        let mut primal = grad_u;
        primal.axpby(1.0, &psi_ref, -1.0);

        let case = format!("α = {alpha}, ρ = {rho}, threshold {threshold}, ρ_used {rho_used}");
        let (a, b) = (widen_field(&dual.arg), &a_ref);
        for (x, y) in [(&a.x, &b.x), (&a.y, &b.y), (&a.z, &b.z)] {
            assert_eq!(bits(x.as_slice()), bits(y.as_slice()), "{case}");
        }
        let state = [dual.threshold, dual.rho];
        assert_eq!(bits(&state), bits(&[alpha / rho, rho]), "{case}");
        let expect = [primal.norm_sqr(), psi_ref.norm_sqr(), tv_norm(&u)];
        assert_eq!(
            bits(&[sums.primal_sqr, sums.psi_sqr, sums.tv]),
            bits(&expect),
            "{case}"
        );
    }
}

/// One Algorithm-2 gradient and one Barzilai–Borwein update from a
/// workspace at a random `f32` iterate: `G` stays `f64`, the history holds
/// it narrowed element for element, and `u` is the `f64` update narrowed
/// once.
#[test]
fn one_step_narrows_the_history_and_the_iterate_once() {
    let op = LaminoOperator::new(LaminoGeometry::cube(8, 6, 32.0), 4);
    let g = op.geometry();
    let (u, d) = (
        random_single(g.volume_shape(), 34),
        random_volume(g.data_shape(), 35),
    );
    let mut ws = AdmmWorkspace::new(&op);
    ws.u = narrow(&u);
    let freq = FrequencyData::new(&op, &d);
    lsp_gradient_cancelled(&op, &mut ws, &freq, 0.5, &DirectExecutor);
    let grad = ws.grad.clone();
    let step = ws.cg.update(&mut ws.u, &ws.grad, 0.01);
    assert_eq!(step, 0.01, "an empty history takes the initial step");

    let mut expect = u;
    expect.axpby(1.0, &grad, -step);
    assert_eq!(
        bits(widen(&ws.u).as_slice()),
        bits(widen(&narrow(&expect)).as_slice())
    );
    // The history is read back through a second update against a zero
    // gradient, whose BB denominator is ⟨G_prev, G_prev⟩ of the narrowed copy.
    let narrowed = widen(&narrow(&grad));
    let (prev_sqr, denom) = (grad.dot(&grad), narrowed.dot(&narrowed));
    let bb = (step * prev_sqr / denom).clamp(0.05 * 0.01, 20.0 * 0.01);
    let zero = Array3::zeros(g.volume_shape());
    let second = ws.cg.update(&mut ws.u, &zero, 0.01);
    assert_eq!(second.to_bits(), bb.to_bits());
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
            random_single(g.volume_shape(), 32),
            random_volume(g.data_shape(), 33),
        );
        let mut ws = AdmmWorkspace::new(&op);
        ws.u = narrow(&u);
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
    let variant = reference::Variant::Cancelled;
    let reference = reference::run(&cfg, variant, Storage::Single, op, d, &ref_exec);
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
        pipeline.memo_executor(pipeline.build_shared_store(), 0)
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

/// The one-field dual state and the gradient-only history are the
/// two-field loop's formulation: in double storage the two agree up to
/// rounding, with equal case counts. (The solver's `f32` state rounds at
/// 6e-8; it is held to the one-field loop in single storage, to the bit.)
#[test]
fn one_field_loop_matches_the_two_field_loop_up_to_rounding() {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
    let variant = reference::Variant::Cancelled;
    for (name, config) in five_configs() {
        let pipeline = MlrPipeline::new(config);
        let (op, d) = (pipeline.operator(), &pipeline.dataset().projections);
        let cfg = pipeline.config().admm;
        let memo = || pipeline.memo_executor(pipeline.build_shared_store(), 0);
        let (one_exec, two_exec) = (memo(), memo());
        let one_field = reference::run(&cfg, variant, Storage::Double, op, d, &one_exec);
        let two_field = reference::run_two_field(&cfg, variant, op, d, &two_exec);
        let err = relative_error(&two_field.reconstruction, &one_field.reconstruction);
        assert!(err <= 1e-12, "{name}: reconstruction off by {err}");
        assert_eq!(one_field.losses.len(), two_field.losses.len(), "{name}");
        for (&(l1, dl1), &(l2, dl2)) in one_field.losses.iter().zip(&two_field.losses) {
            assert!(close(l1, l2) && close(dl1, dl2), "{name}: losses");
        }
        let rho = (one_field.final_rho, two_field.final_rho);
        assert!(close(rho.0, rho.1), "{name}: ρ");
        assert_eq!(one_exec.stats(), two_exec.stats(), "{name}: case counts");
        let stores = (one_exec.store().stats(), two_exec.store().stats());
        assert_eq!(stores.0, stores.1, "{name}: store statistics");
    }
}
