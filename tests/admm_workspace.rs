//! The workspace solver against the allocating loop it replaced
//! ([`reference`], under Algorithm 2). The fused passes keep every
//! element's expression and every sum's order and start value, so the two
//! must agree to the bit: on the reconstruction, on every loss and data
//! loss, and — through a memoizing executor, which sees every chunk the
//! solver dispatches — on the case counts and the store's statistics.
//! `mlr_solver::tv`'s composed forms, which the stencil tests compare
//! against, are held to the reference's copies too.

use mlr_core::{MlrConfig, MlrPipeline};
use mlr_lamino::{DirectExecutor, FftExecutor};
use mlr_math::rng::seeded;
use mlr_math::{Array3, Complex64, Shape3};
use mlr_solver::tv::{self, add_coupling_gradient, divergence, gradient, rsp_update, VectorField};
use mlr_solver::{AdmmSolver, FrequencyData};
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

#[test]
fn coupling_stencil_is_the_composed_regulariser_bit_for_bit() {
    let u = random_volume(ODD_SHAPE, 1);
    let (psi, lambda) = (random_field(ODD_SHAPE, 2), random_field(ODD_SHAPE, 5));
    for rho in [0.5, 3.0, 1e-6] {
        let g_data = random_volume(ODD_SHAPE, 9);
        let mut g_field = psi.clone();
        g_field.axpby(1.0, &lambda, -1.0 / rho);
        let composed = reference::add_regulariser(g_data.clone(), &u, &g_field, rho);
        let mut fused = g_data;
        add_coupling_gradient(&mut fused, &u, &psi, &lambda, rho);
        assert_eq!(
            bits(fused.as_slice()),
            bits(composed.as_slice()),
            "ρ = {rho}"
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
    for (alpha, rho) in [(0.05, 0.5), (1e-4, 2.0), (0.3, 1e3)] {
        let (psi0, lambda0) = (random_field(ODD_SHAPE, 21), random_field(ODD_SHAPE, 24));
        let (mut psi, mut lambda) = (psi0, lambda0.clone());
        let sums = rsp_update(&u, &mut psi, &mut lambda, alpha, rho);

        let grad_u = gradient(&u);
        let mut arg = grad_u.clone();
        arg.axpby(1.0, &lambda0, 1.0 / rho);
        let psi_ref = tv::shrink(&arg, alpha / rho);
        let mut primal = grad_u.clone();
        primal.axpby(1.0, &psi_ref, -1.0);
        let mut lambda_ref = lambda0;
        lambda_ref.axpby(1.0, &primal, rho);

        for (a, b) in [(&psi, &psi_ref), (&lambda, &lambda_ref)] {
            for (x, y) in [(&a.x, &b.x), (&a.y, &b.y), (&a.z, &b.z)] {
                assert_eq!(
                    bits(x.as_slice()),
                    bits(y.as_slice()),
                    "α = {alpha}, ρ = {rho}"
                );
            }
        }
        let expect = [primal.norm_sqr(), psi_ref.norm_sqr(), tv::tv_norm(&u)];
        assert_eq!(
            bits(&[sums.primal_sqr, sums.psi_sqr, sums.tv]),
            bits(&expect)
        );
    }
}

#[test]
fn fused_residual_is_the_composed_tail_bit_for_bit() {
    let config = MlrConfig::quick(12, 8);
    let pipeline = MlrPipeline::new(config);
    let op = pipeline.operator();
    let freq = FrequencyData::new(op, &pipeline.dataset().projections);
    let u = random_volume(op.geometry().volume_shape(), 30);
    let u1 = op.fu1d(&u);
    let dhat_prime = op.fu2d(&u1, &DirectExecutor);
    let (mut fused, mut composed) = (dhat_prime.clone(), dhat_prime);
    let loss = freq.fused_residual(&mut fused);
    let d = &pipeline.dataset().projections;
    let loss_ref = reference::residual_tail(&mut composed, &reference::frequency_data(op, d));
    assert_eq!(loss.to_bits(), loss_ref.to_bits());
    let parts = |a: &Array3<Complex64>| -> Vec<(u64, u64)> {
        a.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    };
    assert_eq!(parts(&fused), parts(&composed));
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
fn assert_matches_reference(name: &str, config: MlrConfig) {
    let pipeline = MlrPipeline::new(config);
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

#[test]
fn hit_32_smoke_matches_the_allocating_loop() {
    assert_matches_reference("hit-32", smoke_config(16, 8, 0.92, 8, 0.04));
}

#[test]
fn strict_48_smoke_matches_the_allocating_loop() {
    assert_matches_reference("strict-48", smoke_config(16, 5, 0.99, 8, 0.04));
}

#[test]
fn smallchunk_24_smoke_matches_the_allocating_loop() {
    assert_matches_reference("smallchunk-24", smoke_config(12, 8, 0.92, 1, 0.07));
}

#[test]
fn serve_24x12_smoke_matches_the_allocating_loop() {
    assert_matches_reference("serve-24x12", smoke_config(12, 6, 0.92, 8, 0.07));
}

#[test]
fn chunk_one_at_24_matches_the_allocating_loop() {
    let mut config = MlrConfig::quick(24, 12).with_iterations(4);
    config.chunk_size = 1;
    config.admm.initial_step = 0.02;
    assert_matches_reference("24³ chunk 1", config);
}
