//! `AdmmSolver::run_with_cancel` as it was before the solver ran in one
//! `AdmmWorkspace`: every intermediate a fresh volume, every phase its own
//! pass (`gradient` → `axpby` → `divergence` for the coupling, subtraction →
//! Hermitian projection → Parseval sum → scale for Algorithm 2's tail,
//! `shrink` / `axpby` / `norm_sqr` / `tv_norm` for the RSP, clones for every
//! Barzilai–Borwein step). It carries the composed TV pieces and the
//! vector field they work on, so it shares no code with the fused passes
//! beyond the operators.
//!
//! Its arrays are `f64`. Under [`Storage::Single`] it rounds them to `f32`
//! where the solver narrows its state: `u` after every step, the history's
//! copy of `G`, and the dual field `a` once the RSP has shrunk it, so the
//! solver agrees with it bit for bit. Under [`Storage::Double`] nothing is
//! rounded: the loop as it ran before the solver stored its state in `f32`.
//!
//! It holds the ADMM state two ways. [`run`] holds the solver's: the dual
//! pair as one field `a` (the last RSP's shrink argument; `ψ = shrink(a,
//! α/ρ)`, `λ/ρ = a − ψ` by Moreau's decomposition) and a gradient-only
//! Barzilai–Borwein history. [`run_two_field`] is the loop before that:
//! `ψ` and `λ` as two fields, the history as clones of `u` and `G`. The
//! first, in double storage, agrees with the second up to rounding
//! (`tests/admm_workspace.rs`).
//!
//! Its LSP takes either formulation: Algorithm 2, or the paper's
//! Algorithm 1 (`F*_2D` / `F_2D` in every pass), which the solver no longer
//! runs and `tests/end_to_end.rs` holds it to up to rounding: one gradient
//! ([`gradient_original`]) to 1e-8, whole solves to 1e-6.
#![allow(dead_code, reason = "each test target runs the variants it checks")]

use mlr_fft::fft2d::{to_complex, to_real};
use mlr_lamino::{FftExecutor, LaminoOperator};
use mlr_math::{Array3, Complex64, Shape3};
use mlr_solver::AdmmConfig;

/// A 3-component vector field over a volume (the gradient of `u` and the
/// ADMM dual field have this shape).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    /// Component along volume axis 0 (`n1`).
    pub x: Array3<f64>,
    /// Component along volume axis 1 (`n0`, vertical).
    pub y: Array3<f64>,
    /// Component along volume axis 2 (`n2`).
    pub z: Array3<f64>,
}

impl VectorField {
    pub fn zeros(shape: Shape3) -> Self {
        Self {
            x: Array3::zeros(shape),
            y: Array3::zeros(shape),
            z: Array3::zeros(shape),
        }
    }

    pub fn shape(&self) -> Shape3 {
        self.x.shape()
    }
}

/// How a loop stores its state between passes.
#[derive(Clone, Copy)]
pub enum Storage {
    /// As the solver: `u`, `G_prev` and `a` rounded to `f32` where it
    /// narrows them.
    Single,
    /// Every array in `f64`.
    Double,
}

impl Storage {
    pub fn round(self, a: &mut Array3<f64>) {
        if let Storage::Single = self {
            a.map_inplace(|v| *v = f64::from(*v as f32));
        }
    }

    pub fn round_field(self, f: &mut VectorField) {
        for c in [&mut f.x, &mut f.y, &mut f.z] {
            self.round(c);
        }
    }
}

/// The `Array3<f64>` arithmetic the allocating loop used.
pub trait ArrayOps {
    /// `self ← self · a + other · b`, element by element.
    fn axpby(&mut self, a: f64, other: &Self, b: f64);
    /// `Σ self · other` in element order.
    fn dot(&self, other: &Self) -> f64;
}

impl ArrayOps for Array3<f64> {
    fn axpby(&mut self, a: f64, other: &Self, b: f64) {
        assert_eq!(self.shape(), other.shape(), "axpby shape mismatch");
        let pairs = self.as_mut_slice().iter_mut().zip(other.as_slice());
        pairs.for_each(|(x, y)| *x = *x * a + *y * b);
    }

    fn dot(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        let pairs = self.as_slice().iter().zip(other.as_slice());
        pairs.map(|(x, y)| x * y).sum()
    }
}

/// The `VectorField` arithmetic the allocating loop used: `Array3`'s, one
/// component at a time.
pub trait FieldOps {
    fn axpby(&mut self, a: f64, other: &VectorField, b: f64);
    fn dot(&self, other: &VectorField) -> f64;
    fn norm_sqr(&self) -> f64;
}

impl FieldOps for VectorField {
    fn axpby(&mut self, a: f64, other: &VectorField, b: f64) {
        self.x.axpby(a, &other.x, b);
        self.y.axpby(a, &other.y, b);
        self.z.axpby(a, &other.z, b);
    }

    fn dot(&self, other: &VectorField) -> f64 {
        self.x.dot(&other.x) + self.y.dot(&other.y) + self.z.dot(&other.z)
    }

    fn norm_sqr(&self) -> f64 {
        self.dot(self)
    }
}

/// The LSP formulation a reference run takes.
#[derive(Clone, Copy)]
pub enum Variant {
    /// Algorithm 1: six FFT stages per inner iteration.
    Original,
    /// Algorithm 2: operation cancellation + fusion, four FFT stages.
    Cancelled,
}

/// Forward-difference gradient, zero at the last index along an axis.
pub fn gradient(u: &Array3<f64>) -> VectorField {
    let shape = u.shape();
    let (n1, n0, n2) = shape.dims();
    let mut g = VectorField::zeros(shape);
    for i in 0..n1 {
        for j in 0..n0 {
            for k in 0..n2 {
                let c = u[(i, j, k)];
                if i + 1 < n1 {
                    g.x[(i, j, k)] = u[(i + 1, j, k)] - c;
                }
                if j + 1 < n0 {
                    g.y[(i, j, k)] = u[(i, j + 1, k)] - c;
                }
                if k + 1 < n2 {
                    g.z[(i, j, k)] = u[(i, j, k + 1)] - c;
                }
            }
        }
    }
    g
}

/// `∇ᵀp`: backward differences, then the sign flip.
pub fn divergence(p: &VectorField) -> Array3<f64> {
    let shape = p.shape();
    let (n1, n0, n2) = shape.dims();
    let mut out = Array3::zeros(shape);
    for i in 0..n1 {
        for j in 0..n0 {
            for k in 0..n2 {
                let mut acc = 0.0;
                if i + 1 < n1 {
                    acc += p.x[(i, j, k)];
                }
                if i > 0 {
                    acc -= p.x[(i - 1, j, k)];
                }
                if j + 1 < n0 {
                    acc += p.y[(i, j, k)];
                }
                if j > 0 {
                    acc -= p.y[(i, j - 1, k)];
                }
                if k + 1 < n2 {
                    acc += p.z[(i, j, k)];
                }
                if k > 0 {
                    acc -= p.z[(i, j, k - 1)];
                }
                out[(i, j, k)] = acc;
            }
        }
    }
    out.map_inplace(|v| *v = -*v);
    out
}

pub fn tv_norm(u: &Array3<f64>) -> f64 {
    let g = gradient(u);
    let mut total = 0.0;
    for idx in 0..u.len() {
        let gx = g.x.as_slice()[idx];
        let gy = g.y.as_slice()[idx];
        let gz = g.z.as_slice()[idx];
        total += (gx * gx + gy * gy + gz * gz).sqrt();
    }
    total
}

pub fn shrink(field: &VectorField, threshold: f64) -> VectorField {
    let mut out = VectorField::zeros(field.shape());
    for idx in 0..field.x.len() {
        let gx = field.x.as_slice()[idx];
        let gy = field.y.as_slice()[idx];
        let gz = field.z.as_slice()[idx];
        let mag = (gx * gx + gy * gy + gz * gz).sqrt();
        if mag > threshold {
            let scale = (mag - threshold) / mag;
            out.x.as_mut_slice()[idx] = gx * scale;
            out.y.as_mut_slice()[idx] = gy * scale;
            out.z.as_mut_slice()[idx] = gz * scale;
        }
    }
    out
}

/// What a run leaves behind: the volume, `(loss, data_loss)` per
/// iteration and the final penalty.
pub struct Run {
    pub reconstruction: Array3<f64>,
    pub losses: Vec<(f64, f64)>,
    pub final_rho: f64,
}

pub fn hermitian_project(planes: &mut Array3<Complex64>) {
    let (n_theta, h, w) = planes.shape().dims();
    for t in 0..n_theta {
        for m in 0..h {
            let mm = (h - m) % h;
            for n in 0..w {
                let nn = (w - n) % w;
                if (m, n) > (mm, nn) {
                    continue; // handled when visiting the mirror index
                }
                let a = planes[(t, m, n)];
                let b = planes[(t, mm, nn)];
                let sym = (a + b.conj()).scale(0.5);
                planes[(t, m, n)] = sym;
                planes[(t, mm, nn)] = sym.conj();
            }
        }
    }
}

/// `H(F_2D d)` and the plane scale `1/(h·w)`: what `FrequencyData` holds
/// (rows `0..=h/2` of the first). `H` is idempotent, so projecting the data
/// changes the residual `H(d̂′ − d̂)` only by rounding.
pub fn frequency_data(op: &LaminoOperator, d: &Array3<f64>) -> (Array3<Complex64>, f64) {
    let g = op.geometry();
    let plane_scale = 1.0 / (g.detector.rows * g.detector.cols) as f64;
    let mut dhat = op.f2d(&to_complex(d));
    hermitian_project(&mut dhat);
    (dhat, plane_scale)
}

/// Subtraction, projection, Parseval loss and plane scale as four
/// passes; returns the loss.
pub fn residual_tail(rhat: &mut Array3<Complex64>, freq: &(Array3<Complex64>, f64)) -> f64 {
    for (a, b) in rhat.as_mut_slice().iter_mut().zip(freq.0.as_slice()) {
        *a -= *b;
    }
    hermitian_project(rhat);
    let plane_scale = freq.1;
    let data_loss = 0.5 * plane_scale * rhat.as_slice().iter().map(|z| z.norm_sqr()).sum::<f64>();
    rhat.map_inplace(|z| *z = z.scale(plane_scale));
    data_loss
}

pub fn add_regulariser(
    mut g_data: Array3<f64>,
    u: &Array3<f64>,
    g_field: &VectorField,
    rho: f64,
) -> Array3<f64> {
    let mut diff = gradient(u);
    diff.axpby(1.0, g_field, -1.0);
    let reg = divergence(&diff);
    g_data.axpby(1.0, &reg, rho);
    g_data
}

/// Algorithm 1's LSP gradient at `u` against the coupling target
/// `g_field`, and the data loss.
pub fn gradient_original(
    op: &LaminoOperator,
    u: &Array3<f64>,
    d: &Array3<f64>,
    g_field: &VectorField,
    rho: f64,
    exec: &dyn FftExecutor,
) -> (Array3<f64>, f64) {
    let u1 = op.fu1d(u);
    let dhat_prime = op.fu2d(&u1, exec);
    let d_prime = to_real(&op.f2d_inverse(&dhat_prime));
    let mut resid = d_prime.clone();
    resid.axpby(1.0, d, -1.0);
    let data_loss = 0.5 * resid.dot(&resid);
    let g = op.geometry();
    let scale = 1.0 / (g.detector.rows * g.detector.cols) as f64;
    let mut rhat = op.f2d(&to_complex(&resid));
    rhat.map_inplace(|z| *z = z.scale(scale));
    let back = op.fu2d_adjoint(&rhat, exec);
    let g_data = op.fu1d_adjoint(&back);
    (add_regulariser(g_data, u, g_field, rho), data_loss)
}

fn gradient_cancelled(
    op: &LaminoOperator,
    u: &Array3<f64>,
    freq: &(Array3<Complex64>, f64),
    g_field: &VectorField,
    rho: f64,
    exec: &dyn FftExecutor,
) -> (Array3<f64>, f64) {
    let u1 = op.fu1d(u);
    let mut rhat = op.fu2d(&u1, exec);
    let data_loss = residual_tail(&mut rhat, freq);
    let back = op.fu2d_adjoint(&rhat, exec);
    let g_data = op.fu1d_adjoint(&back);
    (add_regulariser(g_data, u, g_field, rho), data_loss)
}

/// `ψ = shrink(a, threshold)` and `λ/ρ_used = a − ψ` of the one-field dual
/// state.
pub fn split_dual(a: &VectorField, threshold: f64) -> (VectorField, VectorField) {
    let psi = shrink(a, threshold);
    let mut scaled = a.clone();
    scaled.axpby(1.0, &psi, -1.0);
    (psi, scaled)
}

/// A Barzilai–Borwein history, fresh for every LSP.
trait BbStep: Default {
    fn update(&mut self, u: &mut Array3<f64>, grad: &Array3<f64>, initial_step: f64, s: Storage);
}

fn bb_clamp(alpha: f64, initial_step: f64) -> f64 {
    alpha.clamp(0.05 * initial_step, 20.0 * initial_step)
}

/// `⟨Δu, Δu⟩ / ⟨Δu, ΔG⟩` over clones of the previous `u` and `G`.
#[derive(Default)]
struct TwoBufferBb {
    prev_u: Option<Array3<f64>>,
    prev_grad: Option<Array3<f64>>,
}

/// Run in double storage only.
impl BbStep for TwoBufferBb {
    fn update(&mut self, u: &mut Array3<f64>, grad: &Array3<f64>, initial_step: f64, _: Storage) {
        let alpha = match (&self.prev_u, &self.prev_grad) {
            (Some(pu), Some(pg)) => {
                let mut du = u.clone();
                du.axpby(1.0, pu, -1.0);
                let mut dg = grad.clone();
                dg.axpby(1.0, pg, -1.0);
                let denom = du.dot(&dg);
                let numer = du.dot(&du);
                if denom > 1e-30 && numer > 0.0 {
                    bb_clamp(numer / denom, initial_step)
                } else {
                    initial_step
                }
            }
            _ => initial_step,
        };
        self.prev_u = Some(u.clone());
        self.prev_grad = Some(grad.clone());
        u.axpby(1.0, grad, -alpha);
    }
}

/// The same step with `Δu = −α_prev·G_prev`:
/// `α_prev‖G_prev‖² / ⟨G_prev, G_prev − G⟩`.
#[derive(Default)]
struct GradientBb {
    /// `G_prev`, `α_prev`, `‖G_prev‖²`.
    prev: Option<(Array3<f64>, f64, f64)>,
}

impl BbStep for GradientBb {
    fn update(&mut self, u: &mut Array3<f64>, grad: &Array3<f64>, initial_step: f64, s: Storage) {
        let alpha = match &self.prev {
            Some((pg, prev_step, prev_sqr)) => {
                let mut dg = pg.clone();
                dg.axpby(1.0, grad, -1.0);
                let denom = pg.dot(&dg);
                if prev_step * denom > 1e-30 && *prev_sqr > 0.0 {
                    bb_clamp(prev_step * prev_sqr / denom, initial_step)
                } else {
                    initial_step
                }
            }
            None => initial_step,
        };
        let mut prev_grad = grad.clone();
        s.round(&mut prev_grad);
        self.prev = Some((prev_grad, alpha, grad.dot(grad)));
        u.axpby(1.0, grad, -alpha);
        s.round(u);
    }
}

/// One run's LSP: the operator, the data and the formulation.
struct Lsp<'a> {
    cfg: &'a AdmmConfig,
    op: &'a LaminoOperator,
    d: &'a Array3<f64>,
    /// `F_2D d` under Algorithm 2, nothing under Algorithm 1.
    freq: Option<(Array3<Complex64>, f64)>,
    exec: &'a dyn FftExecutor,
    storage: Storage,
}

impl<'a> Lsp<'a> {
    fn new(
        cfg: &'a AdmmConfig,
        variant: Variant,
        storage: Storage,
        op: &'a LaminoOperator,
        d: &'a Array3<f64>,
        exec: &'a dyn FftExecutor,
    ) -> Self {
        let freq = match variant {
            Variant::Cancelled => Some(frequency_data(op, d)),
            Variant::Original => None,
        };
        Self {
            cfg,
            op,
            d,
            freq,
            exec,
            storage,
        }
    }

    /// `n_inner` steps against the coupling target `g_field` under a fresh
    /// history `S`, then the non-negativity clamp; returns the last data
    /// loss.
    fn solve<S: BbStep>(&self, u: &mut Array3<f64>, g_field: &VectorField, rho: f64) -> f64 {
        let (op, exec) = (self.op, self.exec);
        let mut cg = S::default();
        let mut data_loss = 0.0;
        for _ in 0..self.cfg.n_inner {
            let (grad, loss) = match &self.freq {
                None => gradient_original(op, u, self.d, g_field, rho, exec),
                Some(freq) => gradient_cancelled(op, u, freq, g_field, rho, exec),
            };
            data_loss = loss;
            cg.update(u, &grad, self.cfg.initial_step, self.storage);
        }
        u.map_inplace(|v| *v = v.max(0.0));
        data_loss
    }
}

/// The residual-balancing ρ rule.
fn next_rho(primal: &VectorField, psi: &VectorField, rho: f64) -> f64 {
    let primal_res = primal.norm_sqr().sqrt();
    let psi_norm = psi.norm_sqr().sqrt().max(1e-12);
    let rho = if primal_res > 10.0 * psi_norm {
        rho * 2.0
    } else if psi_norm > 10.0 * primal_res {
        rho * 0.5
    } else {
        rho
    };
    rho.clamp(1e-6, 1e6)
}

/// The loop over the solver's state: the dual pair as `a`, the threshold it
/// was shrunk at and `ρ_used`; the history as `G_prev` and two scalars;
/// stored as `storage` says.
pub fn run(
    cfg: &AdmmConfig,
    variant: Variant,
    storage: Storage,
    op: &LaminoOperator,
    d: &Array3<f64>,
    exec: &dyn FftExecutor,
) -> Run {
    let vol_shape = op.geometry().volume_shape();
    let mut u: Array3<f64> = Array3::zeros(vol_shape);
    let (mut a, mut threshold, mut rho_used) = (VectorField::zeros(vol_shape), 0.0, 1.0);
    let mut rho = cfg.rho;
    let mut losses = Vec::new();
    let lsp = Lsp::new(cfg, variant, storage, op, d, exec);
    for iteration in 0..cfg.outer_iterations {
        exec.begin_iteration(iteration);
        let ratio = rho_used / rho;
        let (psi, scaled) = split_dual(&a, threshold);
        let mut g_field = psi;
        g_field.axpby(1.0, &scaled, -ratio);
        let data_loss = lsp.solve::<GradientBb>(&mut u, &g_field, rho);
        let grad_u = gradient(&u);
        a = grad_u.clone();
        a.axpby(1.0, &scaled, ratio);
        (threshold, rho_used) = (cfg.alpha / rho, rho);
        let psi = shrink(&a, threshold);
        storage.round_field(&mut a);
        let mut primal = grad_u;
        primal.axpby(1.0, &psi, -1.0);
        rho = next_rho(&primal, &psi, rho);
        losses.push((data_loss + cfg.alpha * tv_norm(&u), data_loss));
    }
    exec.finish();
    Run {
        reconstruction: u,
        losses,
        final_rho: rho,
    }
}

/// The loop over `ψ` and `λ` as two fields and a history of `u` and `G`.
pub fn run_two_field(
    cfg: &AdmmConfig,
    variant: Variant,
    op: &LaminoOperator,
    d: &Array3<f64>,
    exec: &dyn FftExecutor,
) -> Run {
    let vol_shape = op.geometry().volume_shape();
    let mut u: Array3<f64> = Array3::zeros(vol_shape);
    let mut psi = VectorField::zeros(vol_shape);
    let mut lambda = VectorField::zeros(vol_shape);
    let mut rho = cfg.rho;
    let mut losses = Vec::new();
    let lsp = Lsp::new(cfg, variant, Storage::Double, op, d, exec);
    for iteration in 0..cfg.outer_iterations {
        exec.begin_iteration(iteration);
        let mut g_field = psi.clone();
        g_field.axpby(1.0, &lambda, -1.0 / rho);
        let data_loss = lsp.solve::<TwoBufferBb>(&mut u, &g_field, rho);
        let grad_u = gradient(&u);
        let mut arg = grad_u.clone();
        arg.axpby(1.0, &lambda, 1.0 / rho);
        psi = shrink(&arg, cfg.alpha / rho);
        let mut primal = grad_u.clone();
        primal.axpby(1.0, &psi, -1.0);
        lambda.axpby(1.0, &primal, rho);
        rho = next_rho(&primal, &psi, rho);
        losses.push((data_loss + cfg.alpha * tv_norm(&u), data_loss));
    }
    exec.finish();
    Run {
        reconstruction: u,
        losses,
        final_rho: rho,
    }
}
