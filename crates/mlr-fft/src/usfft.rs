//! Unequally-spaced FFT (USFFT / NUFFT) in one and two dimensions.
//!
//! The laminography operators `F_u1D` and `F_u2D` evaluate discrete Fourier
//! sums at frequencies that are **not** on the uniform grid — the tilted
//! acquisition geometry places the Fourier-slice planes obliquely in the 3-D
//! spectrum. The classical fast algorithm (Dutt & Rokhlin 1993;
//! Greengard & Lee 2004) is used here:
//!
//! 1. pre-compensate the uniform samples by the inverse Fourier transform of
//!    a Gaussian spreading kernel,
//! 2. evaluate an oversampled uniform FFT (zero-padded fine grid),
//! 3. interpolate to each non-uniform frequency with the Gaussian kernel.
//!
//! The adjoint is implemented as the **exact transpose** of the forward
//! linear map (spread → unscaled inverse FFT → compensate), so the pair
//! satisfies `⟨F x, y⟩ = ⟨x, F* y⟩` to machine precision — a property the
//! conjugate-gradient iterations inside ADMM rely on.
//!
//! The fine grid has `nr` cells, the smallest `2^a·3^b ≥ r·n` for
//! oversampling `r` (`fft::fast_len`): exactly `2n` at every
//! `n = 2^a·3^b` (the benchmark's 24, 32 and 48 among them), so its FFTs
//! run [`FftPlan`]'s mixed-radix path, never Bluestein. The Gaussian width
//! follows the ratio `R = nr / n` the grid has.
//!
//! Accuracy (the accuracy tests' error against the direct non-uniform sum,
//! 1-D forward and adjoint and 2-D forward): 2.4e-10 – 1.8e-9 with the
//! default parameters (oversampling 2, half-width 10); with the `(2, 6)`
//! every laminography operator is built with, 1.0e-6 – 3.3e-6 at n = 24,
//! 48 and 96 and 1.5e-6 – 1.1e-5 at n = 32. Greengard & Lee's truncation
//! estimate for the window, `exp(−π·m·(R − 1)/(R − 1/2))`, reads 3.5e-6 at
//! `m = 6`, `R = 2` and 8.1e-10 at `m = 10`: the tests bound 24, 48 and 96
//! at 1e-5, about three times the estimate, and keep n = 32's seeded
//! adjoint case (3.1 times the estimate) at 5e-5. A grid rounded up past
//! `2n` is more accurate (1.8e-7 – 7.0e-7 when 24, 48 and 96 ran on
//! power-of-two grids, `R = 8/3`) for 1.78 times the cells.
//!
//! The window is the Gaussian factored as in Greengard & Lee: per axis a
//! frequency costs two exponentials, and its `2m+1` weights are a running
//! product against a table of `exp(−l²/β)` built with the plan (`Window`).
//! The factoring moves a weight from the per-tap exponential by rounding
//! only (≤ 1.4e-15 measured) and a transform by ≤ 2.4e-15 relative.
//!
//! The 2-D transform does only the work that reaches the result. The window
//! is separable, so a frequency costs four exponentials — its column
//! weights are computed once into a stack array, its row weights once per
//! row tap — and the `(2m+1)²` taps are a multiply-add over fine-grid row
//! slices. The fine-grid FFT transforms only the `n1` rows that hold samples
//! going forward and only the `n2` columns the result reads coming back
//! (two contiguous ranges), and every column pass is one batched
//! [`FftPlan::process_columns_unscaled`] across row segments. Nothing here
//! forks: the caller's plane loop is the one level of parallelism.
//!
//! The 1-D transform is a plane transform: [`Usfft1d::forward_rows`] /
//! [`Usfft1d::adjoint_rows`] take every column of a plane whose frequency
//! rows the caller places, on an `nr × cols` fine grid, one batched column
//! FFT, and a row axpy per window tap; `_plane` is a row-major plane and
//! `forward`/`adjoint` the one-column case. The window depends only
//! on the plan, so [`Usfft1d::with_params`] tabulates each frequency's first
//! tap cell and `2m+1` weights: `(h/2+1)·(2m+1)` f64 for the operator's
//! vertical plan (2.6 KB at h = 48, 107 KB at h = 2048). The same table for
//! [`Usfft2d`] would be `nθ·(w+1)·(4m+2)` f64 *per row plan* (6.1 MB for the
//! `h/2+1` plans of a 48³ operator) for a plan applied once per application,
//! which is why the 2-D window stays per-call.
//!
//! Every transform has a form that writes where the caller keeps the result
//! (`_plane` in 1-D, `_into` in 2-D); the `Vec`-returning methods wrap it.
//! Working memory is leased ([`crate::scratch`]); plans built with
//! [`Usfft2d::on_grid`] share one [`Usfft2dGrid`] and its pool.

use crate::fft::{fast_len, Direction, FftPlan};
use crate::fft2d::Fft2Batch;
use crate::scratch::{ScratchLease, ScratchPool};
use mlr_math::Complex64;
use std::f64::consts::PI;
use std::ops::Range;
use std::sync::Arc;

/// Default oversampling ratio of the fine grid.
pub const DEFAULT_OVERSAMPLING: usize = 2;
/// Default kernel half-width in fine-grid cells.
pub const DEFAULT_HALF_WIDTH: usize = 10;

/// Computes the Gaussian variance parameter `sigma` for a transform of size
/// `n` on a fine grid of `nr` cells (oversampling ratio `nr / n`, above the
/// nominal one when `n·r` is not a `2^a·3^b`) with kernel half-width `m_sp`,
/// following Greengard & Lee in cycles/sample.
fn gaussian_sigma(n: usize, nr: usize, m_sp: usize) -> f64 {
    let rf = nr as f64 / n as f64;
    m_sp as f64 / (4.0 * PI * (n as f64) * (n as f64) * rf * (rf - 0.5))
}

/// Pre-compensation of the `n` uniform samples: the inverse of the
/// Gaussian's Fourier transform at each centred index.
fn deconvolution(n: usize, sigma: f64) -> Vec<f64> {
    (0..n)
        .map(|j| {
            let p = j as f64 - (n / 2) as f64;
            (4.0 * PI * PI * sigma * p * p).exp()
        })
        .collect()
}

/// The Gaussian window along one axis of `nr` fine-grid cells, factored as
/// in Greengard & Lee (2004). A frequency at cell position `c` has nearest
/// cell `q0` and offset `x = c − q0`; with `β = 4σ·nr²`, tap `l ∈ [−m, m]`
/// weighs `exp(−(x − l)²/β) = exp(−(x² + 2xm)/β) · E^(l+m) · g[l]`, where
/// `E = exp(2x/β)` and `g[l] = exp(−l²/β)` is tabulated here. A frequency
/// costs two exponentials however wide the window.
struct Window {
    nr: usize,
    beta: f64,
    m_sp: usize,
    /// `g[l + m] = exp(−l²/β)` for `l ∈ [−m, m]`.
    g: Vec<f64>,
}

impl Window {
    fn new(nr: usize, sigma: f64, m_sp: usize) -> Self {
        let beta = 4.0 * sigma * (nr * nr) as f64;
        let m = m_sp as isize;
        let g = (-m..=m).map(|l| (-((l * l) as f64) / beta).exp()).collect();
        Self { nr, beta, m_sp, g }
    }

    /// The `2m + 1` taps around frequency `w` in ascending cell order:
    /// `(weight, wrapped cell)`.
    #[inline]
    fn taps(&self, w: f64) -> impl Iterator<Item = (f64, usize)> + '_ {
        let center = wrap_unit(w) * self.nr as f64;
        let q0 = center.round() as isize;
        let x = center - q0 as f64;
        let first = (-(x * x + 2.0 * x * self.m_sp as f64) / self.beta).exp();
        let ratio = (2.0 * x / self.beta).exp();
        let nr = self.nr as isize;
        let cells = q0 - self.m_sp as isize..;
        self.g.iter().zip(cells).scan(first, move |e, (&g, q)| {
            let weight = *e * g;
            *e *= ratio;
            Some((weight, q.rem_euclid(nr) as usize))
        })
    }
}

/// One-dimensional unequally-spaced FFT.
///
/// Maps `n` uniform samples (centered integer indices `p = -n/2 .. n/2-1`)
/// to values of the Fourier sum `Σ_p u[p]·exp(-2πi·ω·p)` at a fixed list of
/// non-uniform frequencies `ω ∈ [-0.5, 0.5)` (cycles per sample).
pub struct Usfft1d {
    n: usize,
    nr: usize,
    /// Window taps per frequency, `2·half_width + 1`.
    n_taps: usize,
    freqs: Vec<f64>,
    deconv: Vec<f64>,
    scale: f64,
    plan: Arc<FftPlan>,
    /// Per frequency, the fine-grid cell of its first window tap; tap `t`
    /// sits at cell `(tap_start + t) mod nr`.
    tap_start: Vec<usize>,
    /// Per frequency, its `n_taps` window weights in ascending cell order.
    tap_weights: Vec<f64>,
    /// Pooled fine grids (`nr × cols`, one row more for the adjoint): the
    /// transforms stop allocating their spreading grid once the pool is warm.
    fine_pool: ScratchPool,
}

impl Usfft1d {
    /// Creates a transform for `n` uniform samples evaluated at the given
    /// non-uniform frequencies (cycles/sample, any values — they are wrapped
    /// periodically onto `[-0.5, 0.5)`).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize, freqs: Vec<f64>) -> Self {
        Self::with_params(n, freqs, DEFAULT_OVERSAMPLING, DEFAULT_HALF_WIDTH)
    }

    /// Creates a transform with explicit oversampling and kernel half-width.
    ///
    /// # Panics
    /// Panics when `n == 0`, `oversampling < 2`, or `half_width == 0`.
    pub fn with_params(n: usize, freqs: Vec<f64>, oversampling: usize, half_width: usize) -> Self {
        assert!(n > 0, "USFFT size must be positive");
        assert!(oversampling >= 2, "oversampling must be >= 2");
        assert!(half_width > 0, "kernel half-width must be positive");
        let nr = fast_len(n * oversampling);
        let sigma = gaussian_sigma(n, nr, half_width);
        let scale = 1.0 / (nr as f64 * (4.0 * PI * sigma).sqrt());
        let n_taps = 2 * half_width + 1;
        let window = Window::new(nr, sigma, half_width);
        let mut tap_start = Vec::with_capacity(freqs.len());
        let mut tap_weights = Vec::with_capacity(freqs.len() * n_taps);
        for &w in &freqs {
            let mut taps = window.taps(w).peekable();
            tap_start.extend(taps.peek().map(|&(_, cell)| cell));
            tap_weights.extend(taps.map(|(weight, _)| weight));
        }
        Self {
            n,
            nr,
            n_taps,
            freqs,
            deconv: deconvolution(n, sigma),
            scale,
            plan: Arc::new(FftPlan::new(nr)),
            tap_start,
            tap_weights,
            fine_pool: ScratchPool::new(),
        }
    }

    /// Number of uniform input samples.
    pub fn input_len(&self) -> usize {
        self.n
    }

    /// Number of non-uniform output frequencies.
    pub fn output_len(&self) -> usize {
        self.freqs.len()
    }

    /// The plan's fine-grid scratch pool (diagnostics).
    pub fn scratch(&self) -> &ScratchPool {
        &self.fine_pool
    }

    /// Per frequency: the first tap cell and the window weights from there.
    fn windows(&self) -> impl Iterator<Item = (usize, &[f64])> {
        let weights = self.tap_weights.chunks_exact(self.n_taps);
        self.tap_start.iter().copied().zip(weights)
    }

    /// Forward transform: `out[k] = Σ_p u[p]·exp(-2πi·ω_k·p)`.
    ///
    /// # Panics
    /// Panics when `u.len() != self.input_len()`.
    pub fn forward(&self, u: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.freqs.len()];
        self.forward_plane(u, 1, &mut out);
        out
    }

    /// [`Self::forward`] of every column of a row-major `input_len() × cols`
    /// plane into the caller's `output_len() × cols` plane, column for column
    /// bit-identical, on one `nr × cols` fine grid (see the module doc).
    ///
    /// # Panics
    /// As [`Self::forward_rows`].
    pub fn forward_plane(&self, u: &[Complex64], cols: usize, out: &mut [Complex64]) {
        self.forward_rows(u, cols, out.chunks_mut(cols));
    }

    /// [`Self::forward_plane`] into rows the caller places: row `k`
    /// (frequency `k`, `cols` values) is the `k`-th slice of `out`.
    ///
    /// # Panics
    /// Panics when `cols == 0` or a row count or length does not match.
    pub fn forward_rows<'a>(
        &self,
        u: &[Complex64],
        cols: usize,
        out: impl ExactSizeIterator<Item = &'a mut [Complex64]>,
    ) {
        assert_eq!(u.len(), self.n * cols, "USFFT input length mismatch");
        assert_eq!(out.len(), self.freqs.len(), "USFFT output length mismatch");
        // 1. Pre-compensate and place row p on fine row (p mod nr). The grid
        //    is pooled scratch — no allocation in steady state.
        let mut fine = self.fine_pool.lease_zeroed(self.nr * cols);
        for (j, (&d, row)) in self.deconv.iter().zip(u.chunks_exact(cols)).enumerate() {
            let fine_row = &mut fine[embed(j, self.n, self.nr) * cols..][..cols];
            for (f, x) in fine_row.iter_mut().zip(row) {
                *f = x.scale(d);
            }
        }
        // 2. Oversampled FFT down every column: fine[q] = Σ_p v[p]·exp(-2πi·q·p/nr).
        self.plan
            .process_columns_unscaled(&mut fine, cols, 0..cols, Direction::Forward);
        // 3. Interpolate to each non-uniform frequency, taps in order.
        for ((start, weights), acc) in self.windows().zip(out) {
            assert_eq!(acc.len(), cols, "USFFT output length mismatch");
            acc.fill(Complex64::ZERO);
            for (t, &weight) in weights.iter().enumerate() {
                let fine_row = &fine[((start + t) % self.nr) * cols..][..cols];
                for (a, f) in acc.iter_mut().zip(fine_row) {
                    *a += f.scale(weight);
                }
            }
            acc.iter_mut().for_each(|a| *a = a.scale(self.scale));
        }
    }

    /// Adjoint transform: `out[p] = Σ_k y[k]·exp(+2πi·ω_k·p)`, implemented as
    /// the exact transpose of [`Self::forward`].
    ///
    /// # Panics
    /// Panics when `y.len() != self.output_len()`.
    pub fn adjoint(&self, y: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.n];
        self.adjoint_plane(y, 1, &mut out);
        out
    }

    /// [`Self::adjoint`] of every column of a row-major `output_len() × cols`
    /// plane, into the caller's `input_len() × cols` plane, as
    /// [`Self::forward_plane`].
    ///
    /// # Panics
    /// As [`Self::adjoint_rows`].
    pub fn adjoint_plane(&self, y: &[Complex64], cols: usize, out: &mut [Complex64]) {
        self.adjoint_rows(y.chunks(cols), cols, out);
    }

    /// [`Self::adjoint_plane`] from rows the caller places: row `k`
    /// (frequency `k`, `cols` values) is the `k`-th slice of `y`.
    ///
    /// # Panics
    /// Panics when `cols == 0` or a row count or length does not match.
    pub fn adjoint_rows<'a>(
        &self,
        y: impl ExactSizeIterator<Item = &'a [Complex64]>,
        cols: usize,
        out: &mut [Complex64],
    ) {
        assert_eq!(
            y.len(),
            self.freqs.len(),
            "USFFT adjoint input length mismatch"
        );
        assert_eq!(
            out.len(),
            self.n * cols,
            "USFFT adjoint output length mismatch"
        );
        // 1. Spread each row onto the fine grid (transpose of interpolation),
        //    taps in order; the lease's last row holds the scaled row.
        let mut lease = self.fine_pool.lease_zeroed((self.nr + 1) * cols);
        let (fine, scaled) = lease.split_at_mut(self.nr * cols);
        for ((start, weights), row) in self.windows().zip(y) {
            assert_eq!(row.len(), cols, "USFFT adjoint input length mismatch");
            for (s, v) in scaled.iter_mut().zip(row) {
                *s = v.scale(self.scale);
            }
            for (t, &weight) in weights.iter().enumerate() {
                let fine_row = &mut fine[((start + t) % self.nr) * cols..][..cols];
                for (f, s) in fine_row.iter_mut().zip(&*scaled) {
                    *f += s.scale(weight);
                }
            }
        }
        // 2. Conjugate-transpose of the forward FFT = unscaled inverse FFT.
        self.plan
            .process_columns_unscaled(fine, cols, 0..cols, Direction::Inverse);
        // 3. Transpose of placement + compensation.
        let rows = out.chunks_exact_mut(cols);
        for (j, (&d, row)) in self.deconv.iter().zip(rows).enumerate() {
            let fine_row = &fine[embed(j, self.n, self.nr) * cols..][..cols];
            for (o, f) in row.iter_mut().zip(fine_row) {
                *o = f.scale(d);
            }
        }
    }

    /// Naive `O(n·m)` evaluation of the forward transform (ground truth for
    /// tests and for the small exact paths in examples).
    pub fn forward_naive(&self, u: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(u.len(), self.n, "USFFT input length mismatch");
        let half = (self.n / 2) as isize;
        self.freqs
            .iter()
            .map(|&w| {
                let mut acc = Complex64::ZERO;
                for (j, &val) in u.iter().enumerate() {
                    let p = (j as isize - half) as f64;
                    acc += val * Complex64::cis(-2.0 * PI * w * p);
                }
                acc
            })
            .collect()
    }

    /// Naive `O(n·m)` evaluation of the adjoint transform.
    pub fn adjoint_naive(&self, y: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(
            y.len(),
            self.freqs.len(),
            "USFFT adjoint input length mismatch"
        );
        let half = (self.n / 2) as isize;
        (0..self.n)
            .map(|j| {
                let p = (j as isize - half) as f64;
                let mut acc = Complex64::ZERO;
                for (k, &val) in y.iter().enumerate() {
                    acc += val * Complex64::cis(2.0 * PI * self.freqs[k] * p);
                }
                acc
            })
            .collect()
    }
}

/// Wraps a frequency onto `[0, 1)` (the fine-grid index space is periodic).
#[inline]
fn wrap_unit(w: f64) -> f64 {
    let r = w.rem_euclid(1.0);
    if r >= 1.0 {
        0.0
    } else {
        r
    }
}

/// Fine-grid index of uniform sample `j` of `n`: the centred index
/// `j - n/2`, wrapped onto `0..nr`.
#[inline]
fn embed(j: usize, n: usize, nr: usize) -> usize {
    (j as isize - (n / 2) as isize).rem_euclid(nr as isize) as usize
}

/// Most taps (`2·half_width + 1`) a 2-D window may have per axis; bounds the
/// stack array holding one frequency's column weights.
const MAX_TAPS: usize = 33;

/// What every [`Usfft2d`] of one `(n1, n2, oversampling, half_width)`
/// shares: the fine-grid FFT (one plan for both axes when square), the two
/// axes' windows, the pre-compensation, and the pooled fine grids (length
/// `nr1 * nr2`) the transforms lease. A plan is a grid plus its frequency list
/// ([`Usfft2d::on_grid`]), so plans built on one grid build these once and
/// park one fine grid per transform running at once, however many plans
/// there are.
pub struct Usfft2dGrid {
    n1: usize,
    n2: usize,
    nr1: usize,
    nr2: usize,
    window1: Window,
    window2: Window,
    deconv1: Vec<f64>,
    deconv2: Vec<f64>,
    scale: f64,
    fine_fft: Fft2Batch,
    fine_pool: ScratchPool,
}

impl Usfft2dGrid {
    /// The grid for an `n1 × n2` uniform input with explicit oversampling
    /// and kernel half-width.
    ///
    /// # Panics
    /// Panics when a dimension is zero, `oversampling < 2`, `half_width == 0`,
    /// or `half_width > 16` (past ~12 cells the Gaussian window is below
    /// double precision anyway).
    pub fn new(n1: usize, n2: usize, oversampling: usize, half_width: usize) -> Self {
        assert!(n1 > 0 && n2 > 0, "USFFT2D dimensions must be positive");
        assert!(oversampling >= 2, "oversampling must be >= 2");
        assert!(half_width > 0, "kernel half-width must be positive");
        assert!(2 * half_width < MAX_TAPS, "kernel half-width too large");
        let nr1 = fast_len(n1 * oversampling);
        let nr2 = fast_len(n2 * oversampling);
        let sigma1 = gaussian_sigma(n1, nr1, half_width);
        let sigma2 = gaussian_sigma(n2, nr2, half_width);
        let scale = 1.0
            / (nr1 as f64 * (4.0 * PI * sigma1).sqrt())
            / (nr2 as f64 * (4.0 * PI * sigma2).sqrt());
        Self {
            n1,
            n2,
            nr1,
            nr2,
            window1: Window::new(nr1, sigma1, half_width),
            window2: Window::new(nr2, sigma2, half_width),
            deconv1: deconvolution(n1, sigma1),
            deconv2: deconvolution(n2, sigma2),
            scale,
            fine_fft: Fft2Batch::new(nr1, nr2),
            fine_pool: ScratchPool::new(),
        }
    }

    /// The fine-grid pool (diagnostics).
    pub fn scratch(&self) -> &ScratchPool {
        &self.fine_pool
    }

    /// Builds the pre-compensated, zero-embedded fine grid and transforms it.
    fn fine_forward(&self, u: &[Complex64]) -> ScratchLease<'_> {
        let mut fine = self.fine_pool.lease_zeroed(self.nr1 * self.nr2);
        for j1 in 0..self.n1 {
            let r1 = embed(j1, self.n1, self.nr1);
            for j2 in 0..self.n2 {
                let r2 = embed(j2, self.n2, self.nr2);
                fine[r1 * self.nr2 + r2] =
                    u[j1 * self.n2 + j2].scale(self.deconv1[j1] * self.deconv2[j2]);
            }
        }
        // Only the n1 embedded rows hold samples; a zero row transforms to
        // a zero row, so the row pass skips the rest.
        let rows = (0..self.n1).map(|j1| embed(j1, self.n1, self.nr1));
        self.fft_fine(&mut fine, Direction::Forward, rows, Some(0..self.nr2));
        fine
    }

    /// Unscaled row pass over `rows` (length `nr2` each), then one batched
    /// column pass (length `nr1` each) over each range of `cols`. Callers
    /// list the rows that are non-zero going in and the columns that are
    /// read coming out; the rest of the grid is not transformed.
    fn fft_fine(
        &self,
        fine: &mut [Complex64],
        dir: Direction,
        rows: impl Iterator<Item = usize>,
        cols: impl IntoIterator<Item = Range<usize>>,
    ) {
        let (nr2, fft) = (self.nr2, &self.fine_fft);
        for r in rows {
            fft.row_plan
                .process_unscaled(&mut fine[r * nr2..(r + 1) * nr2], dir);
        }
        for range in cols {
            fft.col_plan.process_columns_unscaled(fine, nr2, range, dir);
        }
    }
}

/// Two-dimensional unequally-spaced FFT.
///
/// Maps an `n1 × n2` uniform grid (centered indices) to the Fourier sum
/// `Σ_{p1,p2} u[p1,p2]·exp(-2πi(ω1·p1 + ω2·p2))` evaluated at a list of
/// non-uniform frequency pairs `(ω1, ω2)`.
pub struct Usfft2d {
    grid: Arc<Usfft2dGrid>,
    freqs: Vec<(f64, f64)>,
}

impl Usfft2d {
    /// Creates a transform for an `n1 × n2` uniform grid evaluated at the
    /// given non-uniform frequency pairs `(ω1, ω2)` in cycles/sample.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(n1: usize, n2: usize, freqs: Vec<(f64, f64)>) -> Self {
        Self::with_params(n1, n2, freqs, DEFAULT_OVERSAMPLING, DEFAULT_HALF_WIDTH)
    }

    /// Creates a transform with explicit oversampling and kernel half-width,
    /// on a grid of its own.
    ///
    /// # Panics
    /// As [`Usfft2dGrid::new`].
    pub fn with_params(
        n1: usize,
        n2: usize,
        freqs: Vec<(f64, f64)>,
        oversampling: usize,
        half_width: usize,
    ) -> Self {
        let grid = Usfft2dGrid::new(n1, n2, oversampling, half_width);
        Self::on_grid(Arc::new(grid), freqs)
    }

    /// A transform at `freqs` on the caller's grid, shared with every other
    /// plan built on it.
    pub fn on_grid(grid: Arc<Usfft2dGrid>, freqs: Vec<(f64, f64)>) -> Self {
        Self { grid, freqs }
    }

    /// Number of non-uniform output frequencies.
    pub fn output_len(&self) -> usize {
        self.freqs.len()
    }

    /// The non-uniform frequency pairs this transform evaluates.
    pub fn freqs(&self) -> &[(f64, f64)] {
        &self.freqs
    }

    /// Forward transform of a row-major `n1 × n2` grid.
    ///
    /// # Panics
    /// Panics when `u.len() != n1 * n2`.
    pub fn forward(&self, u: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.freqs.len()];
        self.forward_into(u, &mut out);
        out
    }

    /// [`Self::forward`] into the caller's `output_len()` values.
    ///
    /// # Panics
    /// Panics when `u.len() != n1 * n2` or `out.len() != self.output_len()`.
    pub fn forward_into(&self, u: &[Complex64], out: &mut [Complex64]) {
        let g = &*self.grid;
        assert_eq!(u.len(), g.n1 * g.n2, "USFFT2D input length mismatch");
        assert_eq!(
            out.len(),
            self.freqs.len(),
            "USFFT2D output length mismatch"
        );
        let fine = g.fine_forward(u);
        let mut col_taps = [(0.0, 0); MAX_TAPS];
        let col_taps = &mut col_taps[..g.window2.g.len()];
        for (value, &(w1, w2)) in out.iter_mut().zip(&self.freqs) {
            // The window is separable: the column weights are shared by
            // every row tap of this frequency.
            let window2 = g.window2.taps(w2);
            col_taps.iter_mut().zip(window2).for_each(|(s, t)| *s = t);
            let mut acc = Complex64::ZERO;
            for (k1, i1) in g.window1.taps(w1) {
                let row = &fine[i1 * g.nr2..(i1 + 1) * g.nr2];
                for &(k2, i2) in col_taps.iter() {
                    acc += row[i2].scale(k1 * k2);
                }
            }
            *value = acc.scale(g.scale);
        }
    }

    /// Adjoint transform: `out[p1,p2] = Σ_k y[k]·exp(+2πi(ω1_k·p1 + ω2_k·p2))`,
    /// implemented as the exact transpose of [`Self::forward`].
    ///
    /// # Panics
    /// Panics when `y.len() != self.output_len()`.
    pub fn adjoint(&self, y: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.grid.n1 * self.grid.n2];
        self.adjoint_into(y, &mut out);
        out
    }

    /// [`Self::adjoint`] into the caller's row-major `n1 × n2` grid.
    ///
    /// # Panics
    /// Panics when `y.len() != self.output_len()` or `out.len() != n1 * n2`.
    pub fn adjoint_into(&self, y: &[Complex64], out: &mut [Complex64]) {
        let g = &*self.grid;
        assert_eq!(
            y.len(),
            self.freqs.len(),
            "USFFT2D adjoint input length mismatch"
        );
        assert_eq!(
            out.len(),
            g.n1 * g.n2,
            "USFFT2D adjoint output length mismatch"
        );
        let mut fine = g.fine_pool.lease_zeroed(g.nr1 * g.nr2);
        let mut col_taps = [(0.0, 0); MAX_TAPS];
        let col_taps = &mut col_taps[..g.window2.g.len()];
        for (&val, &(w1, w2)) in y.iter().zip(&self.freqs) {
            let window2 = g.window2.taps(w2);
            col_taps.iter_mut().zip(window2).for_each(|(s, t)| *s = t);
            let scaled = val.scale(g.scale);
            for (k1, i1) in g.window1.taps(w1) {
                let row = &mut fine[i1 * g.nr2..(i1 + 1) * g.nr2];
                for &(k2, i2) in col_taps.iter() {
                    row[i2] += scaled.scale(k1 * k2);
                }
            }
        }
        // Only the n2 embedded columns, at the two ends of a row, are read below.
        let half = g.n2 / 2;
        let cols = [0..g.n2 - half, g.nr2 - half..g.nr2];
        g.fft_fine(&mut fine, Direction::Inverse, 0..g.nr1, cols);
        for j1 in 0..g.n1 {
            let r1 = embed(j1, g.n1, g.nr1);
            for j2 in 0..g.n2 {
                let r2 = embed(j2, g.n2, g.nr2);
                out[j1 * g.n2 + j2] = fine[r1 * g.nr2 + r2].scale(g.deconv1[j1] * g.deconv2[j2]);
            }
        }
    }

    /// Naive `O(n1·n2·m)` forward evaluation (ground truth for tests).
    pub fn forward_naive(&self, u: &[Complex64]) -> Vec<Complex64> {
        let (n1, n2) = (self.grid.n1, self.grid.n2);
        assert_eq!(u.len(), n1 * n2, "USFFT2D input length mismatch");
        let half1 = (n1 / 2) as isize;
        let half2 = (n2 / 2) as isize;
        self.freqs
            .iter()
            .map(|&(w1, w2)| {
                let mut acc = Complex64::ZERO;
                for j1 in 0..n1 {
                    let p1 = (j1 as isize - half1) as f64;
                    for j2 in 0..n2 {
                        let p2 = (j2 as isize - half2) as f64;
                        acc += u[j1 * n2 + j2] * Complex64::cis(-2.0 * PI * (w1 * p1 + w2 * p2));
                    }
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::bits;
    use mlr_math::norms::{l2_norm_c, max_abs_diff_c};
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn random_c(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    fn random_freqs(m: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded(seed);
        (0..m).map(|_| rng.gen::<f64>() - 0.5).collect()
    }

    /// `(n, half-width, bound)` for the accuracy tests: the default window,
    /// then the operators' `(2, 6)` at the benchmark sizes, where the fine
    /// grid is exactly `2n`; the bounds are derived in the module doc.
    const ACCURACY_CASES: [(usize, usize, f64); 5] = [
        (32, DEFAULT_HALF_WIDTH, 1e-5),
        (24, 6, 1e-5),
        (32, 6, 5e-5),
        (48, 6, 1e-5),
        (96, 6, 1e-5),
    ];

    #[test]
    fn usfft1d_matches_naive_forward() {
        for (case, &(n, m_sp, bound)) in ACCURACY_CASES.iter().enumerate() {
            let m = 45 + n;
            let u = random_c(n, 1 + case as u64);
            let t = Usfft1d::with_params(n, random_freqs(m, 2 + case as u64), 2, m_sp);
            let fast = t.forward(&u);
            let slow = t.forward_naive(&u);
            let err = max_abs_diff_c(&fast, &slow) / l2_norm_c(&slow) * (m as f64).sqrt();
            assert!(err < bound, "n {n} m {m_sp}: relative error {err}");
        }
    }

    #[test]
    fn usfft1d_uniform_freqs_match_fft() {
        // When the "non-uniform" frequencies are exactly the uniform grid
        // k/n, the USFFT must agree with a centered DFT.
        let n = 16;
        let freqs: Vec<f64> = (0..n)
            .map(|k| (k as f64 - (n / 2) as f64) / n as f64)
            .collect();
        let u = random_c(n, 3);
        let t = Usfft1d::new(n, freqs.clone());
        let fast = t.forward(&u);
        let slow = t.forward_naive(&u);
        assert!(max_abs_diff_c(&fast, &slow) < 1e-8);
    }

    #[test]
    fn usfft1d_adjoint_matches_naive() {
        let mut cases = vec![(24, DEFAULT_HALF_WIDTH, 1e-5)];
        cases.extend_from_slice(&ACCURACY_CASES[1..]);
        for (case, &(n, m_sp, bound)) in cases.iter().enumerate() {
            let m = 31;
            let t = Usfft1d::with_params(n, random_freqs(m, 5 + case as u64), 2, m_sp);
            let y = random_c(m, 6 + case as u64);
            let fast = t.adjoint(&y);
            let slow = t.adjoint_naive(&y);
            let err = max_abs_diff_c(&fast, &slow) / l2_norm_c(&slow) * (n as f64).sqrt();
            assert!(err < bound, "n {n} m {m_sp}: relative error {err}");
        }
    }

    #[test]
    fn usfft1d_exact_adjointness() {
        // <F x, y> == <x, F* y> holds to machine precision because the
        // adjoint is the literal transpose of the forward map.
        let n = 40;
        let m = 27;
        let t = Usfft1d::new(n, random_freqs(m, 7));
        let x = random_c(n, 8);
        let y = random_c(m, 9);
        let fx = t.forward(&x);
        let fty = t.adjoint(&y);
        let lhs: Complex64 = fx.iter().zip(&y).map(|(a, b)| *a * b.conj()).sum();
        let rhs: Complex64 = x.iter().zip(&fty).map(|(a, b)| *a * b.conj()).sum();
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0));
    }

    #[test]
    fn usfft1d_frequency_wrapping() {
        // Frequencies outside [-0.5, 0.5) are periodic aliases.
        let n = 16;
        let u = random_c(n, 10);
        let t1 = Usfft1d::new(n, vec![0.3]);
        let t2 = Usfft1d::new(n, vec![0.3 - 1.0]);
        let a = t1.forward(&u);
        let b = t2.forward(&u);
        assert!((a[0] - b[0]).abs() < 1e-8);
    }

    #[test]
    fn usfft1d_empty_freqs() {
        let t = Usfft1d::new(8, vec![]);
        assert_eq!(t.output_len(), 0);
        let out = t.forward(&random_c(8, 11));
        assert!(out.is_empty());
        let back = t.adjoint(&[]);
        assert_eq!(back.len(), 8);
        assert!(back.iter().all(|z| z.abs() == 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn usfft1d_wrong_input_length_panics() {
        let t = Usfft1d::new(8, vec![0.1]);
        let _ = t.forward(&random_c(4, 12));
    }

    /// The 1-D transform as it was before the window moved into the plan
    /// and was factored: `2m+1` kernel exponentials per frequency on every
    /// call, centred-wrap indices spelled out with `rem_euclid`. Kept as the
    /// yardstick for `forward`/`adjoint` and the plan's weights.
    struct Reference1d<'a> {
        t: &'a Usfft1d,
        m_sp: usize,
        sigma: f64,
    }

    impl Reference1d<'_> {
        fn kernel(&self, dist_cells: f64) -> f64 {
            Reference::kernel(dist_cells, self.t.nr, self.sigma)
        }

        fn forward(&self, u: &[Complex64]) -> Vec<Complex64> {
            let t = self.t;
            let nr = t.nr as isize;
            let m_sp = self.m_sp as isize;
            let mut fine = vec![Complex64::ZERO; t.nr];
            let half = (t.n / 2) as isize;
            for (j, &val) in u.iter().enumerate() {
                let p = j as isize - half;
                fine[p.rem_euclid(nr) as usize] = val.scale(t.deconv[j]);
            }
            t.plan.process(&mut fine, Direction::Forward);
            t.freqs
                .iter()
                .map(|&w| {
                    let center = wrap_unit(w) * t.nr as f64;
                    let q0 = center.round() as isize;
                    let mut acc = Complex64::ZERO;
                    for l in -m_sp..=m_sp {
                        let q = q0 + l;
                        let weight = self.kernel(center - q as f64);
                        acc += fine[q.rem_euclid(nr) as usize].scale(weight);
                    }
                    acc.scale(t.scale)
                })
                .collect()
        }

        fn adjoint(&self, y: &[Complex64]) -> Vec<Complex64> {
            let t = self.t;
            let nr = t.nr as isize;
            let m_sp = self.m_sp as isize;
            let mut fine = vec![Complex64::ZERO; t.nr];
            for (k, &val) in y.iter().enumerate() {
                let center = wrap_unit(t.freqs[k]) * t.nr as f64;
                let q0 = center.round() as isize;
                let scaled = val.scale(t.scale);
                for l in -m_sp..=m_sp {
                    let q = q0 + l;
                    let weight = self.kernel(center - q as f64);
                    fine[q.rem_euclid(nr) as usize] += scaled.scale(weight);
                }
            }
            t.plan.process_unscaled(&mut fine, Direction::Inverse);
            let half = (t.n / 2) as isize;
            (0..t.n)
                .map(|j| {
                    let p = j as isize - half;
                    fine[p.rem_euclid(nr) as usize].scale(t.deconv[j])
                })
                .collect()
        }
    }

    /// Relative max-norm distance of `fast` from `reference`.
    fn rel_max_diff(fast: &[Complex64], reference: &[Complex64]) -> f64 {
        let peak = reference.iter().map(|z| z.abs()).fold(0.0, f64::max);
        max_abs_diff_c(fast, reference) / peak
    }

    /// How far the factored window may move a transform from the per-call
    /// exponentials, as a relative max-norm: rounding, orders of magnitude
    /// below the transform's own error against the direct sum.
    const FACTORED_WINDOW_TOL: f64 = 1e-13;

    #[test]
    fn usfft1d_is_within_1e13_of_per_call_window_reference_and_its_forms_agree_bitwise() {
        // (n, half-width): the operators' half-width 6 (nr == 2n); a grid
        // rounded up past 2n (20 → 24 cells) at the default half-width; and
        // one whose 21-tap window is wider than its 12-cell fine grid, so
        // taps wrap more than once.
        let cases = [(24, 6), (32, 6), (48, 6), (10, 10), (6, 10)];
        let poison = Complex64::new(f64::NAN, 1.0);
        for (case, &(n, m_sp)) in cases.iter().enumerate() {
            // Frequencies on the ±0.5 seam, at and around 0 (taps wrap the
            // low and the high grid edge), outside [-0.5, 0.5), then random.
            let mut freqs = vec![0.5, -0.5, 0.0, -1e-3, 1e-3, 0.499, -0.499, 1.25, -0.75];
            freqs.extend(random_freqs(2 * n, 70 + case as u64));
            let t = Usfft1d::with_params(n, freqs, 2, m_sp);
            let reference = Reference1d {
                t: &t,
                m_sp,
                sigma: gaussian_sigma(n, t.nr, m_sp),
            };
            // The plan's tabulated weights against per-tap exponentials;
            // every weight is at most 1, so the max-norm is absolute.
            for (&w, (start, weights)) in t.freqs.iter().zip(t.windows()) {
                let center = wrap_unit(w) * t.nr as f64;
                let q0 = center.round() as isize;
                assert_eq!(
                    start,
                    (q0 - m_sp as isize).rem_euclid(t.nr as isize) as usize
                );
                for (l, &weight) in (-(m_sp as isize)..).zip(weights) {
                    let exact = reference.kernel(center - (q0 + l) as f64);
                    assert!(
                        (weight - exact).abs() < FACTORED_WINDOW_TOL,
                        "weight n {n} w {w}"
                    );
                }
            }
            let m = t.output_len();
            let u = random_c(n, 80 + case as u64);
            let y = random_c(m, 90 + case as u64);
            let forward = t.forward(&u);
            let adjoint = t.adjoint(&y);
            let err = rel_max_diff(&forward, &reference.forward(&u));
            assert!(err < FACTORED_WINDOW_TOL, "forward n {n} m {m_sp}: {err:e}");
            let err = rel_max_diff(&adjoint, &reference.adjoint(&y));
            assert!(err < FACTORED_WINDOW_TOL, "adjoint n {n} m {m_sp}: {err:e}");
            let (forward, adjoint) = (bits(&forward), bits(&adjoint));
            // A plane of `cols` columns against `cols` one-column calls and
            // the row-placed forms; the plane forms start from a poisoned
            // target and must overwrite every element. Twice: the second
            // pass runs on recycled (stale) pool buffers.
            let cols = n;
            let u_plane = random_c(n * cols, 100 + case as u64);
            let y_plane = random_c(m * cols, 110 + case as u64);
            let column = |plane: &[Complex64], c: usize| -> Vec<Complex64> {
                plane.iter().skip(c).step_by(cols).copied().collect()
            };
            for _ in 0..2 {
                assert_eq!(bits(&t.forward(&u)), forward, "forward n {n} m {m_sp}");
                assert_eq!(bits(&t.adjoint(&y)), adjoint, "adjoint n {n} m {m_sp}");
                let mut out = vec![poison; m * cols];
                t.forward_plane(&u_plane, cols, &mut out);
                let mut back = vec![poison; n * cols];
                t.adjoint_plane(&y_plane, cols, &mut back);
                // The row-placed forms on rows two apart, the others poison.
                let mut spread = vec![poison; 2 * m * cols];
                t.forward_rows(&u_plane, cols, spread.chunks_mut(cols).step_by(2));
                let rows: Vec<_> = spread.chunks(cols).step_by(2).flatten().copied().collect();
                assert_eq!(bits(&rows), bits(&out), "forward_rows {n}");
                for (row, y_row) in spread.chunks_mut(cols).step_by(2).zip(y_plane.chunks(cols)) {
                    row.copy_from_slice(y_row);
                }
                let mut rows_back = vec![poison; n * cols];
                t.adjoint_rows(spread.chunks(cols).step_by(2), cols, &mut rows_back);
                assert_eq!(bits(&rows_back), bits(&back), "adjoint_rows {n}");
                for c in 0..cols {
                    let single = t.forward(&column(&u_plane, c));
                    assert_eq!(bits(&column(&out, c)), bits(&single), "forward_plane {n}");
                    let single = t.adjoint(&column(&y_plane, c));
                    assert_eq!(bits(&column(&back, c)), bits(&single), "adjoint_plane {n}");
                }
            }
        }
    }

    #[test]
    fn usfft2d_matches_naive_forward() {
        let mut cases = vec![(12, 16, DEFAULT_HALF_WIDTH, 1e-5)];
        cases.extend(
            ACCURACY_CASES[1..]
                .iter()
                .map(|&(n, m_sp, bound)| (n, n, m_sp, bound)),
        );
        for (case, &(n1, n2, m_sp, bound)) in cases.iter().enumerate() {
            let m = 40;
            let mut rng = seeded(13 + case as u64);
            let freqs: Vec<(f64, f64)> = (0..m)
                .map(|_| (rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            let u = random_c(n1 * n2, 14 + case as u64);
            let t = Usfft2d::with_params(n1, n2, freqs, 2, m_sp);
            let fast = t.forward(&u);
            let slow = t.forward_naive(&u);
            let err = max_abs_diff_c(&fast, &slow) / l2_norm_c(&slow) * (m as f64).sqrt();
            assert!(err < bound, "{n1}x{n2} m {m_sp}: relative error {err}");
        }
    }

    #[test]
    fn usfft2d_exact_adjointness() {
        let (n1, n2) = (10, 14);
        let m = 25;
        let mut rng = seeded(15);
        let freqs: Vec<(f64, f64)> = (0..m)
            .map(|_| (rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let t = Usfft2d::new(n1, n2, freqs);
        let x = random_c(n1 * n2, 16);
        let y = random_c(m, 17);
        let fx = t.forward(&x);
        let fty = t.adjoint(&y);
        let lhs: Complex64 = fx.iter().zip(&y).map(|(a, b)| *a * b.conj()).sum();
        let rhs: Complex64 = x.iter().zip(&fty).map(|(a, b)| *a * b.conj()).sum();
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    /// The 2-D transform as it was before the window was factored and the
    /// passes pruned: `(2m+1)²` kernel exponentials per frequency, every
    /// fine row and column transformed through two full-grid transposes.
    /// Kept as the yardstick for `forward`/`adjoint`.
    struct Reference<'a> {
        t: &'a Usfft2d,
        m_sp: usize,
        sigma1: f64,
        sigma2: f64,
    }

    impl Reference<'_> {
        fn kernel(dist_cells: f64, nr: usize, sigma: f64) -> f64 {
            let d = dist_cells / nr as f64;
            (-(d * d) / (4.0 * sigma)).exp()
        }

        fn fft_fine(&self, fine: &mut [Complex64], dir: Direction, scaled: bool) {
            let g = &*self.t.grid;
            let (nr1, nr2) = (g.nr1, g.nr2);
            let run = |plan: &FftPlan, line: &mut [Complex64]| {
                if scaled {
                    plan.process(line, dir);
                } else {
                    plan.process_unscaled(line, dir);
                }
            };
            for row in fine.chunks_mut(nr2) {
                run(&g.fine_fft.row_plan, row);
            }
            let mut transposed = vec![Complex64::ZERO; nr1 * nr2];
            for r in 0..nr1 {
                for c in 0..nr2 {
                    transposed[c * nr1 + r] = fine[r * nr2 + c];
                }
            }
            for col in transposed.chunks_mut(nr1) {
                run(&g.fine_fft.col_plan, col);
            }
            for c in 0..nr2 {
                for r in 0..nr1 {
                    fine[r * nr2 + c] = transposed[c * nr1 + r];
                }
            }
        }

        /// Visits every tap of frequency `k` in the old loop order:
        /// `(fine index, k1 * k2)`.
        fn for_each_tap(&self, k: usize, mut visit: impl FnMut(usize, f64)) {
            let g = &*self.t.grid;
            let m_sp = self.m_sp as isize;
            let (w1, w2) = self.t.freqs[k];
            let c1 = wrap_unit(w1) * g.nr1 as f64;
            let c2 = wrap_unit(w2) * g.nr2 as f64;
            let q1 = c1.round() as isize;
            let q2 = c2.round() as isize;
            for l1 in -m_sp..=m_sp {
                let k1 = Self::kernel(c1 - (q1 + l1) as f64, g.nr1, self.sigma1);
                let i1 = (q1 + l1).rem_euclid(g.nr1 as isize) as usize;
                for l2 in -m_sp..=m_sp {
                    let k2 = Self::kernel(c2 - (q2 + l2) as f64, g.nr2, self.sigma2);
                    let i2 = (q2 + l2).rem_euclid(g.nr2 as isize) as usize;
                    visit(i1 * g.nr2 + i2, k1 * k2);
                }
            }
        }

        fn forward(&self, u: &[Complex64]) -> Vec<Complex64> {
            let g = &*self.t.grid;
            let mut fine = vec![Complex64::ZERO; g.nr1 * g.nr2];
            let half1 = (g.n1 / 2) as isize;
            let half2 = (g.n2 / 2) as isize;
            for j1 in 0..g.n1 {
                let r1 = (j1 as isize - half1).rem_euclid(g.nr1 as isize) as usize;
                for j2 in 0..g.n2 {
                    let r2 = (j2 as isize - half2).rem_euclid(g.nr2 as isize) as usize;
                    fine[r1 * g.nr2 + r2] = u[j1 * g.n2 + j2].scale(g.deconv1[j1] * g.deconv2[j2]);
                }
            }
            self.fft_fine(&mut fine, Direction::Forward, true);
            (0..self.t.freqs.len())
                .map(|k| {
                    let mut acc = Complex64::ZERO;
                    self.for_each_tap(k, |i, weight| acc += fine[i].scale(weight));
                    acc.scale(g.scale)
                })
                .collect()
        }

        fn adjoint(&self, y: &[Complex64]) -> Vec<Complex64> {
            let g = &*self.t.grid;
            let mut fine = vec![Complex64::ZERO; g.nr1 * g.nr2];
            for (k, &val) in y.iter().enumerate() {
                let scaled = val.scale(g.scale);
                self.for_each_tap(k, |i, weight| fine[i] += scaled.scale(weight));
            }
            self.fft_fine(&mut fine, Direction::Inverse, false);
            let half1 = (g.n1 / 2) as isize;
            let half2 = (g.n2 / 2) as isize;
            let mut out = vec![Complex64::ZERO; g.n1 * g.n2];
            for j1 in 0..g.n1 {
                let r1 = (j1 as isize - half1).rem_euclid(g.nr1 as isize) as usize;
                for j2 in 0..g.n2 {
                    let r2 = (j2 as isize - half2).rem_euclid(g.nr2 as isize) as usize;
                    out[j1 * g.n2 + j2] =
                        fine[r1 * g.nr2 + r2].scale(g.deconv1[j1] * g.deconv2[j2]);
                }
            }
            out
        }
    }

    #[test]
    fn usfft2d_is_within_1e13_of_unfactored_unpruned_reference_and_its_forms_agree_bitwise() {
        // (n1, n2, half-width): the operators' own half-width 6 (nr == 2n);
        // a non-square grid rounded up past 2n (24 × 32 cells) at the
        // default half-width; and one whose 21-tap window is wider than its
        // 12-cell fine axes, so taps wrap more than once.
        let cases = [
            (24, 24, 6),
            (48, 48, 6),
            (32, 32, 6),
            (10, 14, 10),
            (6, 5, 10),
        ];
        let poison = Complex64::new(f64::NAN, 1.0);
        for (case, &(n1, n2, m_sp)) in cases.iter().enumerate() {
            let mut rng = seeded(40 + case as u64);
            // Frequencies on the ±0.5 seam, at and around 0 (taps wrap the
            // low and the high grid edge), outside [-0.5, 0.5), then random.
            let mut freqs = vec![
                (0.5, -0.5),
                (-0.5, 0.5),
                (0.0, 0.0),
                (-1e-3, 1e-3),
                (0.499, -0.499),
                (1.25, -0.75),
            ];
            freqs.extend((0..3 * n2).map(|_| (rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)));
            let t = Usfft2d::with_params(n1, n2, freqs.clone(), 2, m_sp);
            let reference = Reference {
                t: &t,
                m_sp,
                sigma1: gaussian_sigma(n1, t.grid.nr1, m_sp),
                sigma2: gaussian_sigma(n2, t.grid.nr2, m_sp),
            };
            let u = random_c(n1 * n2, 50 + case as u64);
            let y = random_c(t.output_len(), 60 + case as u64);
            let forward = t.forward(&u);
            let adjoint = t.adjoint(&y);
            let err = rel_max_diff(&forward, &reference.forward(&u));
            assert!(
                err < FACTORED_WINDOW_TOL,
                "forward {n1}x{n2} m {m_sp}: {err:e}"
            );
            let err = rel_max_diff(&adjoint, &reference.adjoint(&y));
            assert!(
                err < FACTORED_WINDOW_TOL,
                "adjoint {n1}x{n2} m {m_sp}: {err:e}"
            );
            let (forward, adjoint) = (bits(&forward), bits(&adjoint));
            // A plan on a grid shared with another plan, as the operator's
            // row plans are, computes the same bits as one on its own.
            let grid = Arc::new(Usfft2dGrid::new(n1, n2, 2, m_sp));
            let other = Usfft2d::on_grid(Arc::clone(&grid), freqs[..3].to_vec());
            let shared = Usfft2d::on_grid(grid, freqs);
            // Twice: the second call runs on recycled (stale) pool buffers,
            // the shared grid's last left there by the other plan. The
            // `_into` forms start from a poisoned target: they must
            // overwrite every element.
            for _ in 0..2 {
                other.forward(&u);
                other.adjoint(&y[..3]);
                for plan in [&t, &shared] {
                    assert_eq!(
                        bits(&plan.forward(&u)),
                        forward,
                        "forward {n1}x{n2} m {m_sp}"
                    );
                    let mut out = vec![poison; plan.output_len()];
                    plan.forward_into(&u, &mut out);
                    assert_eq!(bits(&out), forward, "forward_into {n1}x{n2} m {m_sp}");
                    assert_eq!(
                        bits(&plan.adjoint(&y)),
                        adjoint,
                        "adjoint {n1}x{n2} m {m_sp}"
                    );
                    let mut out = vec![poison; n1 * n2];
                    plan.adjoint_into(&y, &mut out);
                    assert_eq!(bits(&out), adjoint, "adjoint_into {n1}x{n2} m {m_sp}");
                }
            }
        }
    }

    #[test]
    fn fine_grids_are_exactly_2n_and_no_operator_plan_is_bluestein() {
        // An operator builds a vertical plan and a plane grid at `(2, 6)`
        // and an `n × n` detector batch; the benchmark runs n = 24, 32, 48.
        for n in [12, 16, 24, 32, 48, 96] {
            let vertical = Usfft1d::with_params(n, vec![], 2, 6);
            let grid = Usfft2dGrid::new(n, n, 2, 6);
            assert_eq!([vertical.nr, grid.nr1, grid.nr2], [2 * n; 3], "n {n}");
            let detector = crate::Fft2Batch::new(n, n);
            let (row, col) = (&detector.row_plan, &detector.col_plan);
            let fine = [&grid.fine_fft.row_plan, &grid.fine_fft.col_plan];
            let plans = [&vertical.plan, fine[0], fine[1], row, col];
            assert!(plans.iter().all(|p| !p.is_bluestein()), "n {n}");
        }
    }

    #[test]
    fn a_square_fine_grid_plans_its_length_once() {
        for n in [24, 32, 48] {
            let fine = Usfft2dGrid::new(n, n, 2, 6).fine_fft;
            assert!(Arc::ptr_eq(&fine.row_plan, &fine.col_plan), "n {n}");
        }
    }

    #[test]
    #[should_panic(expected = "half-width too large")]
    fn usfft2d_rejects_a_window_wider_than_its_tap_array() {
        let _ = Usfft2d::with_params(8, 8, vec![], 2, 17);
    }

    #[test]
    fn usfft2d_dims_accessors() {
        let t = Usfft2d::new(8, 6, vec![(0.0, 0.0), (0.1, -0.2)]);
        assert_eq!((t.grid.n1, t.grid.n2), (8, 6));
        assert_eq!(t.output_len(), 2);
        assert_eq!(t.freqs().len(), 2);
    }

    #[test]
    fn usfft2d_dc_frequency_is_sum() {
        let (n1, n2) = (8, 8);
        let u = random_c(n1 * n2, 18);
        let t = Usfft2d::new(n1, n2, vec![(0.0, 0.0)]);
        let out = t.forward(&u);
        let total: Complex64 = u.iter().copied().sum();
        assert!((out[0] - total).abs() < 1e-8 * total.abs().max(1.0));
    }
}
