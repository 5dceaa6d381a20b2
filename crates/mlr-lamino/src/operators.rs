//! The factored laminography forward/adjoint operators.
//!
//! `L = F*_2D · F_u2D · F_u1D` maps a reconstruction volume
//! `u ∈ R^(n1, n0, n2)` to projection data `d ∈ R^(nθ, h, w)`; its adjoint
//! `L* = F*_u1D · F*_u2D · F_2D` maps residual projections back to a volume
//! gradient. The two stages memoization can replace, `F_u2D` and `F*_u2D`,
//! are exposed *chunk by chunk* through the [`FftExecutor`] seam, which is
//! where mLR's memoization plugs in without the operator (or the FFT code)
//! knowing about it — mirroring the paper's claim that mLR "does not change
//! the FFT algorithm". The four it never replaces (`F_u1D`, `F*_u1D`,
//! `F_2D`, `F*_2D`) run as one plane loop per application, no executor in
//! between.
//!
//! The volume and the projections are real, so the two USFFT stages run on
//! half the spectrum: `F_u1D` and `F_u2D` evaluate detector rows `0..=h/2`
//! only ([`LaminoGeometry::half_rows`]), into the half spectrum
//! `ŝ` ([`LaminoGeometry::half_spectrum_shape`]), and `F_u2D`'s scatter
//! ([`LaminoOperator::fill`]) *fills* the rows above `h/2` with the conjugate
//! mirror of the rows below ([`LaminoGeometry::mirrored_row`]). `d̂` itself
//! is not Hermitian on the periodic detector grid (row 0 and column 0 at
//! `−½` have no mirror on it), so the fill rebuilds the whole `(nθ, h, w)`
//! spectrum and `F*_2D` stays a complex inverse FFT followed by the real
//! part. The adjoint's [`LaminoOperator::fold`] *folds* the mirrored rows
//! back onto the evaluated ones — the exact transpose of the fill.
//!
//! `ũ1` and `ŝ` are both laid out row-major by evaluated row, the axis the
//! chunk grid splits, so the memoizable stages hand each chunk a window of
//! the caller's arrays and copy nothing: `F_u1D` writes, and `F*_u1D`
//! reads, each plane's rows in place, `n1 · n2` apart.

use crate::chunk::ChunkGrid;
use crate::geometry::LaminoGeometry;
use mlr_fft::fft::Direction;
use mlr_fft::fft2d::Fft2Batch;
use mlr_fft::usfft::{Usfft1d, Usfft2d, Usfft2dGrid};
use mlr_math::{Array3, Complex64};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifies one of the four USFFT operations of Algorithm 2, the kinds
/// mLR's memoization decides about. Only `F_u2D` and `F*_u2D` reach an
/// executor; the 1-D kinds stay so that per-operation statistics and the
/// benches can report that they never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FftOpKind {
    /// `F_u1D` — 1-D USFFT along the vertical axis.
    Fu1D,
    /// `F*_u1D` — adjoint of `F_u1D`.
    Fu1DAdj,
    /// `F_u2D` — per-row 2-D USFFT over horizontal planes.
    Fu2D,
    /// `F*_u2D` — adjoint of `F_u2D`.
    Fu2DAdj,
}

impl FftOpKind {
    /// Short human-readable label used by reports and benches.
    pub fn label(&self) -> &'static str {
        match self {
            FftOpKind::Fu1D => "Fu1D",
            FftOpKind::Fu1DAdj => "F*u1D",
            FftOpKind::Fu2D => "Fu2D",
            FftOpKind::Fu2DAdj => "F*u2D",
        }
    }

    /// The operation kinds in dense-index order: `DENSE[k.index()] == k`,
    /// the canonical order for fixed-arity per-operation tables.
    pub const DENSE: [FftOpKind; 4] = [
        FftOpKind::Fu1D,
        FftOpKind::Fu1DAdj,
        FftOpKind::Fu2D,
        FftOpKind::Fu2DAdj,
    ];

    /// Dense index of this kind in `0..FftOpKind::DENSE.len()`, the inverse
    /// of [`FftOpKind::DENSE`]. Lets hot-path per-operation statistics live
    /// in fixed arrays (a copyable snapshot) instead of hash maps.
    pub fn index(self) -> usize {
        match self {
            FftOpKind::Fu1D => 0,
            FftOpKind::Fu1DAdj => 1,
            FftOpKind::Fu2D => 2,
            FftOpKind::Fu2DAdj => 3,
        }
    }
}

/// One chunk of a batched executor dispatch: the chunk location, its input
/// (a row-major window of the stage's input array), and the exact-compute
/// closure the executor must call on a memoization miss. The closure is `Sync` so
/// batch-aware executors may evaluate different chunks on different threads.
pub struct ChunkRequest<'a> {
    /// Chunk index along the stage's grid (the memoization key scope).
    pub loc: usize,
    /// Flattened chunk input.
    pub input: &'a [Complex64],
    /// Exact transform for this chunk.
    pub compute: &'a (dyn Fn(&[Complex64]) -> Vec<Complex64> + Sync),
}

/// The execution seam for the memoizable FFT stages.
///
/// The operator hands every `F_u2D` / `F*_u2D` chunk to an executor together
/// with a closure that performs the actual computation. The default
/// [`DirectExecutor`] simply calls the closure; mLR's memoization engine
/// (in `mlr-memo`) instead searches its database and only falls back to the
/// closure on a miss; an instrumenting wrapper delegates to either.
///
/// Operators dispatch whole chunk grids through
/// [`FftExecutor::execute_batch_into`], which the memoized engine overrides
/// with its two-phase schedule; the default implementation simply loops over
/// [`FftExecutor::execute`], so single-chunk executors and wrappers keep
/// working unchanged.
pub trait FftExecutor: Send + Sync {
    /// Executes (or replaces) FFT operation `kind` on chunk location `loc`.
    ///
    /// `input` is the flattened chunk (row-major); `compute` performs the
    /// exact transform and must be called on a miss.
    fn execute(
        &self,
        kind: FftOpKind,
        loc: usize,
        input: &[Complex64],
        compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
    ) -> Vec<Complex64>;

    /// Executes one whole stage application — every chunk of the grid — in a
    /// single dispatch, writing each chunk's result into its caller-provided
    /// output slice (`outputs[i]` receives chunk `i`; lengths must match the
    /// chunk results exactly).
    ///
    /// This is the zero-copy seam: the operator hands out windows of the
    /// caller's arrays (the half spectrum or `ũ1`), so a memoization hit
    /// costs one memcpy from the shared stored payload into the array — no
    /// intermediate `Vec` per chunk. The
    /// default implementation runs the chunks sequentially through
    /// [`FftExecutor::execute`]; the memoized engine overrides it with the
    /// two-phase deterministic schedule (probe/compute every chunk, then an
    /// ordered commit), whose results are bit-identical for every thread
    /// count.
    ///
    /// # Panics
    /// Panics when `batch` and `outputs` disagree in arity (or a result
    /// length mismatches its output slice).
    fn execute_batch_into(
        &self,
        kind: FftOpKind,
        batch: &[ChunkRequest<'_>],
        outputs: &mut [&mut [Complex64]],
    ) {
        assert_eq!(batch.len(), outputs.len(), "batch/output arity mismatch");
        for (r, out) in batch.iter().zip(outputs.iter_mut()) {
            let result = self.execute(kind, r.loc, r.input, r.compute);
            out.copy_from_slice(&result);
        }
    }

    /// Notifies the executor that a new outer (ADMM) iteration begins.
    /// Memoizing executors use this for their freshness rule; the default
    /// implementation does nothing.
    fn begin_iteration(&self, _iteration: usize) {}

    /// Notifies the executor that the job is complete (no more invocations
    /// will follow). The default implementation does nothing, and so does
    /// the memoizing executor (it buffers nothing between invocations); a
    /// wrapping executor forwards the call to the one it wraps.
    fn finish(&self) {}
}

/// Executor that always performs the exact computation.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectExecutor;

impl FftExecutor for DirectExecutor {
    fn execute(
        &self,
        _kind: FftOpKind,
        _loc: usize,
        input: &[Complex64],
        compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
    ) -> Vec<Complex64> {
        compute(input)
    }
}

/// OS threads the kernel layer's data-parallel loops have spawned in this
/// process so far. Only the plane loops fork — one per `F_u1D`, `F*_u1D`,
/// `F_2D` or `F*_2D` application, one per `F_u2D` / `F*_u2D` chunk compute —
/// and the plan build in [`LaminoOperator::new`]; nothing below them does.
pub fn kernel_threads_spawned() -> u64 {
    rayon::spawned_threads()
}

/// The laminography operator for a fixed geometry.
///
/// Construction precomputes the USFFT plans (a vertical transform at the
/// `h/2 + 1` evaluated row frequencies, and one in-plane transform per
/// evaluated row at its `nθ · half_cols` points) and the uniform 2-D FFT
/// plan, so repeated applications — every CG step of every ADMM iteration —
/// reuse them. The plans' working memory does not come per plan: the row
/// plans lease from one shared pool, so what an operator keeps resident
/// between applications scales with the kernel thread count, not with the
/// detector height ([`Self::scratch_idle_buffers`]). The 1-D stages lease
/// their complex volume plane from that pool too: its fine grids sit idle
/// while an `F_u1D` / `F*_u1D` application runs. That is all an operator
/// parks: the stages read and write the caller's `ũ1` and half spectrum
/// in place.
pub struct LaminoOperator {
    geometry: LaminoGeometry,
    usfft_vertical: Usfft1d,
    usfft_rows: Vec<Usfft2d>,
    fft2_detector: Fft2Batch,
    chunk_size: usize,
    /// The one grid every row plan of `usfft_rows` is built on: all rows
    /// share `nr1 × nr2`, σ and the half-width, so the operator builds the
    /// fine-grid FFT plans and window tables once and parks one fine grid
    /// per plane transform running at once.
    plane_grid: Arc<Usfft2dGrid>,
}

impl LaminoOperator {
    /// Builds the operator for `geometry` with the given chunk size (the
    /// paper's default is 16 slabs per chunk).
    ///
    /// # Panics
    /// Panics when `chunk_size == 0`.
    pub fn new(geometry: LaminoGeometry, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        let mut vertical_freqs = geometry.vertical_freqs();
        vertical_freqs.truncate(geometry.half_rows());
        let usfft_vertical = Usfft1d::with_params(geometry.n0, vertical_freqs, 2, 6);
        let plane_grid = Arc::new(Usfft2dGrid::new(geometry.n1, geometry.n2, 2, 6));
        let usfft_rows: Vec<Usfft2d> = (0..geometry.half_rows())
            .into_par_iter()
            .map(|row| Usfft2d::on_grid(Arc::clone(&plane_grid), geometry.half_freqs_for_row(row)))
            .collect();
        let fft2_detector = Fft2Batch::new(geometry.detector.rows, geometry.detector.cols);
        Self {
            geometry,
            usfft_vertical,
            usfft_rows,
            fft2_detector,
            chunk_size,
            plane_grid,
        }
    }

    /// Buffers parked in the operator's two scratch pools, the row plans'
    /// shared fine-grid pool and the vertical plan's (diagnostics). Bounded
    /// by the leases that were ever out at once — a few per kernel thread —
    /// whatever the number of detector rows.
    pub fn scratch_idle_buffers(&self) -> usize {
        self.plane_grid.scratch().idle() + self.usfft_vertical.scratch().idle()
    }

    /// The geometry this operator was built for.
    pub fn geometry(&self) -> &LaminoGeometry {
        &self.geometry
    }

    /// Chunk size used for the chunked stages.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Chunk grid of the `F_u2D` stage (slabs along the evaluated detector
    /// rows `0..=h/2`).
    pub fn fu2d_grid(&self) -> ChunkGrid {
        ChunkGrid::new(self.geometry.half_rows(), self.chunk_size)
    }

    // ----------------------------------------------------------------- Fu1D

    /// Applies `F_u1D` to the whole volume: `u[n1, n0, n2] → ũ1[h/2+1, n1, n2]`,
    /// the vertical spectrum at the evaluated rows' frequencies only, laid
    /// out as `F_u2D` reads it ([`LaminoGeometry::u1_shape`]). For a real `u`
    /// the rows above `h/2` would be conjugates of these, and [`Self::fill`]
    /// rebuilds them in `d̂` instead.
    pub fn fu1d(&self, u: &Array3<f64>) -> Array3<Complex64> {
        let mut out = Array3::zeros(self.geometry.u1_shape());
        self.fu1d_into(u, &mut out);
        out
    }

    /// [`Self::fu1d`] into a caller-owned `ũ1`; every element is overwritten.
    /// One plane loop over `n1`: each real plane, `f32` or `f64`, is widened
    /// into a complex plane leased from the fine-grid pool and transformed,
    /// its row `r` written in place as line `(r, i1)` of `ũ1`. Each thread
    /// takes a block of planes and one list: per row of `ũ1`, its lines' window.
    pub fn fu1d_into<R: Copy + Into<f64> + Sync>(&self, u: &Array3<R>, u1: &mut Array3<Complex64>) {
        let g = &self.geometry;
        assert_eq!(u.shape(), g.volume_shape(), "Fu1D input shape mismatch");
        assert_eq!(u1.shape(), g.u1_shape(), "Fu1D output shape mismatch");
        let (n1, n0, n2, rows) = (g.n1, g.n0, g.n2, g.half_rows());
        let block = n1.div_ceil(rayon::current_num_threads());
        let blocks = n1.div_ceil(block);
        let mut lists: Vec<_> = (0..blocks).map(|_| Vec::with_capacity(rows)).collect();
        for row in u1.as_mut_slice().chunks_exact_mut(n1 * n2) {
            for (list, window) in lists.iter_mut().zip(row.chunks_mut(block * n2)) {
                list.push(window);
            }
        }
        lists.par_chunks_mut(1).enumerate().for_each(|(b, list)| {
            let list = &mut list[0];
            let mut plane = self.plane_grid.scratch().lease(n0 * n2);
            let u_planes = u.as_slice()[b * block * n0 * n2..].chunks_exact(n0 * n2);
            for (i, u_plane) in u_planes.take(list[0].len() / n2).enumerate() {
                for (z, &x) in plane.iter_mut().zip(u_plane) {
                    *z = Complex64::from_real(x.into());
                }
                let out_rows = list.iter_mut().map(|window| &mut window[i * n2..][..n2]);
                self.usfft_vertical.forward_rows(&plane, n2, out_rows);
            }
        });
    }

    /// Exact computation of `F_u1D` on one chunk (a slab of `len` planes of
    /// the volume along `n1`), each plane's rows contiguous. Exposed so
    /// benches can time the raw kernel.
    pub fn fu1d_chunk_compute(&self, input: &[Complex64], len: usize) -> Vec<Complex64> {
        let g = &self.geometry;
        let (n0, n2, rows) = (g.n0, g.n2, g.half_rows());
        assert_eq!(input.len(), len * n0 * n2, "Fu1D chunk length mismatch");
        let mut out = vec![Complex64::ZERO; len * rows * n2];
        out.par_chunks_mut(rows * n2)
            .enumerate()
            .for_each(|(i1, out_plane)| {
                let in_plane = &input[i1 * n0 * n2..(i1 + 1) * n0 * n2];
                self.usfft_vertical.forward_plane(in_plane, n2, out_plane);
            });
        out
    }

    /// Applies `F*_u1D` and keeps the real part:
    /// `ũ1[h/2+1, n1, n2] → Re u[n1, n0, n2]`.
    pub fn fu1d_adjoint(&self, u1: &Array3<Complex64>) -> Array3<f64> {
        let mut out = Array3::zeros(self.geometry.volume_shape());
        self.fu1d_adjoint_into(u1, &mut out);
        out
    }

    /// [`Self::fu1d_adjoint`] into a caller-owned volume; every element is
    /// overwritten. One plane loop over `n1`: plane `i1`'s rows are read in
    /// place, `n1 · n2` apart in `ũ1`, and transformed into a complex plane
    /// leased from the fine-grid pool, whose real part is kept.
    pub fn fu1d_adjoint_into(&self, u1: &Array3<Complex64>, out: &mut Array3<f64>) {
        let g = &self.geometry;
        assert_eq!(u1.shape(), g.u1_shape(), "F*u1D input shape mismatch");
        assert_eq!(out.shape(), g.volume_shape(), "F*u1D output shape mismatch");
        let (n1, n0, n2) = (g.n1, g.n0, g.n2);
        let u1 = u1.as_slice();
        out.as_mut_slice()
            .par_chunks_mut(n0 * n2)
            .enumerate()
            .for_each(|(i1, out_plane)| {
                let mut plane = self.plane_grid.scratch().lease(n0 * n2);
                let in_rows = u1[i1 * n2..].chunks(n1 * n2).map(|line| &line[..n2]);
                self.usfft_vertical.adjoint_rows(in_rows, n2, &mut plane);
                for (x, z) in out_plane.iter_mut().zip(plane.iter()) {
                    *x = z.re;
                }
            });
    }

    // ----------------------------------------------------------------- Fu2D

    /// Applies `F_u2D`: `ũ1[h/2+1, n1, n2] → d̂[nθ, h, w]` (the sampled
    /// spectrum of every projection), as [`Self::fu2d_half_into`] into a
    /// transient half spectrum and [`Self::fill`]. That is `F_u2D` of the
    /// full `ũ1` whenever `ũ1` is `F_u1D` of a real volume, the only input
    /// the operator's compositions feed it; the map is real-linear, and
    /// [`Self::fu2d_adjoint`] is its transpose under `Re⟨·,·⟩`.
    pub fn fu2d(&self, u1: &Array3<Complex64>, exec: &dyn FftExecutor) -> Array3<Complex64> {
        let mut half = Array3::zeros(self.geometry.half_spectrum_shape());
        self.fu2d_half_into(u1, exec, &mut half);
        let mut out = Array3::zeros(self.geometry.data_shape());
        self.fill(&half, &mut out);
        out
    }

    /// The memoizable stage of `F_u2D`, chunk by chunk through `exec`:
    /// `ũ1[h/2+1, n1, n2] → ŝ[h/2+1, nθ, half_cols]`, overwriting `half`.
    pub fn fu2d_half_into(
        &self,
        u1: &Array3<Complex64>,
        exec: &dyn FftExecutor,
        half: &mut Array3<Complex64>,
    ) {
        let (g, shape) = (&self.geometry, half.shape());
        assert_eq!(u1.shape(), g.u1_shape(), "Fu2D input shape mismatch");
        assert_eq!(shape, g.half_spectrum_shape(), "Fu2D output shape mismatch");
        let (input, output) = (u1.as_slice(), half.as_mut_slice());
        self.dispatch(FftOpKind::Fu2D, input, output, exec);
    }

    /// `F_u2D`'s scatter, overwriting `out`: row `i` of `half` goes to row
    /// `i` of every projection and *fills* row `m = mirrored_row(i)` with
    /// `d̂[t, m, c] = conj(ŝ[i, t, mirror_col(c)])` — column 0 from row
    /// `i`'s `k_u = +½` point.
    pub fn fill(&self, half: &Array3<Complex64>, out: &mut Array3<Complex64>) {
        let (g, shape) = (&self.geometry, half.shape());
        assert_eq!(shape, g.half_spectrum_shape(), "fill input shape mismatch");
        assert_eq!(out.shape(), g.data_shape(), "fill output shape mismatch");
        let (h, w, cols) = (g.detector.rows, g.detector.cols, g.half_cols());
        let (spectrum, d) = (half.as_slice(), out.as_mut_slice());
        // Read backwards, points `mirror_col(w-1)..=mirror_col(0)` are the
        // mirrors of columns `0..w`.
        let mirrored = g.mirror_col(w - 1)..=g.mirror_col(0);
        for (i, row) in spectrum.chunks_exact(g.n_angles() * cols).enumerate() {
            for (t, points) in row.chunks_exact(cols).enumerate() {
                d[(t * h + i) * w..][..w].copy_from_slice(&points[..w]);
                if let Some(m) = g.mirrored_row(i) {
                    let fill = &mut d[(t * h + m) * w..][..w];
                    for (z, p) in fill.iter_mut().zip(points[mirrored.clone()].iter().rev()) {
                        *z = p.conj();
                    }
                }
            }
        }
    }

    /// Exact computation of `F_u2D` on one chunk of evaluated detector rows.
    ///
    /// `input` holds, per row in the chunk, the `n1 × n2` horizontal plane of
    /// `ũ1`; the output holds, per row, the `nθ × half_cols` sampled spectrum.
    pub fn fu2d_chunk_compute(
        &self,
        input: &[Complex64],
        row_start: usize,
        len: usize,
    ) -> Vec<Complex64> {
        let (n1, n2) = (self.geometry.n1, self.geometry.n2);
        let points = self.geometry.n_angles() * self.geometry.half_cols();
        assert_eq!(input.len(), len * n1 * n2, "Fu2D chunk length mismatch");
        let mut out = vec![Complex64::ZERO; len * points];
        out.par_chunks_mut(points)
            .enumerate()
            .for_each(|(r, out_row)| {
                let plane = &input[r * n1 * n2..(r + 1) * n1 * n2];
                self.usfft_rows[row_start + r].forward_into(plane, out_row);
            });
        out
    }

    /// Applies `F*_u2D`: `d̂[nθ, h, w] → ũ1[h/2+1, n1, n2]`, the transpose of
    /// [`Self::fu2d`] under `Re⟨·,·⟩`, as [`Self::fold`] into a transient
    /// half spectrum and [`Self::fu2d_half_adjoint_into`].
    pub fn fu2d_adjoint(
        &self,
        dhat: &Array3<Complex64>,
        exec: &dyn FftExecutor,
    ) -> Array3<Complex64> {
        let mut half = Array3::zeros(self.geometry.half_spectrum_shape());
        self.fold(dhat, &mut half);
        let mut out = Array3::zeros(self.geometry.u1_shape());
        self.fu2d_half_adjoint_into(&half, exec, &mut out);
        out
    }

    /// The transpose of [`Self::fill`], overwriting `half`: it *folds* `d̂`
    /// onto the evaluated rows, `ŝ[i, t, c] = d̂[t, i, c]` plus, for
    /// `m = mirrored_row(i)`, `conj(d̂[t, m, c])` added at point
    /// `mirror_col(c)` — column 0 of row `m` lands on row `i`'s `k_u = +½`
    /// point. Weighting paired rows by 2 instead would be wrong on column 0
    /// and on the unpaired row 0.
    pub fn fold(&self, dhat: &Array3<Complex64>, half: &mut Array3<Complex64>) {
        let (g, shape) = (&self.geometry, half.shape());
        assert_eq!(dhat.shape(), g.data_shape(), "fold input shape mismatch");
        assert_eq!(shape, g.half_spectrum_shape(), "fold output shape mismatch");
        let (h, w, cols) = (g.detector.rows, g.detector.cols, g.half_cols());
        let (d, spectrum) = (dhat.as_slice(), half.as_mut_slice());
        let mirrored = g.mirror_col(w - 1)..=g.mirror_col(0);
        for (i, row) in spectrum.chunks_exact_mut(g.n_angles() * cols).enumerate() {
            for (t, points) in row.chunks_exact_mut(cols).enumerate() {
                points[..w].copy_from_slice(&d[(t * h + i) * w..][..w]);
                points[w..].fill(Complex64::ZERO);
                if let Some(m) = g.mirrored_row(i) {
                    let fill = &d[(t * h + m) * w..][..w];
                    for (p, z) in points[mirrored.clone()].iter_mut().rev().zip(fill) {
                        *p += z.conj();
                    }
                }
            }
        }
    }

    /// The memoizable stage of `F*_u2D`, chunk by chunk through `exec`:
    /// `ŝ[h/2+1, nθ, half_cols] → ũ1[h/2+1, n1, n2]`, overwriting `out`.
    pub fn fu2d_half_adjoint_into(
        &self,
        half: &Array3<Complex64>,
        exec: &dyn FftExecutor,
        out: &mut Array3<Complex64>,
    ) {
        let (g, shape) = (&self.geometry, half.shape());
        assert_eq!(shape, g.half_spectrum_shape(), "F*u2D input shape mismatch");
        assert_eq!(out.shape(), g.u1_shape(), "F*u2D output shape mismatch");
        let (input, output) = (half.as_slice(), out.as_mut_slice());
        self.dispatch(FftOpKind::Fu2DAdj, input, output, exec);
    }

    /// Exact computation of `F*_u2D` on one chunk of evaluated detector rows.
    pub fn fu2d_adjoint_chunk_compute(
        &self,
        input: &[Complex64],
        row_start: usize,
        len: usize,
    ) -> Vec<Complex64> {
        let (n1, n2) = (self.geometry.n1, self.geometry.n2);
        let points = self.geometry.n_angles() * self.geometry.half_cols();
        assert_eq!(input.len(), len * points, "F*u2D chunk length mismatch");
        let mut out = vec![Complex64::ZERO; len * n1 * n2];
        out.par_chunks_mut(n1 * n2)
            .enumerate()
            .for_each(|(r, out_plane)| {
                let samples = &input[r * points..(r + 1) * points];
                self.usfft_rows[row_start + r].adjoint_into(samples, out_plane);
            });
        out
    }

    /// One batch dispatch of `F_u2D` or `F*_u2D`: every chunk of
    /// [`Self::fu2d_grid`] reads its rows' window of `input` and writes the
    /// same rows' window of `output` — both arrays row-major by evaluated
    /// row, so nothing is copied on the way — and is computed on a miss by
    /// the stage's chunk compute.
    fn dispatch(
        &self,
        kind: FftOpKind,
        input: &[Complex64],
        output: &mut [Complex64],
        exec: &dyn FftExecutor,
    ) {
        let grid = self.fu2d_grid();
        let window = |len: usize| len / self.geometry.half_rows() * grid.chunk_size();
        let computes: Vec<_> = grid
            .iter()
            .map(|loc| {
                move |chunk: &[Complex64]| match kind {
                    FftOpKind::Fu2D => self.fu2d_chunk_compute(chunk, loc.start, loc.len),
                    FftOpKind::Fu2DAdj => {
                        self.fu2d_adjoint_chunk_compute(chunk, loc.start, loc.len)
                    }
                    kind => unreachable!("{kind:?} is not dispatched"),
                }
            })
            .collect();
        let batch: Vec<_> = (grid.iter().zip(&computes))
            .zip(input.chunks(window(input.len())))
            .map(|((loc, compute), input)| ChunkRequest {
                loc: loc.index,
                input,
                compute,
            })
            .collect();
        let mut outputs: Vec<_> = output.chunks_mut(window(output.len())).collect();
        exec.execute_batch_into(kind, &batch, &mut outputs);
    }

    // ------------------------------------------------------------------ F2D

    /// Applies the uniform per-projection 2-D FFT `F_2D`:
    /// `d[nθ, h, w] → d̂[nθ, h, w]`, one plane loop over the angles.
    pub fn f2d(&self, d: &Array3<Complex64>) -> Array3<Complex64> {
        self.f2d_impl(d, Direction::Forward)
    }

    /// Applies the inverse per-projection 2-D FFT `F*_2D`.
    pub fn f2d_inverse(&self, dhat: &Array3<Complex64>) -> Array3<Complex64> {
        self.f2d_impl(dhat, Direction::Inverse)
    }

    fn f2d_impl(&self, d: &Array3<Complex64>, dir: Direction) -> Array3<Complex64> {
        let g = &self.geometry;
        assert_eq!(d.shape(), g.data_shape(), "F2D input shape mismatch");
        let mut out = d.clone();
        out.as_mut_slice()
            .par_chunks_mut(g.detector.rows * g.detector.cols)
            .for_each(|plane| self.fft2_detector.process_plane(plane, dir));
        out
    }

    // ------------------------------------------------------------ composite

    /// Full forward operator `d = L u` on a real volume, using the direct
    /// executor (no memoization).
    pub fn forward(&self, u: &Array3<f64>) -> Array3<f64> {
        self.forward_with(u, &DirectExecutor)
    }

    /// Full forward operator with an explicit executor for `F_u2D`: `F_u1D`
    /// and `F_u2D` on the evaluated rows, the fill to the whole `d̂` (inside
    /// [`Self::fu2d`]), then the complex `F*_2D` and the real part.
    pub fn forward_with(&self, u: &Array3<f64>, exec: &dyn FftExecutor) -> Array3<f64> {
        let dhat = self.fu2d(&self.fu1d(u), exec);
        mlr_fft::fft2d::to_real(&self.f2d_inverse(&dhat))
    }

    /// Full adjoint operator `u = L* d` on real projection data, using the
    /// direct executor.
    pub fn adjoint(&self, d: &Array3<f64>) -> Array3<f64> {
        self.adjoint_with(d, &DirectExecutor)
    }

    /// Full adjoint operator with an explicit executor for `F*_u2D`: `F_2D`,
    /// the `1/(h·w)` scale, the fold onto the evaluated rows (inside
    /// [`Self::fu2d_adjoint`]), `F*_u2D` and `F*_u1D` on those rows with the
    /// real part kept — the exact transpose of [`Self::forward_with`].
    pub fn adjoint_with(&self, d: &Array3<f64>, exec: &dyn FftExecutor) -> Array3<f64> {
        let mut dhat = self.f2d(&mlr_fft::fft2d::to_complex(d));
        // Adjoint of the normalised inverse FFT is the forward FFT divided by
        // the plane size.
        let scale = 1.0 / (self.geometry.detector.rows * self.geometry.detector.cols) as f64;
        dhat.map_inplace(|z| *z = z.scale(scale));
        self.fu1d_adjoint(&self.fu2d_adjoint(&dhat, exec))
    }

    /// Size in complex elements of the chunk fed to `kind` at any location
    /// with the nominal chunk size (the last chunk may be smaller). Used by
    /// the memoization sizing logic and the memory accounting in `mlr-sim`.
    pub fn chunk_elems(&self, kind: FftOpKind) -> usize {
        let (g, cs) = (&self.geometry, self.chunk_size);
        match kind {
            FftOpKind::Fu1D => cs.min(g.n1) * g.n0 * g.n2,
            FftOpKind::Fu1DAdj => cs.min(g.n1) * g.half_rows() * g.n2,
            FftOpKind::Fu2D => cs.min(g.half_rows()) * g.n1 * g.n2,
            FftOpKind::Fu2DAdj => cs.min(g.half_rows()) * g.n_angles() * g.half_cols(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phantom::brain_phantom;
    use mlr_math::norms::{max_abs_diff, max_abs_diff_c};
    use mlr_math::rng::seeded;
    use mlr_math::Shape3;
    use rand::Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn small_operator() -> LaminoOperator {
        LaminoOperator::new(LaminoGeometry::cube(8, 6, 30.0), 4)
    }

    fn random_complex_volume(shape: Shape3, seed: u64) -> Array3<Complex64> {
        let mut rng = seeded(seed);
        let data = (0..shape.len())
            .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        Array3::from_vec(shape, data)
    }

    fn random_real_volume(shape: Shape3, seed: u64) -> Array3<f64> {
        let mut rng = seeded(seed);
        let data = (0..shape.len()).map(|_| rng.gen::<f64>() - 0.5).collect();
        Array3::from_vec(shape, data)
    }

    fn dot(a: &Array3<f64>, b: &Array3<f64>) -> f64 {
        let pairs = a.as_slice().iter().zip(b.as_slice());
        pairs.map(|(x, y)| x * y).sum()
    }

    #[test]
    fn shapes_of_factored_stages() {
        let op = small_operator();
        let u = random_real_volume(op.geometry().volume_shape(), 1);
        let u1 = op.fu1d(&u);
        assert_eq!(u1.shape(), op.geometry().u1_shape());
        let dhat = op.fu2d(&u1, &DirectExecutor);
        assert_eq!(dhat.shape(), op.geometry().data_shape());
        let d = op.f2d_inverse(&dhat);
        assert_eq!(d.shape(), op.geometry().data_shape());
    }

    #[test]
    fn fu1d_adjointness() {
        // `fu1d` takes a real volume and `fu1d_adjoint` keeps the real part:
        // the pair is a transpose under Re<., .>.
        let op = small_operator();
        let x = random_real_volume(op.geometry().volume_shape(), 2);
        let y = random_complex_volume(op.geometry().u1_shape(), 3);
        let lhs = op.fu1d(&x).inner(&y).re;
        let rhs = dot(&x, &op.fu1d_adjoint(&y));
        assert!(
            (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn fu2d_adjointness() {
        // The fill conjugates, so `fu2d` is real-linear and its adjoint is
        // the transpose under Re<., .>.
        let op = small_operator();
        let exec = DirectExecutor;
        let x = random_complex_volume(op.geometry().u1_shape(), 4);
        let y = random_complex_volume(op.geometry().data_shape(), 5);
        let fx = op.fu2d(&x, &exec);
        let fty = op.fu2d_adjoint(&y, &exec);
        let lhs = fx.inner(&y).re;
        let rhs = x.inner(&fty).re;
        assert!(
            (lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn full_operator_adjointness_real() {
        // <L u, d> == <u, L* d> on real vector spaces.
        let op = small_operator();
        let u = random_real_volume(op.geometry().volume_shape(), 6);
        let d = random_real_volume(op.geometry().data_shape(), 7);
        let lu = op.forward(&u);
        let ltd = op.adjoint(&d);
        let (lhs, rhs) = (dot(&lu, &d), dot(&u, &ltd));
        assert!(
            (lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn f2d_roundtrip_identity() {
        let op = small_operator();
        let d = random_complex_volume(op.geometry().data_shape(), 8);
        let back = op.f2d_inverse(&op.f2d(&d));
        assert!(max_abs_diff_c(back.as_slice(), d.as_slice()) < 1e-9);
    }

    #[test]
    fn forward_linear() {
        let op = small_operator();
        let shape = op.geometry().volume_shape();
        let a = random_real_volume(shape, 9);
        let b = random_real_volume(shape, 10);
        let add = |x: &Array3<f64>, y: &Array3<f64>| -> Vec<f64> {
            let pairs = x.as_slice().iter().zip(y.as_slice());
            pairs.map(|(x, y)| x + y).collect()
        };
        let lsum = op.forward(&Array3::from_vec(shape, add(&a, &b)));
        let expected = add(&op.forward(&a), &op.forward(&b));
        let diff = max_abs_diff(lsum.as_slice(), &expected);
        assert!(diff < 1e-9, "nonlinearity {diff}");
    }

    #[test]
    fn executor_sees_every_chunk() {
        // Counts per `FftOpKind::index()`.
        struct Counting {
            counts: [AtomicUsize; 4],
        }
        impl FftExecutor for Counting {
            fn execute(
                &self,
                kind: FftOpKind,
                _loc: usize,
                input: &[Complex64],
                compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
            ) -> Vec<Complex64> {
                self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
                compute(input)
            }
        }
        let op = small_operator();
        let exec = Counting {
            counts: Default::default(),
        };
        let u = random_real_volume(op.geometry().volume_shape(), 11);
        let d = op.forward_with(&u, &exec);
        let _ = op.adjoint_with(&d, &exec);
        // Only the 2-D USFFTs cross the seam, each in ceil(5/4) = 2 chunks
        // of the evaluated rows 0..=4.
        let counts = exec.counts.each_ref().map(|c| c.load(Ordering::Relaxed));
        assert_eq!(counts, [0, 0, 2, 2]);
    }

    #[test]
    fn projection_of_flat_phantom_is_nontrivial() {
        let geometry = LaminoGeometry::cube(16, 8, 35.0);
        let op = LaminoOperator::new(geometry, 8);
        let u = brain_phantom(16, 1);
        let d = op.forward(&u);
        let energy: f64 = d.as_slice().iter().map(|x| x * x).sum();
        assert!(energy > 0.0);
        assert!(d.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn chunk_elems_match_actual_chunks() {
        let op = small_operator();
        // 8³, 6 angles, chunk 4: rows 0..=4 evaluated, 9 points per angle.
        assert_eq!(op.chunk_elems(FftOpKind::Fu1D), 4 * 8 * 8);
        assert_eq!(op.chunk_elems(FftOpKind::Fu1DAdj), 4 * 5 * 8);
        assert_eq!(op.chunk_elems(FftOpKind::Fu2D), 4 * 8 * 8);
        assert_eq!(op.chunk_elems(FftOpKind::Fu2DAdj), 4 * 6 * 9);
        // Each kind's chunk compute maps a chunk of its own size to one of
        // the next kind's.
        let x = random_complex_volume(op.geometry().volume_shape(), 12);
        let chunk = |kind| &x.as_slice()[..op.chunk_elems(kind)];
        let len = |v: Vec<Complex64>| v.len();
        assert_eq!(
            len(op.fu1d_chunk_compute(chunk(FftOpKind::Fu1D), 4)),
            op.chunk_elems(FftOpKind::Fu1DAdj)
        );
        assert_eq!(
            len(op.fu2d_chunk_compute(chunk(FftOpKind::Fu2D), 0, 4)),
            op.chunk_elems(FftOpKind::Fu2DAdj)
        );
        assert_eq!(
            len(op.fu2d_adjoint_chunk_compute(chunk(FftOpKind::Fu2DAdj), 0, 4)),
            op.chunk_elems(FftOpKind::Fu2D)
        );
    }

    /// The full-spectrum composition the half-spectrum operator replaces,
    /// built from the public kernels: every detector row evaluated at its
    /// `w` columns, no fill and no fold.
    struct FullSpectrum {
        g: LaminoGeometry,
        vertical: Usfft1d,
        rows: Vec<Usfft2d>,
        fft2: Fft2Batch,
    }

    impl FullSpectrum {
        fn new(g: &LaminoGeometry) -> Self {
            let grid = Arc::new(Usfft2dGrid::new(g.n1, g.n2, 2, 6));
            Self {
                g: g.clone(),
                vertical: Usfft1d::with_params(g.n0, g.vertical_freqs(), 2, 6),
                rows: (0..g.detector.rows)
                    .map(|row| Usfft2d::on_grid(Arc::clone(&grid), g.inplane_freqs_for_row(row)))
                    .collect(),
                fft2: Fft2Batch::new(g.detector.rows, g.detector.cols),
            }
        }

        /// `F_u2D F_u1D u` on every detector row.
        fn spectrum(&self, u: &Array3<f64>) -> Array3<Complex64> {
            let g = &self.g;
            let (n1, n0, n2, h, w) = (g.n1, g.n0, g.n2, g.detector.rows, g.detector.cols);
            let mut u1 = vec![Complex64::ZERO; n1 * h * n2];
            let u = mlr_fft::fft2d::to_complex(u);
            for (src, dst) in u
                .as_slice()
                .chunks_exact(n0 * n2)
                .zip(u1.chunks_exact_mut(h * n2))
            {
                self.vertical.forward_plane(src, n2, dst);
            }
            let mut dhat = Array3::zeros(g.data_shape());
            for (row, plan) in self.rows.iter().enumerate() {
                let plane: Vec<Complex64> = (0..n1)
                    .flat_map(|i1| u1[(i1 * h + row) * n2..][..n2].to_vec())
                    .collect();
                for (t, samples) in plan.forward(&plane).chunks_exact(w).enumerate() {
                    dhat.as_mut_slice()[(t * h + row) * w..][..w].copy_from_slice(samples);
                }
            }
            dhat
        }

        fn forward(&self, u: &Array3<f64>) -> Array3<f64> {
            let mut dhat = self.spectrum(u);
            let plane = self.g.detector.rows * self.g.detector.cols;
            for p in dhat.as_mut_slice().chunks_exact_mut(plane) {
                self.fft2.process_plane(p, Direction::Inverse);
            }
            mlr_fft::fft2d::to_real(&dhat)
        }

        fn adjoint(&self, d: &Array3<f64>) -> Array3<f64> {
            let g = &self.g;
            let (n1, n0, n2, h, w) = (g.n1, g.n0, g.n2, g.detector.rows, g.detector.cols);
            let mut dhat = mlr_fft::fft2d::to_complex(d);
            for p in dhat.as_mut_slice().chunks_exact_mut(h * w) {
                self.fft2.process_plane(p, Direction::Forward);
            }
            dhat.map_inplace(|z| *z = z.scale(1.0 / (h * w) as f64));
            let mut u1 = vec![Complex64::ZERO; n1 * h * n2];
            for (row, plan) in self.rows.iter().enumerate() {
                let samples: Vec<Complex64> = (0..g.n_angles())
                    .flat_map(|t| dhat.as_slice()[(t * h + row) * w..][..w].to_vec())
                    .collect();
                for (i1, line) in plan.adjoint(&samples).chunks_exact(n2).enumerate() {
                    u1[(i1 * h + row) * n2..][..n2].copy_from_slice(line);
                }
            }
            let mut u = Array3::zeros(g.volume_shape());
            for (src, dst) in u1
                .chunks_exact(h * n2)
                .zip(u.as_mut_slice().chunks_exact_mut(n0 * n2))
            {
                self.vertical.adjoint_plane(src, n2, dst);
            }
            mlr_fft::fft2d::to_real(&u)
        }
    }

    /// `max |a − b| / max |b|`.
    fn rel_max_diff(a: &[f64], b: &[f64]) -> f64 {
        let scale = b.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        mlr_math::norms::max_abs_diff(a, b) / scale
    }

    /// The geometries the half spectrum is held to: n = 12…48, an odd cube,
    /// and the tall (2h × w) detector of `tests/scratch_structure.rs`.
    fn reference_geometries() -> Vec<LaminoGeometry> {
        let mut out: Vec<_> = [12, 16, 24, 32, 48, 21]
            .into_iter()
            .map(|n| LaminoGeometry::cube(n, n / 2, 35.0))
            .collect();
        let cube = LaminoGeometry::cube(16, 8, 30.0);
        out.push(LaminoGeometry {
            detector: crate::geometry::DetectorSpec::new(
                2 * cube.detector.rows,
                cube.detector.cols,
            ),
            ..cube
        });
        out
    }

    #[test]
    fn half_spectrum_matches_the_full_spectrum_operator() {
        for g in reference_geometries() {
            let label = format!("{}³ on {:?}", g.n1, g.detector);
            let op = LaminoOperator::new(g.clone(), 8);
            let full = FullSpectrum::new(&g);
            let u = brain_phantom(g.n1, 3);
            let forward = rel_max_diff(op.forward(&u).as_slice(), full.forward(&u).as_slice());
            assert!(forward < 1e-13, "{label}: forward off by {forward:e}");
            let d = random_real_volume(g.data_shape(), 13);
            let adjoint = rel_max_diff(op.adjoint(&d).as_slice(), full.adjoint(&d).as_slice());
            assert!(adjoint < 1e-13, "{label}: adjoint off by {adjoint:e}");
        }
    }

    #[test]
    fn filled_spectrum_is_the_mirror_of_the_evaluated_rows() {
        // The identity the fill rests on, at even and odd detector sides:
        // every row above h/2 of the full F_u2D F_u1D u equals the conjugate
        // mirror the fill writes there.
        let base = LaminoGeometry::cube(16, 6, 35.0);
        for (h, w) in [(16, 16), (15, 15), (16, 13), (13, 16)] {
            let g = LaminoGeometry {
                detector: crate::geometry::DetectorSpec::new(h, w),
                ..base.clone()
            };
            let op = LaminoOperator::new(g.clone(), 4);
            let u = random_real_volume(g.volume_shape(), 14);
            let filled = op.fu2d(&op.fu1d(&u), &DirectExecutor);
            let direct = FullSpectrum::new(&g).spectrum(&u);
            let scale = direct.as_slice().iter().fold(0.0f64, |m, z| m.max(z.abs()));
            let err = max_abs_diff_c(filled.as_slice(), direct.as_slice()) / scale;
            assert!(err < 1e-14, "{h}x{w}: fill off by {err:e}");
        }
    }

    #[test]
    fn op_kind_labels_and_sets() {
        assert_eq!(FftOpKind::DENSE.len(), 4);
        assert_eq!(FftOpKind::Fu2DAdj.label(), "F*u2D");
    }

    #[test]
    fn dense_order_is_the_inverse_of_index() {
        // Fixed-arity stat tables rely on this bijection.
        for (i, kind) in FftOpKind::DENSE.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }
}
