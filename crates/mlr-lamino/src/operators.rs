//! The factored laminography forward/adjoint operators.
//!
//! `L = F*_2D · F_u2D · F_u1D` maps a reconstruction volume
//! `u ∈ R^(n1, n0, n2)` to projection data `d ∈ R^(nθ, h, w)`; its adjoint
//! `L* = F*_u1D · F*_u2D · F_2D` maps residual projections back to a volume
//! gradient. Every stage is exposed *chunk by chunk* through the
//! [`FftExecutor`] seam, which is where mLR's memoization, the simulated GPU
//! timing and the multi-GPU distribution plug in without the operator (or
//! the FFT code) knowing about them — mirroring the paper's claim that mLR
//! "does not change the FFT algorithm".

use crate::chunk::{ChunkGrid, ChunkLocation};
use crate::geometry::LaminoGeometry;
use mlr_fft::fft::Direction;
use mlr_fft::fft2d::Fft2Batch;
use mlr_fft::scratch::ScratchPool;
use mlr_fft::usfft::{Usfft1d, Usfft2d, Usfft2dGrid};
use mlr_math::{Array3, Complex64, Shape3};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifies one of the six FFT operations that Algorithm 1 of the paper
/// invokes (and that mLR memoizes).
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
    /// `F_2D` — uniform 2-D FFT per projection.
    F2D,
    /// `F*_2D` — inverse uniform 2-D FFT per projection.
    F2DAdj,
}

impl FftOpKind {
    /// All operation kinds, in the order they appear in one LSP iteration of
    /// Algorithm 1 (forward pass then adjoint pass).
    pub const ALL: [FftOpKind; 6] = [
        FftOpKind::Fu1D,
        FftOpKind::Fu2D,
        FftOpKind::F2DAdj,
        FftOpKind::F2D,
        FftOpKind::Fu2DAdj,
        FftOpKind::Fu1DAdj,
    ];

    /// The four operations that remain after the paper's operation
    /// cancellation (Algorithm 2): `F_2D`/`F*_2D` are eliminated.
    pub const AFTER_CANCELLATION: [FftOpKind; 4] = [
        FftOpKind::Fu1D,
        FftOpKind::Fu2D,
        FftOpKind::Fu2DAdj,
        FftOpKind::Fu1DAdj,
    ];

    /// Short human-readable label used by reports and benches.
    pub fn label(&self) -> &'static str {
        match self {
            FftOpKind::Fu1D => "Fu1D",
            FftOpKind::Fu1DAdj => "F*u1D",
            FftOpKind::Fu2D => "Fu2D",
            FftOpKind::Fu2DAdj => "F*u2D",
            FftOpKind::F2D => "F2D",
            FftOpKind::F2DAdj => "F*2D",
        }
    }

    /// Returns `true` for the unequally-spaced operations (the expensive
    /// ones, and the only ones mLR memoizes after cancellation).
    pub fn is_unequally_spaced(&self) -> bool {
        !matches!(self, FftOpKind::F2D | FftOpKind::F2DAdj)
    }

    /// The operation kinds in dense-index order: `DENSE[k.index()] == k`.
    /// This is the canonical order for fixed-arity per-operation tables
    /// (note it differs from [`FftOpKind::ALL`], which lists the kinds in
    /// Algorithm-1 invocation order).
    pub const DENSE: [FftOpKind; 6] = [
        FftOpKind::Fu1D,
        FftOpKind::Fu1DAdj,
        FftOpKind::Fu2D,
        FftOpKind::Fu2DAdj,
        FftOpKind::F2D,
        FftOpKind::F2DAdj,
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
            FftOpKind::F2D => 4,
            FftOpKind::F2DAdj => 5,
        }
    }
}

/// One chunk of a batched executor dispatch: the chunk location, its
/// gathered (flattened, row-major) input, and the exact-compute closure the
/// executor must call on a memoization miss. The closure is `Sync` so
/// batch-aware executors may evaluate different chunks on different threads.
pub struct ChunkRequest<'a> {
    /// Chunk index along the stage's grid (the memoization key scope).
    pub loc: usize,
    /// Flattened chunk input.
    pub input: &'a [Complex64],
    /// Exact transform for this chunk.
    pub compute: &'a (dyn Fn(&[Complex64]) -> Vec<Complex64> + Sync),
}

/// The execution seam for chunked FFT operations.
///
/// The operator hands every chunk-level FFT invocation to an executor
/// together with a closure that performs the actual computation. The default
/// [`DirectExecutor`] simply calls the closure; mLR's memoization engine
/// (in `mlr-memo`) instead searches its database and only falls back to the
/// closure on a miss; the hardware simulator wraps either to account time.
///
/// Operators dispatch whole chunk grids through
/// [`FftExecutor::execute_batch_into`], which batch-aware executors (the
/// memoized engine's deterministic chunk-parallel scheduler) override; the
/// default implementation simply loops over [`FftExecutor::execute`], so
/// single-chunk executors and sim wrappers keep working unchanged.
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
    /// This is the zero-copy seam: the operator hands out windows of its own
    /// grid buffers, so a memoization hit costs one memcpy from the shared
    /// stored payload into the grid — no intermediate `Vec` per chunk. The
    /// default implementation runs the chunks sequentially through
    /// [`FftExecutor::execute`]; the memoized engine overrides it with the
    /// two-phase deterministic parallel schedule (parallel probe/compute,
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
    /// Memoizing executors use this for similarity tracking; the default
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
/// process so far. Only the plane loops of the `*_chunk_compute` kernels and
/// the plan build in [`LaminoOperator::new`] fork; nothing below them does.
pub fn kernel_threads_spawned() -> u64 {
    rayon::spawned_threads()
}

/// Splits `data` into consecutive mutable windows of the given sizes — the
/// per-chunk output slices a batch dispatch writes into. The windows
/// partition a single grid (or staging) buffer, so chunk results land in
/// place with no per-chunk `Vec`.
fn split_windows(
    mut data: &mut [Complex64],
    sizes: impl Iterator<Item = usize>,
) -> Vec<&mut [Complex64]> {
    let mut out = Vec::new();
    for size in sizes {
        let (head, tail) = data.split_at_mut(size);
        out.push(head);
        data = tail;
    }
    out
}

/// Iterator over consecutive immutable windows of the given sizes — the
/// read-side counterpart of [`split_windows`], used to hand each chunk its
/// slice of a shared gather arena.
struct WindowIter<'a, I> {
    data: &'a [Complex64],
    offset: usize,
    sizes: I,
}

impl<'a, I: Iterator<Item = usize>> WindowIter<'a, I> {
    fn new(data: &'a [Complex64], sizes: I) -> Self {
        Self {
            data,
            offset: 0,
            sizes,
        }
    }
}

impl<'a, I: Iterator<Item = usize>> Iterator for WindowIter<'a, I> {
    type Item = &'a [Complex64];
    fn next(&mut self) -> Option<&'a [Complex64]> {
        let size = self.sizes.next()?;
        let window = &self.data[self.offset..self.offset + size];
        self.offset += size;
        Some(window)
    }
}

/// Assembles the per-chunk [`ChunkRequest`]s of one stage application from
/// parallel slices of locations, input windows and compute closures.
fn make_batch<'a, C>(
    locs: &[ChunkLocation],
    inputs: impl Iterator<Item = &'a [Complex64]>,
    computes: &'a [C],
) -> Vec<ChunkRequest<'a>>
where
    C: Fn(&[Complex64]) -> Vec<Complex64> + Sync,
{
    locs.iter()
        .zip(inputs.zip(computes))
        .map(|(loc, (input, compute))| ChunkRequest {
            loc: loc.index,
            input,
            compute: compute as &(dyn Fn(&[Complex64]) -> Vec<Complex64> + Sync),
        })
        .collect()
}

/// The laminography operator for a fixed geometry.
///
/// Construction precomputes the USFFT plans (vertical transform and one
/// in-plane transform per detector row) and the uniform 2-D FFT plan, so
/// repeated applications — every CG step of every ADMM iteration — reuse
/// them. The plans' working memory does not come per plan: the row plans
/// lease from one pair of pools, so what an operator keeps resident between
/// applications scales with the kernel thread count, not with the detector
/// height ([`Self::scratch_idle_buffers`]).
pub struct LaminoOperator {
    geometry: LaminoGeometry,
    usfft_vertical: Usfft1d,
    usfft_rows: Vec<Usfft2d>,
    fft2_detector: Fft2Batch,
    chunk_size: usize,
    /// Pooled gather/scatter staging buffers, reused across the batch
    /// dispatches of an operator application (and across applications): the
    /// `F_u2D`/`F*_u2D` stages gather their chunk inputs into one leased
    /// arena and stage their outputs in another instead of allocating per
    /// chunk. The slab-aligned stages (`F_u1D`, `F_2D`) need no staging at
    /// all — they borrow the operand and write the result grids directly.
    arena: ScratchPool,
    /// The one grid every row plan of `usfft_rows` is built on: all rows
    /// share `nr1 × nr2`, σ and the half-width, so the operator builds the
    /// fine-grid FFT plans and window tables once and parks one fine grid
    /// and one column per plane transform running at once.
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
        let usfft_vertical = Usfft1d::with_params(geometry.n0, geometry.vertical_freqs(), 2, 6);
        let plane_grid = Arc::new(Usfft2dGrid::new(geometry.n1, geometry.n2, 2, 6));
        let usfft_rows: Vec<Usfft2d> = (0..geometry.detector.rows)
            .into_par_iter()
            .map(|row| {
                Usfft2d::on_grid(Arc::clone(&plane_grid), geometry.inplane_freqs_for_row(row))
            })
            .collect();
        let fft2_detector = Fft2Batch::new(geometry.detector.rows, geometry.detector.cols);
        Self {
            geometry,
            usfft_vertical,
            usfft_rows,
            fft2_detector,
            chunk_size,
            arena: ScratchPool::new(),
            plane_grid,
        }
    }

    /// Every scratch pool an operator application leases from: the
    /// gather/staging arena, the row plans' shared fine-grid and column
    /// pools, and the vertical plan's fine-grid pool.
    fn scratch_pools(&self) -> [&ScratchPool; 4] {
        let [plane_fine, plane_columns] = self.plane_grid.scratch();
        [
            &self.arena,
            plane_fine,
            plane_columns,
            self.usfft_vertical.scratch(),
        ]
    }

    /// Buffers parked in the operator's scratch pools (diagnostics). Bounded
    /// by the leases that were ever out at once — a few per kernel thread —
    /// whatever the number of detector rows.
    pub fn scratch_idle_buffers(&self) -> usize {
        self.scratch_pools().iter().map(|p| p.idle()).sum()
    }

    /// Bytes held by the buffers [`Self::scratch_idle_buffers`] counts.
    pub fn scratch_idle_bytes(&self) -> usize {
        self.scratch_pools().iter().map(|p| p.idle_bytes()).sum()
    }

    /// The geometry this operator was built for.
    pub fn geometry(&self) -> &LaminoGeometry {
        &self.geometry
    }

    /// Chunk size used for the chunked stages.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Chunk grid of the `F_u1D` stage (slabs along volume axis `n1`).
    pub fn fu1d_grid(&self) -> ChunkGrid {
        ChunkGrid::new(self.geometry.n1, self.chunk_size)
    }

    /// Chunk grid of the `F_u2D` stage (slabs along the detector-row axis).
    pub fn fu2d_grid(&self) -> ChunkGrid {
        ChunkGrid::new(self.geometry.detector.rows, self.chunk_size)
    }

    /// Chunk grid of the `F_2D` stage (slabs along the angle axis).
    pub fn f2d_grid(&self) -> ChunkGrid {
        ChunkGrid::new(self.geometry.n_angles(), self.chunk_size)
    }

    // ----------------------------------------------------------------- Fu1D

    /// Applies `F_u1D` to the whole volume: `u[n1, n0, n2] → ũ1[n1, h, n2]`.
    ///
    /// Chunks of this stage are slabs along axis 0, which are contiguous in
    /// row-major storage: the batch borrows its inputs straight out of `u`
    /// and writes its results straight into windows of the output grid —
    /// zero gather/scatter copies, zero per-chunk buffers.
    pub fn fu1d(&self, u: &Array3<Complex64>, exec: &dyn FftExecutor) -> Array3<Complex64> {
        let shape = u.shape();
        assert_eq!(
            shape,
            self.geometry.volume_shape(),
            "Fu1D input shape mismatch"
        );
        let out_shape = self.geometry.u1_shape();
        let mut out = Array3::zeros(out_shape);
        let locs: Vec<ChunkLocation> = self.fu1d_grid().iter().collect();
        let in_plane = shape.n1 * shape.n2;
        let out_plane = out_shape.n1 * out_shape.n2;
        let computes: Vec<_> = locs
            .iter()
            .map(|loc| {
                let len = loc.len;
                move |input: &[Complex64]| self.fu1d_chunk_compute(input, len)
            })
            .collect();
        let batch = make_batch(
            &locs,
            locs.iter()
                .map(|loc| &u.as_slice()[loc.start * in_plane..(loc.start + loc.len) * in_plane]),
            &computes,
        );
        let mut outputs = split_windows(out.as_mut_slice(), locs.iter().map(|l| l.len * out_plane));
        exec.execute_batch_into(FftOpKind::Fu1D, &batch, &mut outputs);
        out
    }

    /// Exact computation of `F_u1D` on one chunk (a slab of `len` planes of
    /// the volume along `n1`). Exposed so benches can time the raw kernel.
    pub fn fu1d_chunk_compute(&self, input: &[Complex64], len: usize) -> Vec<Complex64> {
        let n0 = self.geometry.n0;
        let n2 = self.geometry.n2;
        let h = self.geometry.detector.rows;
        assert_eq!(input.len(), len * n0 * n2, "Fu1D chunk length mismatch");
        let mut out = vec![Complex64::ZERO; len * h * n2];
        out.par_chunks_mut(h * n2)
            .enumerate()
            .for_each(|(i1, out_plane)| {
                let in_plane = &input[i1 * n0 * n2..(i1 + 1) * n0 * n2];
                // Column i2 of a row-major plane: from element i2, stride n2.
                for i2 in 0..n2 {
                    self.usfft_vertical
                        .forward_into(&in_plane[i2..], n2, &mut out_plane[i2..], n2);
                }
            });
        out
    }

    /// Applies `F*_u1D`: `ũ1[n1, h, n2] → u[n1, n0, n2]`.
    pub fn fu1d_adjoint(
        &self,
        u1: &Array3<Complex64>,
        exec: &dyn FftExecutor,
    ) -> Array3<Complex64> {
        let shape = u1.shape();
        assert_eq!(
            shape,
            self.geometry.u1_shape(),
            "F*u1D input shape mismatch"
        );
        let out_shape = self.geometry.volume_shape();
        let mut out = Array3::zeros(out_shape);
        let locs: Vec<ChunkLocation> = self.fu1d_grid().iter().collect();
        let in_plane = shape.n1 * shape.n2;
        let out_plane = out_shape.n1 * out_shape.n2;
        let computes: Vec<_> = locs
            .iter()
            .map(|loc| {
                let len = loc.len;
                move |input: &[Complex64]| self.fu1d_adjoint_chunk_compute(input, len)
            })
            .collect();
        let batch = make_batch(
            &locs,
            locs.iter()
                .map(|loc| &u1.as_slice()[loc.start * in_plane..(loc.start + loc.len) * in_plane]),
            &computes,
        );
        let mut outputs = split_windows(out.as_mut_slice(), locs.iter().map(|l| l.len * out_plane));
        exec.execute_batch_into(FftOpKind::Fu1DAdj, &batch, &mut outputs);
        out
    }

    /// Exact computation of `F*_u1D` on one chunk.
    pub fn fu1d_adjoint_chunk_compute(&self, input: &[Complex64], len: usize) -> Vec<Complex64> {
        let n0 = self.geometry.n0;
        let n2 = self.geometry.n2;
        let h = self.geometry.detector.rows;
        assert_eq!(input.len(), len * h * n2, "F*u1D chunk length mismatch");
        let mut out = vec![Complex64::ZERO; len * n0 * n2];
        out.par_chunks_mut(n0 * n2)
            .enumerate()
            .for_each(|(i1, out_plane)| {
                let in_plane = &input[i1 * h * n2..(i1 + 1) * h * n2];
                for i2 in 0..n2 {
                    self.usfft_vertical
                        .adjoint_into(&in_plane[i2..], n2, &mut out_plane[i2..], n2);
                }
            });
        out
    }

    // ----------------------------------------------------------------- Fu2D

    /// Applies `F_u2D`: `ũ1[n1, h, n2] → d̂[nθ, h, w]` (the sampled spectrum
    /// of every projection).
    pub fn fu2d(&self, u1: &Array3<Complex64>, exec: &dyn FftExecutor) -> Array3<Complex64> {
        assert_eq!(
            u1.shape(),
            self.geometry.u1_shape(),
            "Fu2D input shape mismatch"
        );
        let n1 = self.geometry.n1;
        let n2 = self.geometry.n2;
        let n_theta = self.geometry.n_angles();
        let h = self.geometry.detector.rows;
        let w = self.geometry.detector.cols;
        let mut out = Array3::zeros(Shape3::new(n_theta, h, w));
        let locs: Vec<ChunkLocation> = self.fu2d_grid().iter().collect();
        // One leased gather arena holds every chunk's input (reused across
        // dispatches and applications); one leased staging arena receives
        // the per-row outputs before the scatter into `out`.
        let mut gather = self.arena.lease(h * n1 * n2);
        let mut offset = 0;
        for loc in &locs {
            let size = loc.len * n1 * n2;
            self.gather_rows_into(u1, loc.start, loc.len, &mut gather[offset..offset + size]);
            offset += size;
        }
        let computes: Vec<_> = locs
            .iter()
            .map(|loc| {
                let (start, len) = (loc.start, loc.len);
                move |input: &[Complex64]| self.fu2d_chunk_compute(input, start, len)
            })
            .collect();
        let batch = make_batch(
            &locs,
            WindowIter::new(&gather[..], locs.iter().map(|l| l.len * n1 * n2)),
            &computes,
        );
        let mut staging = self.arena.lease(h * n_theta * w);
        {
            let mut outputs = split_windows(&mut staging, locs.iter().map(|l| l.len * n_theta * w));
            exec.execute_batch_into(FftOpKind::Fu2D, &batch, &mut outputs);
        }
        let mut offset = 0;
        for loc in &locs {
            // staging layout per chunk: [rows_in_chunk][nθ * w]
            for r in 0..loc.len {
                let row = loc.start + r;
                let row_data = &staging[offset + r * n_theta * w..offset + (r + 1) * n_theta * w];
                for t in 0..n_theta {
                    for c in 0..w {
                        out[(t, row, c)] = row_data[t * w + c];
                    }
                }
            }
            offset += loc.len * n_theta * w;
        }
        out
    }

    /// Exact computation of `F_u2D` on one chunk of detector rows.
    ///
    /// `input` holds, per row in the chunk, the `n1 × n2` horizontal plane of
    /// `ũ1`; the output holds, per row, the `nθ × w` sampled spectrum.
    pub fn fu2d_chunk_compute(
        &self,
        input: &[Complex64],
        row_start: usize,
        len: usize,
    ) -> Vec<Complex64> {
        let n1 = self.geometry.n1;
        let n2 = self.geometry.n2;
        let n_theta = self.geometry.n_angles();
        let w = self.geometry.detector.cols;
        assert_eq!(input.len(), len * n1 * n2, "Fu2D chunk length mismatch");
        let mut out = vec![Complex64::ZERO; len * n_theta * w];
        out.par_chunks_mut(n_theta * w)
            .enumerate()
            .for_each(|(r, out_row)| {
                let row = row_start + r;
                let plane = &input[r * n1 * n2..(r + 1) * n1 * n2];
                self.usfft_rows[row].forward_into(plane, out_row);
            });
        out
    }

    /// Applies `F*_u2D`: `d̂[nθ, h, w] → ũ1[n1, h, n2]`.
    pub fn fu2d_adjoint(
        &self,
        dhat: &Array3<Complex64>,
        exec: &dyn FftExecutor,
    ) -> Array3<Complex64> {
        assert_eq!(
            dhat.shape(),
            self.geometry.data_shape(),
            "F*u2D input shape mismatch"
        );
        let n1 = self.geometry.n1;
        let n2 = self.geometry.n2;
        let n_theta = self.geometry.n_angles();
        let h = self.geometry.detector.rows;
        let w = self.geometry.detector.cols;
        let mut out = Array3::zeros(self.geometry.u1_shape());
        let locs: Vec<ChunkLocation> = self.fu2d_grid().iter().collect();
        // Leased gather arena: per row, the nθ × w spectrum samples.
        let mut gather = self.arena.lease(h * n_theta * w);
        let mut offset = 0;
        for loc in &locs {
            for r in 0..loc.len {
                let row = loc.start + r;
                for t in 0..n_theta {
                    for c in 0..w {
                        gather[offset + r * n_theta * w + t * w + c] = dhat[(t, row, c)];
                    }
                }
            }
            offset += loc.len * n_theta * w;
        }
        let computes: Vec<_> = locs
            .iter()
            .map(|loc| {
                let (start, len) = (loc.start, loc.len);
                move |input: &[Complex64]| self.fu2d_adjoint_chunk_compute(input, start, len)
            })
            .collect();
        let batch = make_batch(
            &locs,
            WindowIter::new(&gather[..], locs.iter().map(|l| l.len * n_theta * w)),
            &computes,
        );
        let mut staging = self.arena.lease(h * n1 * n2);
        {
            let mut outputs = split_windows(&mut staging, locs.iter().map(|l| l.len * n1 * n2));
            exec.execute_batch_into(FftOpKind::Fu2DAdj, &batch, &mut outputs);
        }
        let mut offset = 0;
        for loc in &locs {
            // staging layout per chunk: [rows_in_chunk][n1 * n2]
            for r in 0..loc.len {
                let row = loc.start + r;
                let plane = &staging[offset + r * n1 * n2..offset + (r + 1) * n1 * n2];
                for i1 in 0..n1 {
                    for i2 in 0..n2 {
                        out[(i1, row, i2)] = plane[i1 * n2 + i2];
                    }
                }
            }
            offset += loc.len * n1 * n2;
        }
        out
    }

    /// Exact computation of `F*_u2D` on one chunk of detector rows.
    pub fn fu2d_adjoint_chunk_compute(
        &self,
        input: &[Complex64],
        row_start: usize,
        len: usize,
    ) -> Vec<Complex64> {
        let n1 = self.geometry.n1;
        let n2 = self.geometry.n2;
        let n_theta = self.geometry.n_angles();
        let w = self.geometry.detector.cols;
        assert_eq!(
            input.len(),
            len * n_theta * w,
            "F*u2D chunk length mismatch"
        );
        let mut out = vec![Complex64::ZERO; len * n1 * n2];
        out.par_chunks_mut(n1 * n2)
            .enumerate()
            .for_each(|(r, out_plane)| {
                let row = row_start + r;
                let samples = &input[r * n_theta * w..(r + 1) * n_theta * w];
                self.usfft_rows[row].adjoint_into(samples, out_plane);
            });
        out
    }

    // ------------------------------------------------------------------ F2D

    /// Applies the uniform per-projection 2-D FFT `F_2D`:
    /// `d[nθ, h, w] → d̂[nθ, h, w]` (chunked along the angle axis).
    pub fn f2d(&self, d: &Array3<Complex64>, exec: &dyn FftExecutor) -> Array3<Complex64> {
        self.f2d_impl(d, exec, FftOpKind::F2D)
    }

    /// Applies the inverse per-projection 2-D FFT `F*_2D`.
    pub fn f2d_inverse(
        &self,
        dhat: &Array3<Complex64>,
        exec: &dyn FftExecutor,
    ) -> Array3<Complex64> {
        self.f2d_impl(dhat, exec, FftOpKind::F2DAdj)
    }

    fn f2d_impl(
        &self,
        d: &Array3<Complex64>,
        exec: &dyn FftExecutor,
        kind: FftOpKind,
    ) -> Array3<Complex64> {
        assert_eq!(
            d.shape(),
            self.geometry.data_shape(),
            "F2D input shape mismatch"
        );
        let mut out = Array3::zeros(d.shape());
        let locs: Vec<ChunkLocation> = self.f2d_grid().iter().collect();
        let plane = d.shape().n1 * d.shape().n2;
        let computes: Vec<_> = locs
            .iter()
            .map(|loc| {
                let len = loc.len;
                move |input: &[Complex64]| self.f2d_chunk_compute(input, len, kind)
            })
            .collect();
        let batch = make_batch(
            &locs,
            locs.iter()
                .map(|loc| &d.as_slice()[loc.start * plane..(loc.start + loc.len) * plane]),
            &computes,
        );
        let mut outputs = split_windows(out.as_mut_slice(), locs.iter().map(|l| l.len * plane));
        exec.execute_batch_into(kind, &batch, &mut outputs);
        out
    }

    /// Exact computation of `F_2D`/`F*_2D` on one chunk of projections.
    pub fn f2d_chunk_compute(
        &self,
        input: &[Complex64],
        len: usize,
        kind: FftOpKind,
    ) -> Vec<Complex64> {
        let h = self.geometry.detector.rows;
        let w = self.geometry.detector.cols;
        assert_eq!(input.len(), len * h * w, "F2D chunk length mismatch");
        let dir = match kind {
            FftOpKind::F2D => Direction::Forward,
            FftOpKind::F2DAdj => Direction::Inverse,
            other => panic!("f2d_chunk_compute called with {other:?}"),
        };
        let mut out = input.to_vec();
        out.par_chunks_mut(h * w)
            .for_each(|plane| self.fft2_detector.process_plane(plane, dir));
        out
    }

    // ------------------------------------------------------------ composite

    /// Full forward operator `d = L u` on a real volume, using the direct
    /// executor (no memoization).
    pub fn forward(&self, u: &Array3<f64>) -> Array3<f64> {
        self.forward_with(u, &DirectExecutor)
    }

    /// Full forward operator with an explicit executor.
    pub fn forward_with(&self, u: &Array3<f64>, exec: &dyn FftExecutor) -> Array3<f64> {
        let u_c = mlr_fft::fft2d::to_complex(u);
        let u1 = self.fu1d(&u_c, exec);
        let dhat = self.fu2d(&u1, exec);
        let d = self.f2d_inverse(&dhat, exec);
        mlr_fft::fft2d::to_real(&d)
    }

    /// Full adjoint operator `u = L* d` on real projection data, using the
    /// direct executor.
    pub fn adjoint(&self, d: &Array3<f64>) -> Array3<f64> {
        self.adjoint_with(d, &DirectExecutor)
    }

    /// Full adjoint operator with an explicit executor.
    pub fn adjoint_with(&self, d: &Array3<f64>, exec: &dyn FftExecutor) -> Array3<f64> {
        let d_c = mlr_fft::fft2d::to_complex(d);
        let mut dhat = self.f2d(&d_c, exec);
        // Adjoint of the normalised inverse FFT is the forward FFT divided by
        // the plane size.
        let scale = 1.0 / (self.geometry.detector.rows * self.geometry.detector.cols) as f64;
        dhat.map_inplace(|z| *z = z.scale(scale));
        let u1 = self.fu2d_adjoint(&dhat, exec);
        let u = self.fu1d_adjoint(&u1, exec);
        mlr_fft::fft2d::to_real(&u)
    }

    /// Gathers a slab of detector rows `[start, start+len)` from
    /// `ũ1[n1, h, n2]` into the caller's arena window, producing the per-row
    /// planes consumed by `F_u2D`. Every element of `out` is overwritten.
    fn gather_rows_into(
        &self,
        u1: &Array3<Complex64>,
        start: usize,
        len: usize,
        out: &mut [Complex64],
    ) {
        let n1 = self.geometry.n1;
        let n2 = self.geometry.n2;
        assert_eq!(out.len(), len * n1 * n2, "gather window size mismatch");
        for r in 0..len {
            let row = start + r;
            for i1 in 0..n1 {
                for i2 in 0..n2 {
                    out[r * n1 * n2 + i1 * n2 + i2] = u1[(i1, row, i2)];
                }
            }
        }
    }

    /// Size in complex elements of the chunk fed to `kind` at any location
    /// with the nominal chunk size (the last chunk may be smaller). Used by
    /// the memoization sizing logic and the memory accounting in `mlr-sim`.
    pub fn chunk_elems(&self, kind: FftOpKind) -> usize {
        let g = &self.geometry;
        let cs = self.chunk_size;
        match kind {
            FftOpKind::Fu1D => cs.min(g.n1) * g.n0 * g.n2,
            FftOpKind::Fu1DAdj => cs.min(g.n1) * g.detector.rows * g.n2,
            FftOpKind::Fu2D => cs.min(g.detector.rows) * g.n1 * g.n2,
            FftOpKind::Fu2DAdj => cs.min(g.detector.rows) * g.n_angles() * g.detector.cols,
            FftOpKind::F2D | FftOpKind::F2DAdj => {
                cs.min(g.n_angles()) * g.detector.rows * g.detector.cols
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phantom::brain_phantom;
    use mlr_math::norms::max_abs_diff_c;
    use mlr_math::rng::seeded;
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

    #[test]
    fn shapes_of_factored_stages() {
        let op = small_operator();
        let exec = DirectExecutor;
        let u = random_complex_volume(op.geometry().volume_shape(), 1);
        let u1 = op.fu1d(&u, &exec);
        assert_eq!(u1.shape(), op.geometry().u1_shape());
        let dhat = op.fu2d(&u1, &exec);
        assert_eq!(dhat.shape(), op.geometry().data_shape());
        let d = op.f2d_inverse(&dhat, &exec);
        assert_eq!(d.shape(), op.geometry().data_shape());
    }

    #[test]
    fn fu1d_adjointness() {
        let op = small_operator();
        let exec = DirectExecutor;
        let x = random_complex_volume(op.geometry().volume_shape(), 2);
        let y = random_complex_volume(op.geometry().u1_shape(), 3);
        let fx = op.fu1d(&x, &exec);
        let fty = op.fu1d_adjoint(&y, &exec);
        let lhs = fx.inner(&y);
        let rhs = x.inner(&fty);
        assert!(
            (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
            "{lhs:?} vs {rhs:?}"
        );
    }

    #[test]
    fn fu2d_adjointness() {
        let op = small_operator();
        let exec = DirectExecutor;
        let x = random_complex_volume(op.geometry().u1_shape(), 4);
        let y = random_complex_volume(op.geometry().data_shape(), 5);
        let fx = op.fu2d(&x, &exec);
        let fty = op.fu2d_adjoint(&y, &exec);
        let lhs = fx.inner(&y);
        let rhs = x.inner(&fty);
        assert!(
            (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
            "{lhs:?} vs {rhs:?}"
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
        let lhs = lu.dot(&d);
        let rhs = u.dot(&ltd);
        assert!(
            (lhs - rhs).abs() < 1e-7 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn f2d_roundtrip_identity() {
        let op = small_operator();
        let exec = DirectExecutor;
        let d = random_complex_volume(op.geometry().data_shape(), 8);
        let dhat = op.f2d(&d, &exec);
        let back = op.f2d_inverse(&dhat, &exec);
        assert!(max_abs_diff_c(back.as_slice(), d.as_slice()) < 1e-9);
    }

    #[test]
    fn forward_linear() {
        let op = small_operator();
        let shape = op.geometry().volume_shape();
        let a = random_real_volume(shape, 9);
        let b = random_real_volume(shape, 10);
        let mut sum = a.clone();
        sum.axpby(1.0, &b, 1.0);
        let la = op.forward(&a);
        let lb = op.forward(&b);
        let lsum = op.forward(&sum);
        let mut expected = la.clone();
        expected.axpby(1.0, &lb, 1.0);
        let diff: f64 = lsum
            .as_slice()
            .iter()
            .zip(expected.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-9, "nonlinearity {diff}");
    }

    #[test]
    fn executor_sees_every_chunk() {
        struct Counting {
            count: AtomicUsize,
        }
        impl FftExecutor for Counting {
            fn execute(
                &self,
                _kind: FftOpKind,
                _loc: usize,
                input: &[Complex64],
                compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
            ) -> Vec<Complex64> {
                self.count.fetch_add(1, Ordering::Relaxed);
                compute(input)
            }
        }
        let op = small_operator();
        let exec = Counting {
            count: AtomicUsize::new(0),
        };
        let u = random_real_volume(op.geometry().volume_shape(), 11);
        let _ = op.forward_with(&u, &exec);
        // Three stages, each with ceil(8/4)=2 chunks for Fu1D/Fu2D and
        // ceil(6/4)=2 chunks for F*2D.
        assert_eq!(exec.count.load(Ordering::Relaxed), 2 + 2 + 2);
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
        assert_eq!(op.chunk_elems(FftOpKind::Fu1D), 4 * 8 * 8);
        assert_eq!(op.chunk_elems(FftOpKind::Fu2D), 4 * 8 * 8);
        assert_eq!(op.chunk_elems(FftOpKind::Fu2DAdj), 4 * 6 * 8);
        assert_eq!(op.chunk_elems(FftOpKind::F2D), 4 * 8 * 8);
    }

    #[test]
    fn op_kind_labels_and_sets() {
        assert_eq!(FftOpKind::ALL.len(), 6);
        assert_eq!(FftOpKind::AFTER_CANCELLATION.len(), 4);
        assert!(FftOpKind::Fu2D.is_unequally_spaced());
        assert!(!FftOpKind::F2D.is_unequally_spaced());
        assert_eq!(FftOpKind::Fu2DAdj.label(), "F*u2D");
    }

    #[test]
    fn dense_order_is_the_inverse_of_index() {
        // Fixed-arity stat tables rely on this bijection; every ALL member
        // must appear, so a new kind cannot silently miss the dense order.
        for (i, kind) in FftOpKind::DENSE.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
        for kind in FftOpKind::ALL {
            assert_eq!(FftOpKind::DENSE[kind.index()], kind);
        }
    }
}
