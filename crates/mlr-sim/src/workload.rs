//! Analytic ADMM-FFT workload model.
//!
//! Describes, for a given problem size, how much work one ADMM-FFT iteration
//! performs — operation counts, FFT sizes, bytes moved — so that the cost
//! model can price the paper's 1K³/1.5K³/2K³ problems even though the
//! numerical solver in this reproduction runs at much smaller grids.

use crate::cost::CostModel;
use crate::Seconds;
use serde::{Deserialize, Serialize};

/// Problem dimensions of one laminography reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProblemSize {
    /// Cubic volume dimension `N` (the volume is `N × N × N`).
    pub n: usize,
    /// Number of projection angles.
    pub n_theta: usize,
    /// Detector rows.
    pub h: usize,
    /// Detector columns.
    pub w: usize,
    /// Chunk size (slabs per chunk), the paper's default is 16.
    pub chunk_size: usize,
}

impl ProblemSize {
    /// A cubic problem with `N` angles and an `N × N` detector — the shape of
    /// the paper's datasets.
    pub fn cube(n: usize, chunk_size: usize) -> Self {
        Self {
            n,
            n_theta: n,
            h: n,
            w: n,
            chunk_size,
        }
    }

    /// The paper's small dataset, `1K³`.
    pub fn paper_1k() -> Self {
        Self::cube(1024, 16)
    }

    /// Number of chunk locations along the partitioned axis.
    pub fn num_chunks(&self) -> usize {
        self.n.div_ceil(self.chunk_size)
    }

    /// Total voxels in the volume.
    pub fn voxels(&self) -> u64 {
        (self.n as u64).pow(3)
    }

    /// Elements in the projection stack.
    pub fn data_elems(&self) -> u64 {
        self.n_theta as u64 * self.h as u64 * self.w as u64
    }
}

/// Paper-scale seconds of one USFFT chunk in each memo case: Figure 10's
/// bars, and the per-chunk prices a paper-scale projection weighs by the
/// measured case distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoCaseSeconds {
    /// Exact computation, no memo path.
    pub exact: Seconds,
    /// Failed memoization: key, query, then the exact computation.
    pub failed: Seconds,
    /// Database hit: key, query, and the value over the network.
    pub db_hit: Seconds,
    /// Compute-node cache hit: key and a DRAM copy of the value.
    pub cache_hit: Seconds,
}

impl MemoCaseSeconds {
    /// Expected seconds of one chunk under a `(failed, db hit, cache hit)`
    /// case distribution; whatever share the three leave out of 1 is priced
    /// as exact (a run that memoized nothing is all exact).
    pub fn expected(&self, (failed, db_hit, cache_hit): (f64, f64, f64)) -> Seconds {
        let exact = (1.0 - failed - db_hit - cache_hit).max(0.0);
        exact * self.exact
            + failed * self.failed
            + db_hit * self.db_hit
            + cache_hit * self.cache_hit
    }
}

/// Inner iterations per LSP solve: the paper's `N_inner`.
const N_INNER: usize = 4;

/// Relative cost of a USFFT against a uniform FFT of the same logical size
/// (oversampled fine grid plus Gaussian gridding).
const USFFT_OVERHEAD: f64 = 2.5;

/// The analytic workload of one ADMM-FFT run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmmWorkload {
    /// Problem dimensions.
    pub size: ProblemSize,
}

impl AdmmWorkload {
    /// Creates the workload model of one problem size.
    pub fn new(size: ProblemSize) -> Self {
        Self { size }
    }

    // ----------------------------------------------------------- FFT costs

    /// Simulated GPU compute time of one application of `F_u1D` over the
    /// whole volume (all chunks).
    pub fn fu1d_time(&self, cost: &CostModel) -> Seconds {
        // One length-N 1-D USFFT per (n1, n2) column.
        let batch = self.size.n * self.size.n;
        cost.gpu_fft_time(self.size.n, batch) * USFFT_OVERHEAD
    }

    /// Simulated GPU compute time of one application of `F_u2D` over the
    /// whole volume. This is the most expensive operator: one oversampled
    /// 2-D FFT plus gridding per detector row.
    pub fn fu2d_time(&self, cost: &CostModel) -> Seconds {
        let fine = 2 * self.size.n;
        cost.gpu_fft_time(fine * fine, self.size.h) * USFFT_OVERHEAD
    }

    /// Exposed seconds of one exact whole-volume application of `F_u1D` and
    /// of `F_u2D`, in that order: the longer of the stage's compute and its
    /// PCIe traffic, because the transfer of one chunk overlaps the compute
    /// of another (Figure 1's pipeline). This is what `run_exact` runs.
    pub fn exact_stages(&self, cost: &CostModel) -> (Seconds, Seconds) {
        let xfer = cost.pcie_time(self.stage_transfer_bytes());
        (
            self.fu1d_time(cost).max(xfer),
            self.fu2d_time(cost).max(xfer),
        )
    }

    /// Host↔GPU traffic (bytes) for one whole-volume application of one
    /// FFT stage: the chunk goes up and the result comes back.
    pub fn stage_transfer_bytes(&self) -> f64 {
        2.0 * 16.0 * self.size.voxels() as f64
    }

    /// Bytes of one whole-volume memoized value. A stored element is single
    /// precision ([`Complex32`](mlr_math::Complex32), the paper's
    /// COMPLEX64): the one place the paper-scale projections price a memo
    /// payload from.
    pub fn memo_value_bytes(&self) -> f64 {
        (mlr_math::Complex32::BYTES as u64 * self.size.voxels()) as f64
    }

    /// The price of one chunk of a USFFT stage whose whole-volume compute
    /// takes `stage` seconds, in each memo case. This prices the *paper's*
    /// memo path, not this repository's: a CNN key per chunk, one 60-d IVF
    /// query against a million stored keys per probe, the value over the
    /// network for a database hit and a DRAM copy for a cache hit.
    pub fn memo_chunk_seconds(&self, cost: &CostModel, stage: Seconds) -> MemoCaseSeconds {
        let fraction = 1.0 / self.size.num_chunks() as f64;
        let exact = stage.max(cost.pcie_time(self.stage_transfer_bytes())) * fraction;
        let value_bytes = self.memo_value_bytes() * fraction;
        let encode = cost.cnn_encode_time((self.size.voxels() as f64 * fraction) as usize);
        let query = cost.ann_query_time(1_000_000, 60, 1, 8);
        MemoCaseSeconds {
            exact,
            failed: exact + encode + query,
            db_hit: encode + query + cost.network_bulk_time(value_bytes),
            cache_hit: encode + cost.dram_copy_time(value_bytes),
        }
    }

    // ---------------------------------------------------------- iteration

    /// Simulated seconds of one Algorithm-2 ADMM iteration: the one place
    /// the model composes an iteration. `fu1d` and `fu2d` are the exposed
    /// whole-volume seconds of one `F_u1D` and one `F_u2D` application, each
    /// adjoint priced like its forward.
    ///
    /// The LSP runs `N_inner` inner iterations of `F_u1D`, `F_u2D`,
    /// `F*_u2D`, `F*_u1D` (cancellation removed both uniform-FFT stages),
    /// the frequency-domain subtraction fused on the GPU and the CG update on
    /// the CPU. RSP (TV shrinkage over the gradient field), the λ update and
    /// the penalty (ρ) update are CPU element-wise passes. The phases are
    /// summed in that order.
    pub fn iteration(&self, cost: &CostModel, fu1d: Seconds, fu2d: Seconds) -> Seconds {
        let voxels = self.size.voxels() as usize;
        let cpu = |elems, flops, bytes| cost.cpu_elementwise_time(elems, flops, bytes);
        let fused_sub = cost.gpu_elementwise_time(self.size.data_elems() as usize);
        let lsp_inner = fu1d + fu2d + fu2d + fu1d + fused_sub + cpu(voxels, 6.0, 24.0);
        let lsp = lsp_inner * N_INNER as f64;
        let rsp = cpu(3 * voxels, 8.0, 16.0);
        let lambda = cpu(3 * voxels, 3.0, 16.0);
        let penalty = cpu(voxels, 2.0, 8.0);
        lsp + rsp + lambda + penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        assert_eq!(ProblemSize::paper_1k().n, 1024);
        assert_eq!(ProblemSize::paper_1k().num_chunks(), 64);
        assert_eq!(ProblemSize::cube(2048, 16).num_chunks(), 128);
        assert_eq!(ProblemSize::cube(100, 16).num_chunks(), 7);
    }

    #[test]
    fn fu2d_is_the_longest_operator() {
        let cost = CostModel::polaris();
        let w = AdmmWorkload::new(ProblemSize::paper_1k());
        assert!(w.fu2d_time(&cost) > w.fu1d_time(&cost));
    }

    #[test]
    fn larger_problems_cost_more() {
        let cost = CostModel::polaris();
        let exact = |size| {
            let w = AdmmWorkload::new(size);
            let (fu1d, fu2d) = w.exact_stages(&cost);
            w.iteration(&cost, fu1d, fu2d)
        };
        let t1 = exact(ProblemSize::paper_1k());
        let t15 = exact(ProblemSize::cube(1536, 16));
        let t2 = exact(ProblemSize::cube(2048, 16));
        assert!(t15 > 2.0 * t1);
        assert!(t2 > t15);
    }

    #[test]
    fn memo_case_prices_order_like_figure_10() {
        let cost = CostModel::polaris();
        let w = AdmmWorkload::new(ProblemSize::paper_1k());
        let c = w.memo_chunk_seconds(&cost, w.fu2d_time(&cost));
        assert!(c.cache_hit < c.db_hit && c.db_hit < c.exact && c.exact < c.failed);
        assert_eq!(c.expected((0.0, 0.0, 0.0)), c.exact);
        assert_eq!(c.expected((0.0, 1.0, 0.0)), c.db_hit);
    }
}
