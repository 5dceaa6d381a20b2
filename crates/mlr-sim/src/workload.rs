//! Analytic ADMM-FFT workload model.
//!
//! Describes, for a given problem size, how much work one ADMM-FFT iteration
//! performs and how large each of its variables is — operation counts, FFT
//! sizes, bytes moved — so that the cost model can price the paper's
//! 1K³/1.5K³/2K³ problems even though the numerical solver in this
//! reproduction runs at much smaller grids. The variable catalog reproduces
//! the memory-consumption breakdown of Figure 2 and feeds the offload
//! planner's profile for Figure 13.

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

    /// The paper's medium dataset, `(1.5K)³`.
    pub fn paper_1_5k() -> Self {
        Self::cube(1536, 16)
    }

    /// The paper's large dataset, `(2K)³`.
    pub fn paper_2k() -> Self {
        Self::cube(2048, 16)
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

/// One named variable in the ADMM working set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariableSpec {
    /// Variable name as used in the paper (ψ, λ, g, …).
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Whether the paper's offload planner considers it (no pointer aliases).
    pub offloadable: bool,
}

/// The four execution phases of one ADMM iteration (§5.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AdmmPhase {
    /// Laminography subproblem (CG iterations over the FFT operators).
    Lsp,
    /// Regularisation subproblem (TV proximal step).
    Rsp,
    /// Lagrange multiplier update.
    LambdaUpdate,
    /// Penalty parameter update.
    PenaltyUpdate,
}

impl AdmmPhase {
    /// All four phases in execution order.
    pub const ALL: [AdmmPhase; 4] = [
        AdmmPhase::Lsp,
        AdmmPhase::Rsp,
        AdmmPhase::LambdaUpdate,
        AdmmPhase::PenaltyUpdate,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            AdmmPhase::Lsp => "LSP",
            AdmmPhase::Rsp => "RSP",
            AdmmPhase::LambdaUpdate => "lambda update",
            AdmmPhase::PenaltyUpdate => "penalty update",
        }
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

/// The analytic workload of one ADMM-FFT run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmmWorkload {
    /// Problem dimensions.
    pub size: ProblemSize,
    /// Inner CG iterations per LSP solve (`N_inner`).
    pub n_inner: usize,
    /// Relative cost multiplier of a USFFT vs. a uniform FFT of the same
    /// logical size (oversampled fine grid + Gaussian gridding).
    pub usfft_overhead: f64,
}

impl AdmmWorkload {
    /// Creates the workload model with the paper's `N_inner = 4`.
    pub fn new(size: ProblemSize) -> Self {
        Self {
            size,
            n_inner: 4,
            usfft_overhead: 2.5,
        }
    }

    // ----------------------------------------------------------- variables

    /// The ADMM working set, sized in the proportions of Figure 2:
    /// ψ and λ at ~12 % each, `g` + `g_prev` at ~24 %, with the remainder
    /// taken by the reconstruction, the data, frequency-domain copies and
    /// FFT work buffers.
    pub fn variables(&self) -> Vec<VariableSpec> {
        let n3 = self.size.voxels();
        let data = self.size.data_elems();
        // Scalars are float32 on the host (the paper stores data in single
        // precision); frequency-domain arrays are COMPLEX64 (8 bytes).
        let vol_f32 = n3 * 4;
        let grad_f32 = 3 * vol_f32; // 3-component vector fields
        let data_f32 = data * 4;
        let data_c64 = data * 8;
        let spec = |name: &str, bytes: u64, offloadable: bool| VariableSpec {
            name: name.to_string(),
            bytes,
            offloadable,
        };
        vec![
            spec("psi", grad_f32, true),
            spec("lambda", grad_f32, true),
            spec("g", grad_f32, true),
            spec("g_prev", grad_f32, true),
            spec("u", vol_f32, false),
            spec("d", data_f32, false),
            spec("d_hat", data_c64, false),
            spec("u1_intermediate", data_c64, false),
            spec("cg_workspace", 2 * vol_f32, false),
            spec("fft_buffers", 10 * vol_f32, false),
        ]
    }

    /// Total CPU-memory footprint in bytes (sum of the variable catalog).
    pub fn total_bytes(&self) -> u64 {
        self.variables().iter().map(|v| v.bytes).sum()
    }

    // ----------------------------------------------------------- FFT costs

    /// Simulated GPU time of one application of `F_u1D` over the whole
    /// volume (all chunks).
    pub fn fu1d_time(&self, cost: &CostModel) -> Seconds {
        // One length-N 1-D USFFT per (n1, n2) column.
        let batch = self.size.n * self.size.n;
        cost.gpu_fft_time(self.size.n, batch) * self.usfft_overhead
    }

    /// Simulated GPU time of one application of `F_u2D` over the whole
    /// volume. This is the most expensive operator: one oversampled 2-D FFT
    /// plus gridding per detector row.
    pub fn fu2d_time(&self, cost: &CostModel) -> Seconds {
        let fine = 2 * self.size.n;
        cost.gpu_fft_time(fine * fine, self.size.h) * self.usfft_overhead
    }

    /// Simulated GPU time of one application of `F_2D` (or its inverse) over
    /// all projections.
    pub fn f2d_time(&self, cost: &CostModel) -> Seconds {
        cost.gpu_fft_time(self.size.h * self.size.w, self.size.n_theta)
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

    /// Simulated time of one LSP inner (CG) iteration under Algorithm 1
    /// (six FFT stages, three per pass) including PCIe transfers, assuming
    /// the transfer of one chunk overlaps the compute of another so only the
    /// *longer* of the two is exposed per stage (Figure 1's pipeline).
    pub fn lsp_inner_iteration_time_alg1(&self, cost: &CostModel) -> Seconds {
        let stages = [
            self.fu1d_time(cost),
            self.fu2d_time(cost),
            self.f2d_time(cost), // F*2D in the forward pass
            self.f2d_time(cost), // F2D in the adjoint pass
            self.fu2d_time(cost),
            self.fu1d_time(cost),
        ];
        let xfer = cost.pcie_time(self.stage_transfer_bytes());
        stages.iter().map(|&s| s.max(xfer)).sum::<f64>() + self.cg_update_time(cost)
    }

    /// Simulated time of one LSP inner iteration under Algorithm 2
    /// (cancellation removes both uniform-FFT stages; fusion keeps the
    /// frequency-domain subtraction on the GPU).
    pub fn lsp_inner_iteration_time_alg2(&self, cost: &CostModel) -> Seconds {
        let stages = [
            self.fu1d_time(cost),
            self.fu2d_time(cost),
            self.fu2d_time(cost),
            self.fu1d_time(cost),
        ];
        let xfer = cost.pcie_time(self.stage_transfer_bytes());
        let fused_sub = cost.gpu_elementwise_time(self.size.data_elems() as usize);
        stages.iter().map(|&s| s.max(xfer)).sum::<f64>() + fused_sub + self.cg_update_time(cost)
    }

    /// Simulated time of the CG direction/step update (CPU element-wise work
    /// over the volume-sized gradient arrays).
    pub fn cg_update_time(&self, cost: &CostModel) -> Seconds {
        cost.cpu_elementwise_time(self.size.voxels() as usize, 6.0, 24.0)
    }

    /// Simulated time of the full LSP phase (`N_inner` CG iterations).
    pub fn lsp_time(&self, cost: &CostModel, cancelled_and_fused: bool) -> Seconds {
        let per = if cancelled_and_fused {
            self.lsp_inner_iteration_time_alg2(cost)
        } else {
            self.lsp_inner_iteration_time_alg1(cost)
        };
        per * self.n_inner as f64
    }

    /// Simulated time of the RSP phase (TV shrinkage over the gradient
    /// field).
    pub fn rsp_time(&self, cost: &CostModel) -> Seconds {
        cost.cpu_elementwise_time(3 * self.size.voxels() as usize, 8.0, 16.0)
    }

    /// Simulated time of the λ update phase.
    pub fn lambda_update_time(&self, cost: &CostModel) -> Seconds {
        cost.cpu_elementwise_time(3 * self.size.voxels() as usize, 3.0, 16.0)
    }

    /// Simulated time of the penalty (ρ) update phase.
    pub fn penalty_update_time(&self, cost: &CostModel) -> Seconds {
        cost.cpu_elementwise_time(self.size.voxels() as usize, 2.0, 8.0)
    }

    /// Simulated time of one full ADMM iteration.
    pub fn iteration_time(&self, cost: &CostModel, cancelled_and_fused: bool) -> Seconds {
        self.lsp_time(cost, cancelled_and_fused)
            + self.rsp_time(cost)
            + self.lambda_update_time(cost)
            + self.penalty_update_time(cost)
    }

    /// Duration of each phase of one ADMM iteration, in execution order.
    pub fn phase_times(
        &self,
        cost: &CostModel,
        cancelled_and_fused: bool,
    ) -> Vec<(AdmmPhase, Seconds)> {
        vec![
            (AdmmPhase::Lsp, self.lsp_time(cost, cancelled_and_fused)),
            (AdmmPhase::Rsp, self.rsp_time(cost)),
            (AdmmPhase::LambdaUpdate, self.lambda_update_time(cost)),
            (AdmmPhase::PenaltyUpdate, self.penalty_update_time(cost)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::gib;

    #[test]
    fn paper_sizes() {
        assert_eq!(ProblemSize::paper_1k().n, 1024);
        assert_eq!(ProblemSize::paper_1k().num_chunks(), 64);
        assert_eq!(ProblemSize::paper_2k().num_chunks(), 128);
        assert_eq!(ProblemSize::cube(100, 16).num_chunks(), 7);
    }

    #[test]
    fn memory_footprint_matches_paper_scale() {
        // The paper: >120 GB CPU memory for the 1K^3 problem, ~300 GB for the
        // 1.5K projections case; ψ and λ ~12 % each, g + g_prev ~24 %.
        let w = AdmmWorkload::new(ProblemSize::paper_1k());
        let total = gib(w.total_bytes());
        assert!(total > 100.0 && total < 150.0, "total {total} GiB");

        let vars = w.variables();
        let total_b = w.total_bytes() as f64;
        let frac = |name: &str| -> f64 {
            vars.iter().find(|v| v.name == name).unwrap().bytes as f64 / total_b
        };
        assert!((frac("psi") - 0.12).abs() < 0.03, "psi {}", frac("psi"));
        assert!((frac("lambda") - 0.12).abs() < 0.03);
        assert!(((frac("g") + frac("g_prev")) - 0.24).abs() < 0.06);
    }

    #[test]
    fn offloadable_variables_are_the_paper_ones() {
        let w = AdmmWorkload::new(ProblemSize::paper_1k());
        let offloadable: Vec<String> = w
            .variables()
            .into_iter()
            .filter(|v| v.offloadable)
            .map(|v| v.name)
            .collect();
        assert_eq!(offloadable, vec!["psi", "lambda", "g", "g_prev"]);
        // They account for >40 % of memory ("more than 80%" in the paper
        // refers to all alias-free candidates; the four big ones dominate).
        let total = w.total_bytes() as f64;
        let sum: u64 = w
            .variables()
            .iter()
            .filter(|v| v.offloadable)
            .map(|v| v.bytes)
            .sum();
        assert!(sum as f64 / total >= 0.35);
    }

    #[test]
    fn lsp_dominates_iteration_time() {
        // Figure 2: LSP is more than 67 % of one ADMM iteration.
        let cost = CostModel::polaris(1);
        let w = AdmmWorkload::new(ProblemSize::paper_1_5k());
        let lsp = w.lsp_time(&cost, false);
        let total = w.iteration_time(&cost, false);
        assert!(lsp / total > 0.67, "LSP fraction {}", lsp / total);
    }

    #[test]
    fn cancellation_and_fusion_speed_up_lsp() {
        let cost = CostModel::polaris(1);
        for size in [ProblemSize::paper_1k(), ProblemSize::paper_1_5k()] {
            let w = AdmmWorkload::new(size);
            let alg1 = w.lsp_time(&cost, false);
            let alg2 = w.lsp_time(&cost, true);
            assert!(alg2 < alg1, "alg2 {alg2} should beat alg1 {alg1}");
        }
    }

    #[test]
    fn fu2d_is_the_longest_operator() {
        let cost = CostModel::polaris(1);
        let w = AdmmWorkload::new(ProblemSize::paper_1k());
        assert!(w.fu2d_time(&cost) > w.fu1d_time(&cost));
        assert!(w.fu2d_time(&cost) > w.f2d_time(&cost));
    }

    #[test]
    fn phase_times_cover_all_phases() {
        let cost = CostModel::polaris(1);
        let w = AdmmWorkload::new(ProblemSize::cube(256, 16));
        let phases = w.phase_times(&cost, true);
        assert_eq!(phases.len(), 4);
        let sum: f64 = phases.iter().map(|(_, t)| t).sum();
        assert!((sum - w.iteration_time(&cost, true)).abs() < 1e-9);
        assert_eq!(AdmmPhase::ALL[0].label(), "LSP");
    }

    #[test]
    fn larger_problems_cost_more() {
        let cost = CostModel::polaris(1);
        let t1 = AdmmWorkload::new(ProblemSize::paper_1k()).iteration_time(&cost, false);
        let t15 = AdmmWorkload::new(ProblemSize::paper_1_5k()).iteration_time(&cost, false);
        let t2 = AdmmWorkload::new(ProblemSize::paper_2k()).iteration_time(&cost, false);
        assert!(t15 > 2.0 * t1);
        assert!(t2 > t15);
    }

    #[test]
    fn memo_case_prices_order_like_figure_10() {
        let cost = CostModel::polaris(1);
        let w = AdmmWorkload::new(ProblemSize::paper_1k());
        let c = w.memo_chunk_seconds(&cost, w.fu2d_time(&cost));
        assert!(c.cache_hit < c.db_hit && c.db_hit < c.exact && c.exact < c.failed);
        assert_eq!(c.expected((0.0, 0.0, 0.0)), c.exact);
        assert_eq!(c.expected((0.0, 1.0, 0.0)), c.db_hit);
    }
}
