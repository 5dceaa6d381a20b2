//! Multi-GPU scaling of the FFT operators and of the whole ADMM iteration.
//!
//! Chunks are distributed evenly across GPUs (round-robin over the chunk
//! grid, §5.2). Within a node the only extra cost is a small NVLink gather of
//! chunk boundaries; across nodes every stage also pays an all-to-all-style
//! exchange of the redistributed chunks over the interconnect, which is what
//! flattens (and slightly reverses) the speedup beyond one node in
//! Figure 14.

use mlr_lamino::chunk::ChunkGrid;
use mlr_sim::workload::AdmmWorkload;
use mlr_sim::{CostModel, Seconds};
use serde::{Deserialize, Serialize};

/// Scaling result for one GPU count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Number of GPUs used.
    pub gpus: usize,
    /// Number of nodes those GPUs span.
    pub nodes: usize,
    /// Simulated time of one `F_u1D` application over the whole volume.
    pub fu1d_seconds: Seconds,
    /// Simulated time of one `F*_u1D` application.
    pub fu1d_adj_seconds: Seconds,
    /// Simulated time of one `F_u2D` application.
    pub fu2d_seconds: Seconds,
    /// Simulated time of one `F*_u2D` application.
    pub fu2d_adj_seconds: Seconds,
    /// Simulated time of the full ADMM run (all iterations).
    pub overall_seconds: Seconds,
}

/// The scaling model.
pub struct ScalingModel {
    workload: AdmmWorkload,
    iterations: usize,
    gpus_per_node: usize,
}

impl ScalingModel {
    /// Creates a scaling model for the given workload and ADMM iteration
    /// count on Polaris-like nodes (4 GPUs per node).
    pub fn new(workload: AdmmWorkload, iterations: usize) -> Self {
        Self {
            workload,
            iterations,
            gpus_per_node: 4,
        }
    }

    /// Number of nodes needed for `gpus` GPUs.
    pub fn nodes_for(&self, gpus: usize) -> usize {
        gpus.div_ceil(self.gpus_per_node).max(1)
    }

    /// How evenly the chunk grid divides over `gpus` GPUs: the parallel time
    /// is governed by the GPU with the most chunks.
    fn load_imbalance(&self, gpus: usize) -> f64 {
        let grid = ChunkGrid::new(self.workload.size.n, self.workload.size.chunk_size);
        let chunks = grid.num_chunks();
        let max_per_gpu = chunks.div_ceil(gpus);
        let ideal = chunks as f64 / gpus as f64;
        max_per_gpu as f64 / ideal
    }

    /// Per-stage communication overhead when the stage's output must be
    /// redistributed for the next stage (chunks are partitioned along
    /// different axes per stage, so scaling beyond one GPU implies an
    /// exchange). Within a node this crosses NVLink; across nodes it crosses
    /// the interconnect.
    fn exchange_seconds(&self, cost: &CostModel, gpus: usize) -> Seconds {
        if gpus <= 1 {
            return 0.0;
        }
        let total_bytes = 16.0 * self.workload.size.voxels() as f64;
        let nodes = self.nodes_for(gpus);
        // Each GPU sends/receives its share; the slowest link dominates.
        let per_gpu_bytes = total_bytes / gpus as f64;
        if nodes == 1 {
            cost.nvlink_time(per_gpu_bytes)
        } else {
            // Cross-node fraction of the exchange goes over the interconnect,
            // whose per-node injection bandwidth is shared by its GPUs.
            let cross_fraction = 1.0 - 1.0 / nodes as f64;
            let per_node_bytes = total_bytes * cross_fraction / nodes as f64;
            cost.nvlink_time(per_gpu_bytes) + cost.network_bulk_time(per_node_bytes)
        }
    }

    /// Simulated time of one whole-volume application of an unequally spaced
    /// operator when its chunks are spread over `gpus` GPUs.
    fn stage_seconds(&self, cost: &CostModel, single_gpu: Seconds, gpus: usize) -> Seconds {
        let imbalance = self.load_imbalance(gpus);
        single_gpu / gpus as f64 * imbalance + self.exchange_seconds(cost, gpus)
    }

    /// Computes the scaling point for `gpus` GPUs.
    pub fn point(&self, gpus: usize) -> ScalingPoint {
        assert!(gpus > 0, "need at least one GPU");
        let nodes = self.nodes_for(gpus);
        let cost = CostModel::polaris(nodes);
        // The single-GPU stage price is the exact run's exposed one (the
        // longer of compute and PCIe traffic, Figure 1's pipeline), which is
        // what the multi-GPU distribution divides; the rest of the iteration
        // (fused subtraction, CG update, non-LSP phases) is not divided.
        let (fu1d_1, fu2d_1) = self.workload.exact_stages(&cost);
        let fu1d = self.stage_seconds(&cost, fu1d_1, gpus);
        let fu2d = self.stage_seconds(&cost, fu2d_1, gpus);
        let iteration = self.workload.iteration(&cost, fu1d, fu2d);
        ScalingPoint {
            gpus,
            nodes,
            fu1d_seconds: fu1d,
            fu1d_adj_seconds: fu1d,
            fu2d_seconds: fu2d,
            fu2d_adj_seconds: fu2d,
            overall_seconds: iteration * self.iterations as f64,
        }
    }

    /// Computes the scaling curve for a list of GPU counts (Figure 14 uses
    /// 1, 2, 4, 8, 16).
    pub fn sweep(&self, gpu_counts: &[usize]) -> Vec<ScalingPoint> {
        gpu_counts.iter().map(|&g| self.point(g)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_sim::workload::ProblemSize;

    fn model() -> ScalingModel {
        ScalingModel::new(AdmmWorkload::new(ProblemSize::paper_1k()), 60)
    }

    #[test]
    fn single_gpu_matches_workload_model() {
        let m = model();
        let p = m.point(1);
        assert_eq!(p.nodes, 1);
        let (fu1d, fu2d) = m.workload.exact_stages(&CostModel::polaris(1));
        assert_eq!(p.fu1d_seconds.to_bits(), fu1d.to_bits());
        assert_eq!(p.fu2d_seconds.to_bits(), fu2d.to_bits());
    }

    #[test]
    fn intra_node_scaling_speeds_up_operators() {
        // Figure 14: Fu1D drops from ~1.1 s at 1 GPU to ~0.5 s at 16 GPUs
        // (2.2x); speedup is clearly sublinear.
        let m = model();
        let p1 = m.point(1);
        let p4 = m.point(4);
        let p16 = m.point(16);
        assert!(p4.fu1d_seconds < p1.fu1d_seconds);
        assert!(p16.fu1d_seconds < p1.fu1d_seconds);
        let speedup16 = p1.fu1d_seconds / p16.fu1d_seconds;
        assert!(speedup16 > 1.5 && speedup16 < 16.0, "speedup {speedup16}");
    }

    #[test]
    fn crossing_the_node_boundary_gives_diminishing_returns() {
        // Figure 14: 2 -> 4 GPUs gives a solid speedup, 4 -> 8 GPUs (now two
        // nodes) gives little or nothing.
        let m = model();
        let p2 = m.point(2);
        let p4 = m.point(4);
        let p8 = m.point(8);
        let s_2_to_4 = p2.overall_seconds / p4.overall_seconds;
        let s_4_to_8 = p4.overall_seconds / p8.overall_seconds;
        assert!(s_2_to_4 > 1.2, "2->4 speedup {s_2_to_4}");
        assert!(s_4_to_8 < s_2_to_4, "4->8 {s_4_to_8} vs 2->4 {s_2_to_4}");
        assert!(
            s_4_to_8 < 1.15,
            "4->8 should be nearly flat, got {s_4_to_8}"
        );
    }

    #[test]
    fn sweep_covers_requested_counts() {
        let m = model();
        let sweep = m.sweep(&[1, 2, 4, 8, 16]);
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[3].gpus, 8);
        assert_eq!(sweep[3].nodes, 2);
        assert_eq!(sweep[4].nodes, 4);
        // All times positive and finite.
        for p in &sweep {
            assert!(p.overall_seconds.is_finite() && p.overall_seconds > 0.0);
            assert!(p.fu2d_seconds >= p.fu1d_seconds);
        }
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        let _ = model().point(0);
    }
}
