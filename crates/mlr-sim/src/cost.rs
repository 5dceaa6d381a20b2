//! Analytic cost model.
//!
//! Translates the operations the mLR pipeline performs into simulated
//! seconds on the configured hardware. Each model is deliberately simple —
//! a bandwidth/FLOP roofline plus fixed overheads — because the paper's
//! results are *ratios* between configurations running on the same hardware;
//! what matters is that the relative cost of FFT compute vs. PCIe transfer
//! vs. remote lookup is in proportion.

use crate::hardware::ClusterSpec;
use crate::transfer_seconds;
use crate::Seconds;
use serde::{Deserialize, Serialize};

/// Efficiency factors applied on top of nominal hardware capabilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Efficiency {
    /// Fraction of GPU peak FLOP/s an FFT kernel sustains (cuFFT-style
    /// kernels are memory-bound; 10–20 % of FP32 peak is realistic).
    pub gpu_fft: f64,
    /// Fraction of PCIe peak a pinned-memory cudaMemcpy sustains.
    pub pcie: f64,
    /// Fraction of interconnect peak an RDMA transfer sustains.
    pub network: f64,
    /// Fraction of DRAM peak a memcpy-like CPU kernel sustains.
    pub dram: f64,
    /// Fraction of CPU peak FLOP/s vectorised CPU math sustains.
    pub cpu: f64,
}

impl Default for Efficiency {
    fn default() -> Self {
        Self {
            gpu_fft: 0.12,
            pcie: 0.80,
            network: 0.85,
            dram: 0.65,
            cpu: 0.55,
        }
    }
}

/// The cost model: cluster spec + efficiency factors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Hardware being modelled.
    pub cluster: ClusterSpec,
    /// Efficiency factors.
    pub efficiency: Efficiency,
}

impl CostModel {
    /// Cost model for one Polaris-like compute node and its memory node.
    pub fn polaris() -> Self {
        Self {
            cluster: ClusterSpec::polaris(),
            efficiency: Efficiency::default(),
        }
    }

    // ------------------------------------------------------------- compute

    /// Time for a GPU kernel performing `flops` floating-point operations
    /// and touching `bytes` of HBM — a roofline max of the two, plus launch
    /// overhead.
    pub fn gpu_kernel_time(&self, flops: f64, bytes: f64) -> Seconds {
        let gpu = &self.cluster.node.gpu;
        let compute = flops / (gpu.fp32_tflops * 1e12 * self.efficiency.gpu_fft);
        let mem = transfer_seconds(bytes, gpu.hbm_gbps);
        compute.max(mem) + gpu.kernel_launch_us * 1e-6
    }

    /// Time for a batched FFT on the GPU: `batch` transforms of `n` complex
    /// points each (radix-2 cost model, `5·n·log2(n)` real FLOPs per
    /// transform, 16 bytes per complex element streamed three times).
    pub fn gpu_fft_time(&self, n: usize, batch: usize) -> Seconds {
        if n <= 1 || batch == 0 {
            return 0.0;
        }
        let flops = 5.0 * n as f64 * (n as f64).log2() * batch as f64;
        let bytes = 3.0 * 16.0 * n as f64 * batch as f64;
        self.gpu_kernel_time(flops, bytes)
    }

    /// Time for an element-wise GPU operation over `elems` complex elements
    /// (e.g. the fused frequency-domain subtraction of Algorithm 2).
    pub fn gpu_elementwise_time(&self, elems: usize) -> Seconds {
        self.gpu_kernel_time(2.0 * elems as f64, 2.0 * 16.0 * elems as f64)
    }

    /// Time for a CPU element-wise pass over `elems` elements of
    /// `bytes_per_elem` bytes performing `flops_per_elem` operations each,
    /// parallelised over all cores. This models the frequency-domain
    /// COMPLEX64 subtraction the paper measures as a 5.1 % slowdown when it
    /// runs on the CPU instead of the GPU.
    pub fn cpu_elementwise_time(
        &self,
        elems: usize,
        flops_per_elem: f64,
        bytes_per_elem: f64,
    ) -> Seconds {
        let node = &self.cluster.node;
        let flops = elems as f64 * flops_per_elem;
        let bytes = elems as f64 * bytes_per_elem;
        let compute =
            flops / (node.cpu_cores as f64 * node.cpu_core_gflops * 1e9 * self.efficiency.cpu);
        let mem = transfer_seconds(bytes, node.dram_gbps * self.efficiency.dram);
        compute.max(mem)
    }

    // ------------------------------------------------------------ movement

    /// Host↔GPU transfer time over PCIe.
    pub fn pcie_time(&self, bytes: f64) -> Seconds {
        transfer_seconds(bytes, self.cluster.node.pcie_gbps * self.efficiency.pcie) + 10e-6
    }

    /// Bulk (streaming, large-payload) network transfer time.
    pub fn network_bulk_time(&self, bytes: f64) -> Seconds {
        let link = &self.cluster.interconnect;
        transfer_seconds(bytes, link.injection_gb_per_s() * self.efficiency.network)
            + link.latency_us * 1e-6
    }

    /// CPU DRAM copy time (e.g. staging a chunk for the memoization cache).
    pub fn dram_copy_time(&self, bytes: f64) -> Seconds {
        transfer_seconds(bytes, self.cluster.node.dram_gbps * self.efficiency.dram)
    }

    // ---------------------------------------------------------- memoization

    /// CNN-encoder inference time on the CPU for a chunk of `elems` complex
    /// elements. The paper reports INT8 + AVX-512 inference costing < 1 % of
    /// total execution time; the model charges the conv FLOPs at CPU
    /// throughput with an INT8 speedup factor.
    pub fn cnn_encode_time(&self, elems: usize) -> Seconds {
        // The encoder's first conv layer is strided and followed by pooling,
        // so the per-input-element cost is small (~20 FLOPs/element reach the
        // dense layers); INT8 + AVX-512 vectorisation credits a further 4×.
        let flops = 20.0 * elems as f64 / 4.0;
        let node = &self.cluster.node;
        flops / (node.cpu_cores as f64 * node.cpu_core_gflops * 1e9 * self.efficiency.cpu)
    }

    /// Index-database (ANN) query time on the memory node for a batch of
    /// `batch` keys of dimension `dim` against `db_size` stored keys using an
    /// IVF index probing `nprobe` clusters. Calibrated so one query against
    /// one million 60-d keys costs ~0.2 ms (the paper's measurement).
    pub fn ann_query_time(
        &self,
        db_size: usize,
        dim: usize,
        batch: usize,
        nprobe: usize,
    ) -> Seconds {
        if batch == 0 {
            return 0.0;
        }
        let mem = &self.cluster.memory_node;
        // Scanned candidates ≈ db_size * nprobe / nlist, with nlist ~ sqrt(db).
        let nlist = (db_size as f64).sqrt().max(1.0);
        let scanned = (db_size as f64 * nprobe as f64 / nlist).max(nlist);
        let flops_per_key = 2.0 * dim as f64;
        let total_flops = (scanned + nlist) * flops_per_key * batch as f64;
        // Batched queries use multi-threaded scan on the memory node.
        let threads = mem.cpu_cores.min(batch.max(1)) as f64;
        total_flops / (threads * 30.0e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::polaris()
    }

    #[test]
    fn gpu_fft_scales_superlinearly() {
        let m = model();
        let t1k = m.gpu_fft_time(1024, 1024);
        let t2k = m.gpu_fft_time(2048, 2048);
        assert!(t1k > 0.0);
        assert!(t2k > 3.0 * t1k, "t1k={t1k} t2k={t2k}");
    }

    #[test]
    fn network_has_latency() {
        let m = model();
        // A tiny transfer is dominated by the link latency, not bandwidth.
        let tiny = m.network_bulk_time(64.0);
        assert!(tiny > 2.0e-6 && tiny < 2.1e-6, "tiny={tiny}");
    }

    #[test]
    fn ann_query_calibration() {
        let m = model();
        // ~0.2 ms for a single query against 1M keys of dim 60.
        let t = m.ann_query_time(1_000_000, 60, 1, 8);
        assert!(t > 0.02e-3 && t < 2.0e-3, "t={t}");
        // Batched queries amortise.
        let t_batch = m.ann_query_time(1_000_000, 60, 64, 8);
        assert!(t_batch < 64.0 * t);
        assert_eq!(m.ann_query_time(1_000_000, 60, 0, 8), 0.0);
    }

    #[test]
    fn cnn_encode_is_cheap_relative_to_fft() {
        let m = model();
        let chunk_elems = 16 * 1024 * 1024;
        let encode = m.cnn_encode_time(chunk_elems);
        let fft = m.gpu_fft_time(1024, 16 * 1024);
        // The paper: encoding < 1 % of execution; here just require it to be
        // much cheaper than the FFT it replaces.
        assert!(encode < fft, "encode={encode} fft={fft}");
    }

    #[test]
    fn cpu_complex_subtraction_costlier_than_gpu() {
        let m = model();
        let elems = 1024 * 1024 * 64;
        let cpu = m.cpu_elementwise_time(elems, 2.0, 32.0);
        let gpu = m.gpu_elementwise_time(elems);
        assert!(cpu > gpu, "cpu={cpu} gpu={gpu}");
    }
}
