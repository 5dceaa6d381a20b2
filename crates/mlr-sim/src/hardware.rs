//! Hardware specifications.
//!
//! All values are *nominal* device capabilities; the cost model applies
//! efficiency factors on top (real codes never reach peak FLOPs or peak
//! bandwidth). The default constructors mirror the Polaris nodes used in the
//! paper's evaluation.

use serde::{Deserialize, Serialize};

/// A GPU device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Peak FP32 throughput in TFLOP/s.
    pub fp32_tflops: f64,
    /// HBM bandwidth in GB/s.
    pub hbm_gbps: f64,
    /// Kernel launch overhead in microseconds.
    pub kernel_launch_us: f64,
}

impl GpuSpec {
    /// NVIDIA A100-40GB (SXM), the Polaris GPU.
    pub fn a100_40gb() -> Self {
        Self {
            fp32_tflops: 19.5,
            hbm_gbps: 1555.0,
            kernel_launch_us: 5.0,
        }
    }
}

/// The inter-node interconnect (and the link to the memory node).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Bidirectional injection bandwidth per node in Gb/s (the paper quotes
    /// 200 Gb/s for dual Slingshot-11).
    pub injection_gbps: f64,
    /// Base one-way latency in microseconds.
    pub latency_us: f64,
    /// Fixed per-message software/RDMA-setup overhead in microseconds.
    pub per_message_us: f64,
}

impl InterconnectSpec {
    /// HPE Slingshot-11 as configured on Polaris.
    pub fn slingshot11() -> Self {
        Self {
            injection_gbps: 200.0,
            latency_us: 2.0,
            per_message_us: 1.5,
        }
    }

    /// Injection bandwidth in GB/s (bytes, not bits).
    pub fn injection_gb_per_s(&self) -> f64 {
        self.injection_gbps / 8.0
    }
}

/// A host (compute node): its CPUs, DRAM bandwidth, GPU and PCIe link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Physical CPU cores.
    pub cpu_cores: usize,
    /// Sustained per-core GFLOP/s for the CPU cost model.
    pub cpu_core_gflops: f64,
    /// DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// GPU model.
    pub gpu: GpuSpec,
    /// Host↔GPU PCIe bandwidth in GB/s (per direction).
    pub pcie_gbps: f64,
}

impl NodeSpec {
    /// A Polaris compute node: 1× EPYC 7543P (32 cores), DDR4, A100-40GB
    /// GPUs on PCIe Gen4 x16.
    pub fn polaris() -> Self {
        Self {
            cpu_cores: 32,
            cpu_core_gflops: 35.0,
            dram_gbps: 204.8,
            gpu: GpuSpec::a100_40gb(),
            pcie_gbps: 25.0,
        }
    }
}

/// The dedicated memory node hosting the memoization database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryNodeSpec {
    /// CPU cores available for index/value lookups.
    pub cpu_cores: usize,
}

impl MemoryNodeSpec {
    /// The paper's memory node (512 GB DRAM plus up to 1.5 TB SSD); the
    /// model reads only the cores its index scan runs on.
    pub fn polaris_memory_node() -> Self {
        Self { cpu_cores: 64 }
    }
}

/// The simulated system: one compute node, the interconnect, the memory node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Inter-node / memory-node interconnect.
    pub interconnect: InterconnectSpec,
    /// The memory node.
    pub memory_node: MemoryNodeSpec,
}

impl ClusterSpec {
    /// A Polaris-like compute node, its interconnect and the memory node.
    pub fn polaris() -> Self {
        Self {
            node: NodeSpec::polaris(),
            interconnect: InterconnectSpec::slingshot11(),
            memory_node: MemoryNodeSpec::polaris_memory_node(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polaris_defaults_sane() {
        let c = ClusterSpec::polaris();
        assert!(c.node.gpu.fp32_tflops > 10.0);
        assert!(c.interconnect.injection_gb_per_s() > 20.0);
        assert_eq!(c.memory_node.cpu_cores, 64);
    }
}
