//! # mlr-sim
//!
//! Hardware substitution layer for the mLR reproduction.
//!
//! The paper's evaluation runs on ALCF Polaris nodes (AMD EPYC 7543P, 512 GB
//! DDR4, 4× NVIDIA A100-40GB, NVMe SSDs, dual HPE Slingshot-11 at 200 Gb/s)
//! with a dedicated memory node hosting the memoization database. None of
//! that hardware is available to this reproduction, so performance-shaped
//! results (normalized execution time, a replayed trace's link utilisation
//! and latency CDF) are produced by an **analytic cost model** calibrated to
//! the same nominal capabilities:
//!
//! * [`hardware`] — device and cluster specifications (Polaris defaults).
//! * [`cost`] — translation of operations (FFT FLOPs, byte transfers, kernel
//!   launches, CNN inference, ANN queries) into simulated time.
//! * [`network`] — the deterministic FIFO queue one memory-node link is
//!   priced through (`mlr_cluster::replay_trace`).
//! * [`faults`] — deterministic fault injection: seeded, tick-ordered
//!   schedules of node crashes, link degradations, and slow-stripe stalls
//!   that the distributed memo tier replays bit-identically.
//! * [`workload`] — the analytic ADMM-FFT workload model (operation counts
//!   and memo-case prices per iteration) used to extrapolate to the paper's
//!   1K³–2K³ problem sizes.
//!
//! Numerical results (convergence, accuracy vs τ, chunk similarity) and the
//! solver's memory (Figure 2) never go through this crate — they are
//! computed or counted for real by the solver.

#![warn(missing_docs)]

pub mod cost;
pub mod faults;
pub mod hardware;
pub mod network;
pub mod workload;

pub use cost::CostModel;
pub use faults::{FaultEvent, FaultPlan, LinkState, TimedFault};
pub use hardware::{ClusterSpec, GpuSpec, InterconnectSpec, MemoryNodeSpec, NodeSpec};
pub use workload::{AdmmWorkload, ProblemSize};

/// Seconds, the simulated time unit used throughout this crate.
pub type Seconds = f64;

/// Converts bytes and a bandwidth in GB/s into seconds.
#[inline]
pub fn transfer_seconds(bytes: f64, gb_per_s: f64) -> Seconds {
    if gb_per_s <= 0.0 {
        return f64::INFINITY;
    }
    bytes / (gb_per_s * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_seconds_basic() {
        assert!((transfer_seconds(1e9, 1.0) - 1.0).abs() < 1e-12);
        assert!((transfer_seconds(25e9, 25.0) - 1.0).abs() < 1e-12);
        assert_eq!(transfer_seconds(1.0, 0.0), f64::INFINITY);
    }
}
