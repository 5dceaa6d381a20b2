//! # mlr-cluster
//!
//! Multi-GPU and multi-node scaling of ADMM-FFT (§5.2 of the paper) plus the
//! cluster-level analyses of the evaluation: per-operator scaling over GPU
//! counts (Figure 14), interconnect utilisation towards the memory node
//! (Figure 15) and the memoization-query latency distribution under
//! contention (Figure 16).
//!
//! The original ADMM-FFT implementation is single-GPU; mLR distributes the
//! independent chunks of each FFT stage across GPUs within and across nodes.
//! The scaling model here works on top of `mlr-sim`'s cost model: chunk work
//! is divided over GPUs, and the diminishing returns beyond one node come
//! from inter-node communication — exactly the effect Figure 14 reports.

#![warn(missing_docs)]

pub mod latency;
pub mod placement;
pub mod replay;
pub mod scaling;

pub use latency::LatencyExperiment;
pub use placement::{place_stripes, stripes_per_node};
pub use replay::{replay_trace, FaultFootprint, NodeUtilisation, ReplayConfig, ReplayOutcome};
pub use scaling::{ScalingModel, ScalingPoint};
