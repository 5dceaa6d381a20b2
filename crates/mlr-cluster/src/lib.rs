//! # mlr-cluster
//!
//! The memory-node side of the distributed memo tier: which node owns each
//! lock stripe ([`placement`]) and what a recorded access trace costs on the
//! per-node links ([`replay`]). `fig24_cluster` replays a real multi-job run
//! through it, and `fig25_faults` the same run under a fault plan.

#![warn(missing_docs)]

pub mod placement;
pub mod replay;

pub use placement::{place_stripes, stripes_per_node};
pub use replay::{replay_trace, FaultFootprint, NodeUtilisation, ReplayOutcome};
