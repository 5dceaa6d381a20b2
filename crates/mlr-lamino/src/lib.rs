//! # mlr-lamino
//!
//! Laminography substrate for the mLR workspace: acquisition geometry, the
//! factored forward/adjoint operators the paper's ADMM-FFT solver is built
//! on, synthetic phantoms that stand in for the paper's mouse-brain and IC
//! datasets, projection simulation, and the chunk partitioning that the
//! memoization and multi-GPU scaling layers key on.
//!
//! ## The factored laminography operator
//!
//! A laminography scan tilts the rotation axis by the *laminography angle*
//! `φ` relative to the beam. By the Fourier-slice theorem the 2-D Fourier
//! transform of the projection acquired at rotation angle `θ` equals the 3-D
//! Fourier transform of the object sampled on a tilted plane. The key
//! structural fact (used by the `lam_usfft` method the paper builds on) is
//! that the **vertical** frequency of every sample on that plane depends only
//! on the detector row — not on `θ` or the detector column. The operator
//! therefore factors into
//!
//! ```text
//! L = F*_2D · F_u2D · F_u1D
//! ```
//!
//! * `F_u1D` — a 1-D unequally-spaced FFT along the vertical axis of the
//!   volume, evaluated at one frequency per detector row (`k_z = k_v·sin φ`),
//! * `F_u2D` — a 2-D unequally-spaced FFT over each horizontal volume plane,
//!   evaluated at the in-plane frequencies of every (angle, column) pair,
//! * `F*_2D` — an inverse 2-D FFT per projection that maps the sampled
//!   spectrum back to detector space.
//!
//! The volume and the projections are real, so `F_u1D` and `F_u2D` evaluate
//! detector rows `0..=h/2` only and the rest of the spectrum is their
//! conjugate mirror ([`operators`] has the fill and its transpose, the fold).
//!
//! The adjoint is `L* = F*_u1D · F*_u2D · F_2D`. Every stage runs over the
//! whole volume; `F_u2D` / `F*_u2D`, the stages memoization replaces, do so
//! chunk by chunk through the executor seam (the granularity at which the
//! paper applies memoization and distributes work across GPUs).

pub mod chunk;
pub mod dataset;
pub mod geometry;
pub mod operators;
pub mod phantom;

pub use chunk::{ChunkGrid, ChunkLocation};
pub use dataset::{LaminoDataset, ProjectionNoise};
pub use geometry::{DetectorSpec, LaminoGeometry};
pub use operators::{
    kernel_threads_spawned, ChunkRequest, DirectExecutor, FftExecutor, FftOpKind, LaminoOperator,
};
pub use phantom::{brain_phantom, ic_phantom, smooth_random_phantom, PhantomKind};
