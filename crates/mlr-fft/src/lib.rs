//! # mlr-fft
//!
//! From-scratch Fourier-transform substrate for the mLR laminography
//! reconstruction workspace.
//!
//! The paper's laminography operator is `L = F*_2D F_u2D F_u1D` where
//!
//! * `F_2D` — a standard 2-D FFT on equally spaced grids (one per projection
//!   angle),
//! * `F_u1D` — a 1-D Fourier transform evaluated at *unequally spaced*
//!   vertical frequencies (the laminography tilt makes the Fourier-slice
//!   planes oblique),
//! * `F_u2D` — a 2-D Fourier transform evaluated at unequally spaced in-plane
//!   frequencies (one polar line per projection angle).
//!
//! The crate provides all three families plus their adjoints, without any
//! external FFT dependency:
//!
//! * [`fft`] — one iterative mixed-radix Cooley–Tukey FFT (radix-2 and
//!   radix-3 stages, precomputed twiddles) for every length `2^a·3^b`, and
//!   a Bluestein (chirp-z) fallback for any other length.
//! * [`fft2d`] — the row–column 2-D FFT of one detector plane.
//! * [`usfft`] — type-2 (uniform → non-uniform) and type-1 (adjoint) USFFT in
//!   one and two dimensions with Gaussian-kernel gridding on fine grids of
//!   the smallest `2^a·3^b` cells at or past twice the input, following
//!   Dutt & Rokhlin and the `lam_usfft` reference implementation the paper
//!   builds on.
//!
//! Every forward/adjoint pair satisfies the inner-product adjointness test
//! `⟨F x, y⟩ = ⟨x, F* y⟩`, which the laminography ADMM solver relies on for
//! convergence; the test suite checks this explicitly.

pub mod fft;
pub mod fft2d;
pub mod scratch;
pub mod usfft;

pub use fft::{Direction, FftPlan};
pub use fft2d::Fft2Batch;
pub use scratch::{ScratchLease, ScratchPool};
pub use usfft::{Usfft1d, Usfft2d, Usfft2dGrid};
