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
//! * [`fft`] — iterative radix-2 Cooley–Tukey FFT with precomputed twiddles
//!   and a Bluestein (chirp-z) fallback for arbitrary lengths.
//! * [`fft2d`] — row–column 2-D FFTs and rayon-parallel batched transforms.
//! * [`shift`] — `fftshift`/`ifftshift`/`fftfreq` helpers.
//! * [`usfft`] — type-2 (uniform → non-uniform) and type-1 (adjoint) USFFT in
//!   one and two dimensions with Gaussian-kernel gridding, following
//!   Dutt & Rokhlin and the `lam_usfft` reference implementation the paper
//!   builds on.
//!
//! Every forward/adjoint pair satisfies the inner-product adjointness test
//! `⟨F x, y⟩ = ⟨x, F* y⟩`, which the laminography ADMM solver relies on for
//! convergence; the test suite checks this explicitly.

pub mod fft;
pub mod fft2d;
pub mod scratch;
pub mod shift;
pub mod usfft;

pub use fft::{Direction, FftPlan, FftPlanner};
pub use fft2d::{fft2_inplace, ifft2_inplace, Fft2Batch};
pub use scratch::{ScratchLease, ScratchPool};
pub use shift::{fftfreq, fftshift_1d, fftshift_2d, ifftshift_1d, ifftshift_2d};
pub use usfft::{Usfft1d, Usfft2d, Usfft2dGrid};

/// Number of real floating-point operations a radix-2 FFT of length `n`
/// performs, `~ 5 n log2 n`. Used by the hardware cost model in `mlr-sim` to
/// translate transform sizes into simulated GPU time.
pub fn fft_flops(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    5.0 * n as f64 * (n as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_model_monotone() {
        assert_eq!(fft_flops(1), 0.0);
        assert!(fft_flops(1024) > fft_flops(512));
        let ratio = fft_flops(2048) / fft_flops(1024);
        assert!(ratio > 2.0 && ratio < 2.3);
    }
}
