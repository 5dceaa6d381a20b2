//! # mlr-math
//!
//! Numerical substrate for the mLR laminography-reconstruction workspace.
//!
//! The crate provides the small set of numerical building blocks that every
//! other crate in the workspace relies on:
//!
//! * [`Complex64`] — a minimal, `#[repr(C)]` double-precision complex number
//!   with the arithmetic needed by FFTs and Fourier-domain operators — and
//!   [`Complex32`], the single-precision format memo entries are stored in.
//! * [`Array3`] — the dense row-major array used for projection data,
//!   reconstruction volumes and frequency-domain chunks.
//! * [`norms`] — L2 / Frobenius norms, cosine similarity (the similarity
//!   measure mLR uses for memoization keys), and the relative-error metric
//!   `E` from the paper's Eq. 4.
//! * [`rng`] — deterministic random-number helpers so every experiment in the
//!   repository is reproducible.
//!
//! The crate deliberately avoids external linear-algebra dependencies: the
//! point of the reproduction is to build the substrate from scratch.

pub mod array;
pub mod complex;
pub mod norms;
pub mod rng;

pub use array::{Array3, Shape3};
pub use complex::{Complex32, Complex64};

/// Returns `true` when two floating point values agree to within `tol`
/// absolutely or relatively (whichever is looser). Used pervasively by tests.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lint canary: no workspace crate may name a `std::sync` lock (see
    /// `crates/clippy.toml`), so this expectation breaks `cargo clippy -- -D
    /// warnings` the day the ban stops firing.
    #[test]
    #[expect(clippy::disallowed_types, reason = "canary: the std::sync lock ban")]
    fn std_sync_lock_ban_canary() {
        let lock = std::sync::Mutex::new(1u8);
        assert_eq!(lock.into_inner().ok(), Some(1));
    }

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-12));
        assert!(approx_eq(0.0, 1e-13, 1e-12));
    }
}
