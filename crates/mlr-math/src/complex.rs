//! Double-precision complex arithmetic, and the single-precision storage
//! format of a memo entry.
//!
//! Every computation in the workspace runs on [`Complex64`] — the Rust
//! convention's name for 2 × `f64`, *not* the paper's `COMPLEX64`, which is
//! numpy's 2 × `f32` and is called [`Complex32`] here. The type is `#[repr(C)]`
//! so a slice of complex numbers can be reinterpreted as interleaved re/im
//! planes — the decomposition the memoization encoder relies on (§4.3.1 of
//! the paper). [`Complex32`] exists only to be stored: [`narrow`],
//! [`widen_into`] and [`round_into`] are the whole of its interface.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::Arc;

/// A double-precision complex number.
#[derive(Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct Complex64 {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Returns `exp(i * theta)` — a unit-magnitude phasor. This is the twiddle
    /// factor used by every FFT in `mlr-fft`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Multiplicative inverse. Returns a non-finite value when `self` is zero,
    /// mirroring `f64` division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Complex exponential `e^self`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::cis(self.im).scale(self.re.exp())
    }

    /// Square root on the principal branch.
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let re = ((r + self.re) * 0.5).max(0.0).sqrt();
        let im_mag = ((r - self.re) * 0.5).max(0.0).sqrt();
        Self {
            re,
            im: if self.im < 0.0 { -im_mag } else { im_mag },
        }
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:+.6e}{:+.6e}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl From<(f64, f64)> for Complex64 {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Self::new(re, im)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[expect(clippy::suspicious_arithmetic_impl, reason = "z / w == z * w^-1")]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, k: f64) -> Self {
        self.scale(k)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, z: Complex64) -> Complex64 {
        z.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, k: f64) -> Self {
        self.scale(1.0 / k)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, k: f64) {
        self.re *= k;
        self.im *= k;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

/// A single-precision complex number (2 × `f32`, numpy's and the paper's
/// `COMPLEX64`): the storage format of a memo entry. No arithmetic is
/// defined on it — a stored value is only ever narrowed on the way into the
/// store and widened on the way out; every computation stays [`Complex64`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex32 {
    /// Real component.
    pub re: f32,
    /// Imaginary component.
    pub im: f32,
}

impl Complex32 {
    /// Bytes one stored element takes — the one place a payload is priced
    /// from (byte accounting, the paper-scale projections).
    pub const BYTES: usize = std::mem::size_of::<Self>();

    /// Rounds both components to the nearest `f32`. A component that is not
    /// finite, or too large for `f32`, comes out non-finite.
    #[inline]
    pub fn narrow(z: Complex64) -> Self {
        Self {
            re: z.re as f32,
            im: z.im as f32,
        }
    }

    /// The same value in double precision (exact).
    #[inline]
    pub fn widen(self) -> Complex64 {
        Complex64::new(self.re as f64, self.im as f64)
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

/// Narrows a slice into one shared single-precision buffer, or `None` when
/// some component is non-finite or overflows `f32` — such a slice has no
/// single-precision form worth keeping.
pub fn narrow(src: &[Complex64]) -> Option<Arc<[Complex32]>> {
    let mut finite = true;
    let out: Arc<[Complex32]> = src
        .iter()
        .map(|&z| {
            let n = Complex32::narrow(z);
            finite &= n.is_finite();
            n
        })
        .collect();
    finite.then_some(out)
}

/// Widens `src` into `dst`, element by element.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn widen_into(src: &[Complex32], dst: &mut [Complex64]) {
    assert_eq!(src.len(), dst.len(), "widen_into length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.widen();
    }
}

/// Writes `widen(narrow(src))` into `dst` in one pass — the bits
/// [`widen_into`] would produce from [`narrow`]'s buffer, without the buffer.
/// Returns `false` when some component has no finite `f32` form (`dst` then
/// holds non-finite values and the caller should fall back to `src`).
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn round_into(src: &[Complex64], dst: &mut [Complex64]) -> bool {
    assert_eq!(src.len(), dst.len(), "round_into length mismatch");
    let mut finite = true;
    for (d, &s) in dst.iter_mut().zip(src) {
        let n = Complex32::narrow(s);
        finite &= n.is_finite();
        *d = n.widen();
    }
    finite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn narrow_widen_round_agree_and_refuse_what_f32_cannot_hold() {
        let data: Vec<Complex64> = (0..33)
            .map(|i| Complex64::new((0.7 * i as f64).sin() * 1e3, -0.1 * i as f64))
            .collect();
        let stored = narrow(&data).expect("finite and in range");
        let mut widened = vec![Complex64::ZERO; data.len()];
        widen_into(&stored, &mut widened);
        let mut rounded = vec![Complex64::ZERO; data.len()];
        assert!(round_into(&data, &mut rounded));
        assert_eq!(widened, rounded);
        assert_ne!(widened, data, "0.1 * i has no exact f32 form");
        for bad in [f64::NAN, f64::INFINITY, 1e39, -1e39] {
            let mut with_bad = data.clone();
            with_bad[7].im = bad;
            assert!(narrow(&with_bad).is_none(), "{bad} was narrowed");
            assert!(!round_into(&with_bad, &mut rounded), "{bad} was rounded");
        }
    }

    #[test]
    fn arithmetic_basics() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        assert_eq!(a + b, Complex64::new(4.0, -2.0));
        assert_eq!(a - b, Complex64::new(-2.0, 6.0));
        assert_eq!(a * b, Complex64::new(11.0, 2.0));
        let q = a / b;
        let back = q * b;
        assert!(approx_eq(back.re, a.re, 1e-12));
        assert!(approx_eq(back.im, a.im, 1e-12));
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex64::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex64::new(3.0, -4.0));
        assert!(approx_eq(a.abs(), 5.0, 1e-12));
        assert!(approx_eq(a.norm_sqr(), 25.0, 1e-12));
        assert!(approx_eq((a * a.conj()).re, 25.0, 1e-12));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..32 {
            let theta = k as f64 * 0.37;
            let z = Complex64::cis(theta);
            assert!(approx_eq(z.abs(), 1.0, 1e-12));
            assert!(approx_eq(z.arg(), theta.sin().atan2(theta.cos()), 1e-12));
        }
    }

    #[test]
    fn exp_matches_euler() {
        let z = Complex64::new(0.5, std::f64::consts::PI / 3.0);
        let e = z.exp();
        let expected = Complex64::cis(z.im).scale(z.re.exp());
        assert!(approx_eq(e.re, expected.re, 1e-12));
        assert!(approx_eq(e.im, expected.im, 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[
            (4.0, 0.0),
            (0.0, 2.0),
            (-1.0, 0.0),
            (3.0, -4.0),
            (-2.0, -2.0),
        ] {
            let z = Complex64::new(re, im);
            let s = z.sqrt();
            let sq = s * s;
            assert!(approx_eq(sq.re, z.re, 1e-10), "{z:?} -> {s:?}");
            assert!(approx_eq(sq.im, z.im, 1e-10), "{z:?} -> {s:?}");
        }
    }

    #[test]
    fn scalar_ops() {
        let a = Complex64::new(1.5, -2.5);
        assert_eq!(a * 2.0, Complex64::new(3.0, -5.0));
        assert_eq!(2.0 * a, Complex64::new(3.0, -5.0));
        assert_eq!(a / 0.5, Complex64::new(3.0, -5.0));
        assert_eq!(-a, Complex64::new(-1.5, 2.5));
    }

    #[test]
    fn sum_iterator() {
        let v = vec![Complex64::new(1.0, 1.0); 10];
        let s: Complex64 = v.iter().sum();
        assert_eq!(s, Complex64::new(10.0, 10.0));
        let s2: Complex64 = v.into_iter().sum();
        assert_eq!(s2, Complex64::new(10.0, 10.0));
    }

    #[test]
    fn assign_ops() {
        let mut a = Complex64::new(1.0, 1.0);
        a += Complex64::new(1.0, 0.0);
        a -= Complex64::new(0.0, 1.0);
        a *= Complex64::new(0.0, 1.0);
        assert_eq!(a, Complex64::new(0.0, 2.0));
        a *= 2.0;
        assert_eq!(a, Complex64::new(0.0, 4.0));
        a /= Complex64::new(0.0, 2.0);
        assert!(approx_eq(a.re, 2.0, 1e-12));
    }
}
