//! Dense row-major 3-D arrays.
//!
//! The reconstruction volume `u ∈ R^(n1, n0, n2)`, the projection data
//! `d ∈ R^(nθ, h, w)` and every frequency-domain chunk in the paper are dense
//! 3-D arrays. We provide a minimal generic container with the indexing,
//! plane and line views and element-wise operations the rest of the
//! workspace needs, instead of pulling in an external array crate.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Shape of a 3-D array expressed as `(n0, n1, n2)` — axis 0 is the slowest
/// (outermost) dimension, matching row-major layout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape3 {
    /// Extent along axis 0 (slowest varying).
    pub n0: usize,
    /// Extent along axis 1.
    pub n1: usize,
    /// Extent along axis 2 (fastest varying).
    pub n2: usize,
}

impl Shape3 {
    /// Creates a new shape.
    pub const fn new(n0: usize, n1: usize, n2: usize) -> Self {
        Self { n0, n1, n2 }
    }

    /// Cubic shape `n × n × n`.
    pub const fn cube(n: usize) -> Self {
        Self {
            n0: n,
            n1: n,
            n2: n,
        }
    }

    /// Total number of elements.
    pub const fn len(&self) -> usize {
        self.n0 * self.n1 * self.n2
    }

    /// Returns `true` when any extent is zero.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear (row-major) index of `(i, j, k)`.
    #[inline]
    pub fn offset(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.n0 && j < self.n1 && k < self.n2);
        (i * self.n1 + j) * self.n2 + k
    }

    /// Shape as a tuple.
    pub const fn dims(&self) -> (usize, usize, usize) {
        (self.n0, self.n1, self.n2)
    }
}

impl fmt::Debug for Shape3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.n0, self.n1, self.n2)
    }
}

impl From<(usize, usize, usize)> for Shape3 {
    fn from((n0, n1, n2): (usize, usize, usize)) -> Self {
        Self { n0, n1, n2 }
    }
}

/// A dense row-major 3-D array; the workhorse container of the workspace.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Array3<T> {
    shape: Shape3,
    data: Vec<T>,
}

impl<T: Clone + Default> Array3<T> {
    /// Creates an array of default-initialised elements with the given shape.
    pub fn zeros(shape: Shape3) -> Self {
        Self {
            shape,
            data: vec![T::default(); shape.len()],
        }
    }
}

impl<T: Clone> Array3<T> {
    /// Creates an array filled with copies of `value`.
    pub fn filled(shape: Shape3, value: T) -> Self {
        Self {
            shape,
            data: vec![value; shape.len()],
        }
    }
}

impl<T> Array3<T> {
    /// Wraps an existing vector; `data.len()` must equal `shape.len()`.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn from_vec(shape: Shape3, data: Vec<T>) -> Self {
        assert_eq!(data.len(), shape.len(), "Array3 data length mismatch");
        Self { shape, data }
    }

    /// The array's shape.
    pub fn shape(&self) -> Shape3 {
        self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the array and returns the underlying vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Immutable view of the contiguous `(j-row at slab i)` line along axis 2.
    pub fn line(&self, i: usize, j: usize) -> &[T] {
        let base = self.shape.offset(i, j, 0);
        &self.data[base..base + self.shape.n2]
    }

    /// Immutable view of slab `i` (the `n1 × n2` plane at axis-0 index `i`).
    pub fn plane(&self, i: usize) -> &[T] {
        let plane_len = self.shape.n1 * self.shape.n2;
        &self.data[i * plane_len..(i + 1) * plane_len]
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(&mut T)) {
        for v in &mut self.data {
            f(v);
        }
    }
}

impl<T> Index<(usize, usize, usize)> for Array3<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j, k): (usize, usize, usize)) -> &T {
        &self.data[self.shape.offset(i, j, k)]
    }
}

impl<T> IndexMut<(usize, usize, usize)> for Array3<T> {
    #[inline]
    fn index_mut(&mut self, (i, j, k): (usize, usize, usize)) -> &mut T {
        &mut self.data[self.shape.offset(i, j, k)]
    }
}

impl<T: fmt::Debug> fmt::Debug for Array3<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Array3({:?})", self.shape)
    }
}

impl Array3<crate::Complex64> {
    /// Complex inner product `⟨self, other⟩ = Σ self · conj(other)`.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn inner(&self, other: &Self) -> crate::Complex64 {
        assert_eq!(self.shape, other.shape, "inner shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| *a * b.conj())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn shape_offsets_are_row_major() {
        let s = Shape3::new(2, 3, 4);
        assert_eq!(s.len(), 24);
        assert_eq!(s.offset(0, 0, 0), 0);
        assert_eq!(s.offset(0, 0, 3), 3);
        assert_eq!(s.offset(0, 1, 0), 4);
        assert_eq!(s.offset(1, 0, 0), 12);
        assert_eq!(s.offset(1, 2, 3), 23);
        assert_eq!(s.dims(), (2, 3, 4));
    }

    #[test]
    fn array3_index_roundtrip() {
        let mut a: Array3<f64> = Array3::zeros(Shape3::new(3, 4, 5));
        a[(2, 3, 4)] = 7.5;
        a[(0, 0, 0)] = -1.0;
        assert_eq!(a[(2, 3, 4)], 7.5);
        assert_eq!(a[(0, 0, 0)], -1.0);
        assert_eq!(a.len(), 60);
    }

    #[test]
    fn plane_and_line_views() {
        let shape = Shape3::new(2, 3, 4);
        let data: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let a = Array3::from_vec(shape, data);
        assert_eq!(a.plane(1).len(), 12);
        assert_eq!(a.plane(1)[0], 12.0);
        assert_eq!(a.line(1, 2), &[20.0, 21.0, 22.0, 23.0]);
    }

    #[test]
    fn complex_inner_product() {
        let shape = Shape3::new(1, 1, 4);
        let a = Array3::from_vec(shape, vec![Complex64::new(1.0, 1.0); 4]);
        let b = Array3::from_vec(shape, vec![Complex64::new(0.0, 1.0); 4]);
        let ip = a.inner(&b);
        // (1+i) * conj(i) = (1+i)(-i) = -i - i^2 = 1 - i, times 4.
        assert_eq!(ip, Complex64::new(4.0, -4.0));
    }

    #[test]
    fn map_inplace_applies_everywhere() {
        let mut a = Array3::filled(Shape3::cube(2), 1.0f64);
        a.map_inplace(|x| *x *= 3.0);
        assert!(a.as_slice().iter().all(|&x| x == 3.0));
    }
}
