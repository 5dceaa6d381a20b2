//! Laminography acquisition geometry.
//!
//! The geometry owns everything the operators need to know about the scan:
//! volume dimensions, detector dimensions, the laminography tilt angle `φ`
//! and the list of rotation angles `θ_j`. It converts those into the
//! non-uniform frequency coordinates consumed by the USFFT stages.

use mlr_math::Shape3;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Detector dimensions: `h` rows × `w` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorSpec {
    /// Number of detector rows (vertical).
    pub rows: usize,
    /// Number of detector columns (horizontal).
    pub cols: usize,
}

impl DetectorSpec {
    /// Creates a detector spec.
    pub const fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }

    /// A square detector.
    pub const fn square(n: usize) -> Self {
        Self { rows: n, cols: n }
    }
}

/// Full laminography scan geometry.
///
/// Axis conventions for the reconstruction volume `u` follow the paper:
/// `u ∈ R^(n1, n0, n2)` where axis 1 (`n0`) is the vertical axis the sample
/// rotates around (before tilting) and axes 0/2 (`n1`, `n2`) span the
/// horizontal plane. Projection data is `d ∈ R^(nθ, h, w)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaminoGeometry {
    /// Horizontal extent along volume axis 0 (`n1`).
    pub n1: usize,
    /// Vertical extent (`n0`).
    pub n0: usize,
    /// Horizontal extent along volume axis 2 (`n2`).
    pub n2: usize,
    /// Laminography tilt angle `φ` in radians. `φ = π/2` degenerates to
    /// classical parallel-beam CT; flat samples use smaller tilts
    /// (20°–40° is typical at synchrotron laminography instruments).
    pub tilt: f64,
    /// Rotation angles `θ_j` in radians.
    pub angles: Vec<f64>,
    /// Detector dimensions.
    pub detector: DetectorSpec,
}

impl LaminoGeometry {
    /// Creates a geometry with uniformly spaced rotation angles over
    /// `[0, π)`, a cubic volume of side `n` and an `n × n` detector.
    ///
    /// # Panics
    /// Panics when `n == 0` or `n_angles == 0`.
    pub fn cube(n: usize, n_angles: usize, tilt_degrees: f64) -> Self {
        assert!(n > 0, "volume size must be positive");
        assert!(n_angles > 0, "need at least one rotation angle");
        let angles = (0..n_angles)
            .map(|j| PI * j as f64 / n_angles as f64)
            .collect();
        Self {
            n1: n,
            n0: n,
            n2: n,
            tilt: tilt_degrees.to_radians(),
            angles,
            detector: DetectorSpec::square(n),
        }
    }

    /// Shape of the reconstruction volume `(n1, n0, n2)`.
    pub fn volume_shape(&self) -> Shape3 {
        Shape3::new(self.n1, self.n0, self.n2)
    }

    /// Shape of the projection data `(nθ, h, w)`.
    pub fn data_shape(&self) -> Shape3 {
        Shape3::new(self.angles.len(), self.detector.rows, self.detector.cols)
    }

    /// Shape of the intermediate array `ũ1 = F_u1D u` the operator holds:
    /// `(h/2 + 1, n1, n2)`, the paper's `(n1, h, n2)` cut to the
    /// [`Self::half_rows`] it evaluates and laid out row by row, so that an
    /// `F_u2D` chunk of rows is one contiguous window.
    pub fn u1_shape(&self) -> Shape3 {
        Shape3::new(self.half_rows(), self.n1, self.n2)
    }

    /// Shape of the half spectrum `F_u2D` evaluates before its fill:
    /// `(h/2 + 1, nθ, half_cols)`, one row plan's points per evaluated row.
    pub fn half_spectrum_shape(&self) -> Shape3 {
        Shape3::new(self.half_rows(), self.n_angles(), self.half_cols())
    }

    /// Detector rows the operator evaluates: rows `0..=h/2`, whose row
    /// frequencies are `≤ 0`. For a real volume every other row is the
    /// conjugate mirror of one of them ([`Self::mirrored_row`]).
    pub fn half_rows(&self) -> usize {
        self.detector.rows / 2 + 1
    }

    /// Points per angle in an evaluated row: the `w` detector columns, plus,
    /// when `w` is even, column `w` at `col_freq(w) = +½` — the mirror of
    /// column 0, which the periodic grid does not hold.
    pub fn half_cols(&self) -> usize {
        let w = self.detector.cols;
        w + 1 - w % 2
    }

    /// The row above `h/2` that mirrors evaluated row `i`
    /// (`row_freq(m) == −row_freq(i)`), if the grid holds one. Row `h/2`
    /// mirrors itself and row 0 of an even `h` (`k_v = −½`) has no mirror:
    /// both give `None`.
    pub fn mirrored_row(&self, i: usize) -> Option<usize> {
        let h = self.detector.rows;
        let m = 2 * (h / 2) - i;
        (m > h / 2 && m < h).then_some(m)
    }

    /// The point `j'` of an evaluated row's [`Self::half_cols`] with
    /// `col_freq(j') == −col_freq(j)`, for a detector column `j < w`.
    pub fn mirror_col(&self, j: usize) -> usize {
        2 * (self.detector.cols / 2) - j
    }

    /// Number of rotation angles `nθ`.
    pub fn n_angles(&self) -> usize {
        self.angles.len()
    }

    /// Centered detector-row frequency (cycles per detector pixel) of row `i`.
    #[inline]
    pub fn row_freq(&self, i: usize) -> f64 {
        let h = self.detector.rows;
        (i as f64 - (h / 2) as f64) / h as f64
    }

    /// Centered detector-column frequency (cycles per detector pixel) of
    /// column `i`.
    #[inline]
    pub fn col_freq(&self, i: usize) -> f64 {
        let w = self.detector.cols;
        (i as f64 - (w / 2) as f64) / w as f64
    }

    /// The vertical (axis-`n0`) frequency sampled by detector row `i`:
    /// `k_z = k_v · sin φ`. This list — one frequency per detector row —
    /// parameterises `F_u1D` and is independent of the rotation angle, which
    /// is what makes the three-stage factorisation possible.
    pub fn vertical_freqs(&self) -> Vec<f64> {
        (0..self.detector.rows)
            .map(|i| self.row_freq(i) * self.tilt.sin())
            .collect()
    }

    /// The in-plane frequency pair `(k_x, k_y)` sampled by rotation angle
    /// `θ`, detector row frequency `k_v` and detector column frequency `k_u`.
    ///
    /// Derived from the tilted Fourier-slice plane spanned by the detector
    /// axes
    /// `e_u(θ) = (-sin θ, cos θ, 0)` and
    /// `e_v(θ) = (-cos θ cos φ, -sin θ cos φ, sin φ)`.
    #[inline]
    pub fn inplane_freq(&self, theta: f64, k_v: f64, k_u: f64) -> (f64, f64) {
        inplane(theta.sin_cos(), self.tilt.cos(), k_v, k_u)
    }

    /// All in-plane frequency pairs sampled at detector row `row`, flattened
    /// over `(angle, column)` in row-major `(nθ, w)` order. This list — one
    /// per detector row — parameterises the per-row `F_u2D` transform. The
    /// trigonometry is evaluated once per angle, not once per column.
    pub fn inplane_freqs_for_row(&self, row: usize) -> Vec<(f64, f64)> {
        self.row_points(row, self.detector.cols)
    }

    /// [`Self::inplane_freqs_for_row`] over the [`Self::half_cols`] points
    /// of an evaluated row, in row-major `(nθ, half_cols)` order: what the
    /// operator's row plans evaluate.
    pub fn half_freqs_for_row(&self, row: usize) -> Vec<(f64, f64)> {
        self.row_points(row, self.half_cols())
    }

    /// In-plane frequency pairs of row `row` at columns `0..cols` per angle.
    fn row_points(&self, row: usize, cols: usize) -> Vec<(f64, f64)> {
        let k_v = self.row_freq(row);
        let cos_tilt = self.tilt.cos();
        let mut out = Vec::with_capacity(self.angles.len() * cols);
        for &theta in &self.angles {
            let sin_cos = theta.sin_cos();
            out.extend((0..cols).map(|col| inplane(sin_cos, cos_tilt, k_v, self.col_freq(col))));
        }
        out
    }
}

/// [`LaminoGeometry::inplane_freq`] from `(sin θ, cos θ)` and `cos φ`.
#[inline]
fn inplane((s, c): (f64, f64), cos_tilt: f64, k_v: f64, k_u: f64) -> (f64, f64) {
    let kx = -k_v * c * cos_tilt - k_u * s;
    let ky = -k_v * s * cos_tilt + k_u * c;
    (kx, ky)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::approx_eq;

    #[test]
    fn cube_geometry_shapes() {
        let g = LaminoGeometry::cube(16, 12, 30.0);
        assert_eq!(g.volume_shape(), Shape3::new(16, 16, 16));
        assert_eq!(g.data_shape(), Shape3::new(12, 16, 16));
        assert_eq!(g.u1_shape(), Shape3::new(9, 16, 16));
        assert_eq!(g.half_spectrum_shape(), Shape3::new(9, 12, 17));
        assert_eq!(g.n_angles(), 12);
        assert!(approx_eq(g.tilt, 30.0f64.to_radians(), 1e-12));
    }

    #[test]
    fn angles_cover_half_turn() {
        let g = LaminoGeometry::cube(8, 4, 45.0);
        assert!(approx_eq(g.angles[0], 0.0, 1e-12));
        assert!(approx_eq(g.angles[1], PI / 4.0, 1e-12));
        assert!(g.angles.iter().all(|&a| a < PI));
    }

    #[test]
    fn row_and_col_freqs_centered() {
        let g = LaminoGeometry::cube(8, 4, 30.0);
        assert!(approx_eq(g.row_freq(4), 0.0, 1e-12));
        assert!(approx_eq(g.row_freq(0), -0.5, 1e-12));
        assert!(g.col_freq(7) > 0.0);
        assert!(g.col_freq(7) < 0.5);
    }

    #[test]
    fn vertical_freqs_scale_with_tilt() {
        let g30 = LaminoGeometry::cube(8, 4, 30.0);
        let g90 = LaminoGeometry::cube(8, 4, 90.0);
        let f30 = g30.vertical_freqs();
        let f90 = g90.vertical_freqs();
        assert_eq!(f30.len(), 8);
        for i in 0..8 {
            assert!(approx_eq(f30[i], f90[i] * 0.5, 1e-12), "row {i}");
        }
        // All vertical frequencies stay within the principal band.
        assert!(f90.iter().all(|&f| (-0.5..0.5).contains(&f)));
    }

    #[test]
    fn ct_limit_inplane_freqs() {
        // At tilt 90° the in-plane frequency no longer depends on the row.
        let g = LaminoGeometry::cube(8, 6, 90.0);
        let (kx_a, ky_a) = g.inplane_freq(0.7, 0.25, 0.1);
        let (kx_b, ky_b) = g.inplane_freq(0.7, -0.4, 0.1);
        assert!(approx_eq(kx_a, kx_b, 1e-12));
        assert!(approx_eq(ky_a, ky_b, 1e-12));
    }

    #[test]
    fn inplane_freqs_for_row_layout() {
        let g = LaminoGeometry::cube(8, 3, 35.0);
        let freqs = g.inplane_freqs_for_row(2);
        assert_eq!(freqs.len(), 3 * 8);
        // First entry corresponds to angle 0, column 0.
        let expected = g.inplane_freq(g.angles[0], g.row_freq(2), g.col_freq(0));
        assert!(approx_eq(freqs[0].0, expected.0, 1e-12));
        assert!(approx_eq(freqs[0].1, expected.1, 1e-12));
    }

    #[test]
    fn inplane_freqs_for_row_are_bit_equal_to_per_column_form() {
        // The row list evaluates the trigonometry once per angle; every
        // pair must carry the bits of the old form, which evaluated it once
        // per (angle, column).
        let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect()
        };
        for g in [
            LaminoGeometry::cube(24, 12, 30.0),
            LaminoGeometry::cube(7, 5, 61.0),
        ] {
            for row in 0..g.detector.rows {
                let k_v = g.row_freq(row);
                let mut per_column = Vec::new();
                for &theta in &g.angles {
                    for col in 0..g.detector.cols {
                        let k_u = g.col_freq(col);
                        let (s, c) = theta.sin_cos();
                        let cos_tilt = g.tilt.cos();
                        let kx = -k_v * c * cos_tilt - k_u * s;
                        let ky = -k_v * s * cos_tilt + k_u * c;
                        per_column.push((kx, ky));
                    }
                }
                assert_eq!(
                    bits(&g.inplane_freqs_for_row(row)),
                    bits(&per_column),
                    "row {row}"
                );
            }
        }
    }

    #[test]
    fn pairing_negates_frequencies_and_covers_the_upper_rows_once() {
        for (h, w) in [(8, 8), (7, 9), (16, 7), (9, 12)] {
            let g = LaminoGeometry {
                detector: DetectorSpec::new(h, w),
                ..LaminoGeometry::cube(8, 3, 35.0)
            };
            assert_eq!(g.half_cols(), if w % 2 == 0 { w + 1 } else { w });
            let mut covered = vec![false; h];
            covered[..g.half_rows()].fill(true);
            for i in 0..g.half_rows() {
                if let Some(m) = g.mirrored_row(i) {
                    assert_eq!(g.row_freq(m), -g.row_freq(i));
                    assert!(!covered[m], "{h}x{w}: row {m} mirrored twice");
                    covered[m] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "{h}x{w}: a row is never filled");
            for j in 0..w {
                let mj = g.mirror_col(j);
                assert!(mj < g.half_cols());
                assert_eq!(g.col_freq(mj), -g.col_freq(j));
            }
            // An evaluated row is the detector row plus its extra point.
            for row in 0..g.half_rows() {
                let full = g.inplane_freqs_for_row(row);
                let half = g.half_freqs_for_row(row);
                for (t, chunk) in half.chunks_exact(g.half_cols()).enumerate() {
                    assert_eq!(&chunk[..w], &full[t * w..(t + 1) * w]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one rotation angle")]
    fn zero_angles_panics() {
        let _ = LaminoGeometry::cube(8, 0, 30.0);
    }

    #[test]
    fn rotation_by_pi_negates_inplane_freqs() {
        // θ and θ+π sample mirrored in-plane frequencies (k_u -> -k_u term
        // flips, k_v term flips as well): the plane is the same up to
        // reflection, which is why half-turn coverage suffices.
        let g = LaminoGeometry::cube(8, 4, 30.0);
        let (kx, ky) = g.inplane_freq(0.3, 0.2, 0.1);
        let (kx2, ky2) = g.inplane_freq(0.3 + PI, 0.2, 0.1);
        assert!(approx_eq(kx, -kx2, 1e-12));
        assert!(approx_eq(ky, -ky2, 1e-12));
    }
}
