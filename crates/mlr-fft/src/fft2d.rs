//! Two-dimensional FFTs.
//!
//! `F_2D` in the paper is a per-projection 2-D FFT over the detector plane
//! (`h × w`), applied independently to every projection angle. [`Fft2Batch`]
//! holds the row and column plans once and transforms one plane at a time;
//! the operators run it as one plane loop over the angles.

use crate::fft::{normalise, Direction, FftPlan};
use mlr_math::{Array3, Complex64};
use std::sync::Arc;

/// A reusable 2-D FFT over `rows × cols` planes.
///
/// The plan caches the row/column twiddle tables once, then transforms any
/// number of planes of that shape.
pub struct Fft2Batch {
    rows: usize,
    cols: usize,
    pub(crate) row_plan: Arc<FftPlan>,
    pub(crate) col_plan: Arc<FftPlan>,
}

impl Fft2Batch {
    /// Creates a batch plan for planes of `rows × cols`; a square plane's
    /// rows and columns share one plan.
    pub fn new(rows: usize, cols: usize) -> Self {
        let row_plan = Arc::new(FftPlan::new(cols.max(1)));
        let col_plan = if rows == cols {
            Arc::clone(&row_plan)
        } else {
            Arc::new(FftPlan::new(rows.max(1)))
        };
        Self {
            rows,
            cols,
            row_plan,
            col_plan,
        }
    }

    /// Transforms a single row-major plane in place.
    pub fn process_plane(&self, plane: &mut [Complex64], dir: Direction) {
        assert_eq!(plane.len(), self.rows * self.cols, "plane length mismatch");
        for r in 0..self.rows {
            self.row_plan
                .process(&mut plane[r * self.cols..(r + 1) * self.cols], dir);
        }
        self.col_plan
            .process_columns_unscaled(plane, self.cols, 0..self.cols, dir);
        if dir == Direction::Inverse {
            normalise(plane, self.rows);
        }
    }
}

/// Converts a real 3-D array to complex (imaginary part zero).
pub fn to_complex(volume: &Array3<f64>) -> Array3<Complex64> {
    let data = volume
        .as_slice()
        .iter()
        .map(|&x| Complex64::from_real(x))
        .collect();
    Array3::from_vec(volume.shape(), data)
}

/// Extracts the real part of a complex 3-D array.
pub fn to_real(volume: &Array3<Complex64>) -> Array3<f64> {
    let data = volume.as_slice().iter().map(|z| z.re).collect();
    Array3::from_vec(volume.shape(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_naive;
    use mlr_math::norms::max_abs_diff_c;
    use mlr_math::rng::seeded;
    use mlr_math::Shape3;
    use rand::Rng;

    fn random_plane(rows: usize, cols: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = seeded(seed);
        (0..rows * cols)
            .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    /// Naive 2-D DFT for ground truth.
    fn dft2_naive(data: &[Complex64], rows: usize, cols: usize, dir: Direction) -> Vec<Complex64> {
        // Row pass.
        let mut tmp = vec![Complex64::ZERO; rows * cols];
        for r in 0..rows {
            let row = dft_naive(&data[r * cols..(r + 1) * cols], dir);
            tmp[r * cols..(r + 1) * cols].copy_from_slice(&row);
        }
        // Column pass.
        let mut out = vec![Complex64::ZERO; rows * cols];
        for c in 0..cols {
            let col: Vec<Complex64> = (0..rows).map(|r| tmp[r * cols + c]).collect();
            let t = dft_naive(&col, dir);
            for r in 0..rows {
                out[r * cols + c] = t[r];
            }
        }
        out
    }

    #[test]
    fn fft2_matches_naive() {
        for (rows, cols) in [(4, 4), (8, 16), (6, 10), (5, 7)] {
            let data = random_plane(rows, cols, (rows * 31 + cols) as u64);
            let mut fast = data.clone();
            Fft2Batch::new(rows, cols).process_plane(&mut fast, Direction::Forward);
            let slow = dft2_naive(&data, rows, cols, Direction::Forward);
            assert!(max_abs_diff_c(&fast, &slow) < 1e-8, "{rows}x{cols}");
        }
    }

    #[test]
    fn fft2_roundtrip() {
        let (rows, cols) = (16, 12);
        let data = random_plane(rows, cols, 3);
        let mut buf = data.clone();
        let batch = Fft2Batch::new(rows, cols);
        batch.process_plane(&mut buf, Direction::Forward);
        batch.process_plane(&mut buf, Direction::Inverse);
        assert!(max_abs_diff_c(&buf, &data) < 1e-9);
    }

    #[test]
    fn real_complex_conversions() {
        let shape = Shape3::cube(3);
        let real = Array3::from_vec(shape, (0..27).map(|i| i as f64).collect());
        let c = to_complex(&real);
        assert_eq!(c[(1, 1, 1)], Complex64::from_real(13.0));
        let back = to_real(&c);
        assert_eq!(back, real);
    }

    #[test]
    #[should_panic(expected = "plane length mismatch")]
    fn batch_shape_mismatch_panics() {
        let batch = Fft2Batch::new(4, 4);
        let mut plane = vec![Complex64::ZERO; 8 * 4];
        batch.process_plane(&mut plane, Direction::Forward);
    }
}
