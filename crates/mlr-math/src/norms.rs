//! Norms, similarity measures and the paper's accuracy metric.
//!
//! Two quantities from the paper live here:
//!
//! * **Cosine similarity** (Eq. 3) — the measure mLR uses both to decide when
//!   a stored memoization entry may replace an FFT computation and to
//!   characterise chunk similarity across iterations (Figure 4).
//! * **Relative reconstruction error** `E` (Eq. 4) and
//!   `Accuracy = 1 − E` (Eq. 5) — the quality metric of Table 1.

use crate::{Array3, Complex32, Complex64};

/// L2 norm of a real slice.
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// L2 norm of a complex slice (Frobenius norm when the slice is a flattened
/// matrix or volume).
pub fn l2_norm_c(x: &[Complex64]) -> f64 {
    x.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
}

/// L2 distance between two real vectors.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l2_distance length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// L2 distance between two complex vectors.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn l2_distance_c(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l2_distance_c length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm_sqr())
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity between two real vectors (paper Eq. 3).
///
/// Returns 0 when either vector has zero norm. The result lies in `[-1, 1]`
/// up to floating-point rounding.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine_similarity length mismatch");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine similarity between two complex vectors, computed on the real inner
/// product `Re⟨a, b⟩ / (‖a‖‖b‖)`. This is how chunk similarity is measured
/// for COMPLEX64 FFT inputs: the measure is phase-sensitive, so a chunk whose
/// spectrum rotated in phase is *not* considered similar.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn cosine_similarity_c(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine_similarity_c length mismatch");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| (*x * y.conj()).re).sum();
    let na = l2_norm_c(a);
    let nb = l2_norm_c(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// The scale-aware similarity of two vectors from their inner product and
/// norms: the cosine, clamped to `[-1, 1]`, times the ratio of the smaller to
/// the larger norm. Two zero vectors are identical (1); a zero and a
/// non-zero vector share nothing (0).
fn scale_aware(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 && nb == 0.0 {
        return 1.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0) * (na.min(nb) / na.max(nb))
}

/// Scale-aware similarity between two real vectors: the cosine similarity
/// multiplied by the ratio of the smaller to the larger L2 norm. Two vectors
/// pointing the same way but with very different magnitudes are *not*
/// considered similar — important for memoization, where reusing a stored FFT
/// result for a rescaled input would be badly wrong even though the plain
/// cosine similarity is 1.
///
/// One pass: the inner product and both squared norms accumulate side by
/// side, each in element order from `-0.0` (where `Iterator::sum` starts),
/// so the result has the bits of [`cosine_similarity`] times the norm ratio
/// computed separately.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn scale_aware_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine_similarity length mismatch");
    let (mut dot, mut na2, mut nb2) = (-0.0, -0.0, -0.0);
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na2 += x * x;
        nb2 += y * y;
    }
    scale_aware(dot, na2.sqrt(), nb2.sqrt())
}

/// Scale-aware similarity between two complex vectors (see
/// [`scale_aware_similarity`]): the plain composition of
/// [`cosine_similarity_c`] and the norm ratio. The memo store gates with
/// [`scale_aware_similarity_mixed`]; this is its all-`f64` reference.
pub fn scale_aware_similarity_c(a: &[Complex64], b: &[Complex64]) -> f64 {
    let na = l2_norm_c(a);
    let nb = l2_norm_c(b);
    if na == 0.0 && nb == 0.0 {
        return 1.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    cosine_similarity_c(a, b) * (na.min(nb) / na.max(nb))
}

/// L2 norm of a single-precision complex slice, accumulated in `f64` — what
/// a memo entry caches at insert so the τ gate never walks the stored vector
/// for it.
pub fn l2_norm_c32(x: &[Complex32]) -> f64 {
    x.iter().map(|v| v.widen().norm_sqr()).sum::<f64>().sqrt()
}

/// The memo store's τ gate: [`scale_aware_similarity_c`] between a
/// double-precision `query` and a vector `stored` in single precision whose
/// norm ([`l2_norm_c32`]) the caller already holds. One pass over the pair,
/// every product and sum in `f64`; it differs from the all-`f64` gate on the
/// un-narrowed vector only by the rounding of `stored` (relative 2⁻²⁴ per
/// component).
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn scale_aware_similarity_mixed(
    query: &[Complex64],
    stored: &[Complex32],
    stored_norm: f64,
) -> f64 {
    assert_eq!(query.len(), stored.len(), "mixed gate length mismatch");
    let (mut dot, mut nq2) = (0.0, 0.0);
    for (q, s) in query.iter().zip(stored) {
        dot += q.re * s.re as f64 + q.im * s.im as f64;
        nq2 += q.norm_sqr();
    }
    scale_aware(dot, nq2.sqrt(), stored_norm)
}

/// Frobenius norm of a real 3-D array.
pub fn frobenius(x: &Array3<f64>) -> f64 {
    l2_norm(x.as_slice())
}

/// The paper's relative-error metric (Eq. 4):
/// `E = ‖R_comp − R_LB‖_F / ‖R_comp‖_F`, where `R_comp` is the reconstruction
/// produced by the exact ADMM-FFT and `R_LB` the reconstruction produced with
/// memoization.
///
/// Returns 0 when the reference has zero norm and the two volumes are equal,
/// and `f64::INFINITY` when the reference is zero but the volumes differ.
///
/// # Panics
/// Panics when the shapes differ.
pub fn relative_error(reference: &Array3<f64>, approx: &Array3<f64>) -> f64 {
    assert_eq!(
        reference.shape(),
        approx.shape(),
        "relative_error shape mismatch"
    );
    let denom = frobenius(reference);
    let num = l2_distance(reference.as_slice(), approx.as_slice());
    if denom == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / denom
    }
}

/// The paper's accuracy metric (Eq. 5): `Accuracy = 1 − E`.
pub fn accuracy(reference: &Array3<f64>, approx: &Array3<f64>) -> f64 {
    1.0 - relative_error(reference, approx)
}

/// Maximum absolute element-wise difference between two complex slices.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn max_abs_diff_c(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff_c length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

/// Maximum absolute element-wise difference between two real slices.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, Shape3};

    #[test]
    fn l2_norm_matches_pythagoras() {
        assert!(approx_eq(l2_norm(&[3.0, 4.0]), 5.0, 1e-12));
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn l2_norm_c_counts_both_components() {
        let v = vec![Complex64::new(3.0, 4.0), Complex64::ZERO];
        assert!(approx_eq(l2_norm_c(&v), 5.0, 1e-12));
    }

    #[test]
    fn cosine_similarity_bounds_and_extremes() {
        let a = [1.0, 0.0, 0.0];
        let b = [1.0, 0.0, 0.0];
        let c = [-1.0, 0.0, 0.0];
        let d = [0.0, 1.0, 0.0];
        assert!(approx_eq(cosine_similarity(&a, &b), 1.0, 1e-12));
        assert!(approx_eq(cosine_similarity(&a, &c), -1.0, 1e-12));
        assert!(approx_eq(cosine_similarity(&a, &d), 0.0, 1e-12));
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_similarity_scale_invariant() {
        let a = [0.3, -1.2, 2.5, 0.7];
        let b: Vec<f64> = a.iter().map(|x| x * 17.0).collect();
        assert!(approx_eq(cosine_similarity(&a, &b), 1.0, 1e-12));
    }

    #[test]
    fn complex_cosine_similarity_detects_phase() {
        let a = vec![Complex64::new(1.0, 0.0); 8];
        let same = vec![Complex64::new(2.0, 0.0); 8];
        let rotated = vec![Complex64::new(0.0, 1.0); 8];
        assert!(approx_eq(cosine_similarity_c(&a, &same), 1.0, 1e-12));
        assert!(approx_eq(cosine_similarity_c(&a, &rotated), 0.0, 1e-12));
    }

    #[test]
    fn relative_error_and_accuracy() {
        let shape = Shape3::cube(4);
        let r = Array3::filled(shape, 2.0);
        let mut approx = r.clone();
        assert_eq!(relative_error(&r, &approx), 0.0);
        assert_eq!(accuracy(&r, &approx), 1.0);

        // Perturb one element: E = |delta| / ||r||_F.
        approx[(0, 0, 0)] = 2.0 + 1.6;
        let expected = 1.6 / (2.0 * 8.0); // ||r||_F = 2 * sqrt(64) = 16
        assert!(approx_eq(relative_error(&r, &approx), expected, 1e-12));
        assert!(approx_eq(accuracy(&r, &approx), 1.0 - expected, 1e-12));
    }

    #[test]
    fn relative_error_zero_reference() {
        let shape = Shape3::cube(2);
        let zero: Array3<f64> = Array3::zeros(shape);
        let nonzero = Array3::filled(shape, 1.0);
        assert_eq!(relative_error(&zero, &zero.clone()), 0.0);
        assert_eq!(relative_error(&zero, &nonzero), f64::INFINITY);
    }

    #[test]
    fn max_abs_diff_variants() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
        let a = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 2.0)];
        let b = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, -1.0)];
        assert_eq!(max_abs_diff_c(&a, &b), 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = cosine_similarity(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn scale_aware_similarity_penalises_rescaling() {
        let a = [1.0, 2.0, 3.0];
        let b: Vec<f64> = a.iter().map(|x| x * 4.0).collect();
        assert!(approx_eq(cosine_similarity(&a, &b), 1.0, 1e-12));
        assert!(approx_eq(scale_aware_similarity(&a, &b), 0.25, 1e-12));
        assert!(approx_eq(scale_aware_similarity(&a, &a), 1.0, 1e-12));
        assert_eq!(scale_aware_similarity(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
        assert_eq!(scale_aware_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        let ca = [Complex64::new(1.0, 1.0), Complex64::new(0.0, 2.0)];
        let cb: Vec<Complex64> = ca.iter().map(|z| z.scale(2.0)).collect();
        assert!(approx_eq(scale_aware_similarity_c(&ca, &cb), 0.5, 1e-12));
    }
}
