//! Property-based integration tests over the numerical substrates.
//!
//! Originally written against `proptest`; this offline build has no access
//! to crates.io, so the same properties are exercised as deterministic
//! seeded sweeps (32 cases per property, matching the original
//! `ProptestConfig::with_cases(32)`), which also makes failures trivially
//! reproducible.

use mlr_fft::fft::{dft_naive, fft, Direction, FftPlan};
use mlr_lamino::{ChunkGrid, DirectExecutor, LaminoGeometry, LaminoOperator};
use mlr_math::complex::{narrow, round_into, widen_into};
use mlr_math::norms::{
    cosine_similarity, cosine_similarity_c, l2_norm, l2_norm_c, l2_norm_c32, max_abs_diff_c,
    scale_aware_similarity, scale_aware_similarity_c, scale_aware_similarity_mixed,
};
use mlr_math::rng::seeded;
use mlr_math::{Array3, Complex64};
use rand::Rng;

const CASES: u64 = 32;

/// A random complex vector with components in `[-1, 1)`, the distribution
/// the original proptest strategy used.
fn complex_vec(len: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = seeded(seed);
    (0..len)
        .map(|_| Complex64::new(2.0 * rng.gen::<f64>() - 1.0, 2.0 * rng.gen::<f64>() - 1.0))
        .collect()
}

#[test]
fn fft_roundtrip_recovers_signal() {
    for case in 0..CASES {
        let signal = complex_vec(64, 100 + case);
        let mut back = fft(&signal);
        FftPlan::new(64).process(&mut back, Direction::Inverse);
        assert!(
            max_abs_diff_c(&back, &signal) < 1e-9,
            "roundtrip error too large (case {case})"
        );
    }
}

#[test]
fn fft_matches_naive_dft() {
    for case in 0..CASES {
        let signal = complex_vec(24, 200 + case);
        let fast = fft(&signal);
        let slow = dft_naive(&signal, Direction::Forward);
        assert!(
            max_abs_diff_c(&fast, &slow) < 1e-8,
            "fft disagrees with naive DFT (case {case})"
        );
    }
}

#[test]
fn fft_preserves_energy() {
    for case in 0..CASES {
        let signal = complex_vec(32, 300 + case);
        let spectrum = fft(&signal);
        let time_energy: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spectrum.iter().map(|z| z.norm_sqr()).sum::<f64>() / 32.0;
        assert!(
            (time_energy - freq_energy).abs() <= 1e-9 * time_energy.max(1.0),
            "Parseval violated (case {case}): {time_energy} vs {freq_energy}"
        );
    }
}

#[test]
fn similarity_measures_are_bounded() {
    for case in 0..CASES {
        let a = complex_vec(48, 400 + case);
        let b = complex_vec(48, 500 + case);
        let cs = cosine_similarity_c(&a, &b);
        assert!(
            (-1.0..=1.0).contains(&cs),
            "cosine out of range (case {case}): {cs}"
        );
        let sas = scale_aware_similarity_c(&a, &b);
        assert!(
            sas <= cs.abs() + 1e-12,
            "scale-aware exceeds cosine (case {case})"
        );
        assert!(
            scale_aware_similarity_c(&a, &a) > 0.999 || l2_norm_c(&a) == 0.0,
            "self-similarity must be ~1 (case {case})"
        );
    }
}

#[test]
fn fused_similarity_has_the_bits_of_the_separate_passes() {
    // The one-pass real scale-aware similarity (the cache's key gate)
    // accumulates dot and norms in the element order the separate passes
    // use, so not a bit may differ.
    for case in 0..CASES {
        let a = complex_vec(48 + case as usize, 1400 + case);
        let b = complex_vec(48 + case as usize, 1500 + case);
        let scale = 0.25 * (1 + case % 7) as f64;
        let (ra, rb): (Vec<f64>, Vec<f64>) = (a.iter().zip(&b))
            .map(|(x, y)| (x.re, y.im * scale))
            .unzip();
        let (na, nb) = (l2_norm(&ra), l2_norm(&rb));
        let separate = cosine_similarity(&ra, &rb) * (na.min(nb) / na.max(nb));
        assert_eq!(
            scale_aware_similarity(&ra, &rb).to_bits(),
            separate.to_bits(),
            "fused pass drifted (case {case})"
        );
    }
}

#[test]
fn narrowing_is_idempotent_and_within_half_an_f32_ulp() {
    for case in 0..CASES {
        // Magnitudes from 1e-3 to 1e6: all inside f32's normal range.
        let scale = 10f64.powi(case as i32 % 10 - 3);
        let x: Vec<Complex64> = complex_vec(64, 1600 + case)
            .iter()
            .map(|z| z.scale(scale))
            .collect();
        let stored = narrow(&x).expect("finite and in range");
        let mut once = vec![Complex64::ZERO; x.len()];
        widen_into(&stored, &mut once);
        for (r, z) in once.iter().zip(&x) {
            let bound = 2f64.powi(-24);
            assert!(
                (r.re - z.re).abs() <= bound * z.re.abs()
                    && (r.im - z.im).abs() <= bound * z.im.abs(),
                "rounding error above 2^-24 relative (case {case}): {z:?} -> {r:?}"
            );
        }
        // Rounding what is already rounded changes nothing, whichever way
        // it is rounded.
        assert_eq!(narrow(&once).as_deref(), Some(&stored[..]));
        let mut twice = vec![Complex64::ZERO; x.len()];
        assert!(round_into(&once, &mut twice));
        assert_eq!(
            twice, once,
            "widen(narrow(.)) is not idempotent (case {case})"
        );
    }
}

#[test]
fn mixed_precision_gate_tracks_the_f64_gate() {
    let gates = |query: &[Complex64], raw: &[Complex64]| {
        let stored = narrow(raw).expect("finite and in range");
        let mixed = scale_aware_similarity_mixed(query, &stored, l2_norm_c32(&stored));
        (mixed, scale_aware_similarity_c(query, raw))
    };
    for case in 0..CASES {
        let raw = complex_vec(96, 1700 + case);
        // From near-identical to unrelated, at drifting scales.
        let mix = case as f64 / CASES as f64;
        let query: Vec<Complex64> = raw
            .iter()
            .zip(complex_vec(96, 1800 + case))
            .map(|(r, n)| (*r + n.scale(mix)).scale(1.0 + 0.01 * case as f64))
            .collect();
        let (mixed, exact) = gates(&query, &raw);
        assert!(
            (mixed - exact).abs() <= 1e-6,
            "mixed gate off by more than 1e-6 (case {case}): {mixed} vs {exact}"
        );
    }
    let zero = vec![Complex64::ZERO; 16];
    let some = complex_vec(16, 1900);
    assert_eq!(gates(&zero, &zero), (1.0, 1.0));
    assert_eq!(gates(&zero, &some), (0.0, 0.0));
    assert_eq!(gates(&some, &zero), (0.0, 0.0));
}

#[test]
fn chunk_grid_partitions_axis() {
    let mut rng = seeded(600);
    for case in 0..CASES {
        let extent = rng.gen_range(1usize..200);
        let chunk = rng.gen_range(1usize..40);
        let grid = ChunkGrid::new(extent, chunk);
        let mut covered = vec![0u32; extent];
        for loc in grid.iter() {
            for c in covered.iter_mut().skip(loc.start).take(loc.len) {
                *c += 1;
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "grid does not partition extent {extent} / chunk {chunk} (case {case})"
        );
    }
}

#[test]
fn laminography_operator_adjointness_holds_for_random_volumes() {
    // A single heavier check: <L u, d> == <u, L* d>.
    let geometry = LaminoGeometry::cube(8, 5, 28.0);
    let op = LaminoOperator::new(geometry, 4);
    let mut rng_state = 0x1234_5678u64;
    let mut next = || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((rng_state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let vol_shape = op.geometry().volume_shape();
    let data_shape = op.geometry().data_shape();
    let u = Array3::from_vec(vol_shape, (0..vol_shape.len()).map(|_| next()).collect());
    let d = Array3::from_vec(data_shape, (0..data_shape.len()).map(|_| next()).collect());
    let lu = op.forward_with(&u, &DirectExecutor);
    let ltd = op.adjoint_with(&d, &DirectExecutor);
    let dot = |a: &Array3<f64>, b: &Array3<f64>| -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x * y)
            .sum()
    };
    let (lhs, rhs) = (dot(&lu, &d), dot(&u, &ltd));
    assert!(
        (lhs - rhs).abs() < 1e-7 * lhs.abs().max(1.0),
        "{lhs} vs {rhs}"
    );
}
