//! Deterministic random-number helpers.
//!
//! Every experiment harness in the repository must be reproducible run-to-run
//! (the paper's figures are single traces, so reproducibility is what makes
//! the regenerated shapes comparable). All randomness therefore flows through
//! seeded ChaCha8 generators created here.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Creates a deterministic RNG derived from a base seed and a stream index,
/// so parallel workers get independent but reproducible streams.
pub fn seeded_stream(seed: u64, stream: u64) -> ChaCha8Rng {
    // Mix with splitmix64-style constants to decorrelate streams.
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .rotate_left(31);
    ChaCha8Rng::seed_from_u64(mixed)
}

/// Samples a standard normal variate using the Box–Muller transform. Avoids a
/// dependency on `rand_distr` while being adequate for phantom noise.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Samples a normal variate with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = seeded(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn streams_are_independent_but_reproducible() {
        let mut s0a = seeded_stream(7, 0);
        let mut s0b = seeded_stream(7, 0);
        let mut s1 = seeded_stream(7, 1);
        assert_eq!(s0a.gen::<u64>(), s0b.gen::<u64>());
        assert_ne!(s0a.gen::<u64>(), s1.gen::<u64>());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(1);
        let n = 20_000;
        let sample: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = sample.iter().sum::<f64>() / n as f64;
        let var = sample.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = seeded(2);
        let n = 20_000;
        let sample: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = sample.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }
}
