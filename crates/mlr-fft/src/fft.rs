//! One-dimensional complex FFT.
//!
//! The implementation is an iterative radix-2 Cooley–Tukey transform with a
//! bit-reversal permutation and precomputed twiddle factors, plus a Bluestein
//! (chirp-z) fallback so arbitrary lengths — including the odd projection
//! counts real laminography scans produce — are supported. Plans are created
//! by [`FftPlanner`], which caches twiddle tables per length so repeated
//! transforms of the same size (the common case: every chunk has the same
//! shape) pay the setup cost once.

use crate::scratch::ScratchPool;
use mlr_math::Complex64;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::Arc;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Forward transform, kernel `exp(-2πi kn/N)`.
    Forward,
    /// Inverse transform, kernel `exp(+2πi kn/N)`, scaled by `1/N`.
    Inverse,
}

impl Direction {
    /// Sign of the exponent for this direction.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// A reusable FFT plan for a fixed length.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// Twiddles for the radix-2 path (only populated for power-of-two n).
    twiddles_fwd: Vec<Complex64>,
    twiddles_inv: Vec<Complex64>,
    /// The bit-reversal permutation of the radix-2 path as the swaps that
    /// perform it, in the order the classic in-place loop performs them.
    swaps: Vec<(usize, usize)>,
    /// Bluestein auxiliary tables (only populated for non-power-of-two n).
    bluestein: Option<BluesteinTables>,
}

#[derive(Debug)]
struct BluesteinTables {
    /// Padded power-of-two length m >= 2n-1.
    m: usize,
    /// Chirp sequence a_n = exp(-i π n² / N) for the forward direction.
    chirp: Vec<Complex64>,
    /// FFT of the zero-padded reciprocal chirp (forward direction).
    b_hat_fwd: Vec<Complex64>,
    /// FFT of the zero-padded reciprocal chirp (inverse direction).
    b_hat_inv: Vec<Complex64>,
    /// Inner power-of-two plan for length m.
    inner: Box<FftPlan>,
    /// Reusable length-`m` chirp-product buffers, one per concurrent caller
    /// — the transform stops allocating once the pool is warm.
    scratch: ScratchPool,
}

impl FftPlan {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        if n.is_power_of_two() {
            let half = n / 2;
            let mut twiddles_fwd = Vec::with_capacity(half.max(1));
            let mut twiddles_inv = Vec::with_capacity(half.max(1));
            for k in 0..half.max(1) {
                let theta = 2.0 * PI * k as f64 / n as f64;
                twiddles_fwd.push(Complex64::cis(-theta));
                twiddles_inv.push(Complex64::cis(theta));
            }
            let mut swaps = Vec::new();
            let mut j = 0usize;
            for i in 0..n {
                if i < j {
                    swaps.push((i, j));
                }
                let mut bit = n >> 1;
                while j & bit != 0 {
                    j ^= bit;
                    bit >>= 1;
                }
                j |= bit;
            }
            Self {
                n,
                twiddles_fwd,
                twiddles_inv,
                swaps,
                bluestein: None,
            }
        } else {
            let m = (2 * n - 1).next_power_of_two();
            let mut chirp = Vec::with_capacity(n);
            for i in 0..n {
                // Use i² mod 2n to avoid precision loss for large i.
                let idx = (i * i) % (2 * n);
                chirp.push(Complex64::cis(-PI * idx as f64 / n as f64));
            }
            let inner = Box::new(FftPlan::new(m));
            let build_bhat = |conj_chirp: bool| -> Vec<Complex64> {
                let mut b = vec![Complex64::ZERO; m];
                for i in 0..n {
                    let c = if conj_chirp {
                        chirp[i].conj()
                    } else {
                        chirp[i]
                    };
                    b[i] = c;
                    if i != 0 {
                        b[m - i] = c;
                    }
                }
                let mut b_hat = b;
                inner.process(&mut b_hat, Direction::Forward);
                b_hat
            };
            // Forward Bluestein uses conj(chirp) for b; the inverse direction
            // is implemented by conjugation at the call site, so both tables
            // share the same inner transform but differ in chirp sign.
            let b_hat_fwd = build_bhat(true);
            let b_hat_inv = {
                let mut b = vec![Complex64::ZERO; m];
                for i in 0..n {
                    let c = chirp[i]; // conj of the inverse-direction chirp
                    b[i] = c;
                    if i != 0 {
                        b[m - i] = c;
                    }
                }
                let mut b_hat = b;
                inner.process(&mut b_hat, Direction::Forward);
                b_hat
            };
            Self {
                n,
                twiddles_fwd: Vec::new(),
                twiddles_inv: Vec::new(),
                swaps: Vec::new(),
                bluestein: Some(BluesteinTables {
                    m,
                    chirp,
                    b_hat_fwd,
                    b_hat_inv,
                    inner,
                    scratch: ScratchPool::new(),
                }),
            }
        }
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the degenerate length-0 plan (never constructed).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Executes the transform in place.
    ///
    /// # Panics
    /// Panics when `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        if self.n == 1 {
            return;
        }
        if self.bluestein.is_none() {
            self.radix2(data, dir);
            if dir == Direction::Inverse {
                let scale = 1.0 / self.n as f64;
                for v in data.iter_mut() {
                    *v = v.scale(scale);
                }
            }
        } else {
            self.bluestein_transform(data, dir);
        }
    }

    /// Executes the transform without the `1/N` normalisation on the inverse
    /// direction. Useful for adjoint (rather than inverse) operators, where
    /// the unscaled conjugate-kernel sum is wanted.
    pub fn process_unscaled(&self, data: &mut [Complex64], dir: Direction) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        if self.n == 1 {
            return;
        }
        if self.bluestein.is_none() {
            self.radix2(data, dir);
        } else {
            self.bluestein_transform(data, dir);
            if dir == Direction::Inverse {
                // bluestein_transform already applies 1/N on inverse; undo it.
                let scale = self.n as f64;
                for v in data.iter_mut() {
                    *v = v.scale(scale);
                }
            }
        }
    }

    /// Iterative radix-2 transform. Each stage walks its blocks of `len`
    /// and zips the two halves with every `n / len`-th twiddle, so the loop
    /// carries no index arithmetic and no bounds checks. Every butterfly,
    /// the `w = 1` ones included, is `a ± b·w` as written.
    fn radix2(&self, data: &mut [Complex64], dir: Direction) {
        let n = self.n;
        for &(i, j) in &self.swaps {
            data.swap(i, j);
        }
        let twiddles = match dir {
            Direction::Forward => &self.twiddles_fwd,
            Direction::Inverse => &self.twiddles_inv,
        };
        let mut len = 2usize;
        while len <= n {
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(len / 2);
                let stage_twiddles = twiddles.iter().step_by(n / len);
                for ((x, y), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage_twiddles) {
                    let a = *x;
                    let b = *y * w;
                    *x = a + b;
                    *y = a - b;
                }
            }
            len <<= 1;
        }
    }

    fn bluestein_transform(&self, data: &mut [Complex64], dir: Direction) {
        let tables = self.bluestein.as_ref().expect("bluestein tables"); // mlr-check: allow(unwrap-expect) — invariant: new() builds Bluestein tables for every non-power-of-two size
        let n = self.n;
        let m = tables.m;
        // a_i = x_i * chirp_i (chirp conjugated for the inverse direction).
        // The zero-padded product lives in pooled scratch: steady state
        // performs no allocation per transform.
        let mut a = tables.scratch.lease_zeroed(m);
        for i in 0..n {
            let c = match dir {
                Direction::Forward => tables.chirp[i],
                Direction::Inverse => tables.chirp[i].conj(),
            };
            a[i] = data[i] * c;
        }
        tables.inner.process(&mut a, Direction::Forward);
        let b_hat = match dir {
            Direction::Forward => &tables.b_hat_fwd,
            Direction::Inverse => &tables.b_hat_inv,
        };
        for (x, y) in a.iter_mut().zip(b_hat) {
            *x *= *y;
        }
        tables.inner.process(&mut a, Direction::Inverse);
        for i in 0..n {
            let c = match dir {
                Direction::Forward => tables.chirp[i],
                Direction::Inverse => tables.chirp[i].conj(),
            };
            data[i] = a[i] * c;
        }
        if dir == Direction::Inverse {
            let scale = 1.0 / n as f64;
            for v in data.iter_mut() {
                *v = v.scale(scale);
            }
        }
    }
}

/// A thread-safe cache of [`FftPlan`]s keyed by length.
#[derive(Default)]
pub struct FftPlanner {
    plans: Mutex<HashMap<usize, Arc<FftPlan>>>,
}

impl FftPlanner {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self {
            plans: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the (possibly cached) plan for length `n`.
    pub fn plan(&self, n: usize) -> Arc<FftPlan> {
        let mut guard = self.plans.lock();
        guard
            .entry(n)
            .or_insert_with(|| Arc::new(FftPlan::new(n)))
            .clone()
    }

    /// Number of distinct lengths planned so far.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().len()
    }
}

/// Convenience wrapper: forward FFT of a slice, out of place.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let mut data = input.to_vec();
    FftPlan::new(input.len().max(1)).process(&mut data, Direction::Forward);
    data
}

/// Convenience wrapper: inverse FFT of a slice, out of place (normalised).
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    let mut data = input.to_vec();
    FftPlan::new(input.len().max(1)).process(&mut data, Direction::Inverse);
    data
}

/// Naive O(N²) DFT used as the ground truth by tests.
pub fn dft_naive(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let theta = dir.sign() * 2.0 * PI * (k * j % n.max(1)) as f64 / n as f64;
            acc += x * Complex64::cis(theta);
        }
        *o = if dir == Direction::Inverse {
            acc.scale(1.0 / n as f64)
        } else {
            acc
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::norms::max_abs_diff_c;
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    /// The radix-2 transform as it was before the bit reversal became a
    /// planned swap list and the stages slice iterators: every index
    /// computed in the loop. Kept as the bit-identity reference.
    fn reference_radix2(plan: &FftPlan, data: &mut [Complex64], dir: Direction) {
        let n = plan.n;
        let mut j = 0usize;
        for i in 0..n {
            if i < j {
                data.swap(i, j);
            }
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
        }
        let twiddles = match dir {
            Direction::Forward => &plan.twiddles_fwd,
            Direction::Inverse => &plan.twiddles_inv,
        };
        let mut len = 2usize;
        while len <= n {
            let step = n / len;
            let half = len / 2;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = twiddles[k * step];
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn radix2_is_bit_identical_to_indexed_reference() {
        for log_n in 1..=10u64 {
            let n = 1usize << log_n;
            let plan = FftPlan::new(n);
            // Random values; all +0; all −0; and a mix of ±0 and values,
            // where a butterfly that skipped its `w = 1` multiply would
            // flip the sign of a zero.
            let mut rng = seeded(600 + log_n);
            let mut component = || match rng.gen_range(0..3) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen::<f64>() - 0.5,
            };
            let mixed: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(component(), component()))
                .collect();
            let inputs = [
                random_signal(n, 500 + log_n),
                vec![Complex64::ZERO; n],
                vec![Complex64::new(-0.0, -0.0); n],
                mixed,
            ];
            for x in &inputs {
                for dir in [Direction::Forward, Direction::Inverse] {
                    let mut expected = x.clone();
                    reference_radix2(&plan, &mut expected, dir);
                    let mut unscaled = x.clone();
                    plan.process_unscaled(&mut unscaled, dir);
                    assert_eq!(bits(&unscaled), bits(&expected), "unscaled n {n} {dir:?}");
                    if dir == Direction::Inverse {
                        let scale = 1.0 / n as f64;
                        expected.iter_mut().for_each(|v| *v = v.scale(scale));
                    }
                    let mut scaled = x.clone();
                    plan.process(&mut scaled, dir);
                    assert_eq!(bits(&scaled), bits(&expected), "process n {n} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut data = vec![Complex64::ZERO; 8];
        data[0] = Complex64::ONE;
        let out = fft(&data);
        for v in out {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        for n in [2usize, 4, 8, 16, 64, 128] {
            let x = random_signal(n, n as u64);
            let fast = fft(&x);
            let slow = dft_naive(&x, Direction::Forward);
            assert!(max_abs_diff_c(&fast, &slow) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary_length() {
        for n in [3usize, 5, 6, 7, 12, 15, 17, 31, 100] {
            let x = random_signal(n, 100 + n as u64);
            let fast = fft(&x);
            let slow = dft_naive(&x, Direction::Forward);
            assert!(max_abs_diff_c(&fast, &slow) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in [4usize, 9, 16, 21, 128, 250] {
            let x = random_signal(n, 7 * n as u64);
            let back = ifft(&fft(&x));
            assert!(max_abs_diff_c(&back, &x) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 256;
        let x = random_signal(n, 9);
        let x_hat = fft(&x);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ef: f64 = x_hat.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ef).abs() < 1e-9 * ex);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a = random_signal(n, 1);
        let b = random_signal(n, 2);
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        let expected: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_abs_diff_c(&fsum, &expected) < 1e-10);
    }

    #[test]
    fn unscaled_inverse_is_adjoint() {
        // <F x, y> == <x, F^H y> where F^H is the unscaled inverse kernel.
        let n = 32;
        let x = random_signal(n, 11);
        let y = random_signal(n, 12);
        let plan = FftPlan::new(n);
        let mut fx = x.clone();
        plan.process(&mut fx, Direction::Forward);
        let mut fhy = y.clone();
        plan.process_unscaled(&mut fhy, Direction::Inverse);
        let lhs: Complex64 = fx.iter().zip(&y).map(|(a, b)| *a * b.conj()).sum();
        let rhs: Complex64 = x.iter().zip(&fhy).map(|(a, b)| *a * b.conj()).sum();
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn planner_caches_plans() {
        let planner = FftPlanner::new();
        let p1 = planner.plan(128);
        let p2 = planner.plan(128);
        assert!(Arc::ptr_eq(&p1, &p2));
        let _ = planner.plan(64);
        assert_eq!(planner.cached_plans(), 2);
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![Complex64::new(3.0, -2.0)];
        assert_eq!(fft(&x), x);
        assert_eq!(ifft(&x), x);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let plan = FftPlan::new(8);
        let mut buf = vec![Complex64::ZERO; 4];
        plan.process(&mut buf, Direction::Forward);
    }

    #[test]
    fn shift_theorem() {
        // Circularly shifting the input multiplies the spectrum by a phasor.
        let n = 64usize;
        let x = random_signal(n, 21);
        let shift = 5usize;
        let shifted: Vec<Complex64> = (0..n).map(|i| x[(i + n - shift) % n]).collect();
        let fx = fft(&x);
        let fs = fft(&shifted);
        for k in 0..n {
            let phase = Complex64::cis(-2.0 * PI * (k * shift) as f64 / n as f64);
            let expected = fx[k] * phase;
            assert!((fs[k] - expected).abs() < 1e-9);
        }
    }
}
