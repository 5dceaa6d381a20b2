//! One-dimensional complex FFT.
//!
//! Every length `2^a·3^b` runs one iterative mixed-radix Cooley–Tukey
//! transform: a digit-reversal permutation (planned as a swap list), then
//! radix-2 stages and radix-3 stages over one table of twiddles
//! `cis(∓2πk/n)`. At a power of two the digit reversal is the bit reversal
//! and every stage is radix 2, so those lengths run the classic radix-2
//! transform to the bit. Any other length takes a Bluestein (chirp-z)
//! fallback whose inner transform has the smallest `2^a·3^b` length
//! `≥ 2n − 1` (`fast_len`), so arbitrary lengths — including the odd
//! projection counts real laminography scans produce — are supported. A
//! plan holds its tables, so repeated transforms of one length (the common
//! case: every chunk has the same shape) pay the setup cost once.

use crate::scratch::ScratchPool;
use mlr_math::Complex64;
use std::f64::consts::PI;
use std::ops::Range;

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

/// The stage radices of a `2^a·3^b` length, first stage first (every 2,
/// then every 3); `None` for any other length.
fn radices(mut n: usize) -> Option<Vec<usize>> {
    let mut radices = Vec::new();
    for r in [2, 3] {
        while n.is_multiple_of(r) {
            radices.push(r);
            n /= r;
        }
    }
    (n == 1).then_some(radices)
}

/// The smallest length `≥ min` that [`FftPlan`] transforms without its
/// Bluestein fallback: the smallest `2^a·3^b ≥ min`.
pub(crate) fn fast_len(min: usize) -> usize {
    let min = min.max(1);
    let mut best = min.next_power_of_two();
    let mut power_of_three = 3;
    while power_of_three < best {
        best = best.min(min.div_ceil(power_of_three).next_power_of_two() * power_of_three);
        power_of_three *= 3;
    }
    best
}

/// A reusable FFT plan for a fixed length.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// Radix of each Cooley–Tukey stage, first stage first (mixed-radix
    /// lengths only).
    radices: Vec<usize>,
    /// `cis(∓2πk/n)` for every `k` a stage reads (mixed-radix lengths only).
    twiddles_fwd: Vec<Complex64>,
    twiddles_inv: Vec<Complex64>,
    /// The digit-reversal permutation as the swaps that perform it, each
    /// `(low, high)`: one per step around each of its cycles, so at a power
    /// of two the bit reversal's disjoint pairs in ascending order.
    swaps: Vec<(usize, usize)>,
    /// Bluestein auxiliary tables (only for lengths other than `2^a·3^b`).
    bluestein: Option<BluesteinTables>,
}

#[derive(Debug)]
struct BluesteinTables {
    /// Padded length `m = fast_len(2n − 1)`.
    m: usize,
    /// Chirp sequence a_n = exp(-i π n² / N) for the forward direction.
    chirp: Vec<Complex64>,
    /// FFT of the zero-padded reciprocal chirp (forward direction).
    b_hat_fwd: Vec<Complex64>,
    /// FFT of the zero-padded reciprocal chirp (inverse direction).
    b_hat_inv: Vec<Complex64>,
    /// Inner mixed-radix plan for length m.
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
        if let Some(radices) = radices(n) {
            // A radix-r stage reads twiddle indices below n·(r − 1)/r.
            let largest = radices.last().copied().unwrap_or(2);
            let mut twiddles_fwd = Vec::with_capacity(n - n / largest);
            let mut twiddles_inv = Vec::with_capacity(n - n / largest);
            for k in 0..n - n / largest {
                let theta = 2.0 * PI * k as f64 / n as f64;
                twiddles_fwd.push(Complex64::cis(-theta));
                twiddles_inv.push(Complex64::cis(theta));
            }
            // Position i, read as digits (i / L_{t−1}) mod r_t with L_t the
            // length after stage t, takes input element Σ_t digit_t · n / L_t.
            let source = |i: usize| {
                let (mut j, mut len) = (0, 1);
                for &r in &radices {
                    j += (i / len) % r * (n / (len * r));
                    len *= r;
                }
                j
            };
            let mut swaps = Vec::new();
            let mut placed = vec![false; n];
            for start in 0..n {
                let mut i = start;
                while !placed[i] {
                    placed[i] = true;
                    let j = source(i);
                    if j != start {
                        swaps.push((i.min(j), i.max(j)));
                    }
                    i = j;
                }
            }
            Self {
                n,
                radices,
                twiddles_fwd,
                twiddles_inv,
                swaps,
                bluestein: None,
            }
        } else {
            let m = fast_len(2 * n - 1);
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
            // share the same inner transform but differ in chirp sign (the
            // inverse's b is the chirp itself, the conjugate of its chirp).
            let b_hat_fwd = build_bhat(true);
            let b_hat_inv = build_bhat(false);
            Self {
                n,
                radices: Vec::new(),
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
        self.process_unscaled(data, dir);
        if dir == Direction::Inverse {
            normalise(data, self.n);
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
        match &self.bluestein {
            None => self.mixed_radix_transform(data, dir),
            Some(tables) => self.bluestein_transform(tables, data, dir),
        }
    }

    /// [`Self::process_unscaled`] on columns `cols` of a block of `len()`
    /// rows `stride` apart, bit-identical to gathering each column,
    /// transforming it and scattering it back: every column sees the same
    /// operations in the same order. A mixed-radix plan runs its swaps and
    /// butterflies across row segments; a Bluestein plan gathers.
    ///
    /// # Panics
    /// Panics when `data.len() != self.len() * stride` or `cols` ends past
    /// `stride`.
    pub fn process_columns_unscaled(
        &self,
        data: &mut [Complex64],
        stride: usize,
        cols: Range<usize>,
        dir: Direction,
    ) {
        assert_eq!(data.len(), self.n * stride, "FFT block length mismatch");
        assert!(cols.end <= stride, "FFT columns past the row stride");
        if self.n == 1 || cols.is_empty() {
            return;
        }
        if stride == 1 {
            return self.process_unscaled(data, dir);
        }
        if let Some(tables) = &self.bluestein {
            let mut column = tables.scratch.lease(self.n);
            for c in cols {
                for (x, row) in column.iter_mut().zip(data.chunks_exact(stride)) {
                    *x = row[c];
                }
                self.bluestein_transform(tables, &mut column, dir);
                for (&x, row) in column.iter().zip(data.chunks_exact_mut(stride)) {
                    row[c] = x;
                }
            }
            return;
        }
        for &(i, j) in &self.swaps {
            let (head, tail) = data.split_at_mut(j * stride);
            head[i * stride..][cols.clone()].swap_with_slice(&mut tail[cols.clone()]);
        }
        let twiddles = self.twiddles(dir);
        let rot = dir.sign() * RADIX3_SIN;
        let mut len = 1;
        for &radix in &self.radices {
            let m = len;
            len *= radix;
            let w1 = || twiddles.iter().step_by(self.n / len);
            let w2 = || twiddles.iter().step_by(2 * self.n / len);
            for block in data.chunks_exact_mut(len * stride) {
                let (rows0, rest) = block.split_at_mut(m * stride);
                let rows0 = rows0.chunks_exact_mut(stride);
                if radix == 2 {
                    let rows = rows0.zip(rest.chunks_exact_mut(stride));
                    for ((row0, row1), &w) in rows.zip(w1()) {
                        let row1 = &mut row1[cols.clone()];
                        for (x0, x1) in row0[cols.clone()].iter_mut().zip(row1) {
                            let b = *x1 * w;
                            (*x0, *x1) = (*x0 + b, *x0 - b);
                        }
                    }
                } else {
                    let (rows1, rows2) = rest.split_at_mut(m * stride);
                    let rows = rows0.zip(rows1.chunks_exact_mut(stride));
                    let rows = rows.zip(rows2.chunks_exact_mut(stride));
                    for (((row0, row1), row2), (&t1, &t2)) in rows.zip(w1().zip(w2())) {
                        let row1 = row1[cols.clone()].iter_mut();
                        let row2 = row2[cols.clone()].iter_mut();
                        for ((x0, x1), x2) in row0[cols.clone()].iter_mut().zip(row1).zip(row2) {
                            [*x0, *x1, *x2] = butterfly3(*x0, *x1 * t1, *x2 * t2, rot);
                        }
                    }
                }
            }
        }
    }

    fn twiddles(&self, dir: Direction) -> &[Complex64] {
        match dir {
            Direction::Forward => &self.twiddles_fwd,
            Direction::Inverse => &self.twiddles_inv,
        }
    }

    /// Iterative mixed-radix transform. Each stage of radix `r` walks its
    /// blocks of `len`, splits each into `r` sub-transforms of `len / r` and
    /// zips them with every `n / len`-th twiddle (every `2n / len`-th for
    /// the third), so the loop carries no index arithmetic and no bounds
    /// checks. Every butterfly, the `w = 1` ones included, is `a ± b·w` as
    /// written at radix 2 and [`butterfly3`] at radix 3.
    fn mixed_radix_transform(&self, data: &mut [Complex64], dir: Direction) {
        for &(i, j) in &self.swaps {
            data.swap(i, j);
        }
        let twiddles = self.twiddles(dir);
        let rot = dir.sign() * RADIX3_SIN;
        let mut len = 1;
        for &radix in &self.radices {
            let m = len;
            len *= radix;
            let w1 = || twiddles.iter().step_by(self.n / len);
            let w2 = || twiddles.iter().step_by(2 * self.n / len);
            for block in data.chunks_exact_mut(len) {
                let (x0, rest) = block.split_at_mut(m);
                if radix == 2 {
                    for ((x0, x1), &w) in x0.iter_mut().zip(rest).zip(w1()) {
                        let b = *x1 * w;
                        (*x0, *x1) = (*x0 + b, *x0 - b);
                    }
                } else {
                    let (x1, x2) = rest.split_at_mut(m);
                    let xs = x0.iter_mut().zip(x1).zip(x2);
                    for (((x0, x1), x2), (&t1, &t2)) in xs.zip(w1().zip(w2())) {
                        [*x0, *x1, *x2] = butterfly3(*x0, *x1 * t1, *x2 * t2, rot);
                    }
                }
            }
        }
    }

    /// Unscaled in both directions, like `mixed_radix_transform`.
    fn bluestein_transform(
        &self,
        tables: &BluesteinTables,
        data: &mut [Complex64],
        dir: Direction,
    ) {
        let n = self.n;
        let m = tables.m;
        // a_i = x_i * chirp_i (chirp conjugated for the inverse direction).
        // The zero-padded product lives in pooled scratch: steady state
        // performs no allocation per transform.
        let chirp = |i: usize| match dir {
            Direction::Forward => tables.chirp[i],
            Direction::Inverse => tables.chirp[i].conj(),
        };
        let mut a = tables.scratch.lease_zeroed(m);
        for i in 0..n {
            a[i] = data[i] * chirp(i);
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
            data[i] = a[i] * chirp(i);
        }
    }
}

/// `sin(2π/3)`: the imaginary part of the cube roots of unity.
const RADIX3_SIN: f64 = 0.866_025_403_784_438_6;

/// The radix-3 butterfly on `a` and the twiddled `b`, `c`: `a + b + c`,
/// then `a − (b + c)/2 ± i·rot·(b − c)`, where `rot = ∓sin(2π/3)` makes
/// `−1/2 + i·rot` the forward (inverse) kernel's cube root of unity.
#[inline]
fn butterfly3(a: Complex64, b: Complex64, c: Complex64, rot: f64) -> [Complex64; 3] {
    let (sum, diff) = (b + c, b - c);
    let mid = a - sum.scale(0.5);
    let turn = Complex64::new(-diff.im * rot, diff.re * rot);
    [a + sum, mid + turn, mid - turn]
}

/// The inverse transform's `1/n` on every element of `data`.
pub(crate) fn normalise(data: &mut [Complex64], n: usize) {
    let scale = 1.0 / n as f64;
    data.iter_mut().for_each(|v| *v = v.scale(scale));
}

/// Convenience wrapper: forward FFT of a slice, out of place.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let mut data = input.to_vec();
    FftPlan::new(input.len().max(1)).process(&mut data, Direction::Forward);
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
impl FftPlan {
    /// Whether this plan takes the Bluestein fallback.
    pub(crate) fn is_bluestein(&self) -> bool {
        self.bluestein.is_some()
    }
}

/// The bit patterns of `v`, for tests that pin results to the bit.
#[cfg(test)]
pub(crate) fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
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
        let twiddles = plan.twiddles(dir);
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

    fn column_of(block: &[Complex64], stride: usize, c: usize) -> Vec<Complex64> {
        block.iter().skip(c).step_by(stride).copied().collect()
    }

    /// `process_columns_unscaled` against gathering each column, running
    /// `process_unscaled` on it and scattering it back: over every column,
    /// and over a partial range, which must leave the others untouched.
    fn assert_columns_match(plan: &FftPlan, block: &[Complex64], stride: usize, dir: Direction) {
        for cols in [0..stride, 1..stride - 1] {
            let mut expected = block.to_vec();
            for c in cols.clone() {
                let mut column = column_of(block, stride, c);
                plan.process_unscaled(&mut column, dir);
                for (r, z) in column.into_iter().enumerate() {
                    expected[r * stride + c] = z;
                }
            }
            let mut got = block.to_vec();
            plan.process_columns_unscaled(&mut got, stride, cols.clone(), dir);
            let case = format!("n {} {dir:?} columns {cols:?}", plan.n);
            assert_eq!(bits(&got), bits(&expected), "{case}");
        }
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
                    // Three columns, rotations of `x`, in one batched call.
                    let block: Vec<Complex64> = (0..n)
                        .flat_map(|r| (0..3).map(move |c| x[(r + c) % n]))
                        .collect();
                    assert_columns_match(&plan, &block, 3, dir);
                }
            }
        }
    }

    #[test]
    fn bluestein_columns_match_per_column_transforms() {
        // Lengths with a factor other than 2 and 3 take the gather loop.
        // `process` is `process_unscaled` then `normalise`, per column as in
        // `Fft2Batch`'s batched column pass.
        for n in [20usize, 50] {
            let plan = FftPlan::new(n);
            assert!(plan.is_bluestein(), "n {n}");
            let block = random_signal(5 * n, n as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                assert_columns_match(&plan, &block, 5, dir);
            }
        }
    }

    #[test]
    fn mixed_radix_matches_naive_dft_both_directions() {
        for n in [3usize, 6, 9, 12, 18, 24, 27, 36, 48, 54, 96, 243] {
            let plan = FftPlan::new(n);
            assert!(!plan.is_bluestein(), "n {n}");
            let x = random_signal(n, 300 + n as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut fast = x.clone();
                plan.process(&mut fast, dir);
                let err = max_abs_diff_c(&fast, &dft_naive(&x, dir));
                assert!(err < 1e-12 * n as f64, "n {n} {dir:?}: {err:e}");
            }
        }
    }

    #[test]
    fn mixed_radix_columns_match_per_column_transforms() {
        // The detector planes' lengths at 48³ and the fine grid's at 48³.
        for n in [48usize, 96] {
            let block = random_signal(7 * n, 400 + n as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                assert_columns_match(&FftPlan::new(n), &block, 7, dir);
            }
        }
    }

    #[test]
    fn fast_len_is_the_smallest_length_without_bluestein() {
        for min in 0..=600usize {
            let len = fast_len(min);
            assert!(len >= min && radices(len).is_some(), "{min}");
            assert!((min.max(1)..len).all(|n| radices(n).is_none()), "{min}");
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
            let mut back = fft(&x);
            FftPlan::new(n).process(&mut back, Direction::Inverse);
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
        // <F x, y> == <x, F^H y> where F^H is the unscaled inverse kernel:
        // radix 2, mixed radix and Bluestein.
        for n in [32, 48, 20] {
            let x = random_signal(n, 11);
            let y = random_signal(n, 12);
            let plan = FftPlan::new(n);
            let mut fx = x.clone();
            plan.process(&mut fx, Direction::Forward);
            let mut fhy = y.clone();
            plan.process_unscaled(&mut fhy, Direction::Inverse);
            let lhs: Complex64 = fx.iter().zip(&y).map(|(a, b)| *a * b.conj()).sum();
            let rhs: Complex64 = x.iter().zip(&fhy).map(|(a, b)| *a * b.conj()).sum();
            assert!((lhs - rhs).abs() < 1e-9, "n {n}");
        }
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![Complex64::new(3.0, -2.0)];
        assert_eq!(fft(&x), x);
        let mut back = x.clone();
        FftPlan::new(1).process(&mut back, Direction::Inverse);
        assert_eq!(back, x);
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
