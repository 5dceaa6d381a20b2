//! The steady hit-path driver `fig22_hotpath` and the allocation-region
//! test share: a fixed grid of random chunks pushed through the memoized
//! executor's zero-copy batch seam (`FftExecutor::execute_batch_into`), one
//! whole-grid `F_u2D` batch per ADMM iteration.

use crate::alloc::{delta, snapshot};
use mlr_fft::fft::{Direction, FftPlan};
use mlr_lamino::{ChunkRequest, FftExecutor, FftOpKind};
use mlr_math::rng::seeded;
use mlr_math::Complex64;
use mlr_memo::MemoizedExecutor;
use rand::Rng;
use std::time::Instant;

/// The chunk at grid location `loc`: `n` complex elements, uniform in
/// `[-0.5, 0.5)` per component, the same on every call.
pub fn chunk(loc: usize, n: usize) -> Vec<Complex64> {
    let mut rng = seeded(0xF1622 ^ loc as u64);
    (0..n)
        .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect()
}

/// The exact chunk compute a hit replaces: a forward FFT of length `n`.
pub fn fft_compute(n: usize) -> impl Fn(&[Complex64]) -> Vec<Complex64> + Sync {
    let plan = FftPlan::new(n);
    move |x: &[Complex64]| {
        let mut v = x.to_vec();
        plan.process(&mut v, Direction::Forward);
        v
    }
}

/// Drives `iterations` whole-grid batch dispatches (one per ADMM iteration,
/// starting at `first_iteration`) through the zero-copy seam and returns
/// `(seconds, allocations, bytes)` accumulated over them. The allocation
/// columns read the calling thread's counters, so they stay 0 unless the
/// process installed [`crate::alloc::CountingAllocator`].
pub fn drive(
    exec: &MemoizedExecutor,
    inputs: &[Vec<Complex64>],
    outputs: &mut [Vec<Complex64>],
    compute: &(dyn Fn(&[Complex64]) -> Vec<Complex64> + Sync),
    first_iteration: usize,
    iterations: usize,
) -> (f64, u64, u64) {
    let before = snapshot();
    #[expect(clippy::disallowed_methods, reason = "harness: measures wall time")]
    let start = Instant::now();
    for it in first_iteration..first_iteration + iterations {
        exec.begin_iteration(it);
        let batch: Vec<ChunkRequest<'_>> = inputs
            .iter()
            .enumerate()
            .map(|(loc, input)| ChunkRequest {
                loc,
                input,
                compute,
            })
            .collect();
        let mut slots: Vec<&mut [Complex64]> =
            outputs.iter_mut().map(|v| v.as_mut_slice()).collect();
        exec.execute_batch_into(FftOpKind::Fu2D, &batch, &mut slots);
    }
    let seconds = start.elapsed().as_secs_f64();
    let (allocs, bytes) = delta(before, snapshot());
    (seconds, allocs, bytes)
}
