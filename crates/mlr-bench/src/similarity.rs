//! Chunk-similarity tracking across ADMM iterations, for Figure 4.
//!
//! Figure 4 of the paper motivates memoization: at a fixed chunk location,
//! the FFT input of the current iteration is often similar (cosine
//! similarity above τ) to inputs seen in *previous* iterations, and the
//! number of such similar prior chunks grows as ADMM converges. The tracker
//! records the chunk at each location every iteration and reports exactly
//! that count. [`SimilarityRecorder`] feeds it from outside the memo engine:
//! it wraps the executor a reconstruction runs through and notes every
//! `F_u2D` chunk input before delegating.

use mlr_lamino::{ChunkRequest, FftExecutor, FftOpKind};
use mlr_math::norms::cosine_similarity_c;
use mlr_math::Complex64;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Record of similarity counts for one (location, iteration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityPoint {
    /// Chunk location.
    pub location: usize,
    /// ADMM iteration index.
    pub iteration: usize,
    /// Number of prior iterations whose chunk at this location was similar
    /// (cosine similarity > τ).
    pub similar_prior_chunks: usize,
}

/// Tracks per-location chunk history and counts similar prior chunks.
#[derive(Debug, Default)]
pub struct SimilarityTracker {
    tau: f64,
    history: HashMap<usize, Vec<Vec<Complex64>>>,
    points: Vec<SimilarityPoint>,
}

impl SimilarityTracker {
    /// Creates a tracker with similarity threshold `tau` (the paper uses
    /// τ = 0.93 for Figure 4).
    pub fn new(tau: f64) -> Self {
        Self {
            tau,
            history: HashMap::new(),
            points: Vec::new(),
        }
    }

    /// The similarity threshold.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Records the chunk observed at `location` in `iteration` and returns
    /// the number of similar chunks in prior iterations at that location.
    pub fn record(&mut self, location: usize, iteration: usize, chunk: &[Complex64]) -> usize {
        let history = self.history.entry(location).or_default();
        let similar = history
            .iter()
            .filter(|prev| cosine_similarity_c(chunk, prev) > self.tau)
            .count();
        history.push(chunk.to_vec());
        self.points.push(SimilarityPoint {
            location,
            iteration,
            similar_prior_chunks: similar,
        });
        similar
    }

    /// All recorded points, in recording order.
    pub fn points(&self) -> &[SimilarityPoint] {
        &self.points
    }

    /// The similarity series for one location: `(iteration, count)` pairs.
    pub fn series(&self, location: usize) -> Vec<(usize, usize)> {
        self.points
            .iter()
            .filter(|p| p.location == location)
            .map(|p| (p.iteration, p.similar_prior_chunks))
            .collect()
    }

    /// Fraction of recorded iterations (excluding each location's first) in
    /// which at least one similar prior chunk existed — the paper reports
    /// ~70 %.
    pub fn fraction_with_similar(&self) -> f64 {
        let eligible: Vec<&SimilarityPoint> =
            self.points.iter().filter(|p| p.iteration > 0).collect();
        if eligible.is_empty() {
            return 0.0;
        }
        eligible
            .iter()
            .filter(|p| p.similar_prior_chunks > 0)
            .count() as f64
            / eligible.len() as f64
    }

    /// Number of distinct locations tracked.
    pub fn locations(&self) -> usize {
        self.history.len()
    }
}

/// An [`FftExecutor`] that notes every `F_u2D` chunk input it is handed, per
/// location, at the iteration [`FftExecutor::begin_iteration`] announced,
/// and then delegates to the executor it wraps. One operation only: a
/// location index means a different chunk (and length) in each operation's
/// grid. Wrapping a memoized executor with warm-up 0 sees every chunk the
/// engine memoizes, in the engine's commit order.
pub struct SimilarityRecorder<E> {
    inner: E,
    iteration: AtomicUsize,
    tracker: Mutex<SimilarityTracker>,
}

impl<E: FftExecutor> SimilarityRecorder<E> {
    /// Wraps `inner`, counting similar prior chunks at threshold `tau`.
    pub fn new(inner: E, tau: f64) -> Self {
        Self {
            inner,
            iteration: AtomicUsize::new(0),
            tracker: Mutex::new(SimilarityTracker::new(tau)),
        }
    }

    /// What was recorded.
    pub fn into_tracker(self) -> SimilarityTracker {
        self.tracker.into_inner()
    }

    fn note(&self, kind: FftOpKind, loc: usize, input: &[Complex64]) {
        if kind == FftOpKind::Fu2D {
            let iteration = self.iteration.load(Ordering::Relaxed);
            self.tracker.lock().record(loc, iteration, input);
        }
    }
}

impl<E: FftExecutor> FftExecutor for SimilarityRecorder<E> {
    fn execute(
        &self,
        kind: FftOpKind,
        loc: usize,
        input: &[Complex64],
        compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
    ) -> Vec<Complex64> {
        self.note(kind, loc, input);
        self.inner.execute(kind, loc, input, compute)
    }

    fn execute_batch_into(
        &self,
        kind: FftOpKind,
        batch: &[ChunkRequest<'_>],
        outputs: &mut [&mut [Complex64]],
    ) {
        for request in batch {
            self.note(kind, request.loc, request.input);
        }
        self.inner.execute_batch_into(kind, batch, outputs);
    }

    fn begin_iteration(&self, iteration: usize) {
        self.iteration.store(iteration, Ordering::Relaxed);
        self.inner.begin_iteration(iteration);
    }

    fn finish(&self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_memo::{MemoConfig, MemoizedExecutor};

    fn chunk(scale: f64, phase: f64) -> Vec<Complex64> {
        (0..64)
            .map(|i| {
                let t = i as f64 / 64.0;
                Complex64::new(scale * (4.0 * t + phase).sin(), scale * t)
            })
            .collect()
    }

    #[test]
    fn converging_sequence_accumulates_similar_chunks() {
        let mut tracker = SimilarityTracker::new(0.93);
        // Simulate convergence: the chunk changes less and less.
        let mut counts = Vec::new();
        for it in 0..10 {
            let scale = 1.0 + 1.0 / (1.0 + it as f64);
            let c = chunk(scale, 0.02 / (1.0 + it as f64));
            counts.push(tracker.record(7, it, &c));
        }
        assert_eq!(counts[0], 0);
        // Later iterations see more similar prior chunks than early ones.
        assert!(counts[9] > counts[1], "counts {counts:?}");
        assert_eq!(tracker.locations(), 1);
        assert_eq!(tracker.series(7).len(), 10);
        assert!(tracker.fraction_with_similar() > 0.5);
    }

    #[test]
    fn dissimilar_sequence_never_matches() {
        let mut tracker = SimilarityTracker::new(0.99);
        for it in 0..5 {
            // Wildly different phases each iteration.
            let c = chunk(1.0, it as f64 * 1.7);
            let similar = tracker.record(0, it, &c);
            assert_eq!(similar, 0, "iteration {it}");
        }
        assert_eq!(tracker.fraction_with_similar(), 0.0);
    }

    #[test]
    fn locations_are_independent() {
        let mut tracker = SimilarityTracker::new(0.9);
        tracker.record(0, 0, &chunk(1.0, 0.0));
        let similar_other_loc = tracker.record(1, 1, &chunk(1.0, 0.0));
        assert_eq!(similar_other_loc, 0);
        let similar_same_loc = tracker.record(0, 1, &chunk(1.0, 0.0));
        assert_eq!(similar_same_loc, 1);
        assert_eq!(tracker.tau(), 0.9);
        assert_eq!(tracker.points().len(), 3);
    }

    #[test]
    fn recorder_collects_fu2d_series() {
        let memo = MemoizedExecutor::private(MemoConfig {
            tau: 0.9,
            warmup_iterations: 0,
            ..Default::default()
        });
        let recorder = SimilarityRecorder::new(memo, 0.9);
        let fake_fft = |x: &[Complex64]| x.iter().map(|z| Complex64::new(-z.im, z.re)).collect();
        let base = chunk(1.0, 0.3);
        for it in 0..4 {
            recorder.begin_iteration(it);
            let scaled: Vec<Complex64> = base
                .iter()
                .map(|z| z.scale(1.0 + 0.001 * it as f64))
                .collect();
            let _ = recorder.execute(FftOpKind::Fu2D, 2, &scaled, &fake_fft);
            // Another operation's chunk at the same location index is a
            // different chunk: not part of the series.
            let _ = recorder.execute(FftOpKind::Fu2DAdj, 2, &chunk(3.0, 1.1), &fake_fft);
        }
        let tracker = recorder.into_tracker();
        let series = tracker.series(2);
        assert_eq!(series.len(), 4);
        assert_eq!(series[0], (0, 0));
        assert_eq!(series[3], (3, 3));
        assert!(tracker.fraction_with_similar() > 0.0);
    }
}
