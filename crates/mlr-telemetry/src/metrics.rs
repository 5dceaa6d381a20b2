//! Lock-free stage-timing registry: one atomic histogram per hit-path
//! stage, fed by a `Copy` per-thread scratch table.
//!
//! The hot path never touches the registry directly. Workers accumulate
//! into a stack-resident [`StageTable`] (plain `Copy` arrays, zero
//! allocation) and fold it in at the ordered-commit boundary — the
//! `MemoStats` discipline that keeps the fig22 ≤4-allocs-per-hit gate
//! intact. Counts live with the layer that owns them (`MemoStats`,
//! `RuntimeStats`); this registry keeps only time.
//! Snapshots are a memcpy-sized loop, never a lock.

use crate::hist::{Histogram, HIST_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};

/// One timed stage of the memo-hit path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum StageId {
    /// Sketching the chunk input into its key (after a cache miss).
    Encode,
    /// Peek of the compute-node cache: the τ gate on the raw chunk.
    CachePeek,
    /// Probe of the memo database: the scope's flat key scan, then the τ
    /// gate. The name is `examples/benchmark`'s (the index was an IVF once).
    IvfProbe,
    /// Copying the hit payload into the output slot at ordered commit.
    PayloadCopy,
    /// The exact FFT executed on a miss.
    MissFft,
    /// Fingerprint computation + doorkeeper consultation before cache and
    /// key (the norm prefilter).
    Prefilter,
    /// Nothing records it. Exists for `examples/benchmark`'s frozen
    /// `probe_s` sum; a `[benchmark]` PR removes it.
    Quantize,
    /// Storing a missed chunk at ordered commit: narrowing input and output
    /// to the stored format, the index add and the budget enforcement.
    Insert,
}

/// Number of stages in [`StageId`].
pub const STAGE_COUNT: usize = 8;

/// Stable snake_case names, indexable by `StageId as usize`.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "encode",
    "cache_peek",
    "ivf_probe",
    "payload_copy",
    "miss_fft",
    "prefilter",
    "quantize",
    "insert",
];

/// Per-thread stage-timer scratch: one histogram per hit-path stage,
/// `Copy`, stack-resident, folded into the registry at ordered commit.
#[derive(Clone, Copy, Debug)]
pub struct StageTable {
    /// Pending per-stage histograms, indexable by `StageId as usize`.
    pub stages: [Histogram; STAGE_COUNT],
}

impl Default for StageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl StageTable {
    /// An all-empty table.
    pub const fn new() -> Self {
        Self {
            stages: [Histogram::new(); STAGE_COUNT],
        }
    }

    /// Records one nanosecond sample for a stage.
    #[inline]
    pub fn record(&mut self, stage: StageId, nanos: u64) {
        self.stages[stage as usize].record(nanos);
    }

    /// Whether no stage recorded anything.
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|s| s.is_empty())
    }
}

struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl AtomicHistogram {
    const fn new() -> Self {
        #[expect(clippy::declare_interior_mutable_const, reason = "array-repeat seed")]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HIST_BUCKETS],
        }
    }

    fn fold(&self, scratch: &Histogram) {
        if scratch.count == 0 {
            return;
        }
        self.count.fetch_add(scratch.count, Ordering::Relaxed);
        self.sum.fetch_add(scratch.sum, Ordering::Relaxed);
        for (slot, &n) in self.buckets.iter().zip(scratch.buckets.iter()) {
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn load(&self) -> Histogram {
        let mut out = Histogram::new();
        out.count = self.count.load(Ordering::Relaxed);
        out.sum = self.sum.load(Ordering::Relaxed);
        for (slot, bucket) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// The shared, lock-free metrics registry: one atomic histogram per
/// hit-path stage.
pub struct MetricsRegistry {
    stages: [AtomicHistogram; STAGE_COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An all-empty registry.
    pub const fn new() -> Self {
        #[expect(clippy::declare_interior_mutable_const, reason = "array-repeat seed")]
        const HIST: AtomicHistogram = AtomicHistogram::new();
        Self {
            stages: [HIST; STAGE_COUNT],
        }
    }

    /// Folds per-stage scratch histograms in.
    pub fn fold_stages(&self, scratch: &StageTable) {
        for (stage, hist) in self.stages.iter().zip(scratch.stages.iter()) {
            stage.fold(hist);
        }
    }

    /// Consistent copy of one stage histogram.
    pub fn stage(&self, id: StageId) -> Histogram {
        self.stages[id as usize].load()
    }

    /// Copies every stage histogram out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut stages = [Histogram::new(); STAGE_COUNT];
        for (slot, stage) in stages.iter_mut().zip(self.stages.iter()) {
            *slot = stage.load();
        }
        MetricsSnapshot { stages }
    }
}

/// A point-in-time copy of the registry, `Copy` and self-contained.
#[derive(Clone, Copy, Debug)]
pub struct MetricsSnapshot {
    /// Stage histograms, indexable by `StageId as usize`.
    pub stages: [Histogram; STAGE_COUNT],
}

impl MetricsSnapshot {
    /// One stage histogram.
    pub fn stage(&self, id: StageId) -> &Histogram {
        &self.stages[id as usize]
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests drive real threads")]
mod tests {
    use super::*;

    #[test]
    fn fold_and_snapshot_round_trip() {
        let registry = MetricsRegistry::new();
        let mut stages = StageTable::new();
        stages.record(StageId::Encode, 2_000);
        stages.record(StageId::Encode, 2_100);
        stages.record(StageId::PayloadCopy, 300);
        registry.fold_stages(&stages);

        let snap = registry.snapshot();
        assert_eq!(snap.stage(StageId::Encode).count, 2);
        assert_eq!(snap.stage(StageId::Encode).sum, 4_100);
        assert_eq!(snap.stage(StageId::PayloadCopy).count, 1);
        assert_eq!(snap.stage(StageId::MissFft).count, 0);
        assert_eq!(registry.stage(StageId::Encode).sum, 4_100);
    }

    #[test]
    fn concurrent_folds_lose_nothing() {
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 1000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let registry = std::sync::Arc::clone(&registry);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        let mut stages = StageTable::new();
                        stages.record(StageId::IvfProbe, 512);
                        registry.fold_stages(&stages);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.stage(StageId::IvfProbe).count, threads * per_thread);
        assert_eq!(
            snap.stage(StageId::IvfProbe).sum,
            threads * per_thread * 512
        );
    }

    #[test]
    fn names_line_up_with_ids() {
        assert_eq!(STAGE_NAMES[StageId::Encode as usize], "encode");
        assert_eq!(STAGE_NAMES[StageId::PayloadCopy as usize], "payload_copy");
        assert_eq!(STAGE_NAMES[StageId::MissFft as usize], "miss_fft");
        assert_eq!(STAGE_NAMES[StageId::Prefilter as usize], "prefilter");
        assert_eq!(STAGE_NAMES[StageId::Quantize as usize], "quantize");
        assert_eq!(STAGE_NAMES[StageId::Insert as usize], "insert");
    }
}
