//! Lock-free metrics registry: sharded atomic counters plus per-stage
//! atomic histograms, fed by `Copy` per-thread scratch tables.
//!
//! The hot path never touches the registry directly. Workers accumulate
//! into stack-resident [`CounterTable`] / [`StageTable`] scratch (plain
//! `Copy` arrays, zero allocation) and fold them in at the ordered-commit
//! boundary — exactly the `MemoStats` discipline that keeps the fig22
//! ≤4-allocs-per-hit gate intact. Counter *reads* sum a small fixed number
//! of shards; snapshots are a memcpy-sized loop, never a lock.

use crate::hist::{Histogram, HIST_BUCKETS};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Identity of one scalar counter in the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Jobs admitted into the serving queue.
    JobsAdmitted,
    /// Jobs that ran every configured iteration.
    JobsCompleted,
    /// Jobs that panicked while running.
    JobsFailed,
    /// Jobs cancelled (queued or mid-run).
    JobsCancelled,
    /// Jobs whose deadline expired (queued or mid-run).
    JobsExpired,
    /// Outer ADMM iterations started.
    IterationsStarted,
    /// Operator batch applications committed.
    OperatorBatches,
    /// Chunks committed through the memoized operator path.
    ChunksCommitted,
    /// Chunks served from the process-local exact cache.
    CacheHitChunks,
    /// Chunks served from the shared memo database.
    DbHitChunks,
    /// Chunks that missed and ran the exact FFT.
    ComputedChunks,
    /// Chunks the norm prefilter routed straight to the exact FFT
    /// (no encode, no cache peek, no probe).
    PrefilteredChunks,
    /// Chunks of a memoizing dispatch the break-even gate sent straight to
    /// the exact FFT because a hit could not pay for the memo path at their
    /// kind and length (no fingerprint, no key, no store access). A subset
    /// of `ComputedChunks`.
    GatedChunks,
    /// Worker threads respawned after dying to a panic that escaped the
    /// per-job containment (the pool never shrinks).
    WorkerRestarts,
}

/// Number of counters in [`CounterId`].
pub const COUNTER_COUNT: usize = 14;

/// Stable snake_case names, indexable by `CounterId as usize`.
pub const COUNTER_NAMES: [&str; COUNTER_COUNT] = [
    "jobs_admitted",
    "jobs_completed",
    "jobs_failed",
    "jobs_cancelled",
    "jobs_expired",
    "iterations_started",
    "operator_batches",
    "chunks_committed",
    "cache_hit_chunks",
    "db_hit_chunks",
    "computed_chunks",
    "prefiltered_chunks",
    "gated_chunks",
    "worker_restarts",
];

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

/// Per-thread counter scratch: a `Copy` array on the worker's stack.
#[derive(Clone, Copy, Debug)]
pub struct CounterTable {
    /// Pending increments, indexable by `CounterId as usize`.
    pub counts: [u64; COUNTER_COUNT],
}

impl Default for CounterTable {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterTable {
    /// An all-zero table.
    pub const fn new() -> Self {
        Self {
            counts: [0; COUNTER_COUNT],
        }
    }

    /// Adds `n` to one counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counts[id as usize] += n;
    }

    /// Whether every pending increment is zero.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

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

/// Number of counter shards. Threads are striped across shards so
/// concurrent folds don't contend on one cache line.
const COUNTER_SHARDS: usize = 8;

#[repr(align(128))]
struct CounterShard {
    counts: [AtomicU64; COUNTER_COUNT],
}

impl CounterShard {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            counts: [ZERO; COUNTER_COUNT],
        }
    }
}

struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl AtomicHistogram {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
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

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn my_shard() -> usize {
    MY_SHARD.with(|cell| {
        let mut shard = cell.get();
        if shard == usize::MAX {
            shard = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            cell.set(shard);
        }
        shard
    })
}

/// The shared, lock-free metrics registry: sharded atomic counters and one
/// atomic histogram per hit-path stage.
pub struct MetricsRegistry {
    shards: [CounterShard; COUNTER_SHARDS],
    stages: [AtomicHistogram; STAGE_COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An all-zero registry.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const SHARD: CounterShard = CounterShard::new();
        #[allow(clippy::declare_interior_mutable_const)]
        const HIST: AtomicHistogram = AtomicHistogram::new();
        Self {
            shards: [SHARD; COUNTER_SHARDS],
            stages: [HIST; STAGE_COUNT],
        }
    }

    /// Adds `n` to one counter on the calling thread's shard.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.shards[my_shard()].counts[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Folds a whole scratch table in — one atomic add per non-zero entry.
    pub fn fold_counters(&self, scratch: &CounterTable) {
        let shard = &self.shards[my_shard()];
        for (slot, &n) in shard.counts.iter().zip(scratch.counts.iter()) {
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Folds per-stage scratch histograms in.
    pub fn fold_stages(&self, scratch: &StageTable) {
        for (stage, hist) in self.stages.iter().zip(scratch.stages.iter()) {
            stage.fold(hist);
        }
    }

    /// Current value of one counter (sums all shards).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counts[id as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Consistent copy of one stage histogram.
    pub fn stage(&self, id: StageId) -> Histogram {
        self.stages[id as usize].load()
    }

    /// Copies every counter and stage histogram out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = [0u64; COUNTER_COUNT];
        for shard in &self.shards {
            for (slot, count) in counters.iter_mut().zip(shard.counts.iter()) {
                *slot += count.load(Ordering::Relaxed);
            }
        }
        let mut stages = [Histogram::new(); STAGE_COUNT];
        for (slot, stage) in stages.iter_mut().zip(self.stages.iter()) {
            *slot = stage.load();
        }
        MetricsSnapshot { counters, stages }
    }
}

/// A point-in-time copy of the registry, `Copy` and self-contained.
#[derive(Clone, Copy, Debug)]
pub struct MetricsSnapshot {
    /// Counter values, indexable by `CounterId as usize`.
    pub counters: [u64; COUNTER_COUNT],
    /// Stage histograms, indexable by `StageId as usize`.
    pub stages: [Histogram; STAGE_COUNT],
}

impl MetricsSnapshot {
    /// Value of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// One stage histogram.
    pub fn stage(&self, id: StageId) -> &Histogram {
        &self.stages[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_and_snapshot_round_trip() {
        let registry = MetricsRegistry::new();
        let mut scratch = CounterTable::new();
        scratch.add(CounterId::CacheHitChunks, 24);
        scratch.add(CounterId::ChunksCommitted, 24);
        registry.fold_counters(&scratch);
        registry.add(CounterId::JobsAdmitted, 1);

        let mut stages = StageTable::new();
        stages.record(StageId::Encode, 2_000);
        stages.record(StageId::Encode, 2_100);
        stages.record(StageId::PayloadCopy, 300);
        registry.fold_stages(&stages);

        let snap = registry.snapshot();
        assert_eq!(snap.counter(CounterId::CacheHitChunks), 24);
        assert_eq!(snap.counter(CounterId::ChunksCommitted), 24);
        assert_eq!(snap.counter(CounterId::JobsAdmitted), 1);
        assert_eq!(snap.counter(CounterId::JobsFailed), 0);
        assert_eq!(snap.stage(StageId::Encode).count, 2);
        assert_eq!(snap.stage(StageId::Encode).sum, 4_100);
        assert_eq!(snap.stage(StageId::PayloadCopy).count, 1);
        assert_eq!(snap.stage(StageId::MissFft).count, 0);
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
                        let mut scratch = CounterTable::new();
                        scratch.add(CounterId::ChunksCommitted, 1);
                        registry.fold_counters(&scratch);
                        let mut stages = StageTable::new();
                        stages.record(StageId::IvfProbe, 512);
                        registry.fold_stages(&stages);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(CounterId::ChunksCommitted),
            threads * per_thread
        );
        assert_eq!(snap.stage(StageId::IvfProbe).count, threads * per_thread);
        assert_eq!(
            snap.stage(StageId::IvfProbe).sum,
            threads * per_thread * 512
        );
    }

    #[test]
    fn names_line_up_with_ids() {
        assert_eq!(
            COUNTER_NAMES[CounterId::JobsExpired as usize],
            "jobs_expired"
        );
        assert_eq!(
            COUNTER_NAMES[CounterId::ComputedChunks as usize],
            "computed_chunks"
        );
        assert_eq!(
            COUNTER_NAMES[CounterId::PrefilteredChunks as usize],
            "prefiltered_chunks"
        );
        assert_eq!(
            COUNTER_NAMES[CounterId::GatedChunks as usize],
            "gated_chunks"
        );
        assert_eq!(
            COUNTER_NAMES[CounterId::WorkerRestarts as usize],
            "worker_restarts"
        );
        assert_eq!(STAGE_NAMES[StageId::Encode as usize], "encode");
        assert_eq!(STAGE_NAMES[StageId::MissFft as usize], "miss_fft");
        assert_eq!(STAGE_NAMES[StageId::Prefilter as usize], "prefilter");
        assert_eq!(STAGE_NAMES[StageId::Quantize as usize], "quantize");
        assert_eq!(STAGE_NAMES[StageId::Insert as usize], "insert");
    }
}
