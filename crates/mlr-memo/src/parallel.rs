//! Intra-job chunk parallelism: the global concurrency governor and the
//! per-job parallel-execution statistics.
//!
//! The memoized executor runs the parallel phase of its two-phase batch
//! protocol on up to `intra_job_threads` threads. When many jobs run side by
//! side (the `mlr-runtime` worker pool), handing every job its full thread
//! allowance would oversubscribe the machine: `workers × intra_job_threads`
//! can exceed the core count. The [`ConcurrencyGovernor`] is the shared
//! arbiter — each worker thread implicitly owns one core, and a job must
//! *lease* every extra chunk thread from the governor's pool of spare cores.
//! Acquisition is best-effort and never blocks (a job that gets nothing
//! simply runs its batch sequentially), so the governor can never deadlock
//! the pool, and — because thread count never affects results under the
//! deterministic two-phase schedule — a partial grant only changes wall
//! time, never the reconstruction.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Arbiter of the spare cores that chunk-level threads may use on top of the
/// one core each job already occupies.
#[derive(Debug)]
pub struct ConcurrencyGovernor {
    /// Spare cores available for extra chunk threads (beyond the one core
    /// per job).
    capacity: usize,
    in_use: AtomicUsize,
    peak_in_use: AtomicUsize,
}

impl ConcurrencyGovernor {
    /// A governor over `extra_capacity` spare cores.
    pub fn new(extra_capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            capacity: extra_capacity,
            in_use: AtomicUsize::new(0),
            peak_in_use: AtomicUsize::new(0),
        })
    }

    /// A governor sized for a worker pool: `workers` job-level threads each
    /// own one core of a `total_cores` budget; whatever is left over may be
    /// leased as extra chunk threads. `workers × chunk threads` therefore
    /// never exceeds `max(total_cores, workers)`.
    pub fn for_pool(total_cores: usize, workers: usize) -> Arc<Self> {
        Self::new(total_cores.saturating_sub(workers))
    }

    /// Spare cores this governor arbitrates.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spare cores currently leased.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of leased spare cores — never exceeds
    /// [`Self::capacity`].
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use.load(Ordering::Relaxed)
    }

    /// Leases up to `want` spare cores, granting whatever is available right
    /// now (possibly zero) without blocking. The lease returns its cores on
    /// drop.
    pub fn acquire(self: &Arc<Self>, want: usize) -> CoreLease {
        let mut granted = 0;
        if want > 0 {
            let mut current = self.in_use.load(Ordering::Relaxed);
            loop {
                let take = want.min(self.capacity.saturating_sub(current));
                if take == 0 {
                    break;
                }
                match self.in_use.compare_exchange(
                    current,
                    current + take,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        granted = take;
                        self.peak_in_use
                            .fetch_max(current + take, Ordering::Relaxed);
                        break;
                    }
                    Err(observed) => current = observed,
                }
            }
        }
        CoreLease {
            governor: Arc::clone(self),
            granted,
        }
    }
}

/// A lease of spare cores; returns them to the governor on drop.
#[derive(Debug)]
pub struct CoreLease {
    governor: Arc<ConcurrencyGovernor>,
    granted: usize,
}

impl CoreLease {
    /// How many spare cores this lease actually holds (≤ what was asked).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for CoreLease {
    fn drop(&mut self) {
        if self.granted > 0 {
            self.governor
                .in_use
                .fetch_sub(self.granted, Ordering::Release);
        }
    }
}

/// Per-job statistics of the batched chunk scheduler.
///
/// Thread counts are summed over batch dispatches, so
/// `threads_granted / threads_requested` is the fraction of the asked-for
/// parallelism the governor actually granted. Where the time went is the
/// telemetry stage histograms' business; this table only counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelStats {
    /// Batch dispatches executed.
    pub batches: u64,
    /// Chunk tasks executed across all batches.
    pub chunks: u64,
    /// Σ over batches of the thread count the executor asked for.
    pub threads_requested: u64,
    /// Σ over batches of the thread count actually used after the governor's
    /// grant.
    pub threads_granted: u64,
}

impl ParallelStats {
    /// Fraction of the requested parallelism the governor granted, in
    /// `(0, 1]`; `1.0` when nothing was ever requested.
    pub fn grant_ratio(&self) -> f64 {
        if self.threads_requested == 0 {
            1.0
        } else {
            self.threads_granted as f64 / self.threads_requested as f64
        }
    }

    /// Mean threads used per batch dispatch.
    pub fn mean_threads(&self) -> f64 {
        crate::stats::ratio(self.threads_granted, self.batches)
    }

    /// Merges another job's statistics into this aggregate.
    pub fn merge(&mut self, other: &ParallelStats) {
        self.batches += other.batches;
        self.chunks += other.chunks;
        self.threads_requested += other.threads_requested;
        self.threads_granted += other.threads_granted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governor_grants_up_to_capacity() {
        let g = ConcurrencyGovernor::new(3);
        let a = g.acquire(2);
        assert_eq!(a.granted(), 2);
        let b = g.acquire(2);
        assert_eq!(b.granted(), 1, "only one spare core left");
        let c = g.acquire(2);
        assert_eq!(c.granted(), 0, "pool exhausted grants nothing");
        assert_eq!(g.in_use(), 3);
        drop(b);
        assert_eq!(g.in_use(), 2);
        let d = g.acquire(5);
        assert_eq!(d.granted(), 1);
        assert_eq!(g.peak_in_use(), 3);
        assert!(g.peak_in_use() <= g.capacity());
    }

    #[test]
    fn for_pool_reserves_one_core_per_worker() {
        assert_eq!(ConcurrencyGovernor::for_pool(8, 2).capacity(), 6);
        assert_eq!(ConcurrencyGovernor::for_pool(2, 4).capacity(), 0);
    }

    #[test]
    fn zero_want_is_a_noop() {
        let g = ConcurrencyGovernor::new(2);
        let lease = g.acquire(0);
        assert_eq!(lease.granted(), 0);
        assert_eq!(g.in_use(), 0);
    }

    #[test]
    fn stats_ratios() {
        let s = ParallelStats {
            batches: 2,
            chunks: 8,
            threads_requested: 8,
            threads_granted: 6,
        };
        assert!((s.grant_ratio() - 0.75).abs() < 1e-12);
        assert!((s.mean_threads() - 3.0).abs() < 1e-12);
        let mut t = ParallelStats::default();
        assert_eq!(t.grant_ratio(), 1.0);
        assert_eq!(t.mean_threads(), 0.0);
        t.merge(&s);
        assert_eq!(t, s);
    }
}
