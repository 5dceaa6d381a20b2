//! Runtime-wide statistics.

use mlr_memo::StoreStats;
use serde::{Deserialize, Serialize};

/// Deadline bookkeeping across all decided jobs (a job is *decided* once it
/// completed, expired in the queue, or expired mid-run; cancelled jobs and
/// jobs still in flight are undecided). Slack is signed seconds between the
/// deadline and the moment the job was decided: positive when it finished
/// with time to spare, negative when it was late (or skipped as expired).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DeadlineStats {
    /// Jobs admitted with a deadline.
    pub submitted: u64,
    /// Decided jobs that completed at or before their deadline.
    pub met: u64,
    /// Decided jobs that missed: expired (queued or mid-run) or completed
    /// past the deadline.
    pub missed: u64,
    /// Median slack over decided jobs, seconds.
    pub slack_p50_seconds: f64,
    /// 90th-percentile slack over decided jobs, seconds. Percentiles are
    /// taken over ascending slack, so the *low* tail (tight or missed
    /// deadlines) sits at p50 < p90 < p99 only when slack is plentiful —
    /// compare p50 against the miss rate when reading these.
    pub slack_p90_seconds: f64,
    /// 99th-percentile slack over decided jobs, seconds.
    pub slack_p99_seconds: f64,
}

impl DeadlineStats {
    /// Decided jobs (met + missed).
    pub fn decided(&self) -> u64 {
        self.met + self.missed
    }

    /// Fraction of decided jobs that missed their deadline (0 when no
    /// deadline-carrying job has been decided yet).
    pub fn miss_rate(&self) -> f64 {
        let decided = self.decided();
        if decided == 0 {
            0.0
        } else {
            self.missed as f64 / decided as f64
        }
    }
}

/// A snapshot of the runtime's aggregate behaviour: job throughput, queue
/// latency, worker utilisation, and the shared store's counters (including
/// the cross-job hit rate that quantifies what sharing one memoization
/// database across jobs buys).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Jobs admitted to the queue.
    pub submitted: u64,
    /// Jobs rejected by admission control.
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs that panicked while running (bad configurations); the worker
    /// survives and the job's handle resolves `Failed`.
    pub failed: u64,
    /// Workers respawned in place after a panic escaped the per-job
    /// containment. The pool's capacity never shrinks: every death is
    /// matched by a restart, and the job that was in flight resolves
    /// `Failed { retryable: true }` (counted in `failed` too).
    pub worker_restarts: u64,
    /// Jobs cancelled by their submitter — removed from the queue before
    /// running, or stopped at an ADMM iteration boundary mid-run.
    pub cancelled: u64,
    /// Jobs whose deadline passed — skipped at pop while still queued, or
    /// stopped at an iteration boundary mid-run.
    pub expired: u64,
    /// Jobs currently waiting in the queue.
    pub queued: usize,
    /// Wall-clock seconds since the runtime started.
    pub wall_seconds: f64,
    /// Total worker-busy seconds across all workers.
    pub busy_seconds: f64,
    /// Mean queue latency over every popped job that ran: completed,
    /// failed, and cancelled or expired mid-run alike.
    pub queue_seconds_mean: f64,
    /// Maximum queue latency over the same jobs as `queue_seconds_mean`.
    pub queue_seconds_max: f64,
    /// Utilisation of the store's tightest capacity cap in `[0, 1]` at
    /// snapshot time (0 for unbounded stores).
    pub store_pressure: f64,
    /// Counters of the shared memo store (including eviction counts and
    /// resident bytes under the capacity budget).
    pub store: StoreStats,
    /// Deadline outcomes and slack percentiles across decided jobs.
    pub deadline: DeadlineStats,
}

impl RuntimeStats {
    /// Completed jobs per wall-clock second.
    pub fn throughput_jobs_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.wall_seconds
        }
    }

    /// Fraction of worker capacity that was busy.
    pub fn utilisation(&self) -> f64 {
        let capacity = self.wall_seconds * self.workers as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / capacity).min(1.0)
        }
    }

    /// Store hit rate (all jobs).
    pub fn hit_rate(&self) -> f64 {
        self.store.hit_rate()
    }

    /// Fraction of store queries served by an entry another job inserted —
    /// the headline number of the shared-store design.
    pub fn cross_job_hit_rate(&self) -> f64 {
        self.store.cross_job_hit_rate()
    }

    /// Entries evicted from the shared store to satisfy its budget.
    pub fn evictions(&self) -> u64 {
        self.store.evictions
    }

    /// Resident bytes of the shared store (values + raw inputs + keys).
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes
    }

    /// Store hit rate over only the queries issued while the store was
    /// under capacity pressure — how well the replacement rule preserves
    /// reuse once the budget binds.
    pub fn hit_rate_under_pressure(&self) -> f64 {
        self.store.hit_rate_under_pressure()
    }

    /// Fraction of decided deadline-carrying jobs that missed their
    /// deadline — the runtime's headline serving-quality number.
    pub fn deadline_miss_rate(&self) -> f64 {
        self.deadline.miss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = RuntimeStats {
            workers: 4,
            submitted: 10,
            rejected: 2,
            completed: 8,
            failed: 0,
            worker_restarts: 0,
            cancelled: 1,
            expired: 2,
            queued: 0,
            wall_seconds: 2.0,
            busy_seconds: 4.0,
            queue_seconds_mean: 0.1,
            queue_seconds_max: 0.5,
            store_pressure: 0.75,
            store: StoreStats {
                entries: 100,
                queries: 50,
                hits: 20,
                cross_job_hits: 10,
                inserts: 30,
                value_bytes: 1 << 20,
                refused_inserts: 0,
                evictions: 12,
                resident_bytes: 3 << 20,
                peak_resident_bytes: 3 << 20,
                pressure_queries: 10,
                pressure_hits: 4,
            },
            deadline: DeadlineStats {
                submitted: 5,
                met: 3,
                missed: 1,
                slack_p50_seconds: 0.8,
                slack_p90_seconds: 2.0,
                slack_p99_seconds: 2.4,
            },
        };
        assert!((s.throughput_jobs_per_second() - 4.0).abs() < 1e-12);
        assert!((s.utilisation() - 0.5).abs() < 1e-12);
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
        assert!((s.cross_job_hit_rate() - 0.2).abs() < 1e-12);
        assert_eq!(s.evictions(), 12);
        assert_eq!(s.resident_bytes(), 3 << 20);
        assert!((s.hit_rate_under_pressure() - 0.4).abs() < 1e-12);
        assert_eq!(s.deadline.decided(), 4);
        assert!((s.deadline_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_deadline_stats_report_zero_miss_rate() {
        let d = DeadlineStats::default();
        assert_eq!(d.decided(), 0);
        assert_eq!(d.miss_rate(), 0.0);
    }
}
