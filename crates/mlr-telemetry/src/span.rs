//! Per-job lifecycle spans in a bounded ring-buffer journal.
//!
//! Every record carries a **logical tick** — a monotone sequence number
//! drawn from one atomic — so span *ordering* is deterministic wherever the
//! emitting code path is sequential (per-job iteration and operator spans
//! are emitted from the ordered-commit path, which runs on one thread in
//! chunk-index order regardless of the worker count). Every record also
//! carries its wall-clock time, which never influences ordering, so it
//! cannot perturb the bit-identity contracts.
//!
//! The ring is bounded: when full, the oldest record is overwritten and a
//! drop counter increments. Memory use is `capacity × 40 bytes`, fixed at
//! construction.

use crate::ring::Ring;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What a span record marks in a job's lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Job admitted into the queue (`arg` = 1 when it carries a deadline,
    /// else 0).
    Admitted,
    /// Worker picked the job up and started executing it.
    Running,
    /// An outer ADMM iteration began (`arg` = iteration index).
    Iteration,
    /// An operator batch committed (`arg` = chunks in the batch).
    Operator,
    /// Job ran every configured iteration (`arg` = iterations run).
    Completed,
    /// Job cancelled (`arg` = iterations completed before the stop; 0 when
    /// it never ran).
    Cancelled,
    /// Job deadline expired (`arg` = iterations completed before the stop;
    /// 0 when it never ran).
    Expired,
    /// Job panicked while running, or was in flight when its worker died.
    Failed,
}

impl SpanKind {
    /// Stable snake_case name for exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Admitted => "admitted",
            SpanKind::Running => "running",
            SpanKind::Iteration => "iteration",
            SpanKind::Operator => "operator",
            SpanKind::Completed => "completed",
            SpanKind::Cancelled => "cancelled",
            SpanKind::Expired => "expired",
            SpanKind::Failed => "failed",
        }
    }

    /// Whether this kind terminates a job's lifecycle.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SpanKind::Completed | SpanKind::Cancelled | SpanKind::Expired | SpanKind::Failed
        )
    }
}

/// One lifecycle event. `Copy`, fixed 40 bytes.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// The job this event belongs to.
    pub job: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Kind-specific argument (iteration index, batch chunk count, …).
    pub arg: u64,
    /// Logical tick: globally monotone, deterministic in sequential
    /// emission order.
    pub tick: u64,
    /// Nanoseconds since the journal was created.
    pub wall_ns: u64,
}

/// Bounded ring-buffer journal of [`SpanRecord`]s.
pub struct SpanJournal {
    tick: AtomicU64,
    epoch: Instant,
    ring: Ring<SpanRecord>,
}

impl SpanJournal {
    /// A journal holding at most `capacity` records (minimum 1), its wall
    /// clock measured from this call.
    #[expect(clippy::disallowed_methods, reason = "decoration: span wall epoch")]
    pub fn new(capacity: usize) -> Self {
        Self {
            tick: AtomicU64::new(0),
            epoch: Instant::now(),
            ring: Ring::new(capacity),
        }
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Current number of retained records (never exceeds capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Appends one record, overwriting the oldest when full. Allocation-free
    /// after the ring's one-time preallocation.
    pub fn record(&self, job: u64, kind: SpanKind, arg: u64) {
        let wall_ns = self.epoch.elapsed().as_nanos() as u64;
        // The tick is drawn under the ring lock, so ring order is tick order.
        self.ring.push_with(|| SpanRecord {
            job,
            kind,
            arg,
            tick: self.tick.fetch_add(1, Ordering::Relaxed),
            wall_ns,
        });
    }

    /// Copies the retained records out, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let journal = SpanJournal::new(4);
        for i in 0..10u64 {
            journal.record(i, SpanKind::Iteration, i);
        }
        assert_eq!(journal.len(), 4);
        assert_eq!(journal.dropped(), 6);
        let records = journal.snapshot();
        assert_eq!(records.len(), 4);
        let jobs: Vec<u64> = records.iter().map(|r| r.job).collect();
        assert_eq!(jobs, vec![6, 7, 8, 9], "oldest overwritten first");
        // Ticks are monotone in snapshot order.
        assert!(records.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    #[test]
    fn ticks_are_dense_from_zero() {
        let journal = SpanJournal::new(16);
        journal.record(1, SpanKind::Admitted, 0);
        journal.record(1, SpanKind::Running, 0);
        journal.record(1, SpanKind::Completed, 0);
        let records = journal.snapshot();
        let ticks: Vec<u64> = records.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2]);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let journal = SpanJournal::new(16);
        journal.record(1, SpanKind::Admitted, 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        journal.record(1, SpanKind::Completed, 0);
        let records = journal.snapshot();
        assert!(records[1].wall_ns > records[0].wall_ns);
    }
}
