//! Store access-trace recorder: the input the distributed memo tier needs.
//!
//! Figures 15–16 of the paper (memory-node utilisation, latency CDFs) need
//! the store's real traffic. This recorder captures the access stream —
//! entry id, operator, stripe, hit/miss/evict, logical store tick — which
//! `mlr_cluster::replay_trace` prices through the link model (`fig24`
//! reports both quantities for a recorded multi-job run). Records are emitted only from the store's *ordered-commit*
//! paths with `StoreClock` ticks, so the trace is deterministic for a given
//! workload regardless of worker or shard-probe interleaving.

use crate::ring::Ring;

/// What kind of store access a record captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A query served by an existing entry.
    Hit,
    /// A query that found no admissible entry.
    Miss,
    /// A fresh entry inserted.
    Insert,
    /// An entry evicted under byte/entry pressure.
    Evict,
    /// An entry lost with its crashed memory node (fault injection): no
    /// link traffic, no eviction-policy involvement — it simply vanished.
    Lost,
    /// The distributed tier replicated the entry on the compute side:
    /// later hits on it are local until a `Demote` (or the entry's
    /// `Evict` / `Lost`).
    Promote,
    /// The distributed tier dropped the entry's replica to make room.
    Demote,
}

impl AccessKind {
    /// Stable snake_case name for exports.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Hit => "hit",
            AccessKind::Miss => "miss",
            AccessKind::Insert => "insert",
            AccessKind::Evict => "evict",
            AccessKind::Lost => "lost",
            AccessKind::Promote => "promote",
            AccessKind::Demote => "demote",
        }
    }
}

/// One store access. `Copy`, fixed-size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// Store entry id (`0` when the access resolved no entry, e.g. a miss).
    pub entry: u64,
    /// Operator kind discriminant (`FftOpKind as u8`).
    pub op: u8,
    /// Store stripe (shard) index the access landed on.
    pub stripe: u32,
    /// What happened.
    pub kind: AccessKind,
    /// The store's logical clock at the access — deterministic.
    pub tick: u64,
}

/// Bounded ring of [`AccessRecord`]s, overwriting the oldest when full.
pub struct AccessTrace {
    ring: Ring<AccessRecord>,
}

impl AccessTrace {
    /// A trace holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
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

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Appends one record, overwriting the oldest when full.
    pub fn record(&self, record: AccessRecord) {
        self.ring.push_with(|| record);
    }

    /// Copies the retained records out, oldest first.
    pub fn snapshot(&self) -> Vec<AccessRecord> {
        self.ring.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ring_is_bounded() {
        let trace = AccessTrace::new(3);
        for tick in 0..7u64 {
            trace.record(AccessRecord {
                entry: tick,
                op: 0,
                stripe: 0,
                kind: AccessKind::Hit,
                tick,
            });
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 4);
        let ticks: Vec<u64> = trace.snapshot().iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![4, 5, 6]);
    }
}
