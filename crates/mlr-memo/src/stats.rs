//! Memoization statistics.
//!
//! The engine classifies every memoizable FFT invocation into the three cases
//! of the paper's §6.4 breakdown (Figure 10):
//!
//! 1. **failed memoization** — no sufficiently similar entry exists; the FFT
//!    is computed and the result inserted into the database;
//! 2. **successful memoization** — a database entry is reused (remote round
//!    trip, no FFT);
//! 3. **cache hit** — the compute-node cache satisfies the query (no remote
//!    round trip, no FFT).

use mlr_lamino::FftOpKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How one memoizable FFT invocation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoCase {
    /// Computed exactly, without consulting the memoization system:
    /// memoization is disabled, the operation is a uniform FFT, the job is
    /// still in its warm-up iterations, or the chunk is below break-even
    /// (`memoization_pays` says a hit could not pay for the memo path at its
    /// kind and length).
    Computed,
    /// Case 1: database miss → compute + insert.
    FailedMemo,
    /// Case 2: database hit (value retrieved from the memory node).
    DbHit,
    /// Case 3: compute-node cache hit.
    CacheHit,
    /// Routed straight to the exact FFT by the norm prefilter: the chunk's
    /// fingerprint had no τ-band neighbor in the scope's recent history, so
    /// encode, cache peek and database probe were all skipped.
    Prefiltered,
}

/// Per-operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OpStats {
    /// Invocations computed without consulting the memoization system:
    /// disabled, uniform FFT, warm-up or below break-even.
    pub computed: u64,
    /// Case-1 invocations (miss + insert).
    pub failed_memo: u64,
    /// Case-2 invocations (database hit).
    pub db_hits: u64,
    /// Case-3 invocations (cache hit).
    pub cache_hits: u64,
    /// Invocations the norm prefilter routed straight to the exact FFT.
    pub prefiltered: u64,
    /// Wall-clock seconds spent inside the exact compute closure.
    pub compute_seconds: f64,
    /// Keys encoded.
    pub keys_encoded: u64,
    /// Bytes shipped to/from the memory node (keys + values).
    pub remote_bytes: u64,
}

impl OpStats {
    /// Total memoizable invocations.
    pub fn total(&self) -> u64 {
        self.computed + self.failed_memo + self.db_hits + self.cache_hits + self.prefiltered
    }

    /// Fraction of invocations whose FFT computation was avoided.
    pub fn avoided_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.db_hits + self.cache_hits) as f64 / total as f64
        }
    }
}

/// The operation kinds in dense-index order — the canonical array defined
/// next to [`FftOpKind::index`] (pinned to be its inverse by a test there).
const KINDS: [FftOpKind; 6] = FftOpKind::DENSE;

/// Fixed-arity per-operation counter table — the engine's internal, `Copy`
/// representation of [`MemoStats`].
///
/// Snapshotting a hash-map-backed `MemoStats` under the engine's state lock
/// cloned (and allocated) on every `stats()` call; this table is a plain
/// array of `Copy` counters, so a snapshot is one memcpy and the conversion
/// to the reporting shape happens outside the lock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpStatsTable {
    per_op: [OpStats; KINDS.len()],
}

impl Default for OpStatsTable {
    fn default() -> Self {
        Self {
            per_op: [OpStats::default(); KINDS.len()],
        }
    }
}

impl OpStatsTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one invocation outcome.
    pub fn record(&mut self, op: FftOpKind, case: MemoCase) {
        let entry = &mut self.per_op[op.index()];
        match case {
            MemoCase::Computed => entry.computed += 1,
            MemoCase::FailedMemo => entry.failed_memo += 1,
            MemoCase::DbHit => entry.db_hits += 1,
            MemoCase::CacheHit => entry.cache_hits += 1,
            MemoCase::Prefiltered => entry.prefiltered += 1,
        }
    }

    /// Adds compute wall-clock time for an operation.
    pub fn add_compute_time(&mut self, op: FftOpKind, seconds: f64) {
        self.per_op[op.index()].compute_seconds += seconds;
    }

    /// Adds one encoded key for an operation.
    pub fn add_encoded_key(&mut self, op: FftOpKind) {
        self.per_op[op.index()].keys_encoded += 1;
    }

    /// Adds remote traffic for an operation.
    pub fn add_remote_bytes(&mut self, op: FftOpKind, bytes: u64) {
        self.per_op[op.index()].remote_bytes += bytes;
    }

    /// Counters for one operation.
    pub fn op(&self, op: FftOpKind) -> OpStats {
        self.per_op[op.index()]
    }

    /// Converts to the map-backed reporting shape (operations that never
    /// recorded anything are omitted, matching the map's historical
    /// contents).
    pub fn to_stats(&self) -> MemoStats {
        let mut out = MemoStats::new();
        for (kind, stats) in KINDS.iter().zip(&self.per_op) {
            if *stats != OpStats::default() {
                out.per_op.insert(*kind, *stats);
            }
        }
        out
    }
}

/// Aggregated statistics across operations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoStats {
    per_op: HashMap<FftOpKind, OpStats>,
}

impl MemoStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one invocation outcome.
    pub fn record(&mut self, op: FftOpKind, case: MemoCase) {
        let entry = self.per_op.entry(op).or_default();
        match case {
            MemoCase::Computed => entry.computed += 1,
            MemoCase::FailedMemo => entry.failed_memo += 1,
            MemoCase::DbHit => entry.db_hits += 1,
            MemoCase::CacheHit => entry.cache_hits += 1,
            MemoCase::Prefiltered => entry.prefiltered += 1,
        }
    }

    /// Adds compute wall-clock time for an operation.
    pub fn add_compute_time(&mut self, op: FftOpKind, seconds: f64) {
        self.per_op.entry(op).or_default().compute_seconds += seconds;
    }

    /// Adds one encoded key for an operation.
    pub fn add_encoded_key(&mut self, op: FftOpKind) {
        self.per_op.entry(op).or_default().keys_encoded += 1;
    }

    /// Adds remote traffic for an operation.
    pub fn add_remote_bytes(&mut self, op: FftOpKind, bytes: u64) {
        self.per_op.entry(op).or_default().remote_bytes += bytes;
    }

    /// Counters for one operation.
    pub fn op(&self, op: FftOpKind) -> OpStats {
        self.per_op.get(&op).copied().unwrap_or_default()
    }

    /// Sum over all operations.
    pub fn total(&self) -> OpStats {
        let mut out = OpStats::default();
        for s in self.per_op.values() {
            out.computed += s.computed;
            out.failed_memo += s.failed_memo;
            out.db_hits += s.db_hits;
            out.cache_hits += s.cache_hits;
            out.prefiltered += s.prefiltered;
            out.compute_seconds += s.compute_seconds;
            out.keys_encoded += s.keys_encoded;
            out.remote_bytes += s.remote_bytes;
        }
        out
    }

    /// Distribution of the three memoization cases over all memoizable
    /// invocations: `(failed, db_hit, cache_hit)` as fractions summing to 1
    /// (ignores plain computed invocations). Matches the paper's 53/19/28 %
    /// breakdown in §6.4.
    pub fn case_distribution(&self) -> (f64, f64, f64) {
        let t = self.total();
        let memoizable = (t.failed_memo + t.db_hits + t.cache_hits) as f64;
        if memoizable == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            t.failed_memo as f64 / memoizable,
            t.db_hits as f64 / memoizable,
            t.cache_hits as f64 / memoizable,
        )
    }

    /// Merges another set of statistics into this one.
    pub fn merge(&mut self, other: &MemoStats) {
        for (op, s) in &other.per_op {
            let entry = self.per_op.entry(*op).or_default();
            entry.computed += s.computed;
            entry.failed_memo += s.failed_memo;
            entry.db_hits += s.db_hits;
            entry.cache_hits += s.cache_hits;
            entry.prefiltered += s.prefiltered;
            entry.compute_seconds += s.compute_seconds;
            entry.keys_encoded += s.keys_encoded;
            entry.remote_bytes += s.remote_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_snapshot_matches_map_shape() {
        let mut table = OpStatsTable::new();
        let mut map = MemoStats::new();
        for (op, case) in [
            (FftOpKind::Fu2D, MemoCase::FailedMemo),
            (FftOpKind::Fu2D, MemoCase::DbHit),
            (FftOpKind::Fu1D, MemoCase::CacheHit),
            (FftOpKind::F2D, MemoCase::Computed),
        ] {
            table.record(op, case);
            map.record(op, case);
        }
        table.add_compute_time(FftOpKind::Fu2D, 0.5);
        map.add_compute_time(FftOpKind::Fu2D, 0.5);
        table.add_encoded_key(FftOpKind::Fu1D);
        map.add_encoded_key(FftOpKind::Fu1D);
        table.add_remote_bytes(FftOpKind::Fu2D, 64);
        map.add_remote_bytes(FftOpKind::Fu2D, 64);
        assert_eq!(table.to_stats(), map);
        assert_eq!(table.op(FftOpKind::Fu2D), map.op(FftOpKind::Fu2D));
        // Untouched operations are omitted from the map, as before.
        assert_eq!(table.op(FftOpKind::Fu2DAdj), OpStats::default());
        assert_eq!(table.to_stats().total().total(), map.total().total());
        // The snapshot itself is a plain copy.
        let snapshot = table;
        assert_eq!(snapshot.to_stats(), table.to_stats());
    }

    #[test]
    fn record_and_query() {
        let mut s = MemoStats::new();
        s.record(FftOpKind::Fu2D, MemoCase::FailedMemo);
        s.record(FftOpKind::Fu2D, MemoCase::DbHit);
        s.record(FftOpKind::Fu2D, MemoCase::CacheHit);
        s.record(FftOpKind::Fu1D, MemoCase::Computed);
        s.record(FftOpKind::Fu1D, MemoCase::Prefiltered);
        let fu2d = s.op(FftOpKind::Fu2D);
        assert_eq!(fu2d.total(), 3);
        assert!((fu2d.avoided_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.op(FftOpKind::Fu1D).prefiltered, 1);
        assert_eq!(s.total().total(), 5);
        // Prefiltered chunks run the exact FFT: they never count as avoided.
        assert_eq!(s.op(FftOpKind::Fu1D).avoided_fraction(), 0.0);
    }

    #[test]
    fn case_distribution_sums_to_one() {
        let mut s = MemoStats::new();
        for _ in 0..53 {
            s.record(FftOpKind::Fu2D, MemoCase::FailedMemo);
        }
        for _ in 0..19 {
            s.record(FftOpKind::Fu2D, MemoCase::DbHit);
        }
        for _ in 0..28 {
            s.record(FftOpKind::Fu2D, MemoCase::CacheHit);
        }
        let (f, d, c) = s.case_distribution();
        assert!((f + d + c - 1.0).abs() < 1e-12);
        assert!((f - 0.53).abs() < 1e-12);
        assert!((c - 0.28).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_is_zero() {
        let s = MemoStats::new();
        assert_eq!(s.case_distribution(), (0.0, 0.0, 0.0));
        assert_eq!(s.op(FftOpKind::Fu1D).total(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MemoStats::new();
        a.record(FftOpKind::Fu1D, MemoCase::DbHit);
        a.add_compute_time(FftOpKind::Fu1D, 1.5);
        let mut b = MemoStats::new();
        b.record(FftOpKind::Fu1D, MemoCase::DbHit);
        b.add_remote_bytes(FftOpKind::Fu1D, 100);
        b.add_encoded_key(FftOpKind::Fu1D);
        a.merge(&b);
        let s = a.op(FftOpKind::Fu1D);
        assert_eq!(s.db_hits, 2);
        assert_eq!(s.remote_bytes, 100);
        assert_eq!(s.keys_encoded, 1);
        assert!((s.compute_seconds - 1.5).abs() < 1e-12);
    }
}
