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
use serde::{Deserialize, Serialize, Value};

/// How one memoizable FFT invocation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoCase {
    /// Computed exactly, without consulting the memoization system:
    /// memoization is disabled, or the job is still in its warm-up
    /// iterations.
    Computed,
    /// Case 1: database miss → compute + insert.
    FailedMemo,
    /// Case 2: database hit (value retrieved from the memory node).
    DbHit,
    /// Case 3: compute-node cache hit.
    CacheHit,
    /// Routed straight to the exact FFT by the norm prefilter: the chunk's
    /// fingerprint had no τ-band neighbor in the scope's recent history, so
    /// cache peek, key and database probe were all skipped.
    Prefiltered,
}

/// Per-operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStats {
    /// Invocations computed without consulting the memoization system:
    /// disabled or warm-up.
    pub computed: u64,
    /// Case-1 invocations (miss + insert).
    pub failed_memo: u64,
    /// Case-2 invocations (database hit).
    pub db_hits: u64,
    /// Case-3 invocations (cache hit).
    pub cache_hits: u64,
    /// Invocations the norm prefilter routed straight to the exact FFT.
    pub prefiltered: u64,
    /// Keys encoded.
    pub keys_encoded: u64,
}

/// `num / den`, or 0 when nothing was counted: every rate of this crate.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl OpStats {
    /// Total memoizable invocations.
    pub fn total(&self) -> u64 {
        self.computed + self.failed_memo + self.db_hits + self.cache_hits + self.prefiltered
    }

    /// Fraction of invocations whose FFT computation was avoided.
    pub fn avoided_fraction(&self) -> f64 {
        ratio(self.db_hits + self.cache_hits, self.total())
    }

    fn accumulate(&mut self, other: &OpStats) {
        self.computed += other.computed;
        self.failed_memo += other.failed_memo;
        self.db_hits += other.db_hits;
        self.cache_hits += other.cache_hits;
        self.prefiltered += other.prefiltered;
        self.keys_encoded += other.keys_encoded;
    }
}

/// The operation kinds in dense-index order — the canonical array defined
/// next to [`FftOpKind::index`] (pinned to be its inverse by a test there).
const KINDS: [FftOpKind; 4] = FftOpKind::DENSE;

/// Statistics across operations: a fixed-arity table of `Copy` counters,
/// one row per operation kind. The engine accumulates into one during the
/// ordered commit and `MemoizedExecutor::stats` hands out a copy — one
/// memcpy under the state lock, no allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Deserialize)]
pub struct MemoStats {
    per_op: [OpStats; KINDS.len()],
}

impl Serialize for MemoStats {
    /// `{"per_op": {"<kind>": counters, ..}}`, sorted by kind name, with
    /// operations that never recorded anything left out.
    fn to_value(&self) -> Value {
        let mut per_op: Vec<(String, Value)> = KINDS
            .iter()
            .zip(&self.per_op)
            .filter(|(_, stats)| **stats != OpStats::default())
            .map(|(kind, stats)| (kind.to_value().into_key(), stats.to_value()))
            .collect();
        per_op.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(vec![("per_op".to_string(), Value::Object(per_op))])
    }
}

impl MemoStats {
    /// Creates empty statistics.
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

    /// Adds one encoded key for an operation.
    pub fn add_encoded_key(&mut self, op: FftOpKind) {
        self.per_op[op.index()].keys_encoded += 1;
    }

    /// Counters for one operation.
    pub fn op(&self, op: FftOpKind) -> OpStats {
        self.per_op[op.index()]
    }

    /// Sum over all operations.
    pub fn total(&self) -> OpStats {
        let mut out = OpStats::default();
        for s in &self.per_op {
            out.accumulate(s);
        }
        out
    }

    /// Shares of the three memoization cases, `(failed, db_hit, cache_hit)`,
    /// among every invocation the engine handled (the paper's breakdown in
    /// §6.4 reads 53/19/28 %); those computed without a probe (disabled,
    /// warm-up, prefiltered) are the remainder `1 − failed − db_hit − cache_hit`.
    pub fn case_distribution(&self) -> (f64, f64, f64) {
        let (t, all) = (self.total(), self.total().total());
        (
            ratio(t.failed_memo, all),
            ratio(t.db_hits, all),
            ratio(t.cache_hits, all),
        )
    }

    /// Merges another set of statistics into this one.
    pub fn merge(&mut self, other: &MemoStats) {
        for (mine, theirs) in self.per_op.iter_mut().zip(&other.per_op) {
            mine.accumulate(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_snapshot_matches_map_shape() {
        let mut table = MemoStats::new();
        for (op, case) in [
            (FftOpKind::Fu2D, MemoCase::FailedMemo),
            (FftOpKind::Fu2D, MemoCase::DbHit),
            (FftOpKind::Fu1D, MemoCase::CacheHit),
            (FftOpKind::Fu1DAdj, MemoCase::Computed),
        ] {
            table.record(op, case);
        }
        table.add_encoded_key(FftOpKind::Fu1D);
        // A snapshot is a plain copy.
        let snapshot = table;
        assert_eq!(snapshot, table);
        assert_eq!(snapshot.op(FftOpKind::Fu2DAdj), OpStats::default());
        assert_eq!(snapshot.total().total(), 4);
        // It serialises as a map keyed by operation, sorted, with untouched
        // operations omitted.
        let Value::Object(fields) = snapshot.to_value() else {
            panic!("MemoStats serialises as an object");
        };
        let [(name, Value::Object(per_op))] = fields.as_slice() else {
            panic!("one `per_op` object, got {fields:?}");
        };
        assert_eq!(name, "per_op");
        let kinds: Vec<&str> = per_op.iter().map(|(kind, _)| kind.as_str()).collect();
        assert_eq!(kinds, ["Fu1D", "Fu1DAdj", "Fu2D"]);
        assert_eq!(per_op[2].1, table.op(FftOpKind::Fu2D).to_value());
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
        let counts = [
            (MemoCase::FailedMemo, 53),
            (MemoCase::DbHit, 19),
            (MemoCase::CacheHit, 28),
        ];
        let unprobed = [(MemoCase::Computed, 60), (MemoCase::Prefiltered, 40)];
        for (case, count) in counts.into_iter().chain(unprobed) {
            (0..count).for_each(|_| s.record(FftOpKind::Fu2D, case));
        }
        // Shares of all 200 chunks: the 100 computed without a probe are the rest.
        let ((f, d, c), t) = (s.case_distribution(), s.total());
        let unprobed = (t.computed + t.prefiltered) as f64 / t.total() as f64;
        assert!((f + d + c + unprobed - 1.0).abs() < 1e-12);
        assert_eq!((f, d, c, unprobed), (0.265, 0.095, 0.14, 0.5));
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
        a.record(FftOpKind::Fu1D, MemoCase::Computed);
        let mut b = MemoStats::new();
        b.record(FftOpKind::Fu1D, MemoCase::DbHit);
        b.add_encoded_key(FftOpKind::Fu1D);
        a.merge(&b);
        let s = a.op(FftOpKind::Fu1D);
        assert_eq!(s.db_hits, 2);
        assert_eq!(s.keys_encoded, 1);
        assert_eq!(s.computed, 1);
    }
}
