//! The memo-store seam: a thread-safe interface over "the memoization
//! database", so the executor does not care whether its
//! [`MemoDb`](crate::MemoDb) is private to one job or
//! shared by every job of a runtime (or is a test's wrapper around one).
//!
//! The paper's distributed design (Figure 6) keeps the memoization database
//! on a dedicated memory node precisely so that *many* reconstructions can
//! amortise each other's USFFT work; this trait is the in-process analogue
//! of that seam. Entries carry a [`Provenance`] — which job inserted them,
//! during which outer ADMM iteration — so a store can enforce the paper's
//! "reuse only across iterations" rule *per job* while still serving job B
//! values that job A computed.

use crate::db::MemoDbConfig;
use crate::fingerprint::ChunkFingerprint;
use crate::stats::ratio;
use mlr_lamino::FftOpKind;
use mlr_math::{Complex32, Complex64};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifies the reconstruction job a query or entry belongs to. Jobs are
/// numbered by the runtime; standalone executors use [`Provenance::solo`]
/// (job 0).
pub type JobId = u64;

/// Where an entry came from (or where a query originates): the owning job
/// and the outer ADMM iteration.
///
/// The iteration component enforces the intra-job freshness rule: a value
/// produced *within* the current LSP solve must not be fed back to the CG
/// update that produced it. Entries from *other* jobs are always eligible —
/// that is exactly the cross-job reuse the shared store exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Provenance {
    /// The job that issued the operation.
    pub job: JobId,
    /// The job's outer ADMM iteration at the time.
    pub iteration: usize,
}

impl Provenance {
    /// Provenance for a single-tenant executor (job 0).
    pub fn solo(iteration: usize) -> Self {
        Self { job: 0, iteration }
    }

    /// Returns `true` when an entry with this provenance may serve a query
    /// with provenance `query`: either a different job, or an earlier
    /// iteration of the same job.
    pub fn may_serve(&self, query: &Provenance) -> bool {
        self.job != query.job || self.iteration < query.iteration
    }
}

/// Aggregate counters of a memo store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Entries currently stored.
    pub entries: usize,
    /// Queries served.
    pub queries: u64,
    /// Queries that returned a value.
    pub hits: u64,
    /// Hits served by an entry inserted by a *different* job than the
    /// querying one — the cross-job amortisation a shared store buys.
    pub cross_job_hits: u64,
    /// Insertions performed.
    pub inserts: u64,
    /// Resident bytes of the value database (8 per stored element).
    pub value_bytes: u64,
    /// Inserts refused because input or output had a component that is
    /// non-finite or overflows `f32` (nothing else refuses one). The chunk
    /// was still answered, exactly, by its compute.
    pub refused_inserts: u64,
    /// Entries evicted to satisfy the capacity budget.
    pub evictions: u64,
    /// Total resident bytes (values + retained raw inputs) — the quantity
    /// the capacity budget caps.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` observed after budget
    /// enforcement; with a byte cap set, this never exceeds the cap.
    pub peak_resident_bytes: u64,
    /// Queries issued while the store was under capacity pressure (the
    /// tightest global cap ≥ 95 % utilised).
    pub pressure_queries: u64,
    /// Hits served while the store was under capacity pressure.
    pub pressure_hits: u64,
}

impl StoreStats {
    /// Fraction of queries answered from the store.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.queries)
    }

    /// Fraction of queries answered by another job's entry.
    pub fn cross_job_hit_rate(&self) -> f64 {
        ratio(self.cross_job_hits, self.queries)
    }

    /// Hit rate over only the queries issued while the store was under
    /// capacity pressure — the figure of merit for a bounded store.
    pub fn hit_rate_under_pressure(&self) -> f64 {
        ratio(self.pressure_hits, self.pressure_queries)
    }
}

/// Outcome of a read-only probe — the first half of the store's only
/// access protocol.
///
/// A probe has no side effects: no query/hit counters, no reuse
/// refresh. The executor probes all chunks of a batch against the store
/// state frozen at the start of the operator application, then replays the
/// bookkeeping in chunk-index order through [`MemoStore::commit_hit`], or
/// [`MemoStore::commit_miss`] and [`MemoStore::insert`].
#[derive(Debug, Clone)]
pub enum ProbeOutcome {
    /// A stored value passed the τ gate.
    Hit {
        /// The stored FFT result, in the store's single-precision format —
        /// a shared reference into the value database, never a deep clone.
        value: Arc<[Complex32]>,
        /// The serving entry's raw input behind its cached norm — shared
        /// likewise. The compute-node cache keeps both next to the value, so
        /// its lookups run the store's own τ gate.
        raw: (f64, Arc<[Complex32]>),
        /// Scale-aware similarity between the query and that raw input.
        similarity: f64,
        /// Stable id of the serving entry (for the ordered commit).
        entry: u64,
        /// Which job/iteration inserted the serving entry.
        origin: Provenance,
    },
    /// No stored entry was similar enough (or eligible).
    Miss,
}

/// A thread-safe memoization store.
///
/// All methods take `&self`; implementations are responsible for their own
/// interior locking. Keys come from the store ([`MemoStore::encode`]), so
/// what a key is stays the store's business.
///
/// The τ-gated probe → commit protocol, on a store shared by concurrent
/// jobs:
///
/// ```
/// use mlr_lamino::FftOpKind;
/// use mlr_memo::{MemoDb, MemoDbConfig, MemoStore, ProbeOutcome, Provenance};
/// use mlr_math::Complex64;
///
/// let store = MemoDb::new(MemoDbConfig { tau: 0.9, ..Default::default() });
/// let chunk: Vec<Complex64> = (0..64)
///     .map(|i| Complex64::new((i as f64 * 0.1).sin(), 0.0))
///     .collect();
/// let (op, loc) = (FftOpKind::Fu2D, 0);
///
/// // First sight of the chunk: the probe misses; commit the miss, then
/// // insert the exactly-computed value.
/// let key = store.encode(&chunk);
/// let probe = store.probe_with_key(op, loc, &chunk, &key, Provenance::solo(1));
/// assert!(matches!(probe, ProbeOutcome::Miss), "an empty store cannot hit");
/// store.commit_miss(op, loc);
/// store.insert(op, loc, &chunk, key, chunk.clone(), Provenance::solo(1), 1e-3);
///
/// // A later iteration asking about the same chunk is served from memory
/// // (cosine similarity 1.0 passes any τ); the commit does the accounting.
/// let key = store.encode(&chunk);
/// let ProbeOutcome::Hit { value, entry, origin, .. } =
///     store.probe_with_key(op, loc, &chunk, &key, Provenance::solo(2))
/// else {
///     panic!("the identical chunk must hit");
/// };
/// assert_eq!(store.stats().hits, 0, "a probe counts nothing");
/// store.commit_hit(op, loc, entry, origin, Provenance::solo(2));
/// // What comes back is the inserted value rounded to the stored format.
/// assert_eq!(value, mlr_math::complex::narrow(&chunk).unwrap());
/// assert_eq!(store.stats().hits, 1);
/// ```
pub trait MemoStore: Send + Sync {
    /// The database configuration (τ threshold, budget).
    fn config(&self) -> MemoDbConfig;

    /// The key of an input chunk ([`sketch`](crate::encoder::sketch)): what
    /// [`MemoStore::probe_with_key`] and [`MemoStore::insert`] take.
    fn encode(&self, input: &[Complex64]) -> Vec<f64>;

    /// Norm-prefilter consultation: does the scope's fingerprint history at
    /// `(op, loc)` contain a chunk whose raw similarity to `fp`'s chunk
    /// could exceed τ?
    fn has_fingerprint_neighbor(&self, op: FftOpKind, loc: usize, fp: &ChunkFingerprint) -> bool;

    /// Records the fingerprint of a committed chunk in the scope's
    /// doorkeeper history.
    fn note_fingerprint(&self, op: FftOpKind, loc: usize, fp: ChunkFingerprint);

    /// Read-only probe at `(op, loc)` for an entry similar to `input`, with
    /// `input`'s key, on behalf of the job/iteration `origin`: the entry
    /// with the nearest key among those `origin` may use, if it passes the
    /// τ gate on the raw chunks. *No* side effects (no counters, no reuse
    /// refresh), safe to issue concurrently with other jobs' probes.
    fn probe_with_key(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: &[f64],
        origin: Provenance,
    ) -> ProbeOutcome;

    /// Ordered-commit bookkeeping for a probe that hit: query/hit counters,
    /// pressure accounting, and the reuse metadata
    /// refresh eviction ranks by. `entry`/`entry_origin` come from the
    /// [`ProbeOutcome::Hit`]; the refresh is skipped (deterministically) if
    /// the entry was evicted by an earlier commit of the same batch.
    fn commit_hit(
        &self,
        op: FftOpKind,
        loc: usize,
        entry: u64,
        entry_origin: Provenance,
        origin: Provenance,
    );

    /// Ordered-commit bookkeeping for a probe that missed (query and
    /// pressure accounting; the insert that follows
    /// the exact compute goes through [`MemoStore::insert`]).
    fn commit_miss(&self, op: FftOpKind, loc: usize);

    /// Inserts an entry computed by `origin`: `input` and `output` are
    /// narrowed to the stored single-precision format, once, here. Returns
    /// the entry id (stable across the whole store; the eviction
    /// tie-breaker) — or `u64::MAX`, having stored and counted nothing but
    /// [`StoreStats::refused_inserts`], when `f32` cannot hold one of them.
    /// `recompute_cost` is the deterministic cost hint eviction ranks by (see [`recompute_cost_estimate`](crate::eviction::recompute_cost_estimate)).
    #[expect(clippy::too_many_arguments, reason = "an insert carries a full entry")]
    fn insert(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: Vec<f64>,
        output: Vec<Complex64>,
        origin: Provenance,
        recompute_cost: f64,
    ) -> u64;

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Returns `true` when the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes of the value database (8 per stored element).
    fn value_bytes(&self) -> u64;

    /// Total resident bytes (values + retained raw inputs) — the quantity
    /// the capacity budget caps.
    fn resident_bytes(&self) -> u64;

    /// Utilisation of the tightest capacity cap in `[0, 1]`
    /// (0 when unbounded) — what the runtime's admission control consults.
    fn pressure(&self) -> f64;

    /// Aggregate counters.
    fn stats(&self) -> StoreStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_gating() {
        let a0 = Provenance {
            job: 1,
            iteration: 0,
        };
        let a1 = Provenance {
            job: 1,
            iteration: 1,
        };
        let b0 = Provenance {
            job: 2,
            iteration: 0,
        };
        // Same job: only earlier iterations may serve.
        assert!(a0.may_serve(&a1));
        assert!(!a1.may_serve(&a1));
        assert!(!a1.may_serve(&a0));
        // Different job: always eligible.
        assert!(a1.may_serve(&b0));
        assert!(b0.may_serve(&a0));
    }

    #[test]
    fn stats_rates() {
        let s = StoreStats {
            queries: 10,
            hits: 5,
            cross_job_hits: 2,
            pressure_queries: 4,
            pressure_hits: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.cross_job_hit_rate() - 0.2).abs() < 1e-12);
        assert!((s.hit_rate_under_pressure() - 0.25).abs() < 1e-12);
        assert_eq!(StoreStats::default().hit_rate(), 0.0);
        assert_eq!(StoreStats::default().hit_rate_under_pressure(), 0.0);
    }
}
