//! The store's candidate selector against its exhaustive reference, and the
//! cache against the τ gate, over a whole reconstruction.
//!
//! A probe asks the scope's index for the entry whose *key* (the chunk's
//! block-average sketch) is nearest the query's, among the entries the query
//! may use, and puts that one entry through the τ gate. The reference,
//! `MemoDb::probe_exhaustive`, puts *every* such entry through the
//! gate. A probe that misses where the reference hits is a reachable hit the
//! sketch lost; this test shadows every probe of a converging 24³ run with
//! the reference and bounds the loss. The shadow sits behind the `MemoStore`
//! trait — the seam the engine already has — so the engine carries no hook.

use mlr_core::{CancelToken, MlrConfig, MlrPipeline};
use mlr_lamino::FftOpKind;
use mlr_math::Complex64;
use mlr_memo::{
    ChunkFingerprint, MemoDb, MemoDbConfig, MemoStore, ProbeOutcome, Provenance, StoreStats,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A `MemoDb` that shadows each keyed probe with the exhaustive one.
struct Shadowed {
    inner: MemoDb,
    probes: AtomicU64,
    /// Probes the exhaustive reference answers with a hit.
    reachable: AtomicU64,
    /// Of those, the ones the keyed probe did not hit.
    lost: AtomicU64,
    /// Keyed hits the reference refuses: the selector serving what the τ
    /// gate would not. Zero by construction.
    unreachable_hits: AtomicU64,
}

impl MemoStore for Shadowed {
    fn config(&self) -> MemoDbConfig {
        self.inner.config()
    }
    fn encode(&self, input: &[Complex64]) -> Vec<f64> {
        self.inner.encode(input)
    }
    fn has_fingerprint_neighbor(&self, op: FftOpKind, loc: usize, fp: &ChunkFingerprint) -> bool {
        self.inner.has_fingerprint_neighbor(op, loc, fp)
    }
    fn note_fingerprint(&self, op: FftOpKind, loc: usize, fp: ChunkFingerprint) {
        self.inner.note_fingerprint(op, loc, fp)
    }
    fn probe_with_key(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: &[f64],
        origin: Provenance,
    ) -> ProbeOutcome {
        let keyed = self.inner.probe_with_key(op, loc, input, key, origin);
        let reference = self.inner.probe_exhaustive(op, loc, input, origin);
        let hit = |o: &ProbeOutcome| matches!(o, ProbeOutcome::Hit { .. });
        self.probes.fetch_add(1, Ordering::Relaxed);
        match (hit(&reference), hit(&keyed)) {
            (true, true) => self.reachable.fetch_add(1, Ordering::Relaxed),
            (true, false) => {
                self.reachable.fetch_add(1, Ordering::Relaxed);
                self.lost.fetch_add(1, Ordering::Relaxed)
            }
            (false, true) => self.unreachable_hits.fetch_add(1, Ordering::Relaxed),
            (false, false) => 0,
        };
        keyed
    }
    fn commit_hit(
        &self,
        op: FftOpKind,
        loc: usize,
        entry: u64,
        entry_origin: Provenance,
        origin: Provenance,
    ) {
        self.inner.commit_hit(op, loc, entry, entry_origin, origin)
    }
    fn commit_miss(&self, op: FftOpKind, loc: usize) {
        self.inner.commit_miss(op, loc)
    }
    fn insert(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: Vec<f64>,
        output: Vec<Complex64>,
        origin: Provenance,
        recompute_cost: f64,
    ) -> u64 {
        self.inner
            .insert(op, loc, input, key, output, origin, recompute_cost)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn value_bytes(&self) -> u64 {
        self.inner.value_bytes()
    }
    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }
    fn pressure(&self) -> f64 {
        self.inner.pressure()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[test]
fn the_sketch_loses_at_most_a_fifth_of_the_reachable_hits() {
    // The reconstruction of the benchmark's `smallchunk-24`: 24³, 12 angles,
    // one-plane chunks, 16 iterations at a step the solver converges with,
    // seeded by `quick`. About 1200 probes, half of them reachable.
    let mut config = MlrConfig::quick(24, 12).with_iterations(16);
    config.admm.initial_step = 0.02;
    config.chunk_size = 1;
    let pipeline = MlrPipeline::new(config);
    let store = Arc::new(Shadowed {
        inner: MemoDb::new(pipeline.config().memo.db_config()),
        probes: AtomicU64::new(0),
        reachable: AtomicU64::new(0),
        lost: AtomicU64::new(0),
        unreachable_hits: AtomicU64::new(0),
    });
    let executor = pipeline.memo_executor(Arc::clone(&store) as Arc<dyn MemoStore>, 0);
    let (result, executor) = pipeline.run_with_executor(executor, &CancelToken::new());
    let losses = result.history.loss_series();
    assert!(
        losses[losses.len() - 1].1 < 0.1 * losses[0].1,
        "the run must converge: {losses:?}"
    );

    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let (probes, reachable, lost) = (
        count(&store.probes),
        count(&store.reachable),
        count(&store.lost),
    );
    let total = executor.stats().total();
    // Every key the engine encoded went to exactly one probe, and a cache
    // hit encoded none.
    assert_eq!(probes, total.keys_encoded);
    assert_eq!(probes, total.db_hits + total.failed_memo);
    assert!(total.cache_hits > 0, "no cache hit: {total:?}");
    assert_eq!(total.db_hits, reachable - lost);
    assert_eq!(count(&store.unreachable_hits), 0);
    assert!(
        reachable > 0,
        "nothing reachable in {probes} probes — vacuous"
    );
    // Measured: 102 of 613 (16.6 %). The random CNN key this one replaced
    // lost 12.4–15.7 % on the benchmark workloads, the sketch 8.4–16.6 %.
    assert!(
        5 * lost <= reachable,
        "the sketch lost {lost} of {reachable} reachable hits"
    );
}
