//! The memoization store: its configuration, the τ gate, and [`MemoDb`].
//!
//! This is the in-process counterpart of the paper's memory-node database
//! (§4.3.2, Figure 6). An *insertion* adds the key of an FFT input chunk to
//! the scope's index and the FFT output to the value database. A *probe*
//! asks the index for the stored key nearest to the query's *among the
//! entries the query may use* and — only if that entry's similarity clears
//! the threshold `τ` — returns its value.
//!
//! There is one τ gate, [`tau_gate`]: the paper's Eq. 3 evaluated on the
//! *raw input chunks* (each entry keeps its own), which makes the
//! accuracy-vs-τ experiments faithful to what τ means in the paper. The
//! store and the compute-node cache both call it; keys only order the
//! candidates.
//!
//! Both halves of an entry — raw input and value — are stored in the
//! paper's layout, single-precision [`Complex32`] (8 bytes an element, which
//! every byte count follows); the gate is one `f64`-accumulated pass over
//! query and stored input, against the stored norm cached at insert.
//!
//! [`MemoDb`] is one database behind one `parking_lot` mutex: a standalone
//! executor owns one, and the runtime's workers share one, so entries
//! inserted by job A serve job B (counted in `cross_job_hits`) — where a
//! shared database beats per-job isolation. Only an insert's narrowing to
//! `f32` and its norm run outside the lock. A key is a pure function of its
//! chunk ([`sketch`]), so every tenant speaks the same key space.
//!
//! # Capacity governance
//!
//! With a bounded [`CapacityBudget`], every insert evicts under the same
//! lock until the budget holds again: the victim is the minimum
//! `(rank, id)` of [`CostAwarePolicy::rank`] over all entries, the new one
//! included. So no observer sees an over-budget store, and which entries
//! go is a pure function of the commit order. An eviction removes the
//! entry from the store, not from a compute-node cache that already holds
//! its `Arc`s: that cache may serve the value once more, and its own byte
//! count (`MemoCache::bytes`) is where it shows.

use crate::ann::FlatIndex;
use crate::encoder::sketch;
use crate::eviction::{CapacityBudget, CostAwarePolicy, EntryMeta};
use crate::fingerprint::{ChunkFingerprint, FingerprintTable};
use crate::store::{MemoStore, ProbeOutcome, Provenance, StoreStats};
use mlr_lamino::FftOpKind;
use mlr_math::complex::narrow;
use mlr_math::norms::{l2_norm_c32, scale_aware_similarity_mixed};
use mlr_math::{Complex32, Complex64};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A query counts as "under pressure" when the tightest global cap is at
/// least this utilised — the regime the bounded-store hit rate is judged in.
const PRESSURE_THRESHOLD: f64 = 0.95;

/// Database configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoDbConfig {
    /// Similarity threshold `τ`: a stored value is reused only when the
    /// scale-aware similarity between the query's raw chunk and the entry's
    /// raw input exceeds it ([`tau_gate`]; keys only pick the candidate).
    pub tau: f64,
    /// Capacity caps (bytes/entries) over the whole store. Unbounded by
    /// default — the pre-governance behaviour.
    pub budget: CapacityBudget,
}

impl Default for MemoDbConfig {
    fn default() -> Self {
        Self {
            tau: 0.92,
            budget: CapacityBudget::unbounded(),
        }
    }
}

/// The τ gate, the only one: the scale-aware similarity (Eq. 3) between a
/// query's raw chunk and a stored raw input with its cached norm, returned
/// when it exceeds `tau`. A stored input of another length (another
/// geometry's chunk at the same location index) is never similar.
pub fn tau_gate(
    input: &[Complex64],
    raw_input: &[Complex32],
    raw_norm: f64,
    tau: f64,
) -> Option<f64> {
    if raw_input.len() != input.len() {
        return None;
    }
    let similarity = scale_aware_similarity_mixed(input, raw_input, raw_norm);
    (similarity > tau).then_some(similarity)
}

/// Everything stored for one entry: eviction metadata, the scope it was
/// indexed under, the raw input the τ gate compares against (with its norm),
/// and the value itself.
struct EntryRecord {
    meta: EntryMeta,
    scope: (FftOpKind, usize),
    raw_input: Arc<[Complex32]>,
    /// `l2_norm_c32(&raw_input)`, so a probe walks the pair once.
    raw_norm: f64,
    /// The stored FFT result — shared with every hit, never deep-cloned.
    value: Arc<[Complex32]>,
}

impl EntryRecord {
    fn value_bytes(&self) -> u64 {
        size_of_val(&*self.value) as u64
    }

    /// The similarity of `input` to this entry, if it passes the τ gate.
    fn gate(&self, input: &[Complex64], tau: f64) -> Option<f64> {
        tau_gate(input, &self.raw_input, self.raw_norm, tau)
    }

    /// The hit this entry serves at `similarity`.
    fn hit(&self, similarity: f64) -> ProbeOutcome {
        ProbeOutcome::Hit {
            value: Arc::clone(&self.value),
            raw: (self.raw_norm, Arc::clone(&self.raw_input)),
            similarity,
            entry: self.meta.id,
            origin: self.meta.origin,
        }
    }
}

/// The memoization store: one database behind one lock.
pub struct MemoDb {
    config: MemoDbConfig,
    state: Mutex<DbState>,
}

/// What [`MemoDb`]'s lock guards. A scope is always the (operation, chunk
/// location) pair: the paper's observation (Figure 4) is that reuse happens
/// *at* a chunk location across iterations, so searches never cross
/// locations.
#[derive(Default)]
struct DbState {
    scopes: HashMap<(FftOpKind, usize), FlatIndex>,
    /// Per-scope doorkeeper rings for the norm prefilter. Control metadata:
    /// deliberately excluded from `resident_bytes` accounting (bounded at
    /// [`crate::fingerprint::FINGERPRINT_HISTORY`] entries per scope).
    fingerprints: HashMap<(FftOpKind, usize), FingerprintTable>,
    entries: HashMap<u64, EntryRecord>,
    /// The id the next insert claims: inserts are numbered 0, 1, 2, … in
    /// commit order, the eviction tie-break.
    next_id: u64,
    policy: CostAwarePolicy,
    /// The counters, and the value and resident totals every insert and
    /// eviction keeps up to date (`entries` is filled in by a snapshot).
    stats: StoreStats,
}

impl DbState {
    /// Counts one committed query, and whether it came while the tightest
    /// cap was at least [`PRESSURE_THRESHOLD`] full.
    fn count_query(&mut self, budget: CapacityBudget, hit: bool) {
        let pressure = budget.pressure(self.stats.resident_bytes, self.entries.len() as u64);
        let pressured = pressure >= PRESSURE_THRESHOLD;
        let stats = &mut self.stats;
        stats.queries += 1;
        stats.hits += u64::from(hit);
        stats.pressure_queries += u64::from(pressured);
        stats.pressure_hits += u64::from(pressured && hit);
    }

    /// The entry the rule would evict next: minimum `(rank, id)` over all
    /// entries. Order-independent over the hash map, hence deterministic.
    fn peek_victim(&self) -> Option<(f64, u64)> {
        self.entries
            .values()
            .map(|r| (CostAwarePolicy::rank(&r.meta), r.meta.id))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Removes entry `id` with its key and takes it out of the totals.
    fn remove(&mut self, id: u64) {
        let Some(record) = self.entries.remove(&id) else {
            return;
        };
        if let Some(index) = self.scopes.get_mut(&record.scope) {
            index.remove(id);
        }
        self.stats.value_bytes -= record.value_bytes();
        self.stats.resident_bytes -= record.meta.bytes;
    }
}

impl MemoDb {
    /// Creates an empty store.
    pub fn new(config: MemoDbConfig) -> Self {
        Self {
            config,
            state: Mutex::new(DbState::default()),
        }
    }

    /// The reference [`MemoStore::probe_with_key`]'s key selector is tested
    /// against (`tests/selector.rs`), never called by a run: every entry of
    /// the scope that `origin` may use goes through the τ gate, no key
    /// involved, and the most similar one that passes is the hit (the
    /// first-inserted on a tie). Read-only, like a probe. When this hits and
    /// the keyed probe does not, the sketch's nearest candidate lost a
    /// reachable hit.
    pub fn probe_exhaustive(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        origin: Provenance,
    ) -> ProbeOutcome {
        let tau = self.config.tau;
        (self.state.lock().entries.values())
            .filter(|r| r.scope == (op, loc) && r.meta.origin.may_serve(&origin))
            .filter_map(|r| Some((r.gate(input, tau)?, r)))
            .min_by(|(a_sim, a), (b_sim, b)| b_sim.total_cmp(a_sim).then(a.meta.id.cmp(&b.meta.id)))
            .map_or(ProbeOutcome::Miss, |(similarity, r)| r.hit(similarity))
    }
}

#[cfg(test)]
impl MemoDb {
    /// The value and resident totals re-summed over the stored entries:
    /// what the maintained totals must equal.
    pub(crate) fn resummed(&self) -> (u64, u64) {
        let db = self.state.lock();
        let entries = db.entries.values();
        entries.fold((0, 0), |(v, r), e| (v + e.value_bytes(), r + e.meta.bytes))
    }
}

impl MemoStore for MemoDb {
    fn config(&self) -> MemoDbConfig {
        self.config
    }

    fn encode(&self, input: &[Complex64]) -> Vec<f64> {
        sketch(input)
    }

    fn has_fingerprint_neighbor(&self, op: FftOpKind, loc: usize, fp: &ChunkFingerprint) -> bool {
        (self.state.lock().fingerprints.get(&(op, loc)))
            .is_some_and(|t| t.has_neighbor(fp, self.config.tau))
    }

    fn note_fingerprint(&self, op: FftOpKind, loc: usize, fp: ChunkFingerprint) {
        let mut db = self.state.lock();
        db.fingerprints.entry((op, loc)).or_default().note(fp);
    }

    fn probe_with_key(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: &[f64],
        origin: Provenance,
    ) -> ProbeOutcome {
        let db = self.state.lock();
        let Some(index) = db.scopes.get(&(op, loc)) else {
            return ProbeOutcome::Miss;
        };
        // Within one job, only entries from *earlier* ADMM iterations may be
        // reused; a value produced within the current LSP solve would feed
        // the CG its own output back and stall the update. Entries from
        // other jobs are always eligible. The scan skips what the query may
        // not use, so such an entry's key cannot shadow an older one.
        let eligible =
            |id: u64| (db.entries.get(&id)).is_some_and(|r| r.meta.origin.may_serve(&origin));
        let Some(record) = (index.nearest(key, eligible)).and_then(|id| db.entries.get(&id)) else {
            return ProbeOutcome::Miss;
        };
        (record.gate(input, self.config.tau))
            .map_or(ProbeOutcome::Miss, |similarity| record.hit(similarity))
    }

    fn commit_hit(
        &self,
        _op: FftOpKind,
        _loc: usize,
        entry: u64,
        entry_origin: Provenance,
        origin: Provenance,
    ) {
        let cross = entry_origin.job != origin.job;
        let mut guard = self.state.lock();
        let db = &mut *guard;
        db.count_query(self.config.budget, true);
        db.stats.cross_job_hits += u64::from(cross);
        if let Some(record) = db.entries.get_mut(&entry) {
            record.meta.hits += 1;
            record.meta.cross_hits += u64::from(cross);
            db.policy.charge(&mut record.meta);
        }
    }

    fn commit_miss(&self, _op: FftOpKind, _loc: usize) {
        self.state.lock().count_query(self.config.budget, false);
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
        // The one narrowing of an entry's life (and the norm the τ gate
        // reuses), outside the lock. What `f32` cannot hold is not stored:
        // no id.
        let narrowed = narrow(input).zip(narrow(&output));
        let narrowed = narrowed.map(|(raw, value)| (l2_norm_c32(&raw), raw, value));
        let mut guard = self.state.lock();
        let db = &mut *guard;
        let Some((raw_norm, raw_input, value)) = narrowed else {
            db.stats.refused_inserts += 1;
            return u64::MAX;
        };
        let id = db.next_id;
        db.next_id += 1;
        (db.scopes.entry((op, loc)))
            .or_insert_with(|| FlatIndex::new(key.len()))
            .add(id, &key);
        let mut record = EntryRecord {
            meta: EntryMeta {
                id,
                bytes: (size_of_val(&*raw_input) + size_of_val(&*value)) as u64,
                cross_hits: 0,
                hits: 0,
                recompute_cost,
                origin,
                op,
                priority: 0.0,
            },
            scope: (op, loc),
            raw_input,
            raw_norm,
            value,
        };
        db.policy.charge(&mut record.meta);
        db.stats.inserts += 1;
        db.stats.value_bytes += record.value_bytes();
        db.stats.resident_bytes += record.meta.bytes;
        db.entries.insert(id, record);
        let budget = self.config.budget;
        while budget.exceeded(db.stats.resident_bytes, db.entries.len() as u64) {
            let Some((rank, victim)) = db.peek_victim() else {
                break;
            };
            db.policy.on_evict(rank);
            db.remove(victim);
            db.stats.evictions += 1;
        }
        db.stats.peak_resident_bytes = db.stats.peak_resident_bytes.max(db.stats.resident_bytes);
        id
    }

    fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    fn value_bytes(&self) -> u64 {
        self.state.lock().stats.value_bytes
    }

    fn resident_bytes(&self) -> u64 {
        self.state.lock().stats.resident_bytes
    }

    fn pressure(&self) -> f64 {
        let db = self.state.lock();
        (self.config.budget).pressure(db.stats.resident_bytes, db.entries.len() as u64)
    }

    fn stats(&self) -> StoreStats {
        let db = self.state.lock();
        StoreStats {
            entries: db.entries.len(),
            ..db.stats
        }
    }
}

#[cfg(test)]
mod tests {
    //! The store's protocol, driven through its public probe → commit seam.

    use super::*;
    use crate::testutil::{chunk, fill, insert, lookup};
    use mlr_lamino::FftOpKind::{Fu1D, Fu2D};
    use mlr_math::complex::narrow;
    use mlr_math::norms::scale_aware_similarity_c;
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn config(tau: f64) -> MemoDbConfig {
        MemoDbConfig {
            tau,
            ..Default::default()
        }
    }

    fn capped(budget: CapacityBudget) -> MemoDb {
        MemoDb::new(MemoDbConfig { tau: 0.9, budget })
    }

    fn at(iteration: usize) -> Provenance {
        Provenance::solo(iteration)
    }

    #[test]
    fn query_empty_is_miss() {
        let d = MemoDb::new(config(0.9));
        assert!(d.is_empty());
        let input = chunk(1.0, 0.0, 128);
        assert_eq!(d.encode(&input).len(), crate::encoder::SKETCH_DIM);
        assert!(lookup(&d, Fu2D, 0, &input, at(1)).is_none());
        assert_eq!(d.stats().queries, 1);
    }

    #[test]
    fn insert_then_identical_query_hits() {
        let d = MemoDb::new(config(0.9));
        let input = chunk(1.0, 0.0, 256);
        let output = chunk(2.0, 1.0, 64);
        insert(&d, Fu2D, 3, &input, output.clone(), at(0));
        let (value, similarity, _) = lookup(&d, Fu2D, 3, &input, at(1)).expect("hit");
        assert!(similarity > 0.999);
        // Served in the stored format: the inserted value, narrowed.
        assert_eq!(Some(value), narrow(&output));
    }

    #[test]
    fn insert_then_query_hits_across_jobs() {
        let db = MemoDb::new(config(0.9));
        let input = chunk(1.0, 0.0, 256);
        let origin_a = Provenance {
            job: 1,
            iteration: 3,
        };
        insert(&db, Fu2D, 5, &input, chunk(2.0, 1.0, 32), origin_a);

        // Same job, same iteration: the freshness gate must refuse.
        assert!(
            lookup(&db, Fu2D, 5, &input, origin_a).is_none(),
            "same-iteration reuse must be gated"
        );
        // Different job at iteration 0: eligible, and counted as cross-job.
        let origin_b = Provenance {
            job: 2,
            iteration: 0,
        };
        let (_, _, inserted_by) = lookup(&db, Fu2D, 5, &input, origin_b).expect("cross-job hit");
        assert_eq!(inserted_by, origin_a);
        let stats = db.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.cross_job_hits, 1);
        assert_eq!(stats.inserts, 1);
        assert!(stats.cross_job_hit_rate() > 0.0);
    }

    #[test]
    fn dissimilar_query_misses() {
        let d = MemoDb::new(config(0.95));
        let (input, output) = (chunk(1.0, 0.0, 256), chunk(2.0, 1.0, 64));
        insert(&d, Fu2D, 3, &input, output, at(0));
        // Same location but very different content.
        let hit = lookup(&d, Fu2D, 3, &chunk(1.0, 2.5, 256), at(1));
        assert!(hit.is_none(), "expected miss, got {:?}", hit.map(|h| h.1));
    }

    #[test]
    fn location_scoping_prevents_cross_location_hits() {
        let d = MemoDb::new(config(0.9));
        let input = chunk(1.0, 0.0, 256);
        insert(&d, Fu2D, 0, &input, chunk(2.0, 1.0, 64), at(0));
        assert!(lookup(&d, Fu2D, 1, &input, at(1)).is_none());
    }

    #[test]
    fn scoping_separates_operations_at_one_location() {
        let d = MemoDb::new(config(0.9));
        let input = chunk(1.0, 0.0, 256);
        insert(&d, Fu2D, 7, &input, chunk(2.0, 1.0, 64), at(0));
        // Same location, other operation: a different scope.
        assert!(lookup(&d, Fu1D, 7, &input, at(1)).is_none());
        assert!(lookup(&d, Fu2D, 7, &input, at(1)).is_some());
    }

    #[test]
    fn an_ineligible_nearer_entry_does_not_shadow_an_eligible_one() {
        // One scope, two entries: the older within τ of the query, the
        // newer — inserted in the query's own iteration, so it may not serve
        // it — nearer still. The probe must hit on the older; with the
        // eligibility check after the nearest-key search it missed.
        let served = |o: ProbeOutcome| match o {
            ProbeOutcome::Hit { entry, .. } => Some(entry),
            _ => None,
        };
        let db = MemoDb::new(config(0.9));
        let query = chunk(1.0, 0.0, 256);
        let mut ids = Vec::new();
        for (it, scale) in [(1, 1.03), (2, 1.001)] {
            let input = chunk(scale, 0.02 * (scale - 1.0), 256);
            ids.push(insert(&db, Fu2D, 5, &input, chunk(2.0, 1.0, 32), at(it)));
        }
        let key = db.encode(&query);
        // Iteration 1 may use neither entry, 2 the older only, 3 both (and
        // the nearer wins); the exhaustive reference agrees.
        for (it, expected) in [(1, None), (2, Some(ids[0])), (3, Some(ids[1]))] {
            let keyed = db.probe_with_key(Fu2D, 5, &query, &key, at(it));
            assert_eq!(served(keyed), expected, "iteration {it}");
            let reference = db.probe_exhaustive(Fu2D, 5, &query, at(it));
            assert_eq!(served(reference), expected);
        }
    }

    #[test]
    fn tau_controls_strictness() {
        // A mildly perturbed chunk should hit under a loose τ and miss under
        // a strict one.
        let base = chunk(1.0, 0.0, 256);
        let perturbed: Vec<Complex64> = base
            .iter()
            .zip(chunk(0.12, 1.3, 256))
            .map(|(z, dz)| *z + dz)
            .collect();
        let sim = scale_aware_similarity_c(&base, &perturbed);
        assert!(sim > 0.85 && sim < 0.999, "test setup: sim {sim}");
        let loose = MemoDb::new(config((sim - 0.05).max(0.0)));
        insert(&loose, Fu1D, 0, &base, chunk(2.0, 0.5, 32), at(0));
        assert!(lookup(&loose, Fu1D, 0, &perturbed, at(1)).is_some());

        let strict = MemoDb::new(config((sim + 0.02).min(0.9999)));
        insert(&strict, Fu1D, 0, &base, chunk(2.0, 0.5, 32), at(0));
        assert!(lookup(&strict, Fu1D, 0, &perturbed, at(1)).is_none());
    }

    #[test]
    fn value_bytes_grow_with_insertions() {
        let d = MemoDb::new(config(0.9));
        assert_eq!(d.value_bytes(), 0);
        fill(&d, 4, |_| {});
        assert_eq!(d.len(), 4);
        // 8 bytes a stored element: 32-element values, and resident
        // bytes additionally count the 64-element raw inputs.
        assert_eq!(d.value_bytes(), 4 * 32 * 8);
        assert_eq!(d.resident_bytes(), 4 * 8 * (64 + 32));
        assert!(d.stats().peak_resident_bytes >= d.resident_bytes());
    }

    #[test]
    fn entry_budget_is_enforced_after_every_insert() {
        let d = capped(CapacityBudget::entries(3));
        fill(&d, 8, |loc| {
            assert!(d.len() <= 3, "entry cap violated after insert {loc}")
        });
        assert_eq!(d.len(), 3);
        assert_eq!(d.stats().evictions, 5);
        // Never-hit entries of one size age out oldest first: the
        // earliest locations now miss.
        assert!(lookup(&d, Fu2D, 0, &chunk(1.0, 0.0, 64), at(1)).is_none());
        assert!(lookup(&d, Fu2D, 7, &chunk(8.0, 0.0, 64), at(1)).is_some());
    }

    #[test]
    fn byte_budget_bounds_resident_footprint() {
        // Measure the footprint of 4 entries, then rebuild with half of it.
        let unbounded = MemoDb::new(config(0.9));
        fill(&unbounded, 4, |_| {});
        let cap = unbounded.resident_bytes() / 2;
        let bounded = capped(CapacityBudget::bytes(cap));
        fill(&bounded, 4, |_| {
            let resident = bounded.resident_bytes();
            assert!(resident <= cap, "byte cap violated: {resident} > {cap}");
        });
        assert!(bounded.stats().peak_resident_bytes <= cap);
        assert!(bounded.stats().evictions > 0);
    }

    #[test]
    fn maintained_totals_equal_the_resummed_entries_under_both_caps() {
        // Inserts of mixed sizes under an entry cap and a byte cap: the
        // totals that inserts and evictions keep up to date must land on
        // what the entries actually hold.
        let (cap_bytes, cap_entries) = (24 * 1024u64, 20u64);
        let db = capped(CapacityBudget {
            max_bytes: Some(cap_bytes),
            max_entries: Some(cap_entries),
        });
        let mut rng = seeded(0x5EED);
        let (mut by_entries, mut by_bytes) = (false, false);
        for i in 0..120usize {
            let n = [16usize, 64, 256][rng.gen_range(0..3usize)];
            let loc = rng.gen_range(0..40usize);
            let (input, output) = (chunk(1.0 + i as f64, 0.1, n), chunk(2.0, 0.5, n / 2));
            let evicted = db.stats().evictions;
            insert(&db, Fu2D, loc, &input, output, at(i));
            assert!(db.resident_bytes() <= cap_bytes && db.len() as u64 <= cap_entries);
            by_entries |= db.len() as u64 == cap_entries;
            by_bytes |= db.stats().evictions > evicted && (db.len() as u64) < cap_entries;
        }
        assert!(by_entries && by_bytes, "a cap never bound");
        assert_eq!(db.resummed(), (db.value_bytes(), db.resident_bytes()));
        let stats = db.stats();
        assert!(stats.peak_resident_bytes <= cap_bytes);
        assert_eq!(stats.inserts - stats.evictions, db.len() as u64);
        assert_eq!(stats.resident_bytes, db.resident_bytes());
    }
}
