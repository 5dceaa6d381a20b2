//! The memoization database's configuration and its lock stripe.
//!
//! This is the in-process counterpart of the paper's memory-node database
//! (§4.3.2). An *insertion* adds the key of an FFT input chunk to the
//! scope's index and the FFT output to the value database. A *probe* asks
//! the index for the stored key nearest to the query's *among the entries
//! the query may use* and — only if that entry's similarity clears the
//! threshold `τ` — returns its value.
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
//! The public store is [`ShardedMemoDb`](crate::ShardedMemoDb); the
//! crate-private `MemoDatabase` here is one of its lock stripes. All
//! bookkeeping runs on the logical [`StoreClock`] (stable entry ids) and
//! the one [`CostAwarePolicy`] shared by every stripe, so eviction
//! is deterministic given the same schedule and independent of the shard
//! count.

use crate::ann::FlatIndex;
use crate::eviction::{CapacityBudget, CostAwarePolicy, EntryMeta, StoreClock};
use crate::fingerprint::{ChunkFingerprint, FingerprintTable};
use crate::store::{ProbeOutcome, Provenance};
use mlr_lamino::FftOpKind;
use mlr_math::norms::scale_aware_similarity_mixed;
use mlr_math::{Complex32, Complex64};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

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

/// One lock stripe of a [`ShardedMemoDb`](crate::ShardedMemoDb): the index
/// scopes, doorkeeper rings and entries of the `(op, loc)` scopes hashed to
/// it. A scope is always the (operation, chunk location) pair: the paper's
/// observation (Figure 4) is that reuse happens *at* a chunk location across
/// iterations, so searches never cross locations. A stripe frees nothing on
/// its own: the owning store encodes keys, keeps the store-wide counters and
/// enforces the budget, telling the stripe which entry to evict.
pub(crate) struct MemoDatabase {
    /// The owner's `τ`.
    tau: f64,
    scopes: HashMap<(FftOpKind, usize), FlatIndex>,
    /// Per-scope doorkeeper rings for the norm prefilter. Control metadata:
    /// deliberately excluded from `resident_bytes` accounting (bounded at
    /// [`crate::fingerprint::FINGERPRINT_HISTORY`] entries per scope).
    fingerprints: HashMap<(FftOpKind, usize), FingerprintTable>,
    entries: HashMap<u64, EntryRecord>,
    clock: Arc<StoreClock>,
    policy: Arc<CostAwarePolicy>,
    /// Bytes of the stored values.
    value_bytes: u64,
}

/// Stable 64-bit hash of an index scope: which lock stripe owns it.
pub(crate) fn scope_hash(op: FftOpKind, loc: usize) -> u64 {
    // FNV-1a over the discriminant and location.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in [(op as u8)].into_iter().chain(loc.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl MemoDatabase {
    /// Creates an empty stripe sharing the owner's logical clock and policy.
    pub(crate) fn stripe(tau: f64, clock: Arc<StoreClock>, policy: Arc<CostAwarePolicy>) -> Self {
        Self {
            tau,
            scopes: HashMap::new(),
            fingerprints: HashMap::new(),
            entries: HashMap::new(),
            clock,
            policy,
            value_bytes: 0,
        }
    }

    /// Number of stored entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Resident bytes of the stored values.
    pub(crate) fn value_bytes(&self) -> u64 {
        self.value_bytes
    }

    /// Total resident bytes, re-summed: values plus retained raw inputs —
    /// what the owner's published counter must equal.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.entries.values().map(|r| r.meta.bytes).sum()
    }

    /// Does the scope's fingerprint history contain a chunk whose raw
    /// similarity to `fp`'s chunk could exceed `τ`? Returns `false` for a
    /// scope that has seen no chunks yet — the prefilter then routes the
    /// chunk straight to the exact FFT without encoding it.
    pub(crate) fn has_fingerprint_neighbor(
        &self,
        op: FftOpKind,
        loc: usize,
        fp: &ChunkFingerprint,
    ) -> bool {
        self.fingerprints
            .get(&(op, loc))
            .is_some_and(|t| t.has_neighbor(fp, self.tau))
    }

    /// Records the fingerprint of a committed chunk in the scope's
    /// doorkeeper ring (bounded; the oldest entry is evicted on overflow).
    pub(crate) fn note_fingerprint(&mut self, op: FftOpKind, loc: usize, fp: ChunkFingerprint) {
        self.fingerprints.entry((op, loc)).or_default().note(fp);
    }

    /// Read-only probe for an entry similar to `input` at `(op, loc)`: no
    /// counters, no reuse refresh. The executor probes
    /// every chunk of an operator application against the store state
    /// frozen at the application's start and replays the bookkeeping
    /// afterwards, in chunk-index order, through [`Self::commit_hit`].
    pub(crate) fn probe(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: &[f64],
        origin: Provenance,
    ) -> ProbeOutcome {
        let Some(index) = self.scopes.get(&(op, loc)) else {
            return ProbeOutcome::Miss;
        };
        // Within one job, only entries from *earlier* ADMM iterations may be
        // reused; a value produced within the current LSP solve would feed
        // the CG its own output back and stall the update. Entries from
        // other jobs are always eligible. The scan skips what the query may
        // not use, so such an entry's key cannot shadow an older one.
        let eligible = |id: u64| {
            self.entries
                .get(&id)
                .is_some_and(|r| r.meta.origin.may_serve(&origin))
        };
        let Some(record) = index
            .nearest(key, eligible)
            .and_then(|id| self.entries.get(&id))
        else {
            return ProbeOutcome::Miss;
        };
        record
            .gate(input, self.tau)
            .map_or(ProbeOutcome::Miss, |similarity| record.hit(similarity))
    }

    /// The reference the key selector is tested against, never called by a
    /// run: every entry of the scope that `origin` may use goes through the
    /// τ gate, keys unseen; the most similar one that passes is the hit (the
    /// first-inserted on a tie). A `Hit` here that [`Self::probe`] does not
    /// return is a hit the sketch lost.
    pub(crate) fn probe_exhaustive(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        origin: Provenance,
    ) -> ProbeOutcome {
        self.entries
            .values()
            .filter(|r| r.scope == (op, loc) && r.meta.origin.may_serve(&origin))
            .filter_map(|r| Some((r.gate(input, self.tau)?, r)))
            .min_by(|(a_sim, a), (b_sim, b)| b_sim.total_cmp(a_sim).then(a.meta.id.cmp(&b.meta.id)))
            .map_or(ProbeOutcome::Miss, |(similarity, r)| r.hit(similarity))
    }

    /// Replays the bookkeeping of a hit discovered by [`Self::probe`]: the
    /// hit refreshes the reuse metadata the replacement rule ranks by. Runs
    /// during the batch's ordered commit, so refreshes land in chunk-index
    /// order. The refresh is skipped if
    /// the entry no longer exists (an earlier commit of the same batch may
    /// have evicted it); that skip is itself deterministic.
    pub(crate) fn commit_hit(&mut self, entry: u64, entry_origin: Provenance, origin: Provenance) {
        if let Some(record) = self.entries.get_mut(&entry) {
            record.meta.hits += 1;
            if entry_origin.job != origin.job {
                record.meta.cross_hits += 1;
            }
            self.policy.charge(&mut record.meta);
        }
    }

    /// Inserts an entry: the FFT input (what the τ gate compares against,
    /// with its norm) and its computed output (the value), narrowed by the
    /// owning store outside every lock, with the recompute-cost hint
    /// cost-aware eviction ranks by — a deterministic function of the
    /// operation (wall-clock timings would make eviction irreproducible).
    /// Claims one id; returns the new entry's id and resident
    /// bytes, which the owner publishes once its budget holds again.
    #[expect(clippy::too_many_arguments, reason = "an insert carries a full entry")]
    pub(crate) fn insert(
        &mut self,
        op: FftOpKind,
        loc: usize,
        (raw_norm, raw_input): (f64, Arc<[Complex32]>),
        key: Vec<f64>,
        value: Arc<[Complex32]>,
        origin: Provenance,
        recompute_cost: f64,
    ) -> (u64, u64) {
        let id = self.clock.next_id();
        self.scopes
            .entry((op, loc))
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
        self.policy.charge(&mut record.meta);
        let bytes = record.meta.bytes;
        self.value_bytes += record.value_bytes();
        self.entries.insert(id, record);
        (id, bytes)
    }

    /// The entry the rule would evict next: minimum `(rank, id)` over all
    /// entries. Order-independent over the hash map, hence deterministic.
    pub(crate) fn peek_victim(&self) -> Option<(f64, u64)> {
        self.entries
            .values()
            .map(|r| (CostAwarePolicy::rank(&r.meta), r.meta.id))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Removes a specific entry — the victim the owning store's budget
    /// enforcement picked. Returns the bytes freed, `None` if the entry is
    /// gone.
    pub(crate) fn evict_id(&mut self, id: u64) -> Option<u64> {
        let record = self.entries.remove(&id)?;
        if let Some(index) = self.scopes.get_mut(&record.scope) {
            index.remove(id);
        }
        self.value_bytes -= record.value_bytes();
        Some(record.meta.bytes)
    }
}

#[cfg(test)]
mod tests {
    //! The stripe's protocol, driven through the owning store's public
    //! probe → commit seam on one stripe and on several: every behaviour
    //! must be independent of the shard count.

    use super::*;
    use crate::store::MemoStore;
    use crate::testutil::{chunk, fill, insert, lookup, store};
    use mlr_lamino::FftOpKind::{Fu1D, Fu2D};
    use mlr_math::complex::narrow;
    use mlr_math::norms::scale_aware_similarity_c;

    const LAYOUTS: [usize; 2] = [1, 4];

    fn config(tau: f64) -> MemoDbConfig {
        MemoDbConfig {
            tau,
            ..Default::default()
        }
    }

    fn at(iteration: usize) -> Provenance {
        Provenance::solo(iteration)
    }

    #[test]
    fn query_empty_is_miss() {
        for shards in LAYOUTS {
            let d = store(config(0.9), shards);
            assert!(d.is_empty());
            let input = chunk(1.0, 0.0, 128);
            assert_eq!(d.encode(&input).len(), crate::encoder::SKETCH_DIM);
            assert!(lookup(&d, Fu2D, 0, &input, at(1)).is_none());
            assert_eq!(d.stats().queries, 1);
        }
    }

    #[test]
    fn insert_then_identical_query_hits() {
        for shards in LAYOUTS {
            let d = store(config(0.9), shards);
            let input = chunk(1.0, 0.0, 256);
            let output = chunk(2.0, 1.0, 64);
            insert(&d, Fu2D, 3, &input, output.clone(), at(0));
            let (value, similarity, _) = lookup(&d, Fu2D, 3, &input, at(1)).expect("hit");
            assert!(similarity > 0.999);
            // Served in the stored format: the inserted value, narrowed.
            assert_eq!(Some(value), narrow(&output));
        }
    }

    #[test]
    fn dissimilar_query_misses() {
        for shards in LAYOUTS {
            let d = store(config(0.95), shards);
            insert(
                &d,
                Fu2D,
                3,
                &chunk(1.0, 0.0, 256),
                chunk(2.0, 1.0, 64),
                at(0),
            );
            // Same location but very different content.
            let hit = lookup(&d, Fu2D, 3, &chunk(1.0, 2.5, 256), at(1));
            assert!(hit.is_none(), "expected miss, got {:?}", hit.map(|h| h.1));
        }
    }

    #[test]
    fn location_scoping_prevents_cross_location_hits() {
        for shards in LAYOUTS {
            let d = store(config(0.9), shards);
            let input = chunk(1.0, 0.0, 256);
            insert(&d, Fu2D, 0, &input, chunk(2.0, 1.0, 64), at(0));
            assert!(lookup(&d, Fu2D, 1, &input, at(1)).is_none());
        }
    }

    #[test]
    fn scoping_separates_operations_at_one_location() {
        for shards in LAYOUTS {
            let d = store(config(0.9), shards);
            let input = chunk(1.0, 0.0, 256);
            insert(&d, Fu2D, 7, &input, chunk(2.0, 1.0, 64), at(0));
            // Same location, other operation: a different scope.
            assert!(lookup(&d, Fu1D, 7, &input, at(1)).is_none());
            assert!(lookup(&d, Fu2D, 7, &input, at(1)).is_some());
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
        for shards in LAYOUTS {
            let loose = store(config((sim - 0.05).max(0.0)), shards);
            insert(&loose, Fu1D, 0, &base, chunk(2.0, 0.5, 32), at(0));
            assert!(lookup(&loose, Fu1D, 0, &perturbed, at(1)).is_some());

            let strict = store(config((sim + 0.02).min(0.9999)), shards);
            insert(&strict, Fu1D, 0, &base, chunk(2.0, 0.5, 32), at(0));
            assert!(lookup(&strict, Fu1D, 0, &perturbed, at(1)).is_none());
        }
    }

    #[test]
    fn value_bytes_grow_with_insertions() {
        for shards in LAYOUTS {
            let d = store(config(0.9), shards);
            assert_eq!(d.value_bytes(), 0);
            fill(&d, 4, |_| {});
            assert_eq!(d.len(), 4);
            // 8 bytes a stored element: 32-element values, and resident
            // bytes additionally count the 64-element raw inputs.
            assert_eq!(d.value_bytes(), 4 * 32 * 8);
            assert_eq!(d.resident_bytes(), 4 * 8 * (64 + 32));
            assert!(d.peak_resident_bytes() >= d.resident_bytes());
        }
    }

    #[test]
    fn entry_budget_is_enforced_after_every_insert() {
        for shards in LAYOUTS {
            let capped = MemoDbConfig {
                budget: CapacityBudget::entries(3),
                ..config(0.9)
            };
            let d = store(capped, shards);
            fill(&d, 8, |loc| {
                assert!(d.len() <= 3, "entry cap violated after insert {loc}")
            });
            assert_eq!(d.len(), 3);
            assert_eq!(d.evictions(), 5);
            // Never-hit entries of one size age out oldest first: the
            // earliest locations now miss.
            assert!(lookup(&d, Fu2D, 0, &chunk(1.0, 0.0, 64), at(1)).is_none());
            assert!(lookup(&d, Fu2D, 7, &chunk(8.0, 0.0, 64), at(1)).is_some());
        }
    }

    #[test]
    fn byte_budget_bounds_resident_footprint() {
        for shards in LAYOUTS {
            // Measure the footprint of 4 entries, then rebuild with half of it.
            let unbounded = store(config(0.9), shards);
            fill(&unbounded, 4, |_| {});
            let cap = unbounded.resident_bytes() / 2;
            let capped = MemoDbConfig {
                budget: CapacityBudget::bytes(cap),
                ..config(0.9)
            };
            let bounded = store(capped, shards);
            fill(&bounded, 4, |_| {
                let resident = bounded.resident_bytes();
                assert!(resident <= cap, "byte cap violated: {resident} > {cap}");
            });
            assert!(bounded.peak_resident_bytes() <= cap);
            assert!(bounded.evictions() > 0);
        }
    }
}
