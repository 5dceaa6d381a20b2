//! The sharded, lock-striped concurrent memoization store.
//!
//! [`ShardedMemoDb`] is the memoization store: one logical database whose
//! index scopes are distributed over `N` shards, each behind its own
//! `parking_lot` mutex, so concurrent reconstruction jobs contend only when
//! they touch the *same* chunk neighbourhood (a standalone executor owns a
//! one-shard instance). It is the in-process analogue
//! of the paper's memory-node database (Figure 6) serving several compute
//! jobs at once: entries inserted by job A are served to job B (tracked by
//! the `cross_job_hits` counter), which is where a shared database beats
//! per-job isolation.
//!
//! Sharding is by index scope — the `(operation, chunk location)` pair the
//! paper observes reuse at (Figure 4) — so a scope never straddles shards
//! and query semantics are *identical* for every shard count: the same
//! inserts produce the same hit/miss sequence with one stripe or sixteen
//! (a scope's index is its key list in insertion order, and nothing else).
//! A key is a pure function of its chunk ([`sketch`]), so every tenant
//! speaks the same key space by construction.
//!
//! # Capacity governance
//!
//! When the configuration carries a bounded
//! [`CapacityBudget`](crate::CapacityBudget), the store enforces it over all
//! stripes at once: after every insert it selects the store-wide minimum
//! `(rank, id)` victim ([`CostAwarePolicy`]) under one eviction lock, so the
//! resident footprint never exceeds the cap at any observable point and —
//! because every stripe shares one [`StoreClock`] (entry ids) and one
//! policy — the evicted entries are exactly the ones a one-shard store with
//! the same budget would evict. A stripe
//! frees nothing on its own. Published resident counters are only updated
//! *after* enforcement, so external observers never see an over-budget
//! store.
//!
//! An eviction removes the entry from the store, not from a compute-node
//! cache that already holds its `Arc`s: that cache may serve the value once
//! more, and its own byte count (`MemoCache::bytes`) is where it shows.

use crate::db::{scope_hash, MemoDatabase, MemoDbConfig};
use crate::encoder::sketch;
use crate::eviction::{CostAwarePolicy, StoreClock};
use crate::store::{MemoStore, ProbeOutcome, Provenance, StoreStats};
use mlr_lamino::FftOpKind;
use mlr_math::complex::narrow;
use mlr_math::norms::l2_norm_c32;
use mlr_math::Complex64;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A query counts as "under pressure" when the tightest global cap is at
/// least this utilised — the regime the bounded-store hit rate is judged in.
const PRESSURE_THRESHOLD: f64 = 0.95;

/// Default number of lock stripes. Enough to keep eight-ish concurrent jobs
/// off each other's locks without bloating small deployments.
pub const DEFAULT_SHARDS: usize = 16;

/// A concurrent memoization store sharded by chunk-location hash.
pub struct ShardedMemoDb {
    config: MemoDbConfig,
    shards: Vec<Mutex<MemoDatabase>>,
    /// The replacement rule, shared with every stripe (they charge, budget
    /// enforcement here tells it what was evicted).
    policy: Arc<CostAwarePolicy>,
    /// Serialises insert + global enforcement when the budget is bounded,
    /// so the budget invariant holds at every observable point.
    eviction_lock: Mutex<()>,
    /// Resident bytes/entries as of the last post-enforcement publish.
    published_resident: AtomicI64,
    published_entries: AtomicI64,
    /// High-water mark of the published resident bytes.
    peak_resident: AtomicU64,
    queries: AtomicU64,
    hits: AtomicU64,
    cross_job_hits: AtomicU64,
    inserts: AtomicU64,
    refused_inserts: AtomicU64,
    evictions: AtomicU64,
    pressure_queries: AtomicU64,
    pressure_hits: AtomicU64,
}

impl ShardedMemoDb {
    /// Creates an empty store with [`DEFAULT_SHARDS`] stripes.
    pub fn new(config: MemoDbConfig) -> Self {
        Self::with_shards(config, DEFAULT_SHARDS)
    }

    /// Creates an empty store with an explicit shard count.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn with_shards(config: MemoDbConfig, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let clock = StoreClock::new();
        let policy = Arc::new(CostAwarePolicy::default());
        // Stripes share the clock and policy, so eviction is independent of
        // the shard count.
        let shard_dbs = (0..shards)
            .map(|_| {
                Mutex::new(MemoDatabase::stripe(
                    config.tau,
                    Arc::clone(&clock),
                    Arc::clone(&policy),
                ))
            })
            .collect();
        Self {
            config,
            shards: shard_dbs,
            policy,
            eviction_lock: Mutex::new(()),
            published_resident: AtomicI64::new(0),
            published_entries: AtomicI64::new(0),
            peak_resident: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            cross_job_hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            refused_inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pressure_queries: AtomicU64::new(0),
            pressure_hits: AtomicU64::new(0),
        }
    }

    /// Which shard owns the index scope of `(op, loc)`.
    fn shard_for(&self, op: FftOpKind, loc: usize) -> &Mutex<MemoDatabase> {
        &self.shards[self.stripe_of(op, loc)]
    }

    /// Index of the stripe owning the index scope of `(op, loc)`.
    fn stripe_of(&self, op: FftOpKind, loc: usize) -> usize {
        (scope_hash(op, loc) % self.shards.len() as u64) as usize
    }

    /// The reference [`MemoStore::probe_with_key`]'s key selector is tested
    /// against (`tests/selector.rs`), never called by a run: every entry of
    /// the scope that `origin` may use goes through the τ gate, no key
    /// involved, and the most similar one that passes is the hit. Read-only,
    /// like a probe. When this hits and the keyed probe does not, the
    /// sketch's nearest candidate lost a reachable hit.
    pub fn probe_exhaustive(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        origin: Provenance,
    ) -> ProbeOutcome {
        self.shard_for(op, loc)
            .lock()
            .probe_exhaustive(op, loc, input, origin)
    }

    /// Per-shard entry counts (diagnostics; shows stripe balance).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().len()).collect()
    }

    /// High-water mark of the resident footprint, observed only at
    /// post-enforcement points — with a byte cap set this never exceeds it.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident.load(Ordering::Relaxed)
    }

    /// Entries evicted so far to satisfy the budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The published `(resident bytes, entries)` totals, clamped at zero —
    /// delta accounting can transiently dip negative when enforcement evicts
    /// the entry being inserted before its insert publishes it.
    fn published(&self) -> (u64, u64) {
        (
            self.published_resident.load(Ordering::Relaxed).max(0) as u64,
            self.published_entries.load(Ordering::Relaxed).max(0) as u64,
        )
    }

    /// Evicts store-wide minimum-`(rank, id)` victims — the entries a
    /// one-shard store would pick — until the caps hold over the published
    /// totals plus the one entry being inserted. Caller must hold
    /// `eviction_lock`. Each eviction takes what it freed out of the
    /// published counters (no stripe re-summing on this path), and the new
    /// entry is only published by the caller once enforcement is done, so
    /// external observers never see an over-budget store.
    fn enforce_global(&self, pending_bytes: u64) {
        loop {
            let (bytes, entries) = self.published();
            if !(self.config.budget).exceeded(bytes + pending_bytes, entries + 1) {
                break;
            }
            let victim = (self.shards.iter().enumerate())
                .filter_map(|(i, s)| s.lock().peek_victim().map(|(rank, id)| (rank, id, i)))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let Some((rank, id, stripe)) = victim else {
                break;
            };
            self.policy.on_evict(rank);
            let mut db = self.shards[stripe].lock();
            if let Some(freed) = db.evict_id(id) {
                self.published_resident
                    .fetch_sub(freed as i64, Ordering::Relaxed);
                self.published_entries.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl MemoStore for ShardedMemoDb {
    fn config(&self) -> MemoDbConfig {
        self.config
    }

    fn encode(&self, input: &[Complex64]) -> Vec<f64> {
        sketch(input)
    }

    fn has_fingerprint_neighbor(
        &self,
        op: FftOpKind,
        loc: usize,
        fp: &crate::fingerprint::ChunkFingerprint,
    ) -> bool {
        self.shard_for(op, loc)
            .lock()
            .has_fingerprint_neighbor(op, loc, fp)
    }

    fn note_fingerprint(
        &self,
        op: FftOpKind,
        loc: usize,
        fp: crate::fingerprint::ChunkFingerprint,
    ) {
        self.shard_for(op, loc).lock().note_fingerprint(op, loc, fp);
    }

    fn probe_with_key(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: &[f64],
        origin: Provenance,
    ) -> ProbeOutcome {
        // Pure read against the owning stripe: no counters, no
        // published-counter adjustments.
        self.shard_for(op, loc)
            .lock()
            .probe(op, loc, input, key, origin)
    }

    fn commit_hit(
        &self,
        op: FftOpKind,
        loc: usize,
        entry: u64,
        entry_origin: Provenance,
        origin: Provenance,
    ) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if self.pressure() >= PRESSURE_THRESHOLD {
            self.pressure_queries.fetch_add(1, Ordering::Relaxed);
            self.pressure_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        if entry_origin.job != origin.job {
            self.cross_job_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.shard_for(op, loc)
            .lock()
            .commit_hit(entry, entry_origin, origin);
    }

    fn commit_miss(&self, _op: FftOpKind, _loc: usize) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if self.pressure() >= PRESSURE_THRESHOLD {
            self.pressure_queries.fetch_add(1, Ordering::Relaxed);
        }
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
        // reuses), outside every lock. What `f32` cannot hold is not stored:
        // no id.
        let (Some(raw_input), Some(value)) = (narrow(input), narrow(&output)) else {
            self.refused_inserts.fetch_add(1, Ordering::Relaxed);
            return u64::MAX;
        };
        let raw = (l2_norm_c32(&raw_input), raw_input);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let bounded = self.config.budget.is_bounded();
        // One writer at a time when bounded: the budget invariant must hold
        // at every observable point, so insert + global enforcement are
        // atomic with respect to other inserts. Queries stay concurrent
        // (they only take their own stripe's lock).
        let _guard = bounded.then(|| self.eviction_lock.lock());
        let stripe = self.stripe_of(op, loc);
        let (id, new_bytes) =
            (self.shards[stripe].lock()).insert(op, loc, raw, key, value, origin, recompute_cost);
        // The new entry is published only once the budget holds with it —
        // observers never see an over-budget store.
        if bounded {
            self.enforce_global(new_bytes);
        }
        self.published_resident
            .fetch_add(new_bytes as i64, Ordering::Relaxed);
        self.published_entries.fetch_add(1, Ordering::Relaxed);
        self.peak_resident
            .fetch_max(self.published().0, Ordering::Relaxed);
        id
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    fn value_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().value_bytes()).sum()
    }

    fn resident_bytes(&self) -> u64 {
        self.published().0
    }

    fn pressure(&self) -> f64 {
        // Lock-free: the same published counters the query-time pressure
        // accounting reads, so admission checks never touch a stripe lock.
        let (bytes, entries) = self.published();
        self.config.budget.pressure(bytes, entries)
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.len(),
            queries: self.queries.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            cross_job_hits: self.cross_job_hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            value_bytes: self.value_bytes(),
            refused_inserts: self.refused_inserts.load(Ordering::Relaxed),
            evictions: self.evictions(),
            resident_bytes: self.resident_bytes(),
            peak_resident_bytes: self.peak_resident_bytes(),
            pressure_queries: self.pressure_queries.load(Ordering::Relaxed),
            pressure_hits: self.pressure_hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::CapacityBudget;
    use crate::testutil::{chunk, fill, insert, lookup, lookup_or_insert, store};
    use mlr_lamino::FftOpKind::{Fu1D, Fu2D, Fu2DAdj};
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn config(budget: CapacityBudget) -> MemoDbConfig {
        MemoDbConfig { tau: 0.9, budget }
    }

    fn sharded(shards: usize) -> ShardedMemoDb {
        store(config(CapacityBudget::unbounded()), shards)
    }

    #[test]
    fn insert_then_query_hits_across_jobs() {
        let db = sharded(4);
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
    fn outcome_is_independent_of_shard_count() {
        // The same lookup-or-insert trace against 1, 3 and 16 shards must
        // produce identical hit/miss sequences — the determinism contract
        // the runtime relies on (one shard is what a standalone executor
        // builds for itself).
        let trace = [
            (Fu2D, 0, 1.0, 0.0),
            (Fu2D, 1, 1.0, 0.4),
            (Fu1D, 0, 0.7, 0.1),
            (Fu2DAdj, 3, 1.3, 0.9),
            (Fu2D, 0, 1.01, 0.01),
            (Fu1D, 0, 0.72, 0.12),
        ];
        let run = |shards: usize| -> Vec<bool> {
            let store = sharded(shards);
            (trace.iter().enumerate())
                .map(|(it, &(op, loc, scale, phase))| {
                    let (input, output) = (chunk(scale, phase, 256), chunk(2.0, 0.5, 16));
                    lookup_or_insert(&store, op, loc, &input, output, Provenance::solo(it + 1))
                })
                .collect()
        };
        let reference = run(1);
        assert!(
            reference.iter().any(|&h| h),
            "trace never hits — test is vacuous"
        );
        for shards in [3, 16] {
            assert_eq!(run(shards), reference, "{shards} shards diverged");
        }
    }

    #[test]
    fn scopes_do_not_leak_across_locations() {
        let db = sharded(8);
        let input = chunk(1.0, 0.0, 256);
        insert(
            &db,
            Fu2D,
            0,
            &input,
            chunk(2.0, 1.0, 16),
            Provenance::solo(0),
        );
        assert!(
            lookup(&db, Fu2D, 1, &input, Provenance::solo(1)).is_none(),
            "per-location scoping violated"
        );
    }

    #[test]
    fn every_location_scope_lives_in_the_stripe_it_hashes_to() {
        // A scope is one `(operation, location)` pair and never straddles
        // stripes: an entry is found at its own location through the stripe
        // `stripe_of` names, and at no other location — including ones that
        // hash to the same stripe.
        let db = sharded(8);
        let input = chunk(1.0, 0.0, 256);
        let mut per_stripe = vec![0usize; db.shards.len()];
        for loc in 0..24 {
            let out = chunk(2.0, 1.0, 16);
            insert(&db, Fu2D, loc, &input, out, Provenance::solo(0));
            per_stripe[db.stripe_of(Fu2D, loc)] += 1;
        }
        assert_eq!(db.shard_sizes(), per_stripe);
        for loc in 0..24 {
            assert!(lookup(&db, Fu2D, loc, &input, Provenance::solo(1)).is_some());
        }
        let sharing_a_stripe = (24..)
            .find(|&loc| db.stripe_of(Fu2D, loc) == db.stripe_of(Fu2D, 0))
            .expect("some location hashes to stripe of location 0");
        assert!(
            lookup(&db, Fu2D, sharing_a_stripe, &input, Provenance::solo(1)).is_none(),
            "a scope leaked to another location of its stripe"
        );
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
        for shards in [1, 4] {
            let db = sharded(shards);
            let query = chunk(1.0, 0.0, 256);
            let mut ids = Vec::new();
            for (it, scale) in [(1, 1.03), (2, 1.001)] {
                let input = chunk(scale, 0.02 * (scale - 1.0), 256);
                let value = chunk(2.0, 1.0, 32);
                ids.push(insert(&db, Fu2D, 5, &input, value, Provenance::solo(it)));
            }
            let key = db.encode(&query);
            // Iteration 1 may use neither entry, 2 the older only, 3 both
            // (and the nearer wins); the exhaustive reference agrees.
            for (it, expected) in [(1, None), (2, Some(ids[0])), (3, Some(ids[1]))] {
                let at = Provenance::solo(it);
                let keyed = db.probe_with_key(Fu2D, 5, &query, &key, at);
                assert_eq!(served(keyed), expected, "{shards} shards, iteration {it}");
                let reference = db.probe_exhaustive(Fu2D, 5, &query, at);
                assert_eq!(served(reference), expected);
            }
        }
    }

    #[test]
    fn value_accounting_sums_over_shards() {
        let db = sharded(4);
        fill(&db, 8, |_| {});
        assert_eq!(db.len(), 8);
        assert_eq!(db.value_bytes(), 8 * 32 * 8);
        // Resident bytes additionally count the raw inputs and are
        // published after every insert.
        assert_eq!(db.resident_bytes(), 8 * 8 * (64 + 32));
        assert!(db.peak_resident_bytes() >= db.resident_bytes());
        assert_eq!(db.shard_sizes().iter().sum::<usize>(), 8);
        assert!(
            db.shard_sizes().iter().filter(|&&n| n > 0).count() > 1,
            "all in one stripe"
        );
    }

    #[test]
    fn global_entry_cap_is_enforced_across_shards() {
        let db = store(config(CapacityBudget::entries(3)), 4);
        fill(&db, 10, |loc| {
            assert!(db.len() <= 3, "global cap violated after insert {loc}")
        });
        assert_eq!(db.len(), 3);
        assert_eq!(db.evictions(), 7);
        let stats = db.stats();
        assert_eq!(stats.evictions, 7);
        assert_eq!(stats.entries, 3);
        assert_eq!(
            db.pressure(),
            1.0,
            "an entry cap at its limit is full pressure"
        );
    }

    #[test]
    fn bounded_sharded_store_matches_unsharded_eviction() {
        // A byte-capped trace must produce identical hit/miss sequences,
        // identical surviving entries and identical counters whether the
        // store has one stripe or many — the shared clock + global victim
        // selection guarantee.
        let run = |store: &ShardedMemoDb| -> (Vec<bool>, StoreStats) {
            let mut outcomes = Vec::new();
            for round in 0..3usize {
                for loc in 0..12usize {
                    let input = chunk(1.0 + loc as f64, 0.2 * loc as f64, 128);
                    let origin = Provenance::solo(round + 1);
                    let output = chunk(2.0, 0.5, 64);
                    outcomes.push(lookup_or_insert(store, Fu2D, loc, &input, output, origin));
                }
            }
            (outcomes, store.stats())
        };
        // Measure the unbounded footprint, then cap at half of it.
        let unbounded = sharded(4);
        let _ = run(&unbounded);
        let cap = unbounded.resident_bytes() / 2;
        assert!(cap > 0);

        let reference = run(&store(config(CapacityBudget::bytes(cap)), 1));
        assert!(
            reference.1.evictions > 0,
            "cap at 50% must evict — test is vacuous"
        );
        for shards in [4, 16] {
            let store = store(config(CapacityBudget::bytes(cap)), shards);
            assert_eq!(run(&store), reference, "{shards} shards diverged");
            assert!(store.peak_resident_bytes() <= cap);
        }
    }

    #[test]
    fn insert_ids_are_dense_for_every_shard_layout() {
        // The store clock numbers inserts 0, 1, 2, … in commit order,
        // identically for every shard layout; hits and misses claim none.
        for shards in [1, 4] {
            let db = sharded(shards);
            let (mut hits, mut ids) = (0u64, Vec::new());
            for round in 0..3usize {
                for loc in 0..5usize {
                    let input = chunk(1.0 + loc as f64, 0.0, 64);
                    let at = Provenance::solo(round + 1);
                    if lookup(&db, Fu2D, loc, &input, at).is_some() {
                        hits += 1;
                    } else {
                        ids.push(insert(&db, Fu2D, loc, &input, chunk(2.0, 0.5, 16), at));
                    }
                }
            }
            assert!(
                hits > 0 && !ids.is_empty(),
                "schedule must take both commits"
            );
            assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn published_totals_equal_the_stripe_sums_under_both_caps() {
        // Inserts of mixed sizes under an entry cap and a byte cap: the
        // published counters, which only ever move by deltas, must land on
        // what the stripes actually hold.
        let (cap_bytes, cap_entries) = (24 * 1024u64, 20u64);
        let budget = CapacityBudget {
            max_bytes: Some(cap_bytes),
            max_entries: Some(cap_entries),
        };
        for shards in [1, 3, 16] {
            let db = store(config(budget), shards);
            let mut rng = seeded(0x5EED ^ shards as u64);
            let (mut by_entries, mut by_bytes) = (false, false);
            for i in 0..120usize {
                let n = [16usize, 64, 256][rng.gen_range(0..3usize)];
                let loc = rng.gen_range(0..40usize);
                let (input, output) = (chunk(1.0 + i as f64, 0.1, n), chunk(2.0, 0.5, n / 2));
                let evicted = db.evictions();
                insert(&db, Fu2D, loc, &input, output, Provenance::solo(i));
                assert!(db.resident_bytes() <= cap_bytes && db.len() as u64 <= cap_entries);
                by_entries |= db.len() as u64 == cap_entries;
                by_bytes |= db.evictions() > evicted && (db.len() as u64) < cap_entries;
            }
            let held = |f: fn(&MemoDatabase) -> u64| db.shards.iter().map(|s| f(&s.lock())).sum();
            assert_eq!(db.resident_bytes(), held(MemoDatabase::resident_bytes));
            assert_eq!(db.len() as u64, held(|stripe| stripe.len() as u64));
            let stats = db.stats();
            assert!(stats.peak_resident_bytes <= cap_bytes);
            assert!(by_entries && by_bytes, "{shards} shards: a cap never bound");
            assert_eq!(stats.inserts - stats.evictions, db.len() as u64);
            assert_eq!(stats.resident_bytes, db.resident_bytes());
        }
    }
}
