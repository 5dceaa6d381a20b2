//! The compute-node memoization cache.
//!
//! To avoid a round trip to the memory node on every query, the compute node
//! keeps a small cache of recently retrieved values. The paper's design
//! decision — and the subject of Figure 12 — is that this cache is *private
//! per chunk location*: each chunk location holds exactly one cached entry
//! (FIFO replacement), because the same location in neighbouring iterations
//! tends to produce similar FFT results (temporal locality). A *global*
//! cache shared across locations reaches essentially the same hit rate but
//! has to run a similarity comparison against every resident entry, costing
//! ~64× more comparisons on a 1K³ problem.
//!
//! A cached entry *is* the database entry that last hit at its location:
//! the same raw-input and value buffers (shared, never copied) and the same
//! cached norm. A lookup therefore evaluates the one τ gate the store
//! evaluates ([`tau_gate`]: the paper's Eq. 3 on the chunks themselves)
//! before any key exists: a cache hit encodes nothing, and the cache can
//! never serve a value the store would refuse.

use crate::db::tau_gate;
use mlr_lamino::FftOpKind;
use mlr_math::{Complex32, Complex64};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Which cache organisation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheKind {
    /// One single-entry FIFO cache per (operation, chunk location) — the
    /// paper's design.
    Private,
    /// One shared pool searched in full on every lookup.
    Global,
}

/// One cached entry: the buffers of the database entry it came from.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// The entry's raw input and its norm: what the τ gate compares with.
    raw_input: Arc<[Complex32]>,
    raw_norm: f64,
    /// Shared payload buffer — the cache holds a reference into the same
    /// allocation the database serves, never a private copy.
    value: Arc<[Complex32]>,
    /// Outer ADMM iteration in which the entry was cached; entries are only
    /// served to *later* iterations (reuse across iterations is the paper's
    /// premise; reuse within one LSP solve would short-circuit the CG).
    iteration: usize,
}

impl CacheEntry {
    /// The store's τ gate (an entry of another length — another
    /// operation's, in the global pool — never passes it).
    fn serves(&self, input: &[Complex64], tau: f64) -> bool {
        tau_gate(input, &self.raw_input, self.raw_norm, tau).is_some()
    }
}

/// Statistics of cache behaviour (feeds Figure 12 and the §4.4 comparison).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that returned a value.
    pub hits: u64,
    /// Total similarity comparisons executed across all lookups.
    pub comparisons: u64,
    /// Entries inserted.
    pub insertions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        crate::stats::ratio(self.hits, self.lookups)
    }
}

/// The memoization cache.
#[derive(Debug, Default)]
pub struct MemoCache {
    kind_is_global: bool,
    /// Private organisation: one entry per (op, location).
    private: HashMap<(FftOpKind, usize), CacheEntry>,
    /// Global organisation: a flat pool, bounded to the number of distinct
    /// (op, location) pairs inserted so far — the paper's "overall cache
    /// size equal to the original output size", the size of the private
    /// organisation over the same inserts.
    global: Vec<CacheEntry>,
    global_pairs: HashSet<(FftOpKind, usize)>,
    stats: CacheStats,
}

impl MemoCache {
    /// Creates an empty cache of the given kind.
    pub fn new(kind: CacheKind) -> Self {
        Self {
            kind_is_global: kind == CacheKind::Global,
            ..Self::default()
        }
    }

    /// Read-only lookup for phase 1 of the executor: *no* statistics side
    /// effects, so a whole batch peeks the cache as it was at dispatch.
    /// Returns the value (if any) and the number of similarity comparisons
    /// performed; the caller folds both into the statistics during its
    /// ordered commit via [`MemoCache::note_lookup`].
    pub fn peek(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        tau: f64,
        current_iteration: usize,
    ) -> (Option<Arc<[Complex32]>>, u64) {
        if self.kind_is_global {
            let mut comparisons = 0;
            for entry in &self.global {
                if entry.iteration >= current_iteration {
                    continue;
                }
                comparisons += 1;
                if entry.serves(input, tau) {
                    return (Some(Arc::clone(&entry.value)), comparisons);
                }
            }
            (None, comparisons)
        } else {
            match self.private.get(&(op, loc)) {
                Some(entry) if entry.iteration < current_iteration => {
                    let hit = entry.serves(input, tau);
                    (hit.then(|| Arc::clone(&entry.value)), 1)
                }
                _ => (None, 0),
            }
        }
    }

    /// Folds the outcome of a [`MemoCache::peek`] into the statistics (the
    /// executor does this during its ordered commit).
    pub fn note_lookup(&mut self, hit: bool, comparisons: u64) {
        self.stats.lookups += 1;
        self.stats.comparisons += comparisons;
        if hit {
            self.stats.hits += 1;
        }
    }

    /// Caches (or replaces, FIFO) the database entry that just hit at
    /// `(op, loc)`: its raw input with the norm the store cached for it,
    /// and its value.
    pub fn insert(
        &mut self,
        op: FftOpKind,
        loc: usize,
        (raw_norm, raw_input): (f64, Arc<[Complex32]>),
        value: Arc<[Complex32]>,
        iteration: usize,
    ) {
        self.stats.insertions += 1;
        let entry = CacheEntry {
            raw_input,
            raw_norm,
            value,
            iteration,
        };
        if self.kind_is_global {
            self.global_pairs.insert((op, loc));
            if self.global.len() >= self.global_pairs.len() {
                // FIFO: drop the oldest entry.
                self.global.remove(0);
            }
            self.global.push(entry);
        } else {
            // Single-entry FIFO per location: replace unconditionally.
            self.private.insert((op, loc), entry);
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        if self.kind_is_global {
            self.global.len()
        } else {
            self.private.len()
        }
    }

    /// Returns `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bytes the cached entries reference (raw inputs + values; shared
    /// with the database while the entry is resident there).
    pub fn bytes(&self) -> u64 {
        let entry_bytes =
            |e: &CacheEntry| (size_of_val(&*e.raw_input) + size_of_val(&*e.value)) as u64;
        if self.kind_is_global {
            self.global.iter().map(entry_bytes).sum()
        } else {
            self.private.values().map(entry_bytes).sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::complex::narrow;
    use mlr_math::norms::{l2_norm_c32, scale_aware_similarity_c};

    /// A four-element chunk along one direction, `v` its magnitude.
    fn input(v: f64) -> Vec<Complex64> {
        vec![
            Complex64::new(v, 2.0 * v),
            Complex64::new(-v, 0.5 * v),
            Complex64::new(0.0, v),
            Complex64::new(3.0 * v, 0.0),
        ]
    }

    /// A chunk orthogonal to every `input(v)`.
    fn orthogonal() -> Vec<Complex64> {
        vec![
            Complex64::new(2.0, -1.0),
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ZERO,
        ]
    }

    /// `chunk` as the store holds it: the norm, then the narrowed buffer.
    fn stored(chunk: &[Complex64]) -> (f64, Arc<[Complex32]>) {
        let raw = narrow(chunk).unwrap();
        (l2_norm_c32(&raw), raw)
    }

    fn value(n: usize) -> Arc<[Complex32]> {
        let z = Complex32 {
            re: n as f32,
            im: 0.0,
        };
        vec![z; n].into()
    }

    /// The engine's cache lookup: a read-only peek, then its statistics.
    fn lookup(
        c: &mut MemoCache,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        tau: f64,
        iteration: usize,
    ) -> bool {
        let (found, comparisons) = c.peek(op, loc, input, tau, iteration);
        c.note_lookup(found.is_some(), comparisons);
        found.is_some()
    }

    #[test]
    fn private_cache_hit_and_miss() {
        let mut c = MemoCache::new(CacheKind::Private);
        assert!(!lookup(&mut c, FftOpKind::Fu2D, 3, &input(1.0), 0.9, 1));
        c.insert(FftOpKind::Fu2D, 3, stored(&input(1.0)), value(4), 0);
        // Same chunk: similarity 1 > tau.
        assert!(lookup(&mut c, FftOpKind::Fu2D, 3, &input(1.0), 0.9, 1));
        // Rescaled chunk: same direction but double the magnitude — the
        // scale-aware similarity is only 0.5, so it must miss.
        assert!(!lookup(&mut c, FftOpKind::Fu2D, 3, &input(2.0), 0.9, 1));
        // Different location or op: miss.
        assert!(!lookup(&mut c, FftOpKind::Fu2D, 4, &input(1.0), 0.9, 1));
        assert!(!lookup(&mut c, FftOpKind::Fu1D, 3, &input(1.0), 0.9, 1));
        // Dissimilar chunk at the same location: miss.
        assert!(!lookup(&mut c, FftOpKind::Fu2D, 3, &orthogonal(), 0.9, 1));
    }

    #[test]
    fn cache_never_serves_what_the_raw_gate_refuses() {
        // Queries on both sides of τ against one cached entry: the cache
        // answers exactly as the τ gate on the raw chunks does, and an entry
        // cached in the current iteration is invisible either way.
        let tau = 0.92;
        let base = input(1.0);
        let mut c = MemoCache::new(CacheKind::Private);
        c.insert(FftOpKind::Fu2D, 0, stored(&base), value(4), 4);
        let mut served = [0, 0];
        for step in 0..40 {
            let query: Vec<Complex64> = base
                .iter()
                .zip(orthogonal())
                .map(|(z, o)| z.scale(1.0 + 0.005 * step as f64) + o.scale(0.02 * step as f64))
                .collect();
            let passes = scale_aware_similarity_c(&query, &base) > tau;
            let hit = c.peek(FftOpKind::Fu2D, 0, &query, tau, 5).0.is_some();
            assert_eq!(hit, passes, "step {step}");
            served[hit as usize] += 1;
            assert!(c.peek(FftOpKind::Fu2D, 0, &query, tau, 4).0.is_none());
        }
        assert!(served[0] > 5 && served[1] > 5, "one-sided: {served:?}");
    }

    #[test]
    fn private_cache_is_single_entry_fifo() {
        let mut c = MemoCache::new(CacheKind::Private);
        c.insert(FftOpKind::Fu1D, 0, stored(&input(1.0)), value(2), 0);
        c.insert(FftOpKind::Fu1D, 0, stored(&orthogonal()), value(3), 0);
        assert_eq!(c.len(), 1);
        // The original entry has been evicted.
        assert!(!lookup(&mut c, FftOpKind::Fu1D, 0, &input(1.0), 0.99, 1));
        assert!(lookup(&mut c, FftOpKind::Fu1D, 0, &orthogonal(), 0.99, 1));
    }

    #[test]
    fn global_cache_shares_across_locations() {
        let mut c = MemoCache::new(CacheKind::Global);
        c.insert(FftOpKind::Fu2D, 0, stored(&input(1.0)), value(2), 0);
        // A lookup at a *different* location can still hit...
        assert!(lookup(&mut c, FftOpKind::Fu2D, 9, &input(1.0), 0.9, 1));
        // ...and a chunk of another length is compared with nothing.
        let longer = [input(1.0), input(1.0)].concat();
        assert!(!lookup(&mut c, FftOpKind::Fu1D, 9, &longer, 0.9, 1));
    }

    #[test]
    fn global_cache_costs_more_comparisons() {
        let locations = 16usize;
        let mut private = MemoCache::new(CacheKind::Private);
        let mut global = MemoCache::new(CacheKind::Global);
        for loc in 0..locations {
            let raw = stored(&input(loc as f64 + 1.0));
            private.insert(FftOpKind::Fu2D, loc, raw.clone(), value(2), 0);
            global.insert(FftOpKind::Fu2D, loc, raw, value(2), 0);
        }
        // One lookup per location with a chunk orthogonal to everything
        // stored, forcing full scans in the global cache.
        for loc in 0..locations {
            lookup(&mut private, FftOpKind::Fu2D, loc, &orthogonal(), 0.9, 1);
            lookup(&mut global, FftOpKind::Fu2D, loc, &orthogonal(), 0.9, 1);
        }
        assert!(global.stats().comparisons >= locations as u64 * locations as u64);
        assert_eq!(private.stats().comparisons, locations as u64);
    }

    #[test]
    fn global_cache_respects_capacity() {
        // The pool holds at most one entry per distinct (op, location) pair
        // it has been given, however often a pair is refilled.
        let mut c = MemoCache::new(CacheKind::Global);
        let mut pairs = HashSet::new();
        for i in 0..24usize {
            let (op, loc) = if i % 3 == 0 {
                (FftOpKind::Fu2DAdj, i % 2)
            } else {
                (FftOpKind::Fu2D, i % 5)
            };
            pairs.insert((op, loc));
            c.insert(op, loc, stored(&input(i as f64 + 1.0)), value(1), 0);
            assert!(c.len() <= pairs.len(), "insert {i}");
        }
        assert_eq!((pairs.len(), c.len()), (7, 7));
        // The oldest entry went first: input(1.0) was inserted at i = 0.
        assert!(!lookup(
            &mut c,
            FftOpKind::Fu2DAdj,
            0,
            &input(1.0),
            0.999,
            1
        ));
        assert!(lookup(&mut c, FftOpKind::Fu2D, 0, &input(24.0), 0.999, 1));
    }

    #[test]
    fn peek_matches_lookup_without_stats_side_effects() {
        let mut c = MemoCache::new(CacheKind::Private);
        c.insert(FftOpKind::Fu2D, 3, stored(&input(1.0)), value(4), 0);
        // Peek answers hit or miss but leaves the stats alone.
        let (hit, comparisons) = c.peek(FftOpKind::Fu2D, 3, &input(1.0), 0.9, 1);
        assert!(hit.is_some());
        assert_eq!(comparisons, 1);
        let (miss, _) = c.peek(FftOpKind::Fu2D, 4, &input(1.0), 0.9, 1);
        assert!(miss.is_none());
        // Same-iteration entries are invisible to peek.
        assert!(c.peek(FftOpKind::Fu2D, 3, &input(1.0), 0.9, 0).0.is_none());
        assert_eq!(c.stats().lookups, 0);
        c.note_lookup(true, 1);
        c.note_lookup(false, 1);
        let s = c.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.comparisons, 2);
    }

    #[test]
    fn stats_and_bytes() {
        let mut c = MemoCache::new(CacheKind::Private);
        c.insert(FftOpKind::Fu2D, 1, stored(&input(1.0)), value(8), 0);
        lookup(&mut c, FftOpKind::Fu2D, 1, &input(1.0), 0.5, 1);
        lookup(&mut c, FftOpKind::Fu2D, 2, &input(1.0), 0.5, 1);
        let s = c.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.insertions, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.bytes(), (4 * 8 + 8 * 8) as u64);
        assert!(!c.is_empty());
    }
}
