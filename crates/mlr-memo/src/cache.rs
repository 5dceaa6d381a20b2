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

use mlr_lamino::FftOpKind;
use mlr_math::norms::scale_aware_similarity;
use mlr_math::Complex32;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
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

/// One cached entry: the encoded key it was stored under and the value.
#[derive(Debug, Clone)]
struct CacheEntry {
    key: Vec<f64>,
    /// Shared payload buffer — the cache holds a reference into the same
    /// allocation the database serves, never a private copy.
    value: Arc<[Complex32]>,
    /// Outer ADMM iteration in which the entry was inserted; entries are only
    /// served to *later* iterations (reuse across iterations is the paper's
    /// premise; reuse within one LSP solve would short-circuit the CG).
    iteration: usize,
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
    /// Global organisation: a flat pool (capacity bounded to the number of
    /// distinct (op, location) pairs seen, mirroring the paper's "overall
    /// cache size equal to the original output size").
    global: Vec<CacheEntry>,
    global_capacity: usize,
    stats: CacheStats,
}

impl MemoCache {
    /// Creates a cache of the given kind. `global_capacity` bounds the pool
    /// size for the global organisation (ignored for the private one).
    pub fn new(kind: CacheKind, global_capacity: usize) -> Self {
        Self {
            kind_is_global: kind == CacheKind::Global,
            private: HashMap::new(),
            global: Vec::new(),
            global_capacity: global_capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// The cache organisation.
    pub fn kind(&self) -> CacheKind {
        if self.kind_is_global {
            CacheKind::Global
        } else {
            CacheKind::Private
        }
    }

    /// Looks up a value for `key` at `(op, loc)`. A cached entry is returned
    /// only when the cosine similarity between `key` and the entry's key
    /// exceeds `tau`. This is [`MemoCache::peek`] with its statistics folded
    /// in immediately ([`MemoCache::note_lookup`]).
    pub fn lookup(
        &mut self,
        op: FftOpKind,
        loc: usize,
        key: &[f64],
        tau: f64,
        current_iteration: usize,
    ) -> Option<Arc<[Complex32]>> {
        let (found, comparisons) = self.peek(op, loc, key, tau, current_iteration);
        self.note_lookup(found.is_some(), comparisons);
        found
    }

    /// Read-only lookup for the parallel phase of the executor: *no*
    /// statistics side effects, so many chunks can peek concurrently under a
    /// shared lock. Returns the value
    /// (if any) and the number of similarity comparisons performed; the
    /// caller folds both into the statistics during its ordered commit via
    /// [`MemoCache::note_lookup`].
    pub fn peek(
        &self,
        op: FftOpKind,
        loc: usize,
        key: &[f64],
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
                if scale_aware_similarity(key, &entry.key) > tau {
                    return (Some(Arc::clone(&entry.value)), comparisons);
                }
            }
            (None, comparisons)
        } else {
            match self.private.get(&(op, loc)) {
                Some(entry) if entry.iteration < current_iteration => {
                    let hit = scale_aware_similarity(key, &entry.key) > tau;
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

    /// Inserts (or replaces, FIFO) the value fetched from the memoization
    /// database for `(op, loc)`.
    pub fn insert(
        &mut self,
        op: FftOpKind,
        loc: usize,
        key: Vec<f64>,
        value: Arc<[Complex32]>,
        iteration: usize,
    ) {
        self.stats.insertions += 1;
        let entry = CacheEntry {
            key,
            value,
            iteration,
        };
        if self.kind_is_global {
            if self.global.len() >= self.global_capacity {
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

    /// Resident bytes (keys + values).
    pub fn bytes(&self) -> u64 {
        let entry_bytes = |e: &CacheEntry| (size_of_val(&*e.key) + size_of_val(&*e.value)) as u64;
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

    fn key(v: f64) -> Vec<f64> {
        vec![v, 2.0 * v, -v, 0.5]
    }

    fn value(n: usize) -> Arc<[Complex32]> {
        let z = Complex32 {
            re: n as f32,
            im: 0.0,
        };
        vec![z; n].into()
    }

    #[test]
    fn private_cache_hit_and_miss() {
        let mut c = MemoCache::new(CacheKind::Private, 0);
        assert!(c.lookup(FftOpKind::Fu2D, 3, &key(1.0), 0.9, 1).is_none());
        c.insert(FftOpKind::Fu2D, 3, key(1.0), value(4), 0);
        // Same key: similarity 1 > tau.
        assert!(c.lookup(FftOpKind::Fu2D, 3, &key(1.0), 0.9, 1).is_some());
        // Rescaled key: same direction but double the magnitude — the
        // scale-aware similarity is only 0.5, so it must miss.
        assert!(c.lookup(FftOpKind::Fu2D, 3, &key(2.0), 0.9, 1).is_none());
        // Different location or op: miss.
        assert!(c.lookup(FftOpKind::Fu2D, 4, &key(1.0), 0.9, 1).is_none());
        assert!(c.lookup(FftOpKind::Fu1D, 3, &key(1.0), 0.9, 1).is_none());
        // Dissimilar key at the same location: miss.
        assert!(c
            .lookup(FftOpKind::Fu2D, 3, &[1.0, -2.0, 1.0, -0.5], 0.9, 1)
            .is_none());
    }

    #[test]
    fn private_cache_is_single_entry_fifo() {
        let mut c = MemoCache::new(CacheKind::Private, 0);
        c.insert(FftOpKind::Fu1D, 0, key(1.0), value(2), 0);
        c.insert(FftOpKind::Fu1D, 0, vec![0.0, 0.0, 1.0, 0.0], value(3), 0);
        assert_eq!(c.len(), 1);
        // The original key has been evicted.
        assert!(c.lookup(FftOpKind::Fu1D, 0, &key(1.0), 0.99, 1).is_none());
        assert!(c
            .lookup(FftOpKind::Fu1D, 0, &[0.0, 0.0, 1.0, 0.0], 0.99, 1)
            .is_some());
    }

    #[test]
    fn global_cache_shares_across_locations() {
        let mut c = MemoCache::new(CacheKind::Global, 64);
        c.insert(FftOpKind::Fu2D, 0, key(1.0), value(2), 0);
        // A lookup at a *different* location can still hit.
        assert!(c.lookup(FftOpKind::Fu2D, 9, &key(1.0), 0.9, 1).is_some());
    }

    #[test]
    fn global_cache_costs_more_comparisons() {
        let locations = 16usize;
        let mut private = MemoCache::new(CacheKind::Private, 0);
        let mut global = MemoCache::new(CacheKind::Global, locations);
        for loc in 0..locations {
            let k = vec![loc as f64 + 1.0, 1.0, 0.0, 0.0];
            private.insert(FftOpKind::Fu2D, loc, k.clone(), value(2), 0);
            global.insert(FftOpKind::Fu2D, loc, k, value(2), 0);
        }
        // One lookup per location with a key orthogonal to everything stored,
        // forcing full scans in the global cache.
        let probe = vec![0.0, 0.0, 0.0, 1.0];
        for loc in 0..locations {
            let _ = private.lookup(FftOpKind::Fu2D, loc, &probe, 0.9, 1);
            let _ = global.lookup(FftOpKind::Fu2D, loc, &probe, 0.9, 1);
        }
        assert!(global.stats().comparisons >= locations as u64 * locations as u64);
        assert_eq!(private.stats().comparisons, locations as u64);
    }

    #[test]
    fn global_cache_respects_capacity() {
        let mut c = MemoCache::new(CacheKind::Global, 4);
        for i in 0..10 {
            c.insert(FftOpKind::Fu1D, i, key(i as f64 + 1.0), value(1), 0);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn peek_matches_lookup_without_stats_side_effects() {
        let mut c = MemoCache::new(CacheKind::Private, 0);
        c.insert(FftOpKind::Fu2D, 3, key(1.0), value(4), 0);
        // Peek agrees with lookup on hit/miss but leaves the stats alone.
        let (hit, comparisons) = c.peek(FftOpKind::Fu2D, 3, &key(1.0), 0.9, 1);
        assert!(hit.is_some());
        assert_eq!(comparisons, 1);
        let (miss, _) = c.peek(FftOpKind::Fu2D, 4, &key(1.0), 0.9, 1);
        assert!(miss.is_none());
        // Same-iteration entries are invisible to peek, as to lookup.
        assert!(c.peek(FftOpKind::Fu2D, 3, &key(1.0), 0.9, 0).0.is_none());
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
        let mut c = MemoCache::new(CacheKind::Private, 0);
        c.insert(FftOpKind::Fu2D, 1, key(1.0), value(8), 0);
        let _ = c.lookup(FftOpKind::Fu2D, 1, &key(1.0), 0.5, 1);
        let _ = c.lookup(FftOpKind::Fu2D, 2, &key(1.0), 0.5, 1);
        let s = c.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.insertions, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.bytes(), (4 * 8 + 8 * 8) as u64);
        assert!(!c.is_empty());
        assert_eq!(c.kind(), CacheKind::Private);
    }
}
