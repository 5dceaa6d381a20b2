//! The index database: one flat key list per scope, scanned in full.
//!
//! The paper builds its index database with Faiss and picks the
//! cluster-based (inverted-file) organisation because it takes cheap dynamic
//! insertion at millions of keys (§4.3.2). A scope here is one
//! `(operation, chunk location)` pair and holds the entries inserted *at that
//! location*: at most 20 in a solo benchmark run and about 100 in the
//! twelve-job shared store (ROADMAP item 4) — below the size at which an inverted file
//! would even train its centroids. So the index is the list itself: keys in
//! insertion order in one contiguous `Vec<f64>`, a parallel id array, and a
//! [`FlatIndex::nearest`] that walks all of it with an early-abandon
//! distance.
//!
//! The scan is **O(entries in the scope)** — 103 × 128 doubles at the worst
//! measured, beside a chunk compute of ≥ 270 ns × 576 elements — and nothing
//! in this module bounds it: what does is the store's
//! [`CapacityBudget`](crate::CapacityBudget). The caller's `eligible` filter
//! runs *inside* the scan, so the nearest key of an entry the query may not
//! use (same job, same iteration) cannot shadow an older one that would have
//! passed the τ gate. Ties go to the first-inserted key, and removal keeps
//! the order, so the result is a pure function of the insert / remove
//! sequence — which the store's determinism contracts rely on. What a Faiss
//! query costs at paper scale is a row of `mlr_sim::CostModel`.

/// The keys of one scope, in insertion order.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    ids: Vec<u64>,
    /// `ids.len() × dim` key data, row per key.
    data: Vec<f64>,
}

impl FlatIndex {
    /// Creates an empty index for keys of dimension `dim`.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "key dimension must be positive");
        Self {
            dim,
            ids: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends a key under `id`.
    ///
    /// # Panics
    /// Panics when the key dimension is wrong.
    pub fn add(&mut self, id: u64, key: &[f64]) {
        assert_eq!(key.len(), self.dim, "key dimension mismatch");
        self.ids.push(id);
        self.data.extend_from_slice(key);
    }

    /// Removes the key stored under `id`, if present, keeping the order of
    /// the rest; returns whether a key was removed.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(pos) = self.ids.iter().position(|&stored| stored == id) else {
            return false;
        };
        self.ids.remove(pos);
        self.data.drain(pos * self.dim..(pos + 1) * self.dim);
        true
    }

    /// The id of the stored key nearest to `query` by L2 distance among
    /// those `eligible` accepts; the first-inserted wins a tie. Allocates
    /// nothing.
    ///
    /// # Panics
    /// Panics when the query dimension is wrong.
    pub fn nearest(&self, query: &[f64], mut eligible: impl FnMut(u64) -> bool) -> Option<u64> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        // The incumbent and its squared distance: what a candidate's running
        // sum is abandoned against.
        let (mut best, mut best_sum) = (None, f64::INFINITY);
        for (&id, key) in self.ids.iter().zip(self.data.chunks_exact(self.dim)) {
            if !eligible(id) {
                continue;
            }
            if let Some(sum) = distance_sq_early_abandon(query, key, best_sum) {
                if best.is_none() || sum < best_sum {
                    (best, best_sum) = (Some(id), sum);
                }
            }
        }
        best
    }
}

/// Squared L2 distance with early abandonment: accumulates `(a-b)²` in index
/// order and gives up once the running sum can no longer beat
/// `threshold_sum` (the incumbent's full sum). Returns `None` when abandoned.
/// Partial sums are monotone non-decreasing prefixes of the exact sum, so an
/// abandoned candidate could not have won under the caller's strict
/// comparison: pruning never changes the selected key.
#[inline]
fn distance_sq_early_abandon(a: &[f64], b: &[f64], threshold_sum: f64) -> Option<f64> {
    let mut sum = 0.0;
    let mut i = 0;
    let n = a.len();
    while i < n {
        let stop = (i + 8).min(n);
        while i < stop {
            let d = a[i] - b[i];
            sum += d * d;
            i += 1;
        }
        if sum >= threshold_sum && i < n {
            return None;
        }
    }
    Some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn random_keys(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect()
    }

    fn filled(keys: &[Vec<f64>]) -> FlatIndex {
        let mut idx = FlatIndex::new(keys[0].len());
        for (i, key) in keys.iter().enumerate() {
            idx.add(i as u64, key);
        }
        idx
    }

    fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
        distance_sq_early_abandon(a, b, f64::INFINITY).unwrap()
    }

    /// The plain scan `nearest` is held to: the full squared distance to
    /// every key whose id passes `keep`, strict `<`, in insertion order.
    fn reference(keys: &[Vec<f64>], query: &[f64], keep: impl Fn(u64) -> bool) -> Option<u64> {
        let mut best: Option<(u64, f64)> = None;
        for (id, key) in (0u64..).zip(keys).filter(|(id, _)| keep(*id)) {
            let d = distance_sq(query, key);
            if best.is_none_or(|(_, b)| d < b) {
                best = Some((id, d));
            }
        }
        best.map(|(id, _)| id)
    }

    #[test]
    fn empty_index_returns_none() {
        let idx = FlatIndex::new(8);
        assert!(idx.is_empty());
        assert!(idx.nearest(&[0.0; 8], |_| true).is_none());
    }

    #[test]
    fn exact_match_found() {
        let keys = random_keys(200, 4, 3);
        let idx = filled(&keys);
        assert_eq!(idx.len(), 200);
        assert_eq!(idx.nearest(&keys[57], |_| true), Some(57));
    }

    #[test]
    fn pruned_search_is_identical_to_full_probe_scan() {
        // The property the memo determinism contracts rely on: the
        // early-abandon scan picks the key the plain one picks, across
        // removals.
        for seed in 0..6u64 {
            let keys = random_keys(300, 12, 100 + seed);
            let mut idx = filled(&keys);
            let removed = [3u64, 77, 150, 299];
            for id in removed {
                assert!(idx.remove(id));
            }
            for q in &random_keys(50, 12, 200 + seed) {
                let kept = |id| !removed.contains(&id);
                assert_eq!(idx.nearest(q, |_| true), reference(&keys, q, kept));
            }
        }
    }

    #[test]
    fn recall_against_exact_search() {
        // A full scan has nothing to miss: 100 of 100, at a scope population
        // (500) five times the largest a benchmark workload reaches.
        let keys = random_keys(500, 16, 5);
        let idx = filled(&keys);
        for q in &random_keys(100, 16, 6) {
            assert_eq!(idx.nearest(q, |_| true), reference(&keys, q, |_| true));
        }
    }

    #[test]
    fn ineligible_keys_are_skipped_and_first_inserted_wins_ties() {
        let mut keys = random_keys(40, 20, 300);
        // Exact duplicates force distance ties.
        keys.push(keys[17].clone());
        keys.push(keys[17].clone());
        let idx = filled(&keys);
        let query = &keys[17];
        assert_eq!(idx.nearest(query, |_| true), Some(17));
        // The nearest key ineligible: the next copy, then the next, then
        // whatever a plain scan of the rest finds.
        assert_eq!(idx.nearest(query, |id| id != 17), Some(40));
        assert_eq!(idx.nearest(query, |id| id != 17 && id != 40), Some(41));
        let others = |id| ![17, 40, 41].contains(&id);
        assert_eq!(idx.nearest(query, others), reference(&keys, query, others));
        assert!(idx.nearest(query, |_| false).is_none());
    }

    #[test]
    fn early_abandon_prefixes_match_full_sum() {
        // With an infinite threshold the early-abandon sum is the plain
        // squared distance bit for bit (same accumulation order).
        let a = random_keys(1, 37, 9)[0].clone();
        let b = random_keys(1, 37, 10)[0].clone();
        let full = distance_sq(&a, &b);
        let l2 = mlr_math::norms::l2_distance(&a, &b);
        assert_eq!(full.sqrt().to_bits(), l2.to_bits());
        // A threshold below the true distance abandons.
        assert!(distance_sq_early_abandon(&a, &b, full / 2.0).is_none());
    }

    #[test]
    fn remove_deletes_exactly_one_key() {
        let keys = random_keys(120, 4, 21);
        let mut idx = filled(&keys);
        // Removing a present id shrinks the index and makes it unfindable.
        assert_eq!(idx.nearest(&keys[33], |_| true), Some(33));
        assert!(idx.remove(33));
        assert_eq!(idx.len(), 119);
        assert_ne!(idx.nearest(&keys[33], |_| true), Some(33));
        // Removing an absent id is a no-op.
        assert!(!idx.remove(33));
        assert_eq!(idx.len(), 119);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut idx = FlatIndex::new(4);
        idx.add(0, &[1.0; 5]);
    }
}
