//! The index database: a cluster-based approximate-nearest-neighbour index.
//!
//! The paper builds its index database with Faiss and chooses the
//! *cluster-based* (inverted-file, IVF) organisation over the graph-based one
//! because IVF supports cheap dynamic insertion — new keys arrive on every
//! memoization miss. This module is a from-scratch IVF index: keys are
//! assigned to the nearest of `nlist` k-means centroids; a query scans the
//! `nprobe` nearest clusters and returns the closest stored key by L2
//! distance.
//!
//! # Storage layout and the probe hot path
//!
//! Inverted lists are stored **structure-of-arrays**: one contiguous
//! `Vec<f64>` of key data per list (fixed stride = the key dimension), a
//! parallel id array, and precomputed squared norms. A probe therefore walks
//! cache-friendly flat memory instead of jagged `Vec<Vec<f64>>` posting
//! lists, and performs **zero allocations**: the per-query centroid ranking
//! lives in a reusable [`SearchScratch`] (leased thread-locally by
//! [`IvfIndex::search`], or passed explicitly via
//! [`IvfIndex::search_with`]). Two prunes cut the scanned key data —
//! a norm-triangle lower bound and early-abandon partial distances — both
//! engineered to return **exactly** the hit a full scan in list order would
//! (same id, same distance bits), which the determinism contracts of the
//! memo store rely on.

use mlr_math::norms::l2_distance;
use mlr_math::rng::seeded;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide switch for quantize-stage timing. Off by default so the
/// disabled hot path pays one relaxed load per probed list and zero clock
/// reads; the engine flips it per batch when telemetry is enabled.
static QUANTIZE_TIMING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Nanoseconds spent in the fixed-point shortlist kernel on this thread
    /// since the last drain. Probes run on the calling thread, so the engine
    /// drains this right after each probe with no cross-thread traffic.
    static QUANTIZE_NS: Cell<u64> = const { Cell::new(0) };
}

/// Enables or disables quantize-stage timing for subsequent probes.
pub(crate) fn set_quantize_timing(on: bool) {
    QUANTIZE_TIMING.store(on, Ordering::Relaxed);
}

/// Drains the calling thread's accumulated quantize-kernel nanoseconds.
pub(crate) fn take_quantize_ns() -> u64 {
    QUANTIZE_NS.with(|c| c.replace(0))
}

#[inline]
fn add_quantize_ns(ns: u64) {
    QUANTIZE_NS.with(|c| c.set(c.get() + ns));
}

/// Result of one nearest-neighbour query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Identifier supplied at insertion time.
    pub id: u64,
    /// L2 distance between the query and the stored key.
    pub distance: f64,
}

/// Configuration of the IVF index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IvfConfig {
    /// Number of clusters (inverted lists).
    pub nlist: usize,
    /// Number of clusters scanned per query.
    pub nprobe: usize,
    /// Number of insertions after which centroids are re-trained.
    pub retrain_interval: usize,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nlist: 16,
            nprobe: 4,
            retrain_interval: 1024,
        }
    }
}

/// One inverted list in structure-of-arrays layout: ids, precomputed squared
/// norms and the flat key data (stride = key dimension). List order is
/// insertion order, preserved across removals — search tie-breaking (first
/// encountered wins at equal distance) depends on it.
///
/// Alongside the exact `f64` keys the list keeps a symmetric i8-quantised
/// mirror (`qdata`, shared per-list `scale`) plus each key's exact
/// quantisation residual `‖k − scale·k8‖₂`. A probe shortlists candidates
/// with a fixed-point i32 kernel over `qdata` and only rescores the
/// shortlist with the exact `f64` kernel; the residuals make the shortlist
/// bound provably conservative, so the rescored winner is bit-identical to
/// a full `f64` scan.
#[derive(Debug, Clone, Default)]
struct FlatList {
    ids: Vec<u64>,
    norms_sq: Vec<f64>,
    data: Vec<f64>,
    /// i8-quantised mirror of `data` (same stride).
    qdata: Vec<i8>,
    /// Exact per-key quantisation residual `‖k − scale·k8‖₂`.
    residuals: Vec<f64>,
    /// Symmetric quantisation scale shared by every key in the list; grows
    /// monotonically (keys are requantised when a new key exceeds the
    /// representable `scale·127` range).
    scale: f64,
}

impl FlatList {
    fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    fn key(&self, i: usize, dim: usize) -> &[f64] {
        &self.data[i * dim..(i + 1) * dim]
    }

    fn push(&mut self, id: u64, key: &[f64]) {
        self.ids.push(id);
        self.norms_sq.push(key.iter().map(|x| x * x).sum());
        self.data.extend_from_slice(key);
        let maxabs = key.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if maxabs > self.scale * 127.0 {
            self.rescale(maxabs / 127.0, key.len());
        } else {
            append_quantised(key, self.scale, &mut self.qdata, &mut self.residuals);
        }
    }

    /// Requantises every stored key at a new, larger scale (including the
    /// just-pushed tail key). The scale only grows, so requantisation cost
    /// is amortised across inserts.
    fn rescale(&mut self, scale: f64, dim: usize) {
        self.scale = scale;
        self.qdata.clear();
        self.residuals.clear();
        for key in self.data.chunks_exact(dim) {
            append_quantised(key, scale, &mut self.qdata, &mut self.residuals);
        }
    }

    /// Removes entry `i`, shifting the tail down so order is preserved.
    fn remove(&mut self, i: usize, dim: usize) {
        self.ids.remove(i);
        self.norms_sq.remove(i);
        self.residuals.remove(i);
        self.data.drain(i * dim..(i + 1) * dim);
        self.qdata.drain(i * dim..(i + 1) * dim);
    }
}

/// Quantises one key at `scale`, appending the i8 codes to `qdata` and the
/// exact residual `‖key − scale·k8‖₂` to `residuals`. A zero scale (empty
/// or all-zero list) quantises everything to 0 with the full norm as
/// residual — weak but still conservative bounds.
fn append_quantised(key: &[f64], scale: f64, qdata: &mut Vec<i8>, residuals: &mut Vec<f64>) {
    let mut resid_sq = 0.0;
    for &x in key {
        let q = if scale > 0.0 {
            (x / scale).round().clamp(-127.0, 127.0)
        } else {
            0.0
        };
        let r = x - q * scale;
        resid_sq += r * r;
        qdata.push(q as i8);
    }
    residuals.push(resid_sq.sqrt());
}

/// Reusable per-query probe scratch: the centroid ranking a query builds to
/// pick its `nprobe` lists. One instance per worker thread makes the probe
/// path allocation-free; contents never influence results (fully rebuilt per
/// query), so sharing a scratch across queries is numerically invisible.
#[derive(Debug, Default)]
pub struct SearchScratch {
    centroid_dists: Vec<(usize, f64)>,
    probes: Vec<usize>,
    /// The query quantised at the current list's scale.
    q8: Vec<i8>,
    /// Fixed-point squared distances `Σ(q8−k8)²` for the current list.
    qdists: Vec<i32>,
}

thread_local! {
    static PROBE_SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::default());
}

/// A cluster-based approximate-nearest-neighbour index over fixed-dimension
/// float vectors.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dim: usize,
    config: IvfConfig,
    /// Flat centroid matrix, `centroid_count × dim`.
    centroids: Vec<f64>,
    centroid_count: usize,
    lists: Vec<FlatList>,
    len: usize,
    inserts_since_train: usize,
    seed: u64,
}

impl IvfIndex {
    /// Creates an empty index for keys of dimension `dim`.
    ///
    /// # Panics
    /// Panics when `dim == 0` or the config is degenerate.
    pub fn new(dim: usize, config: IvfConfig, seed: u64) -> Self {
        assert!(dim > 0, "key dimension must be positive");
        assert!(config.nlist > 0, "nlist must be positive");
        assert!(config.nprobe > 0, "nprobe must be positive");
        Self {
            dim,
            config,
            centroids: Vec::new(),
            centroid_count: 0,
            lists: vec![FlatList::default(); config.nlist],
            len: 0,
            inserts_since_train: 0,
            seed,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Key dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn centroid(&self, i: usize) -> &[f64] {
        &self.centroids[i * self.dim..(i + 1) * self.dim]
    }

    /// Inserts a key with the given identifier. Until enough keys exist to
    /// train centroids, keys accumulate in a single list (exact search).
    ///
    /// # Panics
    /// Panics when the key dimension is wrong.
    pub fn add(&mut self, id: u64, key: Vec<f64>) {
        assert_eq!(key.len(), self.dim, "key dimension mismatch");
        let list = if self.centroid_count == 0 {
            0
        } else {
            nearest_flat(&self.centroids, self.centroid_count, self.dim, &key)
        };
        self.lists[list].push(id, &key);
        self.len += 1;
        self.inserts_since_train += 1;
        let should_train = (self.centroid_count == 0 && self.len >= 4 * self.config.nlist)
            || (self.centroid_count > 0
                && self.inserts_since_train >= self.config.retrain_interval);
        if should_train {
            self.train();
        }
    }

    /// Removes the key stored under `id`, if present; returns whether a key
    /// was removed. List order is preserved so search tie-breaking (first
    /// encountered wins at equal distance) stays deterministic across
    /// removals — capacity eviction depends on that.
    pub fn remove(&mut self, id: u64) -> bool {
        let dim = self.dim;
        for list in &mut self.lists {
            if let Some(pos) = list.ids.iter().position(|&stored| stored == id) {
                list.remove(pos, dim);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Finds the nearest stored key to `query`, if any, over a thread-local
    /// [`SearchScratch`] (zero allocations in steady state).
    pub fn search(&self, query: &[f64]) -> Option<SearchHit> {
        PROBE_SCRATCH.with(|s| self.search_with(query, &mut s.borrow_mut()))
    }

    /// [`Self::search`] with an explicit reusable scratch.
    pub fn search_with(&self, query: &[f64], scratch: &mut SearchScratch) -> Option<SearchHit> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if self.len == 0 {
            return None;
        }
        self.probe_lists(query, scratch);
        let q_norm_sq: f64 = query.iter().map(|x| x * x).sum();
        let q_norm = q_norm_sq.sqrt();
        // Best candidate: `best_d` is the reported (sqrt-domain) distance,
        // compared with the same strict `<` as a plain scan; `best_sum` is
        // the winning candidate's raw squared sum, the pruning threshold.
        let mut best: Option<SearchHit> = None;
        let mut best_sum = f64::INFINITY;
        for pi in 0..scratch.probes.len() {
            let li = scratch.probes[pi];
            let list = &self.lists[li];
            if list.len() == 0 {
                continue;
            }
            let eq = self.quantise_probe(query, list, scratch);
            for i in 0..list.len() {
                // Norm-triangle lower bound: ‖q − x‖² ≥ (‖q‖ − ‖x‖)². The
                // tiny relative margin keeps the prune conservative against
                // floating-point rounding of the precomputed norms, so a
                // candidate the exact scan would pick is never skipped.
                let lb = q_norm - list.norms_sq[i].sqrt();
                if lb * lb > best_sum * (1.0 + 1e-9) {
                    continue;
                }
                // Fixed-point shortlist bound (triangle inequality around
                // the quantised images): ‖q − k‖ ≥ scale·‖q8 − k8‖ − eq − ek.
                // Candidates whose bound already exceeds the incumbent skip
                // the exact f64 rescore entirely.
                let qlb = list.scale * (scratch.qdists[i] as f64).sqrt() - eq - list.residuals[i];
                if qlb > 0.0 && qlb * qlb > best_sum * (1.0 + 1e-9) {
                    continue;
                }
                let Some(sum) = distance_sq_early_abandon(query, list.key(i, self.dim), best_sum)
                else {
                    continue;
                };
                let d = sum.sqrt();
                if best.is_none_or(|b| d < b.distance) {
                    best = Some(SearchHit {
                        id: list.ids[i],
                        distance: d,
                    });
                    best_sum = sum;
                }
            }
        }
        best
    }

    /// Quantises `query` at `list`'s scale into `scratch.q8`, streams the
    /// whole list's i8 codes through the fixed-point i32 distance kernel
    /// into `scratch.qdists`, and returns the query's exact quantisation
    /// residual `‖q − scale·q8‖₂`. This branch-free SoA pass is the
    /// autovectorizable heart of the shortlist; its wall time feeds the
    /// `quantize` telemetry stage when timing is enabled.
    fn quantise_probe(&self, query: &[f64], list: &FlatList, scratch: &mut SearchScratch) -> f64 {
        let t0 = QUANTIZE_TIMING
            .load(Ordering::Relaxed)
            .then(std::time::Instant::now); // mlr-check: allow(wall-clock) — decoration only: quantize-stage telemetry timing
        let scale = list.scale;
        scratch.q8.clear();
        let mut resid_sq = 0.0;
        for &x in query {
            let q = if scale > 0.0 {
                (x / scale).round().clamp(-127.0, 127.0)
            } else {
                0.0
            };
            let r = x - q * scale;
            resid_sq += r * r;
            scratch.q8.push(q as i8);
        }
        scratch.qdists.clear();
        for krow in list.qdata.chunks_exact(self.dim) {
            let mut acc = 0i32;
            for (&a, &b) in scratch.q8.iter().zip(krow) {
                let d = a as i32 - b as i32;
                acc += d * d;
            }
            scratch.qdists.push(acc);
        }
        if let Some(t0) = t0 {
            add_quantize_ns(t0.elapsed().as_nanos() as u64);
        }
        resid_sq.sqrt()
    }

    /// Exact (exhaustive) nearest-neighbour search — the ground truth used by
    /// recall tests.
    pub fn search_exact(&self, query: &[f64]) -> Option<SearchHit> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut best: Option<SearchHit> = None;
        for list in &self.lists {
            for i in 0..list.len() {
                let d = l2_distance(query, list.key(i, self.dim));
                if best.is_none_or(|b| d < b.distance) {
                    best = Some(SearchHit {
                        id: list.ids[i],
                        distance: d,
                    });
                }
            }
        }
        best
    }

    /// Ranks centroids by distance into the scratch and selects the `nprobe`
    /// nearest list indices (ties broken by centroid index — the sort is
    /// stable over the index-ordered distance table, exactly as the jagged
    /// implementation behaved).
    fn probe_lists(&self, query: &[f64], scratch: &mut SearchScratch) {
        scratch.probes.clear();
        if self.centroid_count == 0 {
            scratch.probes.push(0);
            return;
        }
        scratch.centroid_dists.clear();
        for i in 0..self.centroid_count {
            scratch
                .centroid_dists
                .push((i, l2_distance(query, self.centroid(i))));
        }
        scratch.centroid_dists.sort_by(|a, b| a.1.total_cmp(&b.1));
        scratch.probes.extend(
            scratch
                .centroid_dists
                .iter()
                .take(self.config.nprobe)
                .map(|&(i, _)| i),
        );
    }

    /// Re-trains centroids with a few Lloyd iterations over all stored keys
    /// and redistributes the inverted lists. The rebuild moves the flat key
    /// storage through one concatenated arena — no per-key clones (the
    /// jagged implementation cloned every stored key twice per retrain).
    fn train(&mut self) {
        if self.len < self.config.nlist {
            return;
        }
        let dim = self.dim;
        let total = self.len;
        // Concatenate the lists' flat storage (list order, as the jagged
        // implementation's `flatten` did).
        let old_lists = std::mem::take(&mut self.lists);
        let mut all_ids: Vec<u64> = Vec::with_capacity(total);
        let mut all_data: Vec<f64> = Vec::with_capacity(total * dim);
        for mut list in old_lists {
            all_ids.append(&mut list.ids);
            all_data.append(&mut list.data);
        }
        let key_at = |i: usize| &all_data[i * dim..(i + 1) * dim];

        let mut rng = seeded(self.seed ^ self.len as u64);
        // k-means++ style: random distinct initial centroids.
        let mut indices: Vec<usize> = (0..total).collect();
        indices.shuffle(&mut rng);
        let mut centroids: Vec<f64> = Vec::with_capacity(self.config.nlist * dim);
        for &i in indices.iter().take(self.config.nlist) {
            centroids.extend_from_slice(key_at(i));
        }
        let centroid_count = self.config.nlist;

        for _ in 0..5 {
            let mut sums = vec![0.0; centroid_count * dim];
            let mut counts = vec![0usize; centroid_count];
            for i in 0..total {
                let key = key_at(i);
                let c = nearest_flat(&centroids, centroid_count, dim, key);
                counts[c] += 1;
                for (s, k) in sums[c * dim..(c + 1) * dim].iter_mut().zip(key) {
                    *s += k;
                }
            }
            for (c, count) in counts.iter().enumerate() {
                if *count > 0 {
                    for (cv, s) in centroids[c * dim..(c + 1) * dim]
                        .iter_mut()
                        .zip(&sums[c * dim..(c + 1) * dim])
                    {
                        *cv = s / *count as f64;
                    }
                }
            }
        }

        let mut lists = vec![FlatList::default(); self.config.nlist];
        for (i, &id) in all_ids.iter().enumerate() {
            let key = key_at(i);
            let c = nearest_flat(&centroids, centroid_count, dim, key);
            lists[c].push(id, key);
        }
        self.centroids = centroids;
        self.centroid_count = centroid_count;
        self.lists = lists;
        self.inserts_since_train = 0;
    }
}

/// Nearest centroid in a flat `count × dim` matrix (first wins on ties, as
/// the jagged scan did).
fn nearest_flat(centroids: &[f64], count: usize, dim: usize, key: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for i in 0..count {
        let d = l2_distance(key, &centroids[i * dim..(i + 1) * dim]);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Squared L2 distance with early abandonment: accumulates `(a-b)²` in index
/// order — the exact summation `l2_distance` performs — and gives up once
/// the running sum can no longer beat `threshold_sum` (the current best
/// candidate's full squared sum). Returns `None` when abandoned. Because
/// partial sums are monotone non-decreasing prefixes of the exact sum, an
/// abandoned candidate provably could not have won under the caller's strict
/// sqrt-domain comparison, so pruning never changes the selected hit.
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

    #[test]
    fn empty_index_returns_none() {
        let idx = IvfIndex::new(8, IvfConfig::default(), 1);
        assert!(idx.is_empty());
        assert!(idx.search(&[0.0; 8]).is_none());
    }

    #[test]
    fn exact_match_found() {
        let mut idx = IvfIndex::new(4, IvfConfig::default(), 2);
        for (i, key) in random_keys(200, 4, 3).into_iter().enumerate() {
            idx.add(i as u64, key);
        }
        assert_eq!(idx.len(), 200);
        // Query with a stored key: distance must be ~0 and id correct under
        // exact search; ANN search should find it too since it is its own
        // cluster member.
        let probe = random_keys(200, 4, 3)[57].clone();
        let exact = idx.search_exact(&probe).unwrap();
        assert_eq!(exact.id, 57);
        assert!(exact.distance < 1e-12);
        let approx = idx.search(&probe).unwrap();
        assert!(approx.distance < 1e-12);
    }

    #[test]
    fn recall_against_exact_search() {
        let dim = 16;
        let mut idx = IvfIndex::new(
            dim,
            IvfConfig {
                nlist: 8,
                nprobe: 3,
                retrain_interval: 256,
            },
            4,
        );
        for (i, key) in random_keys(500, dim, 5).into_iter().enumerate() {
            idx.add(i as u64, key);
        }
        let queries = random_keys(100, dim, 6);
        let mut hits = 0;
        for q in &queries {
            let approx = idx.search(q).unwrap();
            let exact = idx.search_exact(q).unwrap();
            if approx.id == exact.id || (approx.distance - exact.distance).abs() < 1e-9 {
                hits += 1;
            }
        }
        // IVF with nprobe 3/8 should find the true neighbour most of the time.
        assert!(hits >= 70, "recall too low: {hits}/100");
    }

    #[test]
    fn pruned_search_is_identical_to_full_probe_scan() {
        // The property the memo determinism contracts rely on: with
        // `nprobe == nlist` (every list probed) the pruned SoA search must
        // return the *identical* SearchHit as the exhaustive scan — same id,
        // same distance bits — on seeded workloads, across insert sizes,
        // retrains and removals.
        for seed in 0..6u64 {
            let dim = 12;
            let mut idx = IvfIndex::new(
                dim,
                IvfConfig {
                    nlist: 8,
                    nprobe: 8,
                    retrain_interval: 64,
                },
                seed,
            );
            for (i, key) in random_keys(300, dim, 100 + seed).into_iter().enumerate() {
                idx.add(i as u64, key);
            }
            // A few removals exercise order preservation.
            for id in [3u64, 77, 150, 299] {
                assert!(idx.remove(id));
            }
            let mut scratch = SearchScratch::default();
            for q in &random_keys(50, dim, 200 + seed) {
                let pruned = idx.search_with(q, &mut scratch).unwrap();
                let exact = idx.search_exact(q).unwrap();
                assert_eq!(pruned.id, exact.id, "seed {seed}");
                assert_eq!(
                    pruned.distance.to_bits(),
                    exact.distance.to_bits(),
                    "seed {seed}: distance bits diverged"
                );
            }
        }
    }

    #[test]
    fn quantised_shortlist_rescore_matches_exact_bits() {
        // The quantized-shortlist + exact-rescore path must return the
        // bit-identical SearchHit (id and distance bits) a full f64 scan
        // would, across key distributions that stress the quantiser: wildly
        // mixed magnitudes (worst-case shared per-list scale), duplicated
        // keys (exact distance ties), and near-duplicates (shortlist bounds
        // close to the incumbent).
        for seed in 0..8u64 {
            let dim = 20;
            let mut idx = IvfIndex::new(
                dim,
                IvfConfig {
                    nlist: 6,
                    nprobe: 6,
                    retrain_interval: 48,
                },
                seed,
            );
            let mut keys = random_keys(240, dim, 300 + seed);
            for (i, key) in keys.iter_mut().enumerate() {
                // Scales spanning 6 orders of magnitude within one index.
                let scale = 10f64.powi((i % 7) as i32 - 3);
                for v in key.iter_mut() {
                    *v = (*v - 0.5) * scale;
                }
            }
            // Exact duplicates force distance ties: first-inserted must win.
            let dup = keys[17].clone();
            keys.push(dup.clone());
            keys.push(dup);
            for (i, key) in keys.iter().enumerate() {
                idx.add(i as u64, key.clone());
            }
            let mut scratch = SearchScratch::default();
            let mut queries = random_keys(40, dim, 400 + seed);
            queries.push(keys[17].clone()); // exact-match tie between 3 copies
            for q in &queries {
                let pruned = idx.search_with(q, &mut scratch).unwrap();
                let exact = idx.search_exact(q).unwrap();
                assert_eq!(pruned.id, exact.id, "seed {seed}");
                assert_eq!(
                    pruned.distance.to_bits(),
                    exact.distance.to_bits(),
                    "seed {seed}: distance bits diverged"
                );
            }
        }
    }

    #[test]
    fn early_abandon_prefixes_match_full_sum() {
        // With an infinite threshold the early-abandon sum equals the plain
        // squared distance bit for bit (same accumulation order).
        let a = random_keys(1, 37, 9)[0].clone();
        let b = random_keys(1, 37, 10)[0].clone();
        let full = distance_sq_early_abandon(&a, &b, f64::INFINITY).unwrap();
        assert_eq!(full.sqrt().to_bits(), l2_distance(&a, &b).to_bits());
        // A threshold below the true distance abandons.
        assert!(distance_sq_early_abandon(&a, &b, full / 2.0).is_none());
    }

    #[test]
    fn comparisons_shrink_after_training() {
        let dim = 8;
        let mut idx = IvfIndex::new(
            dim,
            IvfConfig {
                nlist: 16,
                nprobe: 2,
                retrain_interval: 10_000,
            },
            10,
        );
        // Keys the probed lists of one query hold: what a search compares
        // the query against, beside the centroids.
        let compared = |idx: &IvfIndex, query: &[f64]| -> usize {
            let mut scratch = SearchScratch::default();
            idx.probe_lists(query, &mut scratch);
            scratch.probes.iter().map(|&l| idx.lists[l].len()).sum()
        };
        let query = vec![0.5; dim];
        for (i, key) in random_keys(63, dim, 11).into_iter().enumerate() {
            idx.add(i as u64, key);
        }
        // Below the training threshold: exhaustive.
        assert_eq!(compared(&idx, &query), 63);
        for (i, key) in random_keys(500, dim, 12).into_iter().enumerate() {
            idx.add(1000 + i as u64, key);
        }
        // After training, far fewer comparisons than the full database.
        assert!(idx.centroid_count > 0);
        assert!(compared(&idx, &query) + idx.centroid_count < idx.len() / 2);
    }

    #[test]
    fn remove_deletes_exactly_one_key() {
        let mut idx = IvfIndex::new(4, IvfConfig::default(), 20);
        for (i, key) in random_keys(120, 4, 21).into_iter().enumerate() {
            idx.add(i as u64, key);
        }
        assert_eq!(idx.len(), 120);
        // Removing a present id shrinks the index and makes it unfindable.
        let probe = random_keys(120, 4, 21)[33].clone();
        assert_eq!(idx.search_exact(&probe).unwrap().id, 33);
        assert!(idx.remove(33));
        assert_eq!(idx.len(), 119);
        assert_ne!(idx.search_exact(&probe).unwrap().id, 33);
        // Removing an absent id is a no-op.
        assert!(!idx.remove(33));
        assert_eq!(idx.len(), 119);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut idx = IvfIndex::new(4, IvfConfig::default(), 13);
        idx.add(0, vec![1.0; 5]);
    }
}
