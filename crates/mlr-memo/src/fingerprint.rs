//! O(n) chunk fingerprints for the norm prefilter (the "doorkeeper" in
//! front of the cache, the key and the store).
//!
//! A memo *miss* on a cold/unique chunk would pay a cache gate, a key, a
//! store lock and an index scan before discovering there is nothing to
//! reuse — and then an insert nothing will ever hit. The prefilter removes
//! that cost: each chunk is summarised by a [`ChunkFingerprint`] — a handful of
//! norm/moment features computable in one O(n) pass — and the engine keeps a
//! small per-scope history of the fingerprints of recently committed chunks.
//! A new chunk whose fingerprint is not [within the τ-derived
//! band](ChunkFingerprint::within_band) of *any* remembered fingerprint
//! cannot pass the raw similarity gate against those chunks, so the engine
//! skips cache peek + key + index probe entirely and goes straight to the
//! exact FFT.
//!
//! # Soundness
//!
//! Every feature is 1-Lipschitz with respect to the chunk's complex L2
//! distance, so the ∞-distance between two fingerprints lower-bounds
//! `‖a − b‖₂`. The raw memo gate accepts only when
//! `scale_aware_similarity_c(a, b) > τ`, i.e. `cos(a, b) · ratio > τ` with
//! `ratio = min(‖a‖,‖b‖)/max(‖a‖,‖b‖)`, which implies
//! `‖a − b‖² < ‖a‖² + ‖b‖² − 2‖a‖‖b‖·(τ/ratio)`. [`within_band`] rejects
//! only when the fingerprint ∞-distance already exceeds that bound, so a
//! rejection can never discard a pair the full path would have admitted
//! (no false negatives). False *positives* merely fall through to the
//! ordinary encode/probe path.
//!
//! [`within_band`]: ChunkFingerprint::within_band

use mlr_math::Complex64;
use serde::{Deserialize, Serialize};

/// Number of scalar features in a [`ChunkFingerprint`].
pub const FINGERPRINT_FEATURES: usize = 8;

/// An O(n) summary of a complex chunk used by the norm prefilter.
///
/// Features (all 1-Lipschitz in the chunk's L2 metric):
///
/// | index | feature |
/// |-------|---------|
/// | 0     | global L2 norm `‖x‖₂` |
/// | 1–4   | L2 norms of the four disjoint contiguous quarters |
/// | 5     | `Σ Re xᵢ / √n` (signed mean, scaled) |
/// | 6     | `Σ Im xᵢ / √n` (signed mean, scaled) |
/// | 7     | `Σ (\|Re xᵢ\| + \|Im xᵢ\|) / √(2n)` (scaled real L1 norm) |
///
/// Indices 1–4 are restrictions (Lipschitz by the reverse triangle
/// inequality on a sub-vector), 5–6 by Cauchy–Schwarz, and 7 because the
/// real L1 norm of the flattened `2n`-vector satisfies
/// `‖x‖₁ ≤ √(2n) · ‖x‖₂` — and, unlike the complex-modulus L1 norm, it
/// needs no per-element square root on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkFingerprint {
    /// Number of complex elements in the summarised chunk.
    pub len: usize,
    /// The feature vector (see the type-level table).
    pub features: [f64; FINGERPRINT_FEATURES],
}

impl ChunkFingerprint {
    /// Compute the fingerprint of a chunk in a single pass over the data.
    pub fn compute(chunk: &[Complex64]) -> Self {
        let n = chunk.len();
        let mut features = [0.0f64; FINGERPRINT_FEATURES];
        let mut sum_re = 0.0f64;
        let mut sum_im = 0.0f64;
        let mut l1 = 0.0f64;
        let mut total_sq = 0.0f64;
        for (q, bounds) in quarter_bounds(n).iter().enumerate() {
            let mut quarter_sq = 0.0f64;
            for z in &chunk[bounds.0..bounds.1] {
                quarter_sq += z.norm_sqr();
                l1 += z.re.abs() + z.im.abs();
                sum_re += z.re;
                sum_im += z.im;
            }
            total_sq += quarter_sq;
            features[1 + q] = quarter_sq.sqrt();
        }
        features[0] = total_sq.sqrt();
        let inv_sqrt_n = if n == 0 { 0.0 } else { 1.0 / (n as f64).sqrt() };
        features[5] = sum_re * inv_sqrt_n;
        features[6] = sum_im * inv_sqrt_n;
        features[7] = l1 * inv_sqrt_n * std::f64::consts::FRAC_1_SQRT_2;
        ChunkFingerprint { len: n, features }
    }

    /// The chunk's global L2 norm (feature 0).
    pub fn norm(&self) -> f64 {
        self.features[0]
    }

    /// ∞-distance between two feature vectors; a lower bound on the L2
    /// distance between the underlying chunks (when their lengths match).
    pub fn feature_distance(&self, other: &Self) -> f64 {
        self.features
            .iter()
            .zip(&other.features)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Conservative test: could a chunk with fingerprint `self` pass the raw
    /// memo gate `scale_aware_similarity_c(·,·) > tau` against a chunk with
    /// fingerprint `other`?
    ///
    /// Returns `true` whenever a hit is possible (including degenerate and
    /// incomparable cases); returns `false` only when the fingerprints prove
    /// the similarity cannot exceed `tau`.
    pub fn within_band(&self, other: &Self, tau: f64) -> bool {
        if self.len != other.len {
            // Different lengths never meet in the same gate comparison;
            // admit so the full path decides.
            return true;
        }
        let na = self.norm();
        let nb = other.norm();
        if na == 0.0 && nb == 0.0 {
            // scale_aware_similarity_c defines the all-zero pair as 1.0.
            return true;
        }
        if na == 0.0 || nb == 0.0 {
            // One zero vector: similarity is exactly 0.0.
            return tau < 0.0;
        }
        let ratio = na.min(nb) / na.max(nb);
        let cos_floor = tau / ratio;
        if cos_floor >= 1.0 {
            // Even perfectly aligned vectors cannot beat tau at this
            // norm ratio.
            return false;
        }
        // A hit implies ‖a−b‖² < na² + nb² − 2·na·nb·cos_floor.
        let dist_sq_bound = na * na + nb * nb - 2.0 * na * nb * cos_floor;
        let bound = dist_sq_bound.max(0.0).sqrt();
        // Small conservative margin absorbs floating-point rounding in the
        // feature computation.
        self.feature_distance(other) <= bound + 1e-9 * (na + nb)
    }
}

/// The four disjoint contiguous quarter index ranges of a length-`n` chunk.
fn quarter_bounds(n: usize) -> [(usize, usize); 4] {
    [
        (0, n / 4),
        (n / 4, n / 2),
        (n / 2, 3 * n / 4),
        (3 * n / 4, n),
    ]
}

/// A bounded ring of recently observed fingerprints for one memo scope.
///
/// Acts as a doorkeeper: the engine notes the fingerprint of every committed
/// chunk (hit, miss, or prefiltered), and a new chunk is only sent through
/// the encode/probe path when at least one remembered fingerprint is within
/// the τ-band. Overflow of the ring can cost reuse (a chunk computes the
/// exact FFT when a match existed) but never correctness.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FingerprintTable {
    ring: Vec<ChunkFingerprint>,
    next: usize,
}

/// Capacity of each per-scope [`FingerprintTable`] ring.
pub const FINGERPRINT_HISTORY: usize = 64;

impl FingerprintTable {
    /// Record a fingerprint, evicting the oldest once the ring is full.
    pub fn note(&mut self, fp: ChunkFingerprint) {
        if self.ring.len() < FINGERPRINT_HISTORY {
            if self.ring.capacity() == 0 {
                // Size the ring once at scope creation so steady-state
                // notes never reallocate (fig22's hit-path allocation
                // gate counts every byte).
                self.ring.reserve_exact(FINGERPRINT_HISTORY);
            }
            self.ring.push(fp);
        } else {
            self.ring[self.next] = fp;
            self.next = (self.next + 1) % FINGERPRINT_HISTORY;
        }
    }

    /// Does any remembered fingerprint lie within the τ-band of `fp`?
    pub fn has_neighbor(&self, fp: &ChunkFingerprint, tau: f64) -> bool {
        self.ring.iter().any(|g| fp.within_band(g, tau))
    }

    /// Number of fingerprints currently remembered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the table holds no fingerprints yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::norms::{l2_distance_c, scale_aware_similarity_c};
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn random_chunk(rng: &mut impl Rng, n: usize, scale: f64) -> Vec<Complex64> {
        (0..n)
            .map(|_| {
                Complex64::new(
                    (rng.gen::<f64>() - 0.5) * scale,
                    (rng.gen::<f64>() - 0.5) * scale,
                )
            })
            .collect()
    }

    #[test]
    fn features_are_lipschitz_in_chunk_distance() {
        let mut rng = seeded(0xF1);
        for _ in 0..200 {
            let n = 1 + rng.gen_range(0..96usize);
            let a = random_chunk(&mut rng, n, 2.0);
            // Perturbations from tiny to large.
            let eps = 10f64.powi(rng.gen_range(-6..2));
            let b: Vec<Complex64> = a
                .iter()
                .map(|z| {
                    Complex64::new(
                        z.re + (rng.gen::<f64>() - 0.5) * eps,
                        z.im + (rng.gen::<f64>() - 0.5) * eps,
                    )
                })
                .collect();
            let fa = ChunkFingerprint::compute(&a);
            let fb = ChunkFingerprint::compute(&b);
            let dist = l2_distance_c(&a, &b);
            assert!(
                fa.feature_distance(&fb) <= dist * (1.0 + 1e-9) + 1e-12,
                "feature distance {} exceeds chunk distance {}",
                fa.feature_distance(&fb),
                dist
            );
        }
    }

    #[test]
    fn within_band_never_rejects_a_gate_hit() {
        // The core no-false-negative property: for any pair that passes the
        // raw gate at tau, within_band must admit.
        let mut rng = seeded(0xF2);
        let mut admitted_hits = 0usize;
        for _ in 0..400 {
            let n = 1 + rng.gen_range(0..64usize);
            let a = random_chunk(&mut rng, n, 4.0);
            // Mix of near-duplicates, rescales, and unrelated chunks.
            let b: Vec<Complex64> = match rng.gen_range(0..4) {
                0 => a
                    .iter()
                    .map(|z| {
                        Complex64::new(
                            z.re + (rng.gen::<f64>() - 0.5) * 0.01,
                            z.im + (rng.gen::<f64>() - 0.5) * 0.01,
                        )
                    })
                    .collect(),
                1 => {
                    let s = 0.5 + rng.gen::<f64>();
                    a.iter().map(|z| z.scale(s)).collect()
                }
                2 => a.clone(),
                _ => random_chunk(&mut rng, n, 4.0),
            };
            for tau in [0.5, 0.8, 0.92, 0.99] {
                let sim = scale_aware_similarity_c(&a, &b);
                let fa = ChunkFingerprint::compute(&a);
                let fb = ChunkFingerprint::compute(&b);
                if sim > tau {
                    assert!(
                        fa.within_band(&fb, tau),
                        "prefilter rejected a gate hit: sim={sim} tau={tau} n={n}"
                    );
                    admitted_hits += 1;
                }
            }
        }
        assert!(admitted_hits > 100, "workload produced too few gate hits");
    }

    #[test]
    fn within_band_rejects_clear_mismatches() {
        // The filter must have teeth: disjoint norms outside the band are
        // rejected without touching cache, key or store.
        let a = ChunkFingerprint::compute(&[Complex64::new(1.0, 0.0); 16]);
        let b = ChunkFingerprint::compute(&[Complex64::new(100.0, 0.0); 16]);
        assert!(!a.within_band(&b, 0.92));
        // Norm ratio alone kills this pair: 1/100 < 0.92.
        let c = ChunkFingerprint::compute(&[Complex64::new(-1.0, 0.0); 16]);
        // Same norms, opposite direction: cos = -1, feature distance large.
        assert!(!a.within_band(&c, 0.92));
    }

    #[test]
    fn degenerate_cases_are_conservative() {
        let zero = ChunkFingerprint::compute(&[Complex64::ZERO; 8]);
        let one = ChunkFingerprint::compute(&[Complex64::new(1.0, 0.0); 8]);
        let other_len = ChunkFingerprint::compute(&[Complex64::new(1.0, 0.0); 4]);
        // zero/zero has similarity 1.0 — always admitted.
        assert!(zero.within_band(&zero, 0.99));
        // zero/non-zero has similarity 0.0.
        assert!(!zero.within_band(&one, 0.5));
        assert!(zero.within_band(&one, -0.1));
        // Length mismatch: incomparable, admit.
        assert!(one.within_band(&other_len, 0.99));
        // Empty chunk is well-defined.
        let empty = ChunkFingerprint::compute(&[]);
        assert_eq!(empty.len, 0);
        assert_eq!(empty.norm(), 0.0);
    }

    #[test]
    fn table_ring_evicts_oldest() {
        let mut table = FingerprintTable::default();
        assert!(table.is_empty());
        let mk = |v: f64| ChunkFingerprint::compute(&[Complex64::new(v, 0.0); 4]);
        for i in 0..FINGERPRINT_HISTORY + 8 {
            table.note(mk(1.0 + i as f64 * 1e-4));
        }
        assert_eq!(table.len(), FINGERPRINT_HISTORY);
        // Oldest entries (i < 8) were evicted; a probe equal to entry 0
        // still matches later near-duplicates, but an exact-norm outlier
        // matching only evicted slots must not.
        assert!(table.has_neighbor(&mk(1.0), 0.92));
        assert!(!table.has_neighbor(&mk(500.0), 0.92));
    }
}
