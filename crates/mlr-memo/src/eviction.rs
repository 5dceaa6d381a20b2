//! Capacity governance for the memoization store: one budget, one
//! replacement rule, and the deterministic logical clock both run on.
//!
//! The paper keeps its memoization database on dedicated memory nodes and
//! its only replacement rule is the one-entry FIFO compute-node cache
//! (§4.4). Here the store has to fit beside the reconstruction's working
//! set, so it carries a governor:
//!
//! * [`CapacityBudget`] — optional byte and entry caps over the whole store.
//!   A store enforces its budget *after every insert*, so the resident
//!   footprint never exceeds the cap at any observable point.
//! * [`CostAwarePolicy`] — the one rule that picks victims: aged benefit
//!   density (`recompute_cost / bytes`, boosted by observed reuse), with
//!   entries that have served another job evicted last.
//!
//! # Determinism
//!
//! Eviction decisions must be reproducible: the runtime's contract is that
//! the same job schedule over the same budget produces bit-identical
//! reconstructions, and that sharding is semantics-free. Wall-clock time
//! would break both, so every input to the rule is *logical*: the entry's
//! **hit counts**, refreshed by the ordered commit; its **id**, the globally
//! unique insertion index that breaks every tie; and an *analytic*
//! recompute cost ([`recompute_cost_estimate`], an `n log n` model whose
//! per-op weights mirror the measured `OpStats` compute-second ratios) in
//! place of measured seconds, which vary run to run.
//!
//! The **op tick** of [`StoreClock`] — one monotone counter claimed per
//! committed hit, committed miss and insert, shared by every stripe of a
//! store — ranks nothing: it is the time axis `FaultPlan` windows and
//! access-trace records are written in.
//!
//! The engine's break-even gate, [`memoization_pays`], lives beside the cost
//! estimate for the same reason: whether a chunk is memoized at all is
//! decided by constants and the chunk's kind and length, never by a timing
//! taken at run time.

use crate::store::Provenance;
use mlr_lamino::FftOpKind;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byte/entry caps for a memoization store.
///
/// `None` means unbounded. A byte cap counts each entry's value *plus* the
/// raw input it keeps for the τ gate, 8 bytes an element of either
/// ([`EntryMeta::bytes`]; `value_bytes` counts the values alone, keys and
/// doorkeeper rings are not counted). The caps hold over the whole store
/// (every stripe of a [`ShardedMemoDb`](crate::ShardedMemoDb)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CapacityBudget {
    /// Maximum resident bytes (values + retained raw inputs).
    pub max_bytes: Option<u64>,
    /// Maximum number of stored entries.
    pub max_entries: Option<u64>,
}

impl CapacityBudget {
    /// No caps: the store grows without bound (the pre-governance default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A byte cap.
    pub fn bytes(max_bytes: u64) -> Self {
        Self {
            max_bytes: Some(max_bytes),
            ..Self::default()
        }
    }

    /// An entry-count cap.
    pub fn entries(max_entries: u64) -> Self {
        Self {
            max_entries: Some(max_entries),
            ..Self::default()
        }
    }

    /// Whether any cap is set.
    pub fn is_bounded(&self) -> bool {
        self.max_bytes.is_some() || self.max_entries.is_some()
    }

    /// Utilisation of the tightest cap in `[0, 1]` (0 when unbounded). The
    /// runtime's admission control consults this as "store pressure".
    pub fn pressure(&self, resident_bytes: u64, entries: u64) -> f64 {
        let byte_pressure = self
            .max_bytes
            .map(|cap| resident_bytes as f64 / cap.max(1) as f64);
        let entry_pressure = self
            .max_entries
            .map(|cap| entries as f64 / cap.max(1) as f64);
        match (byte_pressure, entry_pressure) {
            (Some(b), Some(e)) => b.max(e),
            (Some(b), None) => b,
            (None, Some(e)) => e,
            (None, None) => 0.0,
        }
        .min(1.0)
    }

    /// `true` when `resident_bytes`/`entries` violate a cap.
    pub fn exceeded(&self, resident_bytes: u64, entries: u64) -> bool {
        self.max_bytes.is_some_and(|cap| resident_bytes > cap)
            || self.max_entries.is_some_and(|cap| entries > cap)
    }
}

/// What the replacement rule ranks an entry by and the distributed tier's
/// replica promotion reads. All fields are logical (see the module docs):
/// no wall-clock values, so ranking is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EntryMeta {
    /// Globally unique insertion index — the stable tie-breaker.
    pub id: u64,
    /// Resident bytes attributable to the entry (value + raw input).
    pub bytes: u64,
    /// Number of queries this entry has served.
    pub hits: u64,
    /// Of those, hits serving a *different* job than the inserter — the
    /// provenance signal that the entry survives content drift (replicated
    /// jobs re-produce similar chunks, so past cross-job service predicts
    /// future cross-job service).
    pub cross_hits: u64,
    /// Analytic recompute cost of the memoized operation (arbitrary units,
    /// comparable across entries).
    pub recompute_cost: f64,
    /// Which job/iteration inserted the entry.
    pub origin: Provenance,
    /// The memoized operation.
    pub op: FftOpKind,
    /// Aged benefit density, refreshed by [`CostAwarePolicy::charge`] on
    /// insert and on every hit.
    pub priority: f64,
}

/// The store's replacement rule: aged benefit density in the Greedy-Dual-
/// Size-Frequency family. Every entry carries a priority
///
/// ```text
/// priority = inflation + (1 + hits) · recompute_cost / bytes
/// ```
///
/// refreshed on insert and on every hit; the store-wide `inflation` value
/// rises to each evicted victim's rank, and the eviction rank is this
/// priority plus a protected class for entries with cross-job serving
/// history (the `Provenance` signal that an entry survives content drift
/// in replicated workloads). The entry with the lowest rank goes first,
/// ties on the smaller id. The quotient is the paper-motivated benefit
/// density — how much USFFT recompute a resident byte buys — scaled by
/// demonstrated reuse, while the inflation term ages out entries whose
/// content has drifted past the τ gate (pure benefit density would pin
/// those forever). All inputs are logical, so victim selection stays
/// deterministic for a fixed schedule; the inflation value advances under
/// the store's enforcement lock, identically across shard layouts.
///
/// One instance per store, shared by its stripes (which charge) and the
/// store (which evicts).
#[derive(Debug, Default)]
pub struct CostAwarePolicy {
    /// Aging value `L`: the highest victim rank evicted so far, stored as
    /// `f64` bits.
    inflation: AtomicU64,
}

impl CostAwarePolicy {
    /// The current aging value.
    fn inflation_value(&self) -> f64 {
        f64::from_bits(self.inflation.load(Ordering::Relaxed))
    }

    /// Benefit density of an entry: `(1 + hits) · recompute_cost / bytes`.
    pub fn benefit_density(meta: &EntryMeta) -> f64 {
        (1.0 + meta.hits as f64) * meta.recompute_cost / meta.bytes.max(1) as f64
    }

    /// Eviction rank: the entry with the *lowest* rank is evicted first;
    /// ties break on the smaller entry id.
    pub fn rank(meta: &EntryMeta) -> f64 {
        let class = if meta.cross_hits > 0 { 1u64 << 48 } else { 0 } as f64;
        class + meta.priority
    }

    /// Refreshes `meta.priority`. Called once when the entry is inserted
    /// and again on every hit (after `hits` / `cross_hits` are updated).
    pub fn charge(&self, meta: &mut EntryMeta) {
        meta.priority = self.inflation_value() + Self::benefit_density(meta);
    }

    /// Advances the aging value to the rank of an entry that was just
    /// evicted. Called exactly once per eviction, in eviction order, under
    /// the store's enforcement lock.
    pub fn on_evict(&self, rank: f64) {
        // Monotone aging: inflation only moves forward, and a non-finite
        // rank (an infinite caller-supplied cost) must not poison it.
        if rank.is_finite() && rank > self.inflation_value() {
            self.inflation.store(rank.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Analytic recompute-cost estimate for one memoized FFT invocation:
/// `weight(op) · n · log2(n)` over the input length. The per-op weights
/// mirror the measured `OpStats` compute-second ratios between the 1-D and
/// 2-D unequally-spaced stages (the 2-D USFFTs dominate); the analytic form
/// keeps eviction deterministic where raw timings would not be.
pub fn recompute_cost_estimate(op: FftOpKind, input_len: usize) -> f64 {
    let n = input_len.max(2) as f64;
    let weight = match op {
        FftOpKind::Fu2D | FftOpKind::Fu2DAdj => 4.0,
        FftOpKind::F2D | FftOpKind::F2DAdj => 2.0,
        FftOpKind::Fu1D | FftOpKind::Fu1DAdj => 1.0,
    };
    weight * n * n.log2()
}

/// Share of memoized chunks whose compute a hit replaces, as this repository
/// measures it at τ = 0.92 (`avoided_fraction` 0.31–0.35 on the benchmark's
/// `hit-32` and `smallchunk-24`). The other two thirds pay the memo path and
/// then compute anyway, which is how [`memoization_pays`] prices a miss.
pub const EXPECTED_REUSE: f64 = 1.0 / 3.0;

/// Nanoseconds per input element of the exact chunk compute an
/// unequally-spaced operation runs. Like the two constants below, the fit
/// made when the gate was introduced, not a reading of today's kernels: the
/// `sweep` table of `BENCH_hotpath.json` (`fig22_hotpath --sweep`, `fu1d` /
/// `usfft2d` computes close to linear in the chunk length from 256 to 16 Ki
/// elements) now reads about 27–31 and 170–205 ns/elem, and only the
/// decisions the constants make are held to it
/// (`gate_agrees_with_measurement`); ROADMAP item 5(a) calibrates them.
/// Only their ratios matter, so a uniformly faster or slower machine
/// decides the same. `None` for the uniform FFTs, which operation
/// cancellation removes and nothing memoizes.
const fn usfft_ns_per_elem(op: FftOpKind) -> Option<f64> {
    match op {
        FftOpKind::Fu2D | FftOpKind::Fu2DAdj => Some(270.0),
        FftOpKind::Fu1D | FftOpKind::Fu1DAdj => Some(28.0),
        FftOpKind::F2D | FftOpKind::F2DAdj => None,
    }
}

/// What a memoized chunk is expected to pay, the sweep's
/// `memo_path_ns_per_chunk` (`p ·` a cache hit `+ (1 − p) ·` what a miss
/// pays beside its compute: fingerprint, cache peek, key, probe, insert), as
/// a line in the chunk length: the part that does not depend on it …
const MEMO_PATH_FIXED_NS: f64 = 7_000.0;
/// … and the slope per input element. Fitted when every memoized chunk paid
/// a 6.5 µs CNN key; the sweep now reads about 1 µs + 8.3 ns/elem, which
/// crosses this line at 1250 elements, beside the `F_u1D` threshold, and at
/// no swept size moves a decision out of the sweep's 2× dead band (`F_u1D`
/// saves 0.8–1.5× the path at every size, `F_u2D` ≥ 6×), so the constants
/// and every count they decide stay what they were.
const MEMO_PATH_NS_PER_ELEM: f64 = 3.5;

/// Whether memoizing one chunk of `input_len` elements of `op` has a
/// non-negative expected value: the compute a hit avoids, weighted by
/// [`EXPECTED_REUSE`], against the memo path every memoized chunk pays.
///
/// A pure function of the operation kind and the chunk length — properties
/// every input has — so the engine's decision is the same on every thread
/// count, shard layout and job, and a ragged last chunk is judged on its own
/// length. Both sides are linear in `input_len`, so per kind the decision
/// flips at most once, from bypass to memoize, as chunks grow: at 1200
/// elements for `F_u1D` / `F*_u1D`, at 81 for `F_u2D` / `F*_u2D`.
/// `fig22_hotpath --sweep` holds the constants to the measurement
/// (`gate_agrees_with_measurement`).
pub fn memoization_pays(op: FftOpKind, input_len: usize) -> bool {
    let n = input_len as f64;
    usfft_ns_per_elem(op).is_some_and(|compute_ns_per_elem| {
        EXPECTED_REUSE * compute_ns_per_elem * n >= MEMO_PATH_FIXED_NS + MEMO_PATH_NS_PER_ELEM * n
    })
}

/// The logical clock of one store, shared by every stripe so tick and id
/// assignment are identical however many stripes a
/// [`ShardedMemoDb`](crate::ShardedMemoDb) spreads its scopes over — the
/// property that makes eviction shard-layout-independent.
#[derive(Debug, Default)]
pub struct StoreClock {
    tick: AtomicU64,
    next_id: AtomicU64,
}

impl StoreClock {
    /// A fresh clock at tick 0, id 0.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Claims the next op tick.
    pub fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Reads the current op tick without advancing it. The access-trace
    /// recorder stamps records with this, so tracing never perturbs the
    /// tick stream fault windows are written against.
    pub fn current_tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Claims the next entry id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64, bytes: u64, hits: u64, cost: f64) -> EntryMeta {
        EntryMeta {
            id,
            bytes,
            cross_hits: 0,
            hits,
            recompute_cost: cost,
            origin: Provenance::solo(0),
            op: FftOpKind::Fu2D,
            priority: 0.0,
        }
    }

    #[test]
    fn budget_pressure_and_caps() {
        let b = CapacityBudget::bytes(1000);
        assert!(b.is_bounded());
        assert!((b.pressure(500, 10) - 0.5).abs() < 1e-12);
        assert!(!b.exceeded(1000, 10));
        assert!(b.exceeded(1001, 10));

        let unbounded = CapacityBudget::unbounded();
        assert!(!unbounded.is_bounded());
        assert_eq!(unbounded.pressure(u64::MAX, u64::MAX), 0.0);

        let entries = CapacityBudget::entries(4);
        assert!(entries.exceeded(0, 5));
        assert!((entries.pressure(0, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn policy_ranks_order_victims() {
        // Cheap-per-byte entries rank below expensive ones, hits make an
        // entry sticky, and cross-job service outranks any density.
        let pol = CostAwarePolicy::default();
        let mut cheap = meta(1, 1000, 0, 10.0);
        let mut dear = meta(2, 100, 0, 10.0);
        let mut reused = meta(3, 1000, 5, 10.0);
        let mut shared = meta(4, 1000, 1, 10.0);
        shared.cross_hits = 1;
        for m in [&mut cheap, &mut dear, &mut reused, &mut shared] {
            pol.charge(m);
        }
        let rank = CostAwarePolicy::rank;
        assert!(rank(&cheap) < rank(&dear));
        assert!(rank(&cheap) < rank(&reused));
        assert!(rank(&dear) < rank(&shared) && rank(&reused) < rank(&shared));
    }

    #[test]
    fn cost_aware_ages_with_evictions() {
        // After an eviction at rank L, freshly charged entries start above
        // L — stale high-density entries no longer dominate forever.
        let pol = CostAwarePolicy::default();
        let mut stale = meta(1, 100, 0, 500.0);
        pol.charge(&mut stale);
        pol.on_evict(CostAwarePolicy::rank(&stale));
        let mut fresh = meta(2, 100, 0, 500.0);
        pol.charge(&mut fresh);
        assert!(CostAwarePolicy::rank(&fresh) > CostAwarePolicy::rank(&stale));
        // Aging is monotone: a lower (or non-finite) victim rank moves nothing.
        pol.on_evict(0.0);
        pol.on_evict(f64::NEG_INFINITY);
        let mut after = meta(3, 100, 0, 500.0);
        pol.charge(&mut after);
        assert_eq!(CostAwarePolicy::rank(&after), CostAwarePolicy::rank(&fresh));
    }

    #[test]
    fn cost_estimate_orders_op_classes() {
        let n = 4096;
        assert!(
            recompute_cost_estimate(FftOpKind::Fu2D, n)
                > recompute_cost_estimate(FftOpKind::F2D, n)
        );
        assert!(
            recompute_cost_estimate(FftOpKind::F2D, n)
                > recompute_cost_estimate(FftOpKind::Fu1D, n)
        );
        assert!(recompute_cost_estimate(FftOpKind::Fu1D, 0) > 0.0);
    }

    const USFFT_1D: [FftOpKind; 2] = [FftOpKind::Fu1D, FftOpKind::Fu1DAdj];
    const USFFT_2D: [FftOpKind; 2] = [FftOpKind::Fu2D, FftOpKind::Fu2DAdj];

    #[test]
    fn break_even_gate_decision_table() {
        // The outcomes the engine relies on, whatever the constants are
        // recalibrated to.
        for op in USFFT_1D {
            assert!((1..=1024).all(|n| !memoization_pays(op, n)), "{op:?}");
        }
        for op in USFFT_2D {
            assert!((256..2048).all(|n| memoization_pays(op, n)), "{op:?}");
        }
        for op in USFFT_1D.into_iter().chain(USFFT_2D) {
            assert!((2048..=65536).all(|n| memoization_pays(op, n)), "{op:?}");
            assert!(!memoization_pays(op, 0), "{op:?}");
        }
        // The benchmark's chunk shapes: 576 elements on `smallchunk-24`,
        // 4608 and up on the others.
        assert!(!memoization_pays(FftOpKind::Fu1D, 576));
        assert!(memoization_pays(FftOpKind::Fu2D, 576));
        assert!(memoization_pays(FftOpKind::Fu1DAdj, 4608));
    }

    #[test]
    fn break_even_gate_is_monotone_and_skips_uniform_ffts() {
        for op in FftOpKind::DENSE {
            let decisions: Vec<bool> = (1..=65536).map(|n| memoization_pays(op, n)).collect();
            assert!(
                decisions.windows(2).all(|w| w[0] <= w[1]),
                "{op:?}: a longer chunk lost a decision a shorter one won"
            );
            assert_eq!(
                decisions.contains(&true),
                op.is_unequally_spaced(),
                "{op:?}"
            );
        }
    }

    #[test]
    fn recompute_cost_estimate_is_unchanged() {
        // Eviction ranking, the modeled schedule and the benchmark price
        // entries with it; the break-even model beside it must not move it.
        for (op, n, expected) in [
            (FftOpKind::Fu2D, 128, 3584.0),
            (FftOpKind::Fu1D, 1024, 10240.0),
            (FftOpKind::F2DAdj, 4096, 98304.0),
            (FftOpKind::Fu2DAdj, 8192, 425984.0),
            (FftOpKind::Fu1DAdj, 0, 2.0),
            (FftOpKind::Fu1D, 576, 5281.876800830772),
            (FftOpKind::Fu2D, 1152, 46863.01440664617),
        ] {
            let got = recompute_cost_estimate(op, n);
            assert!(
                (got - expected).abs() <= 1e-12 * expected,
                "{op:?} at {n}: {got} != {expected}"
            );
        }
    }

    #[test]
    fn clock_is_monotone() {
        let c = StoreClock::new();
        assert_eq!(c.next_tick(), 0);
        assert_eq!(c.next_tick(), 1);
        assert_eq!(c.current_tick(), 2);
        assert_eq!(c.next_id(), 0);
        assert_eq!(c.next_id(), 1);
    }
}
