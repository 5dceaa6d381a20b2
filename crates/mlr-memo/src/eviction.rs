//! Capacity governance for the memoization store: one budget and one
//! replacement rule.
//!
//! The paper keeps its memoization database on dedicated memory nodes and
//! its only replacement rule is the one-entry FIFO compute-node cache
//! (§4.4). Here the store has to fit beside the reconstruction's working
//! set, so it carries a governor:
//!
//! * [`CapacityBudget`] — optional byte and entry caps over the whole store,
//!   enforced *after every insert*, so the resident footprint never exceeds
//!   the cap at any observable point. A pipeline's store is bounded by
//!   default, at two outer iterations of chunk traffic
//!   (`mlr_core::STORE_ITERATIONS`); unbounded is asked for by name.
//! * [`CostAwarePolicy`] — the one rule that picks victims: aged benefit
//!   density (`recompute_cost / bytes`, boosted by observed reuse), with
//!   entries that have served another job evicted last.
//!
//! # Determinism
//!
//! Eviction decisions must be reproducible: the runtime's contract is that
//! the same job schedule over the same budget produces bit-identical
//! reconstructions. Wall-clock time would break it, so every input to the
//! rule is *logical*: the entry's **hit counts**, refreshed by the ordered
//! commit; its **id**, the store's insertion index that breaks every tie;
//! and an *analytic*
//! recompute cost ([`recompute_cost_estimate`], an `n log n` model whose
//! per-op weights mirror the measured `OpStats` compute-second ratios) in
//! place of measured seconds, which vary run to run.
//! Entries age through [`CostAwarePolicy`]'s inflation value.

use crate::store::Provenance;
use mlr_lamino::FftOpKind;
use serde::{Deserialize, Serialize};

/// Byte/entry caps for a memoization store.
///
/// `None` means unbounded. A byte cap counts each entry's value *plus* the
/// raw input it keeps for the τ gate, 8 bytes an element of either
/// ([`EntryMeta::bytes`]; `value_bytes` counts the values alone, keys and
/// doorkeeper rings are not counted). The caps hold over the whole
/// [`MemoDb`](crate::MemoDb).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CapacityBudget {
    /// Maximum resident bytes (values + retained raw inputs).
    pub max_bytes: Option<u64>,
    /// Maximum number of stored entries.
    pub max_entries: Option<u64>,
}

impl CapacityBudget {
    /// No caps: the store grows without bound.
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
        // Both are ≥ 0, so folding from 0 keeps the larger (0 when neither).
        let tightest = byte_pressure.into_iter().chain(entry_pressure);
        tightest.fold(0.0, f64::max).min(1.0)
    }

    /// `true` when `resident_bytes`/`entries` violate a cap.
    pub fn exceeded(&self, resident_bytes: u64, entries: u64) -> bool {
        self.max_bytes.is_some_and(|cap| resident_bytes > cap)
            || self.max_entries.is_some_and(|cap| entries > cap)
    }
}

/// What the replacement rule ranks an entry by. All fields are logical (see
/// the module docs): no wall-clock values, so ranking is reproducible.
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
/// deterministic for a fixed schedule; the inflation value advances in
/// eviction order, under the store's lock. One instance per store.
#[derive(Debug, Default)]
pub struct CostAwarePolicy {
    /// Aging value `L`: the highest victim rank evicted so far.
    inflation: f64,
}

impl CostAwarePolicy {
    /// Benefit density of an entry: `(1 + hits) · recompute_cost / bytes`.
    fn benefit_density(meta: &EntryMeta) -> f64 {
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
        meta.priority = self.inflation + Self::benefit_density(meta);
    }

    /// Advances the aging value to the rank of an entry that was just
    /// evicted. Called exactly once per eviction, in eviction order.
    pub fn on_evict(&mut self, rank: f64) {
        // Monotone aging: inflation only moves forward, and a non-finite
        // rank (an infinite caller-supplied cost) must not poison it.
        if rank.is_finite() && rank > self.inflation {
            self.inflation = rank;
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
        FftOpKind::Fu1D | FftOpKind::Fu1DAdj => 1.0,
    };
    weight * n * n.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{chunk, insert};

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
        let mut pol = CostAwarePolicy::default();
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
    fn clock_is_monotone() {
        // The rule's tie-breaker is the store's logical clock, the insertion
        // index: it starts at 0 and advances by one an insert.
        let db = crate::MemoDb::new(crate::MemoDbConfig::default());
        for (loc, expected) in [(0, 0), (1, 1), (0, 2)] {
            let input = chunk(1.0 + loc as f64, 0.5 * expected as f64, 64);
            let id = insert(
                &db,
                FftOpKind::Fu2D,
                loc,
                &input,
                chunk(2.0, 0.5, 16),
                Provenance::solo(0),
            );
            assert_eq!(id, expected);
        }
    }

    #[test]
    fn cost_estimate_orders_op_classes() {
        let n = 4096;
        assert!(
            recompute_cost_estimate(FftOpKind::Fu2D, n)
                > recompute_cost_estimate(FftOpKind::Fu1D, n)
        );
        assert!(recompute_cost_estimate(FftOpKind::Fu1D, 0) > 0.0);
    }

    #[test]
    fn recompute_cost_estimate_is_unchanged() {
        // Eviction ranking, the modeled schedule and the benchmark price
        // entries with it.
        for (op, n, expected) in [
            (FftOpKind::Fu2D, 128, 3584.0),
            (FftOpKind::Fu1D, 1024, 10240.0),
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
}
