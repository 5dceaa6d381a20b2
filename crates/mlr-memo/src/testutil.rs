//! Fixtures shared by the store unit tests: one chunk generator and the
//! probe → commit driver every store test goes through.

use crate::eviction::recompute_cost_estimate;
use crate::store::{MemoStore, ProbeOutcome, Provenance};
use mlr_lamino::FftOpKind;
use mlr_math::{Complex32, Complex64};
use std::sync::Arc;

pub(crate) fn chunk(scale: f64, phase: f64, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            Complex64::new(scale * (5.0 * t + phase).sin(), scale * (3.0 * t).cos())
        })
        .collect()
}

/// Inserts `input → output` priced by the analytic cost model.
pub(crate) fn insert(
    store: &dyn MemoStore,
    op: FftOpKind,
    loc: usize,
    input: &[Complex64],
    output: Vec<Complex64>,
    origin: Provenance,
) -> u64 {
    let cost = recompute_cost_estimate(op, input.len());
    store.insert(op, loc, input, store.encode(input), output, origin, cost)
}

/// Inserts one 64-element `Fu2D` chunk per location `0..n` (32-element
/// values) at iteration 0, calling `after_each(loc)` after every insert.
pub(crate) fn fill(store: &dyn MemoStore, n: usize, mut after_each: impl FnMut(usize)) {
    for loc in 0..n {
        let input = chunk(1.0 + loc as f64, 0.0, 64);
        let output = chunk(1.0, 0.0, 32);
        insert(
            store,
            FftOpKind::Fu2D,
            loc,
            &input,
            output,
            Provenance::solo(0),
        );
        after_each(loc);
    }
}

/// The access protocol for one chunk: encode, read-only probe, then the
/// ordered commit the outcome calls for. Returns the hit's
/// `(value, similarity, inserting provenance)`.
pub(crate) fn lookup(
    store: &dyn MemoStore,
    op: FftOpKind,
    loc: usize,
    input: &[Complex64],
    origin: Provenance,
) -> Option<(Arc<[Complex32]>, f64, Provenance)> {
    let key = store.encode(input);
    match store.probe_with_key(op, loc, input, &key, origin) {
        ProbeOutcome::Hit {
            value,
            similarity,
            entry,
            origin: inserted_by,
            ..
        } => {
            store.commit_hit(op, loc, entry, inserted_by, origin);
            Some((value, similarity, inserted_by))
        }
        ProbeOutcome::Miss => {
            store.commit_miss(op, loc);
            None
        }
    }
}
