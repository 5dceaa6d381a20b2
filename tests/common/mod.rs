//! Helpers shared by the integration tests that drive a `MemoStore`
//! directly.

use mlr_lamino::FftOpKind;
use mlr_math::Complex64;
use mlr_memo::{MemoStore, ProbeOutcome, Provenance};

/// The store's access protocol for one chunk, as the executor's ordered
/// commit applies it: a read-only probe, then the bookkeeping the outcome
/// calls for. Returns the serving entry's provenance on a hit; on a miss the
/// caller computes and inserts.
pub fn probe_commit(
    store: &dyn MemoStore,
    op: FftOpKind,
    loc: usize,
    input: &[Complex64],
    key: &[f64],
    origin: Provenance,
) -> Option<Provenance> {
    match store.probe_with_key(op, loc, input, key, origin) {
        ProbeOutcome::Hit {
            entry,
            origin: inserted_by,
            ..
        } => {
            store.commit_hit(op, loc, entry, inserted_by, origin);
            Some(inserted_by)
        }
        ProbeOutcome::Miss => {
            store.commit_miss(op, loc);
            None
        }
    }
}
