//! Store-wide checks of one [`MemoDb`](crate::MemoDb): location scoping,
//! the value and resident totals, the entry cap over the whole store and
//! the insert numbering. They were written when the store was split over
//! lock stripes and keep that module's path, so their test ids stay
//! continuous; each now runs on the one store.

mod tests {
    use crate::eviction::CapacityBudget;
    use crate::testutil::{chunk, fill, insert, lookup};
    use crate::{MemoDb, MemoDbConfig, MemoStore, Provenance};
    use mlr_lamino::FftOpKind::Fu2D;

    fn store(budget: CapacityBudget) -> MemoDb {
        MemoDb::new(MemoDbConfig { tau: 0.9, budget })
    }

    #[test]
    fn scopes_do_not_leak_across_locations() {
        let db = store(CapacityBudget::unbounded());
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
        assert!(lookup(&db, Fu2D, 0, &input, Provenance::solo(1)).is_some());
    }

    #[test]
    fn value_accounting_sums_over_shards() {
        let db = store(CapacityBudget::unbounded());
        fill(&db, 8, |_| {});
        assert_eq!(db.len(), 8);
        assert_eq!(db.value_bytes(), 8 * 32 * 8);
        // Resident bytes additionally count the raw inputs and are kept
        // up to date by every insert.
        assert_eq!(db.resident_bytes(), 8 * 8 * (64 + 32));
        assert!(db.stats().peak_resident_bytes >= db.resident_bytes());
        // The maintained totals are what the held entries sum to.
        assert_eq!(db.resummed(), (db.value_bytes(), db.resident_bytes()));
        assert_eq!(db.stats().entries, 8);
    }

    #[test]
    fn global_entry_cap_is_enforced_across_shards() {
        let db = store(CapacityBudget::entries(3));
        fill(&db, 10, |loc| {
            assert!(db.len() <= 3, "global cap violated after insert {loc}")
        });
        assert_eq!(db.len(), 3);
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
    fn insert_ids_are_dense_for_every_shard_layout() {
        // The store numbers inserts 0, 1, 2, … in commit order; hits and
        // misses claim none.
        let db = store(CapacityBudget::unbounded());
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
