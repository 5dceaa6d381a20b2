//! Contract tests for the distributed memo tier (`mlr_memo::distributed`):
//!
//! * **bit-identity** — the distributed store returns the same hits as the
//!   plain `ShardedMemoDb` given the same schedule, for any node count and
//!   any capacity layout, both driven directly and through a
//!   topology-configured `Runtime` — whose access trace, replayed through
//!   `mlr_cluster::replay_trace`, reproduces the live replica-set split;
//! * **layout independence** — the stripe→node placement is deterministic,
//!   and permuting node ids (capacity order) never changes which entries
//!   are resident or which probes hit;
//! * **trace export** — an `AccessTrace` recorded by a real run, exported
//!   in the snapshot JSON, reads back through `mlr_bench::json` as the
//!   identical record stream.

use mlr_bench::json::JsonValue;
use mlr_cluster::{replay_trace, ReplayConfig};
use mlr_core::MlrConfig;
use mlr_memo::{
    DistributedMemoDb, MemoDbConfig, MemoStore, NodeTopology, ProbeOutcome, Provenance,
    ShardedMemoDb,
};
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};
use mlr_sim::hardware::InterconnectSpec;
use mlr_telemetry::AccessTrace;
use std::sync::Arc;

use mlr_lamino::FftOpKind;
use mlr_math::Complex64;

mod common;
use common::probe_commit;

fn sharded(shards: usize) -> Arc<ShardedMemoDb> {
    Arc::new(ShardedMemoDb::with_shards(
        MemoDbConfig {
            tau: 0.9,
            ..Default::default()
        },
        shards,
    ))
}

fn chunk(scale: f64, phase: f64, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            Complex64::new(scale * (4.0 * t + phase).sin(), scale * (2.0 * t).cos())
        })
        .collect()
}

/// Drives a deterministic query-or-insert schedule and returns the
/// hit/miss sequence.
fn run_schedule(store: &dyn MemoStore, rounds: usize, locations: usize) -> Vec<bool> {
    run_rounds(store, 0..rounds, locations)
}

/// [`run_schedule`] with explicit round numbers, so a schedule can continue
/// where an earlier one left off.
fn run_rounds(
    store: &dyn MemoStore,
    rounds: std::ops::Range<usize>,
    locations: usize,
) -> Vec<bool> {
    let mut outcomes = Vec::new();
    for round in rounds {
        for loc in 0..locations {
            let input = chunk(1.0 + loc as f64, 0.2 * loc as f64, 64);
            let key = store.encode(&input);
            let origin = Provenance::solo(round + 1);
            let hit = probe_commit(store, FftOpKind::Fu2D, loc, &input, &key, origin).is_some();
            outcomes.push(hit);
            if !hit {
                store.insert(
                    FftOpKind::Fu2D,
                    loc,
                    &input,
                    key,
                    chunk(2.0, 0.3, 16),
                    origin,
                    1e-3,
                );
            }
        }
    }
    outcomes
}

/// Probes every schedule location read-only and returns, per location, the
/// serving entry id (or `None` on a miss) — the store's observable lookup
/// behaviour.
fn probe_map(store: &dyn MemoStore, locations: usize) -> Vec<Option<u64>> {
    (0..locations)
        .map(|loc| {
            let input = chunk(1.0 + loc as f64, 0.2 * loc as f64, 64);
            let key = store.encode(&input);
            match store.probe_with_key(
                FftOpKind::Fu2D,
                loc,
                &input,
                &key,
                Provenance::solo(usize::MAX),
            ) {
                ProbeOutcome::Hit { entry, .. } => Some(entry),
                _ => None,
            }
        })
        .collect()
}

#[test]
fn distributed_store_hits_are_bit_identical_to_sharded() {
    let plain = sharded(16);
    let reference = run_schedule(plain.as_ref(), 5, 10);
    assert!(reference.iter().any(|&h| h), "schedule never hits");
    assert!(reference.iter().any(|&h| !h), "schedule never misses");
    for nodes in [1, 2, 3, 4, 8] {
        let distributed = DistributedMemoDb::new(sharded(16), NodeTopology::with_nodes(nodes));
        let observed = run_schedule(&distributed, 5, 10);
        assert_eq!(
            observed, reference,
            "{nodes}-node distributed store diverged from the sharded reference"
        );
        // Same resident set and counters, not just the same hit sequence.
        assert_eq!(distributed.len(), plain.len());
        assert_eq!(distributed.stats().hits, plain.stats().hits);
        assert_eq!(distributed.stats().inserts, plain.stats().inserts);
        assert_eq!(probe_map(&distributed, 10), probe_map(plain.as_ref(), 10));
    }
}

#[test]
fn placement_is_deterministic_and_layout_independent() {
    // Deterministic: same inputs, same placement, every time.
    for _ in 0..3 {
        let a = DistributedMemoDb::new(sharded(16), NodeTopology::with_nodes(4));
        let b = DistributedMemoDb::new(sharded(16), NodeTopology::with_nodes(4));
        assert_eq!(a.placement(), b.placement());
    }
    // Layout-independent semantics: permuting the per-node capacities (i.e.
    // relabeling node ids) re-routes traffic but never changes which
    // entries are resident or which probes hit.
    let layouts: [[f64; 4]; 4] = [
        [200.0, 200.0, 200.0, 200.0],
        [100.0, 200.0, 400.0, 200.0],
        [400.0, 200.0, 100.0, 200.0],
        [200.0, 400.0, 200.0, 100.0],
    ];
    let mut hit_sequences = Vec::new();
    let mut probe_maps = Vec::new();
    let mut resident = Vec::new();
    for capacities in &layouts {
        let store = DistributedMemoDb::with_capacities(
            sharded(16),
            NodeTopology::with_nodes(4),
            capacities,
        );
        hit_sequences.push(run_schedule(&store, 5, 10));
        probe_maps.push(probe_map(&store, 10));
        resident.push((store.len(), store.resident_bytes()));
    }
    for i in 1..layouts.len() {
        assert_eq!(
            hit_sequences[i], hit_sequences[0],
            "capacity layout {i} changed the hit sequence"
        );
        assert_eq!(
            probe_maps[i], probe_maps[0],
            "capacity layout {i} changed a probe's serving entry"
        );
        assert_eq!(
            resident[i], resident[0],
            "capacity layout {i} changed the resident set"
        );
    }
}

#[test]
fn runtime_with_topology_reconstructs_bit_identically() {
    let config = MlrConfig::quick(12, 8).with_iterations(3);
    // Two identical jobs run back to back on one worker: the second reuses
    // the first one's store entries, so the schedule exercises cross-job
    // hits as well as misses and inserts — deterministically.
    let run = |topology: Option<NodeTopology>| {
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            telemetry: true,
            access_trace: Some(1 << 16),
            topology,
            ..RuntimeConfig::matching(&config)
        });
        let reconstructions: Vec<Vec<f64>> = ["first", "second"]
            .iter()
            .map(|name| {
                rt.submit(ReconJob::new(*name, config))
                    .unwrap()
                    .wait_report()
                    .expect("job completes")
                    .reconstruction
                    .as_slice()
                    .to_vec()
            })
            .collect();
        let trace = rt.telemetry().snapshot().expect("telemetry on").accesses;
        let placement = rt.distributed().map(|d| d.placement().to_vec());
        let stats = rt.shutdown();
        (reconstructions, stats, trace, placement)
    };
    let (local, local_stats, _, _) = run(None);
    let (distributed, distributed_stats, trace, placement) = run(Some(NodeTopology::with_nodes(4)));
    assert_eq!(
        local, distributed,
        "the distributed tier must not perturb the reconstructions"
    );
    assert!(local_stats.store.hits > 0, "second job never hit the store");
    assert_eq!(local_stats.store.hits, distributed_stats.store.hits);
    assert!(local_stats.distributed.is_none());
    let dist = distributed_stats
        .distributed
        .expect("topology-configured runtime reports per-node stats");
    assert_eq!(dist.nodes.len(), 4);
    assert!(dist.remote_hits + dist.local_hits > 0);
    assert_eq!(
        dist.nodes.iter().map(|n| n.entries).sum::<usize>(),
        distributed_stats.store.entries
    );
    // The network view comes from replaying the run's own trace over its
    // own placement — and its replica split is the live tier's.
    let replayed = replay_trace(
        &trace,
        &placement.expect("topology configured"),
        &ReplayConfig::new(InterconnectSpec::slingshot11()),
        None,
    );
    assert!(
        replayed.active_nodes() >= 2,
        "store traffic never spread beyond one node: {:?}",
        replayed.per_node
    );
    assert_eq!(
        (replayed.local_hits, replayed.remote_hits),
        (dist.local_hits, dist.remote_hits)
    );
}

#[test]
fn replayed_replica_split_follows_promotions_and_demotions() {
    // A 5-replica budget under 8 hot entries: round-robin over all of them
    // thrashes the set (demotions), three hot locations on top of that stay
    // replicated (local hits). The replay has only the trace to go by.
    let topology = NodeTopology {
        replica_budget: 5,
        promote_hits: 1,
        ..NodeTopology::with_nodes(2)
    };
    let trace = Arc::new(AccessTrace::new(1 << 12));
    let mut inner = Arc::into_inner(sharded(8)).expect("sole owner");
    inner.set_access_trace(Arc::clone(&trace));
    let distributed = DistributedMemoDb::new(Arc::new(inner), topology);
    let _ = run_rounds(&distributed, 0..4, 8);
    let _ = run_rounds(&distributed, 4..8, 3);
    let live = distributed.distributed_stats();
    assert!(
        live.replica_evictions > 0 && live.local_hits > 0,
        "{live:?}"
    );
    let replayed = replay_trace(
        &trace.snapshot(),
        distributed.placement(),
        &ReplayConfig::new(InterconnectSpec::slingshot11()),
        None,
    );
    assert_eq!(
        (
            replayed.local_hits,
            replayed.remote_hits,
            replayed.promotions
        ),
        (live.local_hits, live.remote_hits, live.promotions)
    );
}

#[test]
fn access_trace_round_trips_through_json() {
    // A real multi-iteration run with the access trace enabled...
    let config = MlrConfig::quick(12, 8).with_iterations(4);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 4,
        telemetry: true,
        access_trace: Some(8192),
        ..RuntimeConfig::matching(&config)
    });
    let _ = rt
        .submit(ReconJob::new("traced", config))
        .unwrap()
        .wait_report()
        .expect("job completes");
    let snapshot = rt.telemetry().snapshot().expect("telemetry enabled");
    rt.shutdown();
    assert!(
        !snapshot.accesses.is_empty(),
        "the run recorded no store accesses"
    );

    // ...and the snapshot JSON carries every record, field for field.
    let json = JsonValue::parse(&snapshot.to_json()).expect("snapshot JSON parses");
    let exported = json
        .get("accesses")
        .and_then(JsonValue::as_array)
        .expect("the snapshot exports its accesses");
    assert_eq!(exported.len(), snapshot.accesses.len());
    for (value, record) in exported.iter().zip(&snapshot.accesses) {
        let number = |field| value.get(field).and_then(JsonValue::as_f64);
        assert_eq!(number("entry"), Some(record.entry as f64));
        assert_eq!(number("op"), Some(f64::from(record.op)));
        assert_eq!(number("stripe"), Some(f64::from(record.stripe)));
        assert_eq!(number("tick"), Some(record.tick as f64));
        let kind = value.get("kind").and_then(JsonValue::as_str);
        assert_eq!(kind, Some(record.kind.name()));
    }
}

#[test]
fn distributed_stats_survive_json_export() {
    // The per-node stats ride inside RuntimeStats' JSON export; spot-check
    // the serialised document carries the per-node fields.
    let distributed = DistributedMemoDb::new(sharded(8), NodeTopology::with_nodes(2));
    let _ = run_schedule(&distributed, 4, 8);
    let stats = distributed.distributed_stats();
    let json = serde_json::to_string(&stats).expect("stats serialise");
    assert!(json.contains("\"nodes\""));
    assert!(json.contains("\"entries\""));
    assert!(json.contains("\"local_hits\""));
}
