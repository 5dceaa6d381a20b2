//! Figure 24 (the distributed memo tier): trace replay of a real multi-job
//! run through the simulated memory-node cluster.
//!
//! Two phases:
//!
//! * **hit parity** — the same deterministic query-or-insert schedule is
//!   driven through a plain `ShardedMemoDb` and through `DistributedMemoDb`
//!   wrappers at several node counts; the hit sequences must be
//!   bit-identical (the distributed tier adds placement and replicas,
//!   never semantics). Gated in CI as `hit_parity`.
//! * **trace replay** — a telemetry-enabled multi-job run records its store
//!   `AccessTrace`, and the snapshot's records replay in-process through
//!   `mlr_cluster::replay_trace` over the stripe placement of the run's own
//!   distributed store. The replay reproduces the Figure
//!   15-style per-node utilisation (`nodes_spread`: ≥ 2 active nodes,
//!   gated) and the Figure 16-style query-latency CDF (`cdf_monotone`,
//!   gated), with every remote probe charged strictly more than a
//!   replica-served local hit (`remote_exceeds_local`, gated). The replay
//!   holds no replica policy: it follows the promotions and demotions the
//!   live tier wrote into the trace, so its local/remote hit split must
//!   equal the live counters (`replica_hits_match_live`, gated).
//!
//! The machine-readable record lands in `BENCH_cluster.json` (and under
//! `target/experiments/`).

use mlr_bench::{compare_row, header, pct, smoke_from_args, write_record};
use mlr_cluster::replay::LOCAL_LATENCY;
use mlr_cluster::{replay_trace, NodeUtilisation};
use mlr_core::MlrConfig;
use mlr_math::stats::Ecdf;
use mlr_math::Complex64;
use mlr_memo::{
    DistributedMemoDb, MemoDbConfig, MemoStore, NodeTopology, ProbeOutcome, Provenance,
    ShardedMemoDb,
};
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};
use serde::Serialize;
use std::sync::Arc;

use mlr_lamino::FftOpKind;

#[derive(Serialize)]
struct Record {
    smoke: bool,
    nodes: usize,
    shards: usize,
    jobs: usize,
    /// Store accesses recorded by the multi-job run and replayed.
    trace_len: usize,
    /// Replayed queries (hits + misses) behind the latency CDF.
    replayed_queries: usize,
    /// CI gate: distributed-store hit sequence is bit-identical to the
    /// plain sharded store at every probed node count.
    hit_parity: bool,
    /// CI gate: replayed traffic reaches at least two memory nodes.
    nodes_spread: bool,
    /// CI gate: the replayed query-latency CDF is monotone non-decreasing.
    cdf_monotone: bool,
    /// CI gate: every remote (link-charged) query costs strictly more than
    /// a replica-served local hit.
    remote_exceeds_local: bool,
    /// Per-node link accounting of the replay (Figure 15 analogue).
    per_node: Vec<NodeUtilisation>,
    /// Replayed query-latency quantiles, microseconds (Figure 16 analogue).
    latency_us_p50: f64,
    latency_us_p90: f64,
    latency_us_p99: f64,
    /// Replica-set effect during the replay.
    local_hits: u64,
    remote_hits: u64,
    promotions: u64,
    /// CI gate: the replayed local/remote hit split equals the live
    /// tier's own counters.
    replica_hits_match_live: bool,
}

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

/// Drives a deterministic query-or-insert schedule and returns the hit/miss
/// sequence — the observable store behaviour the parity gate compares.
fn run_schedule(store: &dyn MemoStore, rounds: usize, locations: usize) -> Vec<bool> {
    let mut outcomes = Vec::new();
    for round in 0..rounds {
        for loc in 0..locations {
            let input = chunk(1.0 + loc as f64, 0.2 * loc as f64, 64);
            let key = store.encode(&input);
            let origin = Provenance::solo(round + 1);
            // The store's access protocol: read-only probe, then the
            // ordered commit the outcome calls for.
            let op = FftOpKind::Fu2D;
            match store.probe_with_key(op, loc, &input, &key, origin) {
                ProbeOutcome::Hit {
                    entry,
                    origin: inserted_by,
                    ..
                } => {
                    store.commit_hit(op, loc, entry, inserted_by, origin);
                    outcomes.push(true);
                }
                ProbeOutcome::Miss => {
                    store.commit_miss(op, loc);
                    outcomes.push(false);
                    store.insert(op, loc, &input, key, chunk(2.0, 0.3, 16), origin, 1e-3);
                }
            }
        }
    }
    outcomes
}

fn main() {
    header(
        "Figure 24",
        "distributed memo tier: hit parity + trace replay over simulated memory nodes",
    );
    let smoke = smoke_from_args();
    let (jobs, iterations, grid) = if smoke { (4, 3, 12) } else { (6, 4, 16) };
    let nodes = 4usize;
    let shards = 16usize;
    println!(
        "{nodes} memory nodes over {shards} stripes; {jobs} jobs x {iterations} ADMM iterations\n"
    );

    // Phase A: the bit-identity contract. Same schedule, plain vs
    // distributed at several node counts — identical hit sequences.
    let reference = run_schedule(sharded(shards).as_ref(), 5, 10);
    let hit_parity = [1usize, 2, 4, 8].iter().all(|&n| {
        let distributed = DistributedMemoDb::new(sharded(shards), NodeTopology::with_nodes(n));
        run_schedule(&distributed, 5, 10) == reference
    });
    compare_row(
        "hit parity vs ShardedMemoDb (1/2/4/8 nodes)",
        "bit-identical",
        if hit_parity {
            "bit-identical"
        } else {
            "DIVERGED"
        },
    );

    // Phase B: record a real multi-job run's access trace over a
    // topology-configured runtime...
    let config = MlrConfig::quick(grid, 8).with_iterations(iterations);
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: jobs.max(4),
        telemetry: true,
        access_trace: Some(1 << 16),
        topology: Some(NodeTopology::with_nodes(nodes)),
        ..RuntimeConfig::matching(&config)
    });
    for i in 0..jobs {
        rt.submit(ReconJob::new(format!("tenant-{i}"), config))
            .expect("queue has room")
            .wait_report()
            .expect("job completes");
    }
    let snapshot = rt.telemetry().snapshot().expect("telemetry enabled");
    let placement = rt
        .distributed()
        .expect("runtime was configured with a topology")
        .placement()
        .to_vec();
    let live = rt
        .distributed()
        .expect("runtime was configured with a topology")
        .distributed_stats();
    rt.shutdown();

    // ...and replay it through the shared-link contention model over the
    // run's own stripe placement.
    let records = snapshot.accesses;
    let outcome = replay_trace(&records, &placement, None);
    let nodes_spread = outcome.active_nodes() >= 2;
    let replica_hits_match_live =
        (outcome.local_hits, outcome.remote_hits) == (live.local_hits, live.remote_hits);
    let ecdf = Ecdf::new(&outcome.query_latencies);
    let curve = ecdf.curve();
    let cdf_monotone = !curve.is_empty()
        && curve
            .windows(2)
            .all(|w| w[1].0 >= w[0].0 && w[1].1 >= w[0].1)
        && curve.last().map(|&(_, f)| f) == Some(1.0);
    // Local replica hits replay at exactly `LOCAL_LATENCY`; everything else
    // crossed a link and must have paid at least its base latency.
    let local = LOCAL_LATENCY;
    let min_remote = outcome
        .query_latencies
        .iter()
        .copied()
        .filter(|&l| (l - local).abs() > 1e-15)
        .fold(f64::INFINITY, f64::min);
    let remote_exceeds_local =
        outcome.local_hits > 0 && outcome.remote_hits > 0 && min_remote > local;

    let p = |q: f64| ecdf.quantile(q) * 1e6;
    let (p50, p90, p99) = (p(0.50), p(0.90), p(0.99));
    compare_row(
        "active memory nodes",
        ">= 2 of 4",
        &format!("{} of {}", outcome.active_nodes(), nodes),
    );
    compare_row(
        "replayed query latency p50/p90/p99",
        "(informational)",
        &format!("{p50:.2} / {p90:.2} / {p99:.2} us"),
    );
    compare_row(
        "remote vs local-replica cost",
        "remote strictly above",
        if remote_exceeds_local {
            "strictly above"
        } else {
            "NOT ABOVE"
        },
    );
    println!("\nper-node link utilisation over the replay horizon:");
    for n in &outcome.per_node {
        println!(
            "  node {}: {:>2} stripes, {:>5} msgs, {:>9.0} B, busy {:>7.1} us, util {}",
            n.node,
            n.stripes,
            n.messages,
            n.bytes,
            n.busy_seconds * 1e6,
            pct(n.utilisation),
        );
    }
    compare_row(
        "replayed local / remote hits vs live tier",
        &format!("{} / {}", live.local_hits, live.remote_hits),
        &format!(
            "{} / {} ({} promotions)",
            outcome.local_hits, outcome.remote_hits, outcome.promotions
        ),
    );

    assert!(hit_parity, "distributed store diverged from ShardedMemoDb");
    assert!(nodes_spread, "replayed traffic never left one node");
    assert!(cdf_monotone, "query-latency CDF is not monotone");
    assert!(
        replica_hits_match_live,
        "the replay's replica split diverged from the live tier's"
    );
    assert!(
        remote_exceeds_local,
        "remote probes must cost strictly more than local replica hits \
         (local {local:.2e} s, min remote {min_remote:.2e} s, {} local / {} remote)",
        outcome.local_hits, outcome.remote_hits
    );

    let record = Record {
        smoke,
        nodes,
        shards,
        jobs,
        trace_len: records.len(),
        replayed_queries: outcome.query_latencies.len(),
        hit_parity,
        nodes_spread,
        cdf_monotone,
        remote_exceeds_local,
        per_node: outcome.per_node.clone(),
        latency_us_p50: p50,
        latency_us_p90: p90,
        latency_us_p99: p99,
        local_hits: outcome.local_hits,
        remote_hits: outcome.remote_hits,
        promotions: outcome.promotions,
        replica_hits_match_live,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(json) => {
            if std::fs::write("BENCH_cluster.json", &json).is_ok() {
                println!("\n[record written to BENCH_cluster.json]");
            }
        }
        Err(e) => eprintln!("failed to serialise record: {e}"),
    }
    write_record("fig24_cluster", &record);
}
