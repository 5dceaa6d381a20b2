//! The distributed memo tier: stripes spread across simulated memory
//! nodes, hot-entry replication, and trace replay through the shared-link
//! contention model.
//!
//! A topology-configured runtime serves a small multi-tenant workload and
//! records its store access trace; the live tier only decides outcomes
//! (placement, replicas) and stays bit-identical to the process-local
//! store. The example then replays the trace through
//! `mlr_cluster::replay_trace` — the one place an access is priced in
//! simulated network time — and prints the per-node utilisation table
//! (Figure 15 analogue) and the query-latency CDF (Figure 16 analogue).
//!
//! ```bash
//! cargo run --release --example cluster
//! ```

use mlr_cluster::{replay_trace, ReplayConfig};
use mlr_core::MlrConfig;
use mlr_math::stats::Ecdf;
use mlr_memo::NodeTopology;
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};
use mlr_sim::hardware::InterconnectSpec;

fn main() {
    let config = MlrConfig::quick(16, 8).with_iterations(4);
    // Four simulated memory nodes. Reconstructions stay bit-identical to a
    // runtime without a topology (tests/distributed.rs).
    let topology = NodeTopology::with_nodes(4);
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: 8,
        // Record the store access trace so the run can be replayed.
        telemetry: true,
        access_trace: Some(1 << 16),
        topology: Some(topology),
        ..RuntimeConfig::matching(&config)
    });

    println!(
        "running 4 jobs over {} memory nodes ({} stripes each on average) ...\n",
        topology.nodes,
        rt.distributed()
            .expect("topology configured")
            .placement()
            .len()
            / topology.nodes
    );

    for i in 0..4 {
        rt.submit(ReconJob::new(format!("tenant-{i}"), config))
            .expect("queue has room for the demo")
            .wait_report()
            .expect("job completes");
    }

    let distributed = rt.distributed().expect("topology configured");
    let placement = distributed.placement().to_vec();
    let live = distributed.distributed_stats();
    let snapshot = rt.telemetry().snapshot().expect("telemetry enabled");
    let stats = rt.shutdown();

    println!(
        "store totals: {} hits ({} cross-job), {} entries resident, {} replicated",
        stats.store.hits, stats.store.cross_job_hits, stats.store.entries, live.replicas
    );

    // Replay the recorded trace through the shared-link contention model
    // (Slingshot-11) over the run's own stripe placement — the Figure 15/16
    // harness. Replica membership comes from the promotions and demotions
    // the tier wrote into the trace.
    let records = snapshot.accesses;
    let outcome = replay_trace(
        &records,
        &placement,
        &ReplayConfig::new(InterconnectSpec::slingshot11()),
        None,
    );
    println!(
        "\n== trace replay ({} accesses, {} queries) ==",
        records.len(),
        outcome.query_latencies.len()
    );
    println!(
        "{:<6} {:>7} {:>8} {:>8} {:>10} {:>9}",
        "node", "stripes", "entries", "msgs", "bytes", "util"
    );
    for (link, held) in outcome.per_node.iter().zip(&live.nodes) {
        println!(
            "{:<6} {:>7} {:>8} {:>8} {:>10.0} {:>8.1}%",
            link.node,
            link.stripes,
            held.entries,
            link.messages,
            link.bytes,
            100.0 * link.utilisation,
        );
    }
    let ecdf = Ecdf::new(&outcome.query_latencies);
    println!(
        "query latency CDF: p50 {:.2} us, p90 {:.2} us, p99 {:.2} us",
        ecdf.quantile(0.50) * 1e6,
        ecdf.quantile(0.90) * 1e6,
        ecdf.quantile(0.99) * 1e6,
    );
    println!(
        "{} of {} nodes active; {} local / {} remote hits, {} promotions",
        outcome.active_nodes(),
        topology.nodes,
        outcome.local_hits,
        outcome.remote_hits,
        outcome.promotions,
    );
    assert_eq!(
        (outcome.local_hits, outcome.remote_hits),
        (live.local_hits, live.remote_hits),
        "the replay follows the live tier's replica records"
    );
}
