//! Fault-injection walkthrough: a deterministic chaos run over the serving
//! stack.
//!
//! A replicated-job workload runs twice — fault-free, then under a
//! [`FaultPlan`] that crashes, mid-workload, the memory node holding the
//! first `F_u2D` chunk's entries and restarts it — and the example shows
//! the two guarantees the fault layer makes:
//!
//! * the reconstructions are **bit-identical** with and without the fault
//!   (a down node degrades a hit into a recompute, never into a different
//!   value);
//! * the degradation is **observable**: `FaultStats` counts the crash, the
//!   restart's purged entries, and the hits the replica set rescued.
//!
//! ```bash
//! cargo run --release --example chaos
//! ```

use mlr_core::MlrConfig;
use mlr_lamino::FftOpKind;
use mlr_memo::NodeTopology;
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};
use mlr_sim::faults::FaultPlan;

const JOBS: usize = 6;

/// Runs `JOBS` identical jobs over a 4-node topology, optionally under a
/// plan; returns the per-job reconstruction bits, the final runtime stats,
/// the store tick at each job's end and the node holding the first `F_u2D`
/// chunk's entries.
fn run_workload(
    config: &MlrConfig,
    plan: Option<FaultPlan>,
) -> (Vec<Vec<u64>>, mlr_runtime::RuntimeStats, Vec<u64>, usize) {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: JOBS + 1,
        topology: Some(NodeTopology::with_nodes(4)),
        fault_plan: plan,
        ..RuntimeConfig::matching(config)
    });
    let mut bits = Vec::new();
    let mut ticks = Vec::new();
    for i in 0..JOBS {
        let report = rt
            .submit(ReconJob::new(format!("job-{i}"), *config))
            .expect("queue has room")
            .wait_report()
            .expect("job completes");
        bits.push(
            report
                .reconstruction
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        );
        ticks.push(
            rt.distributed()
                .expect("topology set")
                .inner()
                .current_tick(),
        );
    }
    let tier = rt.distributed().expect("topology set");
    let node = tier.placement()[tier.inner().stripe_of(FftOpKind::Fu2D, 0)];
    (bits, rt.shutdown(), ticks, node)
}

fn main() {
    // τ = 0.9999 admits only exact hits, the precondition for fault-path
    // bit-identity (an approximate hit recomputed exactly would differ).
    let config = MlrConfig::quick(12, 8).with_iterations(3).with_tau(0.9999);

    // --- 1. Fault-free baseline (also measures the logical timeline). ---
    let (baseline_bits, baseline_stats, ticks, node) = run_workload(&config, None);
    println!(
        "fault-free: {JOBS} jobs, store hit rate {:.1} %",
        100.0 * baseline_stats.store.hit_rate()
    );

    // --- 2. The same workload under a node crash + restart. -------------
    // The window is placed in logical store ticks taken from the baseline
    // run's own job boundaries: the node dies during job 4 — late enough
    // that hot entries have earned replication — and restarts (its stripes
    // purged) at job 4's end.
    let plan = FaultPlan::new(1).crash_window(node, ticks[3], ticks[4]);
    let (faulted_bits, faulted_stats, _, _) = run_workload(&config, Some(plan));
    let faults = faulted_stats
        .fault_stats()
        .cloned()
        .expect("fault plan was armed");
    println!(
        "faulted:    store hit rate {:.1} % (crashes {}, restarts {}, \
         entries purged {}, replica-saved hits {})",
        100.0 * faulted_stats.store.hit_rate(),
        faults.crashes,
        faults.restarts,
        faults.lost_entries,
        faults.replica_saved_hits,
    );
    match faults.recovery_ticks_to_half_hit_rate {
        Some(t) => println!("recovery:   half the pre-crash hit rate after {t} ticks"),
        None => println!("recovery:   not reached within the workload"),
    }
    assert_eq!(
        faulted_bits, baseline_bits,
        "the fault layer must never change a reconstruction"
    );
    println!("identity:   all {JOBS} reconstructions bit-identical to fault-free");
}
