//! Contract tests for the deterministic fault-injection layer.
//!
//! The fault layer's whole claim is that an injected fault is *only* a
//! performance event: a down node degrades a hit into a recompute, a
//! restart purges warm state, a degraded link slows a probe — but the
//! reconstruction a job returns is untouched, and the entire faulted
//! execution replays bit-identically from the `FaultPlan` seed alone.
//! These tests pin that contract across the axes that could plausibly
//! break it:
//!
//! * **value neutrality** — every faulted run reconstructs bit-identically
//!   to the fault-free baseline, for hand-placed and seeded plans alike;
//! * **node independence of correctness** — the same plan over {1, 2, 4}
//!   memory nodes never changes the reconstruction (the fault footprint
//!   may differ — placement moves — but the values may not);
//! * **replay determinism** — running the identical plan twice yields
//!   identical outputs, identical hit counters, identical [`FaultStats`]
//!   (crashes, restarts, lost entries, replica saves, recovery clock).
//!
//! Fault windows are placed in logical store ticks measured from a
//! fault-free warm run's own job boundaries, never from the wall clock.

use mlr_core::MlrConfig;
use mlr_memo::{FaultStats, NodeTopology};
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};
use mlr_sim::faults::FaultPlan;

const JOBS: usize = 4;

fn config() -> MlrConfig {
    // τ = 0.9999 admits only exact (bit-identical input) hits, so a fault
    // that degrades a hit into a recompute produces the very value the hit
    // would have served — the precondition for the bit-identity contract.
    // At looser τ a hit may serve an *approximate* neighbour, and a
    // fault-forced recompute legitimately differs in the low bits.
    MlrConfig::quick(12, 8).with_iterations(3).with_tau(0.9999)
}

struct Outcome {
    /// Per-job reconstruction bits.
    bits: Vec<Vec<u64>>,
    faults: Option<FaultStats>,
    hits: u64,
    /// Store tick at each job boundary (logical time).
    job_end_ticks: Vec<u64>,
}

/// Replays the standard workload — `JOBS` identical jobs back to back on
/// one worker over an `nodes`-node topology — optionally under a plan.
fn run(nodes: usize, plan: Option<FaultPlan>) -> Outcome {
    let config = config();
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: JOBS + 1,
        topology: Some(NodeTopology::with_nodes(nodes)),
        fault_plan: plan,
        ..RuntimeConfig::matching(&config)
    });
    let mut bits = Vec::with_capacity(JOBS);
    let mut job_end_ticks = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        let report = rt
            .submit(ReconJob::new(format!("job-{i}"), config))
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
        job_end_ticks.push(
            rt.distributed()
                .expect("runtime was configured with a topology")
                .inner()
                .current_tick(),
        );
    }
    let stats = rt.shutdown();
    Outcome {
        bits,
        faults: stats.fault_stats().cloned(),
        hits: stats.store.hits,
        job_end_ticks,
    }
}

/// A crash-and-restart of node 0 spanning the third job, placed from the
/// warm run's own boundaries so every sweep cell sees the same schedule.
fn crash_plan(ticks: &[u64]) -> FaultPlan {
    FaultPlan::new(7).crash_window(0, ticks[1], ticks[2])
}

#[test]
fn faulted_outputs_are_bit_identical_across_nodes() {
    let baseline = run(4, None);
    assert!(
        baseline.hits > 0,
        "workload never hits the store — the sweep would be vacuous"
    );
    let plan = crash_plan(&baseline.job_end_ticks);

    for nodes in [1usize, 2, 4] {
        // Placement moves with the node count, so the fault footprint may
        // differ between cells; the values may not.
        let outcome = run(nodes, Some(plan.clone()));
        assert_eq!(
            outcome.bits, baseline.bits,
            "the crash plan changed the reconstruction at {nodes} nodes"
        );
        let faults = outcome.faults.expect("plan armed");
        assert!(
            faults.crashes > 0 && faults.restarts > 0,
            "the crash window never fired at {nodes} nodes: {faults:?}"
        );
    }
}

#[test]
fn fault_replay_is_deterministic() {
    let baseline = run(4, None);
    let plan = crash_plan(&baseline.job_end_ticks);
    let first = run(4, Some(plan.clone()));
    let second = run(4, Some(plan));
    assert_eq!(first.bits, second.bits, "replay changed the outputs");
    assert_eq!(first.hits, second.hits, "replay changed the hit counter");
    assert_eq!(first.faults, second.faults, "replay changed the footprint");
    assert_eq!(
        first.job_end_ticks, second.job_end_ticks,
        "replay changed the logical clock"
    );
}

#[test]
fn seeded_plans_preserve_the_reconstruction() {
    let baseline = run(4, None);
    let horizon = *baseline
        .job_end_ticks
        .last()
        .expect("workload ran at least one job");
    let shards = RuntimeConfig::matching(&config()).shards;
    for seed in [1u64, 42, 0xFA11] {
        let plan = FaultPlan::seeded(seed, 4, shards, horizon);
        assert!(!plan.is_empty(), "seeded plan {seed} generated no events");
        let outcome = run(4, Some(plan));
        assert_eq!(
            outcome.bits, baseline.bits,
            "seeded plan {seed} changed the reconstruction"
        );
    }
}
