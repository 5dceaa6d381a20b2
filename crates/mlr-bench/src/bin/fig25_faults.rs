//! Figure 25: the chaos harness — a multi-job serving workload replayed
//! under swept fault plans.
//!
//! The headline invariant of the whole fault layer: memoization is *only*
//! an acceleration, so every injected fault has a provably correct
//! degradation path (recompute the FFT). The harness replays the same
//! replicated-job workload fault-free and under each swept [`FaultPlan`]
//! (node crash + restart, link degradation, slow stripe, and a seeded
//! combination) and gates:
//!
//! * **bit identity** — every faulted run reconstructs bit-identically to
//!   the fault-free baseline (`bit_identical_all`, gated). The workload
//!   pins τ at 0.9999 so every store hit is exact; a fault that degrades a
//!   hit to a miss then recomputes the very value the hit would have
//!   served.
//! * **bounded degradation** — the worst faulted hit rate stays within a
//!   fixed band of the baseline (`degradation_bounded`, gated).
//! * **monotone recovery** — after the crash plan's restart purges the
//!   node, per-job hit rates of the post-restart jobs are non-decreasing
//!   (`recovery_monotone`, gated), and the store's own recovery clock
//!   reaches half the pre-crash hit rate (`recovery_measured`, gated).
//! * **replica saves** — the replica set rescues at least one would-be hit
//!   on the crashed node (`replica_saves_positive`, gated). The crash hits
//!   the node, and the stall the stripe, that served the most of the
//!   baseline's store accesses.
//! * **the plan fired** — link degradations and stripe stalls change no
//!   outcome, so their evidence is the run's access trace replayed under
//!   the same plan (`mlr_cluster::replay_trace`): messages that paid a
//!   degraded link or a stall, and the simulated seconds that added, must
//!   both be non-zero (`link_degrade_footprint_positive`,
//!   `stripe_stall_footprint_positive`, gated). A window placed outside
//!   the run, or a replay that ignores the plan, turns them false.
//!
//! Fault windows are placed in *logical store ticks* measured from the
//! baseline run's own job boundaries — no wall clock anywhere (the
//! `fault-wall-clock` lint rule holds this file to that even though it is a
//! harness binary). The record lands in `BENCH_faults.json`.

use mlr_bench::{compare_row, header, pct, smoke_from_args, write_record};
use mlr_cluster::{replay_trace, FaultFootprint};
use mlr_core::MlrConfig;
use mlr_memo::{FaultStats, NodeTopology};
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};
use mlr_sim::faults::FaultPlan;
use serde::Serialize;

#[derive(Serialize)]
struct PlanOutcome {
    name: String,
    hit_rate: f64,
    hit_rate_drop: f64,
    bit_identical: bool,
    degraded_accesses: u64,
    replica_saved_hits: u64,
    lost_entries: u64,
    crashes: u64,
    restarts: u64,
    recovery_ticks: Option<u64>,
    /// What the plan did to the run's traffic, from replaying the run's
    /// access trace under it.
    footprint: FaultFootprint,
}

#[derive(Serialize)]
struct Record {
    smoke: bool,
    nodes: usize,
    /// The node the crash plan takes down (the baseline's busiest).
    crash_node: usize,
    jobs: usize,
    iterations: usize,
    tau: f64,
    baseline_hit_rate: f64,
    plans: Vec<PlanOutcome>,
    /// CI gate: every faulted run reconstructs bit-identically to the
    /// fault-free baseline.
    bit_identical_all: bool,
    /// Worst hit-rate drop across the swept plans.
    max_hit_rate_drop: f64,
    /// CI gate: the worst drop stays inside the allowed band.
    degradation_bounded: bool,
    /// CI gate: post-restart per-job hit rates are non-decreasing.
    recovery_monotone: bool,
    /// CI gate: the recovery clock reached half the pre-crash hit rate.
    recovery_measured: bool,
    /// Hits on the crashed node rescued by the replica set (crash plan).
    replica_saves: u64,
    /// CI gate: `replica_saves > 0`.
    replica_saves_positive: bool,
    /// CI gates: the degrade / stall plan's replayed footprint is non-zero
    /// (degraded messages > 0 and added seconds > 0).
    link_degrade_footprint_positive: bool,
    stripe_stall_footprint_positive: bool,
    /// Per-job hit rates of the jobs that started after the restart.
    post_restart_hit_rates: Vec<f64>,
}

/// One full workload replay: `jobs` identical jobs back to back on one
/// worker over a topology-configured runtime, optionally under a plan.
struct RunOutcome {
    /// Per-job reconstruction bits (the bit-identity evidence).
    bits: Vec<Vec<u64>>,
    /// Per-job store hit rate (query/hit deltas between job boundaries).
    per_job_hit_rate: Vec<f64>,
    /// Store tick at each job boundary (logical time, never wall time).
    job_end_ticks: Vec<u64>,
    hit_rate: f64,
    faults: Option<FaultStats>,
    /// The run's access trace replayed under its own plan.
    footprint: FaultFootprint,
    /// The store stripe and the memory node that took the most store
    /// accesses: a stall or a crash placed there is one the workload feels.
    busiest_stripe: usize,
    busiest_node: usize,
}

/// Index of the largest count, the lowest index on a tie.
fn busiest(counts: &[u64]) -> usize {
    (0..counts.len())
        .rev()
        .max_by_key(|&i| counts[i])
        .expect("at least one count")
}

fn run_workload(
    config: &MlrConfig,
    jobs: usize,
    nodes: usize,
    plan: Option<FaultPlan>,
) -> RunOutcome {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: jobs + 2,
        telemetry: true,
        access_trace: Some(1 << 16),
        topology: Some(NodeTopology::with_nodes(nodes)),
        fault_plan: plan.clone(),
        ..RuntimeConfig::matching(config)
    });
    let mut bits = Vec::with_capacity(jobs);
    let mut per_job_hit_rate = Vec::with_capacity(jobs);
    let mut job_end_ticks = Vec::with_capacity(jobs);
    let (mut prev_queries, mut prev_hits) = (0u64, 0u64);
    for i in 0..jobs {
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
        let store = rt.stats().store;
        let (dq, dh) = (store.queries - prev_queries, store.hits - prev_hits);
        per_job_hit_rate.push(if dq == 0 { 0.0 } else { dh as f64 / dq as f64 });
        (prev_queries, prev_hits) = (store.queries, store.hits);
        job_end_ticks.push(
            rt.distributed()
                .expect("runtime was configured with a topology")
                .inner()
                .current_tick(),
        );
    }
    let trace = rt.telemetry().snapshot().expect("telemetry enabled");
    assert_eq!(trace.accesses_dropped, 0, "access trace ring overflowed");
    let placement = rt
        .distributed()
        .expect("runtime was configured with a topology")
        .placement();
    let footprint = replay_trace(&trace.accesses, placement, plan.as_ref()).footprint;
    let mut stripe_accesses = vec![0u64; placement.len()];
    let mut node_accesses = vec![0u64; nodes];
    for access in &trace.accesses {
        stripe_accesses[access.stripe as usize] += 1;
        node_accesses[placement[access.stripe as usize]] += 1;
    }
    let stats = rt.shutdown();
    RunOutcome {
        bits,
        per_job_hit_rate,
        job_end_ticks,
        hit_rate: stats.store.hit_rate(),
        faults: stats.fault_stats().cloned(),
        footprint,
        busiest_stripe: busiest(&stripe_accesses),
        busiest_node: busiest(&node_accesses),
    }
}

fn main() {
    header(
        "Figure 25",
        "chaos harness: multi-job workload under swept fault plans, bit-identity gated",
    );
    let smoke = smoke_from_args();
    // Memoizable chunk reuse only appears from the third ADMM iteration
    // onward (earlier iterations run exact), so 3 is the floor that gives
    // the store any traffic at all.
    let (jobs, iterations, grid) = if smoke { (8, 3, 12) } else { (10, 4, 16) };
    let nodes = 4usize;
    let tau = 0.9999;
    let config = MlrConfig::quick(grid, 8)
        .with_iterations(iterations)
        .with_tau(tau);
    let shards = RuntimeConfig::matching(&config).shards;
    println!(
        "{jobs} identical jobs x {iterations} ADMM iterations over {nodes} memory nodes, tau {tau}\n"
    );

    // The fault-free baseline also measures the job boundaries in logical
    // store ticks — the plans below are placed relative to those — and
    // which node and stripe a crash or a stall must hit to touch the
    // workload (the stripes a run uses follow from the operators' chunk
    // grids).
    let baseline = run_workload(&config, jobs, nodes, None);
    let t = |i: usize| baseline.job_end_ticks[i];
    let horizon = t(jobs - 1);
    let crash_node = baseline.busiest_node;
    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "node-crash",
            FaultPlan::new(1).crash_window(crash_node, t(3), t(4)),
        ),
        (
            "link-degrade",
            FaultPlan::new(2).degrade_window(1, t(1), t(5), 0.25, 5.0e-6),
        ),
        (
            "stripe-stall",
            FaultPlan::new(3).stall_window(baseline.busiest_stripe, t(0), t(6), 2.0e-6),
        ),
        (
            "seeded-combo",
            FaultPlan::seeded(0xFA11, nodes, shards, horizon),
        ),
    ];

    let mut outcomes = Vec::new();
    let mut crash_run = None;
    for (name, plan) in &plans {
        let run = run_workload(&config, jobs, nodes, Some(plan.clone()));
        let faults = run.faults.clone().expect("plan armed");
        let bit_identical = run.bits == baseline.bits;
        let drop = (baseline.hit_rate - run.hit_rate).max(0.0);
        compare_row(
            &format!("{name}: reconstruction vs fault-free"),
            "bit-identical",
            if bit_identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
        );
        compare_row(
            &format!("{name}: hit rate (baseline {})", pct(baseline.hit_rate)),
            "bounded drop",
            &format!("{} (drop {})", pct(run.hit_rate), pct(drop)),
        );
        compare_row(
            &format!("{name}: replayed footprint"),
            "(see gates)",
            &format!(
                "{} degraded msgs (+{:.1} us), {} to a down node",
                run.footprint.degraded_messages,
                run.footprint.added_seconds * 1e6,
                run.footprint.down_messages
            ),
        );
        outcomes.push(PlanOutcome {
            name: name.to_string(),
            hit_rate: run.hit_rate,
            hit_rate_drop: drop,
            bit_identical,
            degraded_accesses: faults.degraded_accesses,
            replica_saved_hits: faults.replica_saved_hits,
            lost_entries: faults.lost_entries,
            crashes: faults.crashes,
            restarts: faults.restarts,
            recovery_ticks: faults.recovery_ticks_to_half_hit_rate,
            footprint: run.footprint,
        });
        if *name == "node-crash" {
            crash_run = Some(run);
        }
    }

    // Recovery gates, all from the crash plan's own run: jobs that started
    // at or after the restart tick form the recovery curve.
    let crash_run = crash_run.expect("crash plan swept");
    let crash_faults = crash_run.faults.clone().expect("plan armed");
    let restart_tick = t(4);
    let post_restart: Vec<f64> = (0..jobs)
        .filter(|&i| i > 0 && crash_run.job_end_ticks[i - 1] >= restart_tick)
        .map(|i| crash_run.per_job_hit_rate[i])
        .collect();
    let recovery_monotone =
        post_restart.len() >= 2 && post_restart.windows(2).all(|w| w[1] >= w[0]);
    let recovery_measured = crash_faults.recovery_ticks_to_half_hit_rate.is_some();
    let replica_saves = crash_faults.replica_saved_hits;

    let footprint_positive = |plan: &str| {
        outcomes.iter().any(|o| {
            o.name == plan && o.footprint.degraded_messages > 0 && o.footprint.added_seconds > 0.0
        })
    };
    let link_degrade_footprint_positive = footprint_positive("link-degrade");
    let stripe_stall_footprint_positive = footprint_positive("stripe-stall");

    let bit_identical_all = outcomes.iter().all(|o| o.bit_identical);
    let max_hit_rate_drop = outcomes.iter().map(|o| o.hit_rate_drop).fold(0.0, f64::max);
    let degradation_bounded = max_hit_rate_drop <= 0.5;

    compare_row(
        "recovery curve after restart",
        "monotone non-decreasing",
        &format!(
            "{} ({} post-restart jobs)",
            if recovery_monotone {
                "monotone"
            } else {
                "NOT MONOTONE"
            },
            post_restart.len()
        ),
    );
    compare_row(
        "recovery ticks to half hit rate",
        "measured",
        &crash_faults
            .recovery_ticks_to_half_hit_rate
            .map_or("NOT REACHED".to_string(), |t| format!("{t} ticks")),
    );
    compare_row(
        "replica-set saves on the crashed node",
        "> 0",
        &format!(
            "{replica_saves} saved / {} degraded / {} lost entries",
            crash_faults.degraded_accesses, crash_faults.lost_entries
        ),
    );

    assert!(
        bit_identical_all,
        "a fault plan changed the reconstruction — the degradation path is not value-neutral"
    );
    assert!(
        degradation_bounded,
        "hit rate dropped {max_hit_rate_drop} under faults (bound 0.5)"
    );
    assert!(
        recovery_monotone,
        "post-restart hit rates are not monotone: {post_restart:?}"
    );
    assert!(recovery_measured, "recovery clock never reached half rate");
    assert!(replica_saves > 0, "replica set never saved a hit");
    assert!(
        link_degrade_footprint_positive,
        "the link-degrade plan never touched a replayed message"
    );
    assert!(
        stripe_stall_footprint_positive,
        "the stripe-stall plan never touched a replayed message"
    );

    let record = Record {
        smoke,
        nodes,
        crash_node,
        jobs,
        iterations,
        tau,
        baseline_hit_rate: baseline.hit_rate,
        plans: outcomes,
        bit_identical_all,
        max_hit_rate_drop,
        degradation_bounded,
        recovery_monotone,
        recovery_measured,
        replica_saves,
        replica_saves_positive: replica_saves > 0,
        link_degrade_footprint_positive,
        stripe_stall_footprint_positive,
        post_restart_hit_rates: post_restart,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(json) => {
            if std::fs::write("BENCH_faults.json", &json).is_ok() {
                println!("\n[record written to BENCH_faults.json]");
            }
        }
        Err(e) => eprintln!("failed to serialise record: {e}"),
    }
    write_record("fig25_faults", &record);
}
