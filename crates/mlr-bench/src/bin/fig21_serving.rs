//! Figure 21 (beyond the paper): deadline-aware serving through the runtime —
//! offered load × deadline tightness vs deadline-miss rate, plus the
//! deterministic serving guarantees CI gates on.
//!
//! The mLR runtime serves a shared facility: many users submit
//! reconstruction requests against one memo store, each with an
//! acquisition-driven deadline. This harness sweeps the offered load
//! (concurrent requests per 2-worker runtime) against deadline budgets
//! (multiples of the calibrated single-job time) and records the miss rate
//! and slack percentiles per cell — the serving analogue of a latency/SLO
//! curve. Tight budgets under high load miss; generous budgets do not.
//!
//! On top of the sweep, four deterministic guarantees are asserted (and
//! gated in CI through `ci/bench_baseline.json`):
//!
//! * **unloaded miss rate is zero** — a lone request with a generous
//!   deadline through the runtime always meets it;
//! * **bit identity** — that request's reconstruction equals
//!   `MlrPipeline::run_memoized`, bit for bit (the serving layer is pure
//!   plumbing);
//! * **cancelled-while-queued never runs** — it resolves `Cancelled`
//!   without executing;
//! * **expired-before-pop never runs** — it resolves `Expired` without
//!   executing.
//!
//! The machine-readable record lands in `BENCH_serving.json` (and, like
//! every harness, under `target/experiments/`).

use mlr_bench::{compare_row, header, smoke_from_args, spin_until, write_record};
use mlr_core::{MlrConfig, MlrPipeline};
use mlr_runtime::{Deadline, JobPhase, JobStatus, ReconJob, Runtime, RuntimeConfig};
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct LoadCell {
    jobs: usize,
    deadline_factor: f64,
    budget_seconds: f64,
    completed: u64,
    expired: u64,
    deadline_missed: u64,
    miss_rate: f64,
    slack_p50_seconds: f64,
    slack_p99_seconds: f64,
    wall_seconds: f64,
    throughput_jobs_per_second: f64,
}

#[derive(Serialize)]
struct Record {
    smoke: bool,
    n: usize,
    angles: usize,
    iterations: usize,
    workers: usize,
    est_job_seconds: f64,
    cells: Vec<LoadCell>,
    unloaded_miss_rate: f64,
    /// CI gate: a lone request with a generous deadline never misses.
    unloaded_deadline_miss_rate_zero: bool,
    /// CI gate: the lone request's reconstruction is bit-identical to
    /// `run_memoized`.
    serve_bit_identical: bool,
    /// CI gate: a job cancelled while queued resolves `Cancelled` without
    /// ever executing.
    cancelled_never_ran: bool,
    /// CI gate: a job whose deadline passed while queued resolves `Expired`
    /// without ever executing.
    expired_never_ran: bool,
}

/// One load × deadline-tightness cell: a fresh 2-worker runtime (fresh
/// store, so cells are comparable), `jobs` concurrent requests, each with
/// the same absolute budget.
fn run_cell(config: MlrConfig, workers: usize, jobs: usize, budget_seconds: f64) -> LoadCell {
    let rt = Runtime::new(RuntimeConfig {
        workers,
        queue_capacity: jobs.max(1),
        ..RuntimeConfig::matching(&config)
    });
    #[expect(clippy::disallowed_methods, reason = "harness: measures wall time")]
    let start = Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            rt.submit(
                ReconJob::new(format!("load-{i}"), config)
                    .with_deadline(Deadline::within_seconds(budget_seconds)),
            )
            .expect("queue sized for the load")
        })
        .collect();
    for h in handles {
        let _ = h.wait();
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let stats = rt.shutdown();
    LoadCell {
        jobs,
        deadline_factor: 0.0, // caller fills in
        budget_seconds,
        completed: stats.completed,
        expired: stats.expired,
        deadline_missed: stats.deadline.missed,
        miss_rate: stats.deadline_miss_rate(),
        slack_p50_seconds: stats.deadline.slack_p50_seconds,
        slack_p99_seconds: stats.deadline.slack_p99_seconds,
        wall_seconds,
        throughput_jobs_per_second: stats.throughput_jobs_per_second(),
    }
}

fn main() {
    header(
        "Figure 21",
        "deadline-aware serving: load × deadline tightness vs miss rate, + cancellation guarantees",
    );
    let smoke = smoke_from_args();
    let (n, angles, iterations) = if smoke { (12, 8, 5) } else { (16, 12, 6) };
    let loads: Vec<usize> = if smoke { vec![2, 4] } else { vec![2, 4, 8] };
    let factors: Vec<f64> = if smoke {
        vec![0.5, 4.0]
    } else {
        vec![0.25, 1.0, 4.0]
    };
    let workers = 2usize;
    let config = MlrConfig::quick(n, angles).with_iterations(iterations);

    // ------------------------------------------------------- calibration
    #[expect(clippy::disallowed_methods, reason = "harness: measures wall time")]
    let calibration_start = Instant::now();
    let (reference, _) = MlrPipeline::new(config).run_memoized();
    let est_job_seconds = calibration_start.elapsed().as_secs_f64().max(1e-3);
    println!(
        "problem: {n}³, {angles} angles, {iterations} ADMM iterations — \
         calibrated single job: {est_job_seconds:.3}s\n"
    );

    // ------------------------------------------------------- load sweep
    println!(
        "{:>5} {:>8} {:>10} {:>10} {:>8} {:>7} {:>10} {:>10}",
        "jobs", "factor", "budget", "miss rate", "expired", "done", "p50 slack", "p99 slack"
    );
    let mut cells = Vec::new();
    for &jobs in &loads {
        for &factor in &factors {
            // Budget scaled to the work actually in rt of a request: a
            // full wave of the queue ahead of it on `workers` workers.
            let budget_seconds = factor * est_job_seconds * jobs.div_ceil(workers) as f64;
            let mut cell = run_cell(config, workers, jobs, budget_seconds);
            cell.deadline_factor = factor;
            println!(
                "{:>5} {:>8.2} {:>9.2}s {:>9.1}% {:>8} {:>7} {:>+9.2}s {:>+9.2}s",
                cell.jobs,
                cell.deadline_factor,
                cell.budget_seconds,
                100.0 * cell.miss_rate,
                cell.expired,
                cell.completed,
                cell.slack_p50_seconds,
                cell.slack_p99_seconds,
            );
            cells.push(cell);
        }
    }

    // -------------------------------------- gate 1+2: unloaded, identical
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 2,
        ..RuntimeConfig::matching(&config)
    });
    let report = rt
        .submit(
            ReconJob::new("unloaded", config)
                .with_deadline(Deadline::within(Duration::from_secs(600))),
        )
        .expect("empty queue admits")
        .wait_report()
        .expect("generous deadline completes");
    let serve_bit_identical = report.reconstruction.as_slice().len()
        == reference.reconstruction.as_slice().len()
        && report
            .reconstruction
            .as_slice()
            .iter()
            .zip(reference.reconstruction.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let unloaded_stats = rt.shutdown();
    let unloaded_miss_rate = unloaded_stats.deadline_miss_rate();
    let unloaded_deadline_miss_rate_zero =
        unloaded_miss_rate == 0.0 && unloaded_stats.deadline.met == 1;

    // ------------------------------------- gate 3: cancelled never runs
    let blocker_config = MlrConfig::quick(n, angles).with_iterations(40);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 4,
        ..RuntimeConfig::matching(&config)
    });
    let blocker = rt
        .submit(ReconJob::new("blocker", blocker_config))
        .expect("empty queue admits");
    spin_until("blocker to start running", Duration::from_secs(60), || {
        blocker.phase() == JobPhase::Running
    });
    let victim = rt
        .submit(ReconJob::new("cancel-victim", config))
        .expect("queue has room");
    victim.cancel();
    let cancelled_never_ran = matches!(
        victim.wait(),
        JobStatus::Cancelled {
            while_running: false,
            ..
        }
    );
    let _ = blocker.wait();
    rt.shutdown();

    // --------------------------------------- gate 4: expired never runs
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 4,
        ..RuntimeConfig::matching(&config)
    });
    let blocker = rt
        .submit(ReconJob::new("blocker", blocker_config))
        .expect("empty queue admits");
    let victim = rt
        .submit(
            ReconJob::new("expire-victim", config).with_deadline(Deadline::within(Duration::ZERO)),
        )
        .expect("queue has room");
    let expired_never_ran = matches!(
        victim.wait(),
        JobStatus::Expired {
            while_running: false,
            ..
        }
    );
    let _ = blocker.wait();
    rt.shutdown();

    println!();
    compare_row(
        "unloaded deadline-miss rate",
        "0 (required)",
        &format!("{:.1} %", 100.0 * unloaded_miss_rate),
    );
    compare_row(
        "completed serve == run_memoized, bitwise",
        "required",
        if serve_bit_identical {
            "holds"
        } else {
            "VIOLATED"
        },
    );
    compare_row(
        "cancelled-while-queued never runs",
        "required",
        if cancelled_never_ran {
            "holds"
        } else {
            "VIOLATED"
        },
    );
    compare_row(
        "expired-before-pop never runs",
        "required",
        if expired_never_ran {
            "holds"
        } else {
            "VIOLATED"
        },
    );

    assert!(
        unloaded_deadline_miss_rate_zero,
        "a lone generous-deadline request missed: {unloaded_miss_rate}"
    );
    assert!(serve_bit_identical, "the serving layer changed the bits");
    assert!(cancelled_never_ran, "a cancelled queued job executed");
    assert!(expired_never_ran, "an expired queued job executed");

    let record = Record {
        smoke,
        n,
        angles,
        iterations,
        workers,
        est_job_seconds,
        cells,
        unloaded_miss_rate,
        unloaded_deadline_miss_rate_zero,
        serve_bit_identical,
        cancelled_never_ran,
        expired_never_ran,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(json) => {
            if std::fs::write("BENCH_serving.json", &json).is_ok() {
                println!("\n[record written to BENCH_serving.json]");
            }
        }
        Err(e) => eprintln!("failed to serialise record: {e}"),
    }
    write_record("fig21_serving", &record);
}
