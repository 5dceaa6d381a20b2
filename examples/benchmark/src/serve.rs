//! The serving workload: a closed burst of jobs through `ServeFront` onto a
//! small worker pool over one shared `ShardedMemoDb`.
//!
//! Closed loop: all jobs of a batch are submitted at t = 0 and the batch
//! ends when the last one resolves; nothing arrives on a schedule, so a
//! slower system is not offered more load, it just takes longer per batch.

use crate::report::{median, peak_rss_mib, Outcome};
use crate::solo;
use crate::spec::{problem_seed, ReconSpec, ServeShape, SETUP_SAMPLES};
use crate::trace::Tracer;
use crate::validity::{check_disabled_memo_is_exact, check_exact, check_volume, guarded, Failure};
use mlr_core::{MlrConfig, MlrPipeline};
use mlr_math::Array3;
use mlr_runtime::{RuntimeConfig, RuntimeStats, ServeFront, ServeRequest};
use mlr_solver::accuracy_vs_reference;
use std::time::Instant;

/// Batches measured however slow the machine is: the fastest of fewer is
/// too easily a disturbed one.
const MIN_BATCHES: usize = 3;

/// A fresh runtime per batch: `workers` workers, room for the whole burst in
/// the queue, no deadlines, store matched to the job config.
fn runtime_config(shape: &ServeShape, config: &MlrConfig, workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        shards: shape.shards,
        queue_capacity: shape.families * shape.replicas,
        ..RuntimeConfig::matching(config)
    }
}

/// One sample family: its job config and the exact reconstruction its jobs
/// are judged against (`None` when the reference itself failed).
struct Family {
    config: MlrConfig,
    reference: Option<Array3<f64>>,
}

/// Runs the families' exact references, one after the other; returns them
/// with the wall seconds of each.
fn references(
    spec: &ReconSpec,
    families: usize,
    seed: u64,
    out: &mut Outcome,
) -> (Vec<Family>, Vec<f64>) {
    let mut exact_s = Vec::new();
    let families = (0..families)
        .map(|family| {
            let config = spec.config(problem_seed(seed, family));
            let pipeline = MlrPipeline::new(config);
            out.attempted += 1;
            let start = Instant::now();
            let reference = match guarded("run_exact", || pipeline.run_exact()) {
                Ok(exact) => {
                    exact_s.push(start.elapsed().as_secs_f64());
                    let mut verdict = check_exact(&pipeline, &exact).map(|_| ());
                    if family == 0 && verdict.is_ok() {
                        out.attempted += 1;
                        verdict = check_disabled_memo_is_exact(&pipeline, &exact);
                    }
                    match verdict {
                        Ok(()) => Some(exact.reconstruction),
                        Err(why) => {
                            out.fail(&why);
                            None
                        }
                    }
                }
                Err(why) => {
                    out.fail(&why);
                    None
                }
            };
            Family { config, reference }
        })
        .collect();
    (families, exact_s)
}

/// What one batch measured.
struct Batch {
    makespan_s: f64,
    /// Per completed job: accuracy against its family's reference.
    accuracy: Vec<f64>,
    run_s: Vec<f64>,
    queue_s: Vec<f64>,
    stats: RuntimeStats,
}

impl Batch {
    fn jobs_per_s(&self) -> f64 {
        self.run_s.len() as f64 / self.makespan_s
    }
}

/// Submits every job of the burst to a fresh front-end, waits for all of
/// them, shuts the front-end down.
fn run_batch(shape: &ServeShape, families: &[Family], workers: usize, out: &mut Outcome) -> Batch {
    let front = ServeFront::new(runtime_config(shape, &families[0].config, workers));
    let start = Instant::now();
    let mut handles = Vec::new();
    for replica in 0..shape.replicas {
        for (f, family) in families.iter().enumerate() {
            out.attempted += 1;
            let request = ServeRequest::new(format!("family{f}-replica{replica}"), family.config);
            match front.submit_blocking(request) {
                Ok(handle) => handles.push((f, handle)),
                Err(e) => out.fail(&Failure::Failed(format!("job was not admitted: {e}"))),
            }
        }
    }
    let statuses: Vec<_> = handles
        .into_iter()
        .map(|(f, handle)| (f, handle.wait()))
        .collect();
    let makespan_s = start.elapsed().as_secs_f64();
    let stats = front.shutdown();

    let mut batch = Batch {
        makespan_s,
        accuracy: Vec::new(),
        run_s: Vec::new(),
        queue_s: Vec::new(),
        stats,
    };
    for (f, status) in statuses {
        let Some(report) = status.report() else {
            out.fail(&Failure::Failed(format!(
                "job ended {} instead of completed",
                status.label()
            )));
            continue;
        };
        if let Err(why) = check_volume("served reconstruction", &report.reconstruction) {
            out.fail(&why);
            continue;
        }
        batch.run_s.push(report.run_seconds);
        batch.queue_s.push(report.queue_seconds);
        if let Some(reference) = &families[f].reference {
            batch
                .accuracy
                .push(accuracy_vs_reference(reference, &report.reconstruction));
        }
    }
    batch
}

/// Median of `values`, NaN (which fails the pass) when nothing was measured.
fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// Smallest of `values`, NaN when nothing was measured.
fn min_or_nan(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// `--trace 0`: the end-to-end metrics. Batches are run until another would
/// not fit in `seconds` (and at least `MIN_BATCHES`); timings are the fastest batch and the fastest
/// reference (see `solo::untraced` for why the fastest).
pub fn untraced(spec: &ReconSpec, shape: &ServeShape, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();

    let first = spec.config(problem_seed(seed, 0));
    let setup: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let front = ServeFront::new(runtime_config(shape, &first, shape.workers));
            let pipeline = MlrPipeline::new(first);
            let s = start.elapsed().as_secs_f64();
            drop(pipeline);
            front.shutdown();
            s
        })
        .collect();
    out.set("setup_s", median(&setup));

    let (families, exact_s) = references(spec, shape.families, seed, &mut out);
    let exact_s = min_or_nan(&exact_s);

    let (mut per_job_s, mut accuracy) = (Vec::new(), Vec::new());
    let measuring = Instant::now();
    loop {
        let batch = run_batch(shape, &families, shape.workers, &mut out);
        if per_job_s.is_empty() {
            // After the first batch only: freed memory the allocator keeps
            // makes the high-water mark creep up with every further batch.
            out.set("peak_rss_mib", peak_rss_mib());
        }
        if !batch.run_s.is_empty() {
            per_job_s.push(batch.makespan_s / batch.run_s.len() as f64);
        }
        accuracy.extend(batch.accuracy);
        let full = measuring.elapsed().as_secs_f64() + batch.makespan_s > seconds;
        if full && per_job_s.len() >= MIN_BATCHES {
            break;
        }
    }
    println!(
        "measured {} batches of {} jobs in {:.1} s",
        per_job_s.len(),
        shape.families * shape.replicas,
        measuring.elapsed().as_secs_f64()
    );
    let recon_s = min_or_nan(&per_job_s);
    out.note_wall_s(exact_s, recon_s);
    out.set("recon_vs_exact", recon_s / exact_s);
    out.set("recon_accuracy", median_or_nan(&accuracy));
    out
}

/// `--trace 1`: `mlr-runtime`'s numbers from one batch at the workload's
/// worker count, one batch on a single worker and one job run alone; every
/// layer under the runtime is measured on the first family run solo.
pub fn traced(spec: &ReconSpec, shape: &ServeShape, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    solo::traced(spec, seed, tracer, out);

    let (families, _) = references(spec, shape.families, seed, out);
    let batch = run_batch(shape, &families, shape.workers, out);
    let one_worker = run_batch(shape, &families, 1, out);
    let alone = run_batch(
        &ServeShape {
            families: 1,
            replicas: 1,
            ..*shape
        },
        &families[..1],
        1,
        out,
    );

    let run_s_p50 = median_or_nan(&batch.run_s);
    out.set("mlr-runtime.jobs_per_s", batch.jobs_per_s());
    out.set("mlr-runtime.job_run_s_p50", run_s_p50);
    out.set(
        "mlr-runtime.queue_wait_s_p50",
        median_or_nan(&batch.queue_s),
    );
    out.set("mlr-runtime.utilisation", batch.stats.utilisation());
    out.set(
        "mlr-runtime.interference",
        run_s_p50 / median_or_nan(&alone.run_s),
    );
    out.set(
        "mlr-runtime.worker_scaling",
        batch.jobs_per_s() / one_worker.jobs_per_s(),
    );
    out.set("mlr-runtime.hit_rate", batch.stats.store.hit_rate());
    out.set(
        "mlr-runtime.cross_job_hit_rate",
        batch.stats.store.cross_job_hit_rate(),
    );
    out.set("mlr-runtime.accuracy_min", min_or_nan(&batch.accuracy));
    out.set("mlr-runtime.rejected", batch.stats.rejected as f64);
    out.set(
        "mlr-runtime.worker_restarts",
        batch.stats.worker_restarts as f64,
    );
}
