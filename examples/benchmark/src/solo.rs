//! The solo workloads: one process, one reconstruction at a time, each
//! phantom run as an exact/memoized pair through `MlrPipeline`.

use crate::report::{median, peak_rss_mib, Outcome};
use crate::spec::{problem_seed, ReconSpec, SETUP_SAMPLES};
use crate::trace::{Ledger, Tracer};
use crate::validity::{
    check_disabled_memo_is_exact, check_exact, check_volume, guarded, same_bits,
};
use crate::{alloc, micro};
use mlr_core::{MlrConfig, MlrPipeline};
use mlr_lamino::{DirectExecutor, FftExecutor, FftOpKind};
use mlr_memo::{MemoStats, MemoizedExecutor};
use mlr_solver::{accuracy_vs_reference, AdmmResult, AdmmSolver};
use mlr_telemetry::{StageId, Telemetry};
use std::time::Instant;

/// Times `MlrPipeline::new(config)` `SETUP_SAMPLES` times; returns the
/// median seconds and the last pipeline built.
pub fn timed_setup(config: MlrConfig) -> (f64, MlrPipeline) {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    let mut pipeline = None;
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let built = MlrPipeline::new(config);
        samples.push(start.elapsed().as_secs_f64());
        pipeline = Some(built);
    }
    (median(&samples), pipeline.expect("SETUP_SAMPLES > 0"))
}

fn timed<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = run();
    (value, start.elapsed().as_secs_f64())
}

/// One timed, counted `run_exact` that passed the validity gate.
fn exact_run(pipeline: &MlrPipeline, out: &mut Outcome) -> Option<(AdmmResult, f64)> {
    out.attempted += 1;
    let run = guarded("run_exact", || timed(|| pipeline.run_exact()))
        .and_then(|(exact, s)| check_exact(pipeline, &exact).map(|_| (exact, s)));
    run.map_err(|why| out.fail(&why)).ok()
}

/// One timed, counted `run_memoized` with a finite, non-zero volume, and the
/// `(allocations, bytes)` it made. The executor (and its store) is freed
/// after the clock stops.
fn memo_run(pipeline: &MlrPipeline, out: &mut Outcome) -> Option<(AdmmResult, f64, (u64, u64))> {
    out.attempted += 1;
    let before = alloc::snapshot();
    let run = guarded("run_memoized", || timed(|| pipeline.run_memoized()));
    let after = alloc::snapshot();
    let run = run.and_then(|((memo, _executor), s)| {
        check_volume("memoized reconstruction", &memo.reconstruction).map(|()| (memo, s))
    });
    run.map(|(memo, s)| (memo, s, (after.0 - before.0, after.1 - before.1)))
        .map_err(|why| out.fail(&why))
        .ok()
}

/// `--trace 0`: the end-to-end metrics.
///
/// A round reconstructs each of `problems` phantoms once exactly and
/// `repeats` times memoized. Whole rounds are run until another would not
/// fit in `seconds`, so every phantom weighs the same however fast the
/// machine is. Timings are the fastest repetition of identical work: on a
/// shared host the noise only ever adds (the same reconstruction takes
/// 2.7–4.2 s here while a register-bound loop stays within 2 %), and the
/// floor is what a change to the program moves.
pub fn untraced(
    spec: &ReconSpec,
    problems: usize,
    repeats: usize,
    seed: u64,
    seconds: f64,
) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, first) = timed_setup(spec.config(problem_seed(seed, 0)));
    out.set("setup_s", setup_s);

    // Exact work does not depend on the phantom; memoized work does.
    let mut exact_s = f64::INFINITY;
    let mut recon_s = vec![f64::INFINITY; problems];
    let mut accuracy = vec![f64::NAN; problems];
    let measuring = Instant::now();
    let mut rounds = 0;
    loop {
        let round = Instant::now();
        for problem in 0..problems {
            let built;
            let pipeline = if problem == 0 {
                &first
            } else {
                built = MlrPipeline::new(spec.config(problem_seed(seed, problem)));
                &built
            };
            let Some((exact, s)) = exact_run(pipeline, &mut out) else {
                continue;
            };
            exact_s = exact_s.min(s);
            if problem == 0 && rounds == 0 {
                out.attempted += 1;
                if let Err(why) = check_disabled_memo_is_exact(pipeline, &exact) {
                    out.fail(&why);
                }
            }
            let mut first_memo: Option<AdmmResult> = None;
            for _ in 0..repeats {
                let Some((memo, s, _)) = memo_run(pipeline, &mut out) else {
                    continue;
                };
                recon_s[problem] = recon_s[problem].min(s);
                match &first_memo {
                    Some(first) if !same_bits(&first.reconstruction, &memo.reconstruction) => {
                        out.wrong("run_memoized is not bit-identical across repetitions");
                    }
                    Some(_) => {}
                    None => {
                        accuracy[problem] =
                            accuracy_vs_reference(&exact.reconstruction, &memo.reconstruction);
                        first_memo = Some(memo);
                    }
                }
            }
        }
        if rounds == 0 {
            // After the first round only, so that the high-water mark does
            // not depend on how many rounds fit in `seconds`.
            out.set("peak_rss_mib", peak_rss_mib());
        }
        rounds += 1;
        if measuring.elapsed().as_secs_f64() + round.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    println!(
        "measured {rounds} round(s) of {problems} phantoms x (1 exact + {repeats} memoized) in {:.1} s",
        measuring.elapsed().as_secs_f64()
    );

    // A phantom that never completed leaves an infinity or a NaN here, which
    // makes the pass incorrect.
    let recon_s = recon_s.iter().sum::<f64>() / problems as f64;
    out.note_wall_s(exact_s, recon_s);
    out.set("recon_vs_exact", recon_s / exact_s);
    out.set("recon_accuracy", median(&accuracy));
    out
}

/// A private-store memoized executor exactly as `run_memoized` builds it.
fn memo_executor(pipeline: &MlrPipeline, threads: usize, telemetry: Telemetry) -> MemoizedExecutor {
    let config = pipeline.config();
    MemoizedExecutor::new(config.memo, pipeline.encoder_config(), config.problem.seed)
        .with_parallelism(threads, None)
        .with_telemetry(telemetry)
}

fn solve(pipeline: &MlrPipeline, executor: &dyn FftExecutor) -> AdmmResult {
    AdmmSolver::new(pipeline.config().admm).run_with(
        pipeline.operator(),
        &pipeline.dataset().projections,
        executor,
    )
}

/// `--trace 1`: the per-layer metrics of every layer under `MlrPipeline`,
/// on problem 0 only so that the counts repeat exactly for a seed.
pub fn traced(spec: &ReconSpec, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let pipeline = MlrPipeline::new(spec.config(problem_seed(seed, 0)));
    let iterations = pipeline.config().admm.outer_iterations;

    // Two untraced runs of each kind, the faster of each: the baseline the
    // traced, recorded and two-thread runs are divided by, and the allocation
    // traffic of a memoized run that carries no tracer.
    let (mut exact_s, mut recon_s) = (f64::INFINITY, f64::INFINITY);
    let mut allocs = (f64::NAN, f64::NAN);
    for _ in 0..2 {
        if let Some((_, s)) = exact_run(&pipeline, out) {
            exact_s = exact_s.min(s);
        }
        if let Some((_, s, counted)) = memo_run(&pipeline, out) {
            recon_s = recon_s.min(s);
            allocs = (counted.0 as f64, counted.1 as f64);
        }
    }
    out.set("mlr-core.recon_s", recon_s);
    out.set("mlr-core.exact_s", exact_s);
    out.set("mlr-core.memo_speedup", exact_s / recon_s);
    out.set("mlr-core.allocs_per_recon", allocs.0);
    out.set(
        "mlr-core.alloc_mib_per_recon",
        allocs.1 / (1u64 << 20) as f64,
    );

    // Two traced memoized runs, the faster kept (like the untraced baseline
    // it is divided by). Each ledger is checked against a wall time taken
    // outside the tracer.
    let mut fastest: Option<(AdmmResult, MemoizedExecutor, Ledger)> = None;
    for recon_id in [1, 2] {
        out.attempted += 1;
        let executor = memo_executor(&pipeline, 1, Telemetry::disabled());
        let ((memo, root), wall_s) = timed(|| {
            tracer.trace_recon("recon:memoized", recon_id, &executor, |e| {
                solve(&pipeline, e)
            })
        });
        let ledger = tracer.ledger(root);
        let rows = ledger.solver_self_s + ledger.executor_self_s + ledger.kernel_s;
        if (rows - wall_s).abs() > 0.02 * wall_s {
            out.wrong("memoized ledger rows do not sum to the traced wall within 2 %");
        }
        let faster = match &fastest {
            Some((_, _, best)) => ledger.wall_s < best.wall_s,
            None => true,
        };
        if faster {
            fastest = Some((memo, executor, ledger));
        }
    }
    let (memo, executor, memo_ledger) = fastest.expect("two traced runs were made");
    memo_ledger.print("memoized reconstruction", "mlr-memo");
    out.set("mlr-core.trace_overhead", memo_ledger.wall_s / recon_s);
    out.set("mlr-solver.self_s", memo_ledger.solver_self_s);
    out.set(
        "mlr-solver.nonlsp_s",
        memo.history
            .records()
            .iter()
            .map(|r| r.rsp_seconds + r.lambda_seconds + r.penalty_seconds)
            .sum(),
    );
    out.set("mlr-lamino.kernel_s", memo_ledger.kernel_s);
    out.set("mlr-lamino.kernel_calls", memo_ledger.kernel_calls as f64);
    out.set("mlr-memo.self_s", memo_ledger.executor_self_s);
    memo_counts(&executor.stats(), out);
    let chunks = executor.stats().total().total();
    out.set(
        "mlr-memo.self_us_per_chunk",
        1e6 * memo_ledger.executor_self_s / chunks.max(1) as f64,
    );
    out.set("mlr-memo.entries", executor.db_len() as f64);
    out.set(
        "mlr-memo.db_mib",
        executor.db_value_bytes() as f64 / (1u64 << 20) as f64,
    );
    let projection = pipeline.project_to_paper_scale(1024, executor.stats().case_distribution());
    out.set(
        "mlr-sim.projected_speedup_1k",
        1.0 / projection.normalized_time,
    );

    // Traced exact run.
    out.attempted += 1;
    let (exact, exact_root) =
        tracer.trace_recon("recon:exact", 3, &DirectExecutor, |e| solve(&pipeline, e));
    let exact_ledger = tracer.ledger(exact_root);
    exact_ledger.print("exact reconstruction", "DirectExecutor");
    out.set("mlr-lamino.exact_kernel_s", exact_ledger.kernel_s);
    for (name, kind) in [
        ("mlr-lamino.fu1d_s", FftOpKind::Fu1D),
        ("mlr-lamino.fu2d_s", FftOpKind::Fu2D),
        ("mlr-lamino.fu2d_adj_s", FftOpKind::Fu2DAdj),
        ("mlr-lamino.fu1d_adj_s", FftOpKind::Fu1DAdj),
    ] {
        out.set(name, exact_ledger.executor_s[kind.index()]);
    }
    match check_exact(&pipeline, &exact) {
        Ok(quality) => {
            out.set("mlr-solver.exact_loss_drop", quality.loss_drop);
            out.set("mlr-solver.exact_err_vs_truth", quality.err_vs_truth);
        }
        Err(why) => {
            out.fail(&why);
            out.set("mlr-solver.exact_loss_drop", f64::NAN);
            out.set("mlr-solver.exact_err_vs_truth", f64::NAN);
        }
    }
    out.set(
        "mlr-solver.final_loss_ratio",
        match (memo.history.final_loss(), exact.history.final_loss()) {
            (Some(m), Some(e)) => m / e,
            _ => f64::NAN,
        },
    );
    if let Err(why) = check_volume("memoized reconstruction", &memo.reconstruction) {
        out.fail(&why);
    }

    // One run with the program's own recorder on: stage seconds, and what
    // recording costs.
    out.attempted += 1;
    let telemetry = Telemetry::enabled();
    let recorded = memo_executor(&pipeline, 1, telemetry.clone());
    let (_, recorded_s) = timed(|| solve(&pipeline, &recorded));
    out.set("mlr-telemetry.enabled_overhead", recorded_s / recon_s);
    let snapshot = telemetry
        .snapshot()
        .expect("an enabled recorder has a snapshot");
    let stage = |id: StageId| snapshot.metrics.stage(id).sum as f64 * 1e-9;
    let stages = [
        ("mlr-memo.encode_s", stage(StageId::Encode)),
        (
            "mlr-memo.probe_s",
            stage(StageId::IvfProbe) + stage(StageId::Quantize),
        ),
        ("mlr-memo.cache_peek_s", stage(StageId::CachePeek)),
        ("mlr-memo.payload_copy_s", stage(StageId::PayloadCopy)),
        ("mlr-memo.prefilter_s", stage(StageId::Prefilter)),
    ];
    for (name, s) in stages {
        out.set(name, s);
    }
    // Ordered commit, lock wait, dispatch and thread spawn/join have no
    // stage in the recorder; they are what is left of the engine's self time.
    out.set(
        "mlr-memo.unattributed_s",
        memo_ledger.executor_self_s - stages.iter().map(|(_, s)| s).sum::<f64>(),
    );

    // One run with two chunk threads.
    out.attempted += 1;
    let two_threads = memo_executor(&pipeline, 2, Telemetry::disabled());
    let (threaded, two_thread_s) = timed(|| solve(&pipeline, &two_threads));
    out.set("mlr-memo.intra_job_speedup_2t", recon_s / two_thread_s);
    if !same_bits(&threaded.reconstruction, &memo.reconstruction) {
        out.wrong("two chunk threads changed the memoized reconstruction");
    }

    micro::kernels(&pipeline, out);
    micro::memo(
        &pipeline,
        &memo.reconstruction,
        executor.store().as_ref(),
        iterations,
        out,
    );
}

fn memo_counts(stats: &MemoStats, out: &mut Outcome) {
    let total = stats.total();
    out.set("mlr-memo.avoided_fraction", total.avoided_fraction());
    out.set("mlr-memo.db_hits", total.db_hits as f64);
    out.set("mlr-memo.cache_hits", total.cache_hits as f64);
    out.set("mlr-memo.failed_memo", total.failed_memo as f64);
    out.set("mlr-memo.prefiltered", total.prefiltered as f64);
    out.set("mlr-memo.computed", total.computed as f64);
    out.set("mlr-memo.keys_encoded", total.keys_encoded as f64);
}
