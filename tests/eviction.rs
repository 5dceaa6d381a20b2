//! Integration tests for the capacity-governance layer: determinism of
//! eviction under a fixed budget and schedule and the budget invariant under
//! real thread contention — the contracts `fig19_eviction` and the runtime
//! build on.

use mlr_core::{CancelToken, MlrConfig, MlrPipeline};
use mlr_lamino::FftOpKind;
use mlr_math::Complex64;
use mlr_memo::{
    recompute_cost_estimate, CapacityBudget, MemoDb, MemoDbConfig, MemoStore, Provenance,
};
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};
use std::sync::Arc;

mod common;
use common::probe_commit;

fn chunk(scale: f64, phase: f64, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            Complex64::new(scale * (5.0 * t + phase).sin(), scale * (3.0 * t).cos())
        })
        .collect()
}

/// Replays `jobs` sequential reconstructions over one shared store and
/// returns the reconstructions' raw bits.
fn replay(pipeline: &MlrPipeline, store: Arc<MemoDb>, jobs: usize) -> Vec<Vec<u64>> {
    (1..=jobs)
        .map(|job| {
            let shared: Arc<dyn MemoStore> = Arc::clone(&store) as Arc<dyn MemoStore>;
            let executor = pipeline.memo_executor(shared, job as u64);
            let (result, _) = pipeline.run_with_executor(executor, &CancelToken::new());
            result
                .reconstruction
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

/// Same budget + same schedule ⇒ identical reconstructions, identical
/// eviction counts.
#[test]
fn eviction_is_deterministic_for_a_fixed_schedule() {
    let config = MlrConfig::quick(12, 8).with_iterations(4);
    let pipeline = MlrPipeline::new(config);
    let jobs = 3;

    // Measure the unbounded footprint, then cap at half of it.
    let probe = pipeline.build_shared_store_with(CapacityBudget::unbounded());
    let _ = replay(&pipeline, Arc::clone(&probe), jobs);
    let cap = probe.stats().resident_bytes / 2;
    assert!(cap > 0);
    let budget = CapacityBudget::bytes(cap);

    let store_a = pipeline.build_shared_store_with(budget);
    let recon_a = replay(&pipeline, Arc::clone(&store_a), jobs);
    assert!(
        store_a.stats().evictions > 0,
        "half budget must evict — test is vacuous"
    );
    // A fresh store: bit-identical replay and identical counters.
    let store_b = pipeline.build_shared_store_with(budget);
    let recon_b = replay(&pipeline, Arc::clone(&store_b), jobs);
    assert_eq!(recon_a, recon_b, "replay diverged under eviction");
    assert_eq!(store_a.stats().evictions, store_b.stats().evictions);
    assert_eq!(store_a.stats().hits, store_b.stats().hits);
}

/// A bounded single job through the runtime still satisfies the pinned
/// determinism contract against `run_memoized` with the same bounded
/// configuration.
#[test]
fn bounded_single_job_through_runtime_matches_run_memoized() {
    let config = MlrConfig::quick(12, 8).with_iterations(4);
    // Cap at half the private database's unbounded footprint.
    let probe = MlrPipeline::new(config);
    let (_, probe_exec) = probe.run_memoized();
    let cap = probe_exec.store().resident_bytes() / 2;
    let bounded = config.with_memo_budget(CapacityBudget::bytes(cap));

    let pipeline = MlrPipeline::new(bounded);
    let (reference, reference_exec) = pipeline.run_memoized();
    assert!(
        reference_exec.store().stats().evictions > 0,
        "budget never bound — test is vacuous"
    );

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 2,
        ..RuntimeConfig::matching(&bounded)
    });
    let report = runtime
        .submit(ReconJob::new("bounded-determinism", bounded))
        .unwrap()
        .wait_report()
        .expect("bounded job completes");
    let stats = runtime.shutdown();
    assert!(stats.store.evictions > 0);
    assert!(stats.store.peak_resident_bytes <= cap);

    let err = mlr_math::norms::relative_error(&reference.reconstruction, &report.reconstruction);
    assert!(
        err < 1e-12,
        "bounded runtime diverged from run_memoized: {err}"
    );
}

/// 8 threads hammer one bounded store concurrently; the budget must hold at
/// every observable point — after each thread's own insert, and at the
/// post-enforcement high-water mark.
#[test]
fn budget_never_exceeded_across_eight_concurrent_jobs() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50;
    const CAP_BYTES: u64 = 64 * 1024;

    let store = Arc::new(MemoDb::new(MemoDbConfig {
        tau: 0.9,
        budget: CapacityBudget::bytes(CAP_BYTES),
    }));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let loc = (t * 10_000 + i) as usize;
                    let input = chunk(1.0 + t as f64, 0.1 * i as f64, 128);
                    let key = store.encode(&input);
                    let origin = Provenance {
                        job: t + 1,
                        iteration: i as usize,
                    };
                    store.insert(
                        FftOpKind::Fu2D,
                        loc,
                        &input,
                        key.clone(),
                        chunk(2.0, 0.5, 64),
                        origin,
                        recompute_cost_estimate(FftOpKind::Fu2D, input.len()),
                    );
                    // Insert and enforcement hold one lock, so every
                    // observation must be ≤ cap.
                    let resident = store.resident_bytes();
                    assert!(
                        resident <= CAP_BYTES,
                        "budget exceeded after insert (t={t}, i={i}): {resident} > {CAP_BYTES}"
                    );
                    // Keep some traffic on the query path too.
                    let origin_q = Provenance {
                        job: t + 1,
                        iteration: i as usize + 1,
                    };
                    let _ = probe_commit(&*store, FftOpKind::Fu2D, loc, &input, &key, origin_q);
                }
            });
        }
    });

    let stats = store.stats();
    assert_eq!(stats.inserts, THREADS * PER_THREAD);
    assert!(stats.evictions > 0, "cap never bound — test is vacuous");
    assert!(
        stats.peak_resident_bytes <= CAP_BYTES,
        "high-water mark {} exceeded the cap {CAP_BYTES}",
        stats.peak_resident_bytes
    );
    assert!(stats.resident_bytes <= CAP_BYTES);
    // Inserts minus evictions is what remains.
    assert_eq!(stats.entries as u64, stats.inserts - stats.evictions);
}
