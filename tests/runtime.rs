//! Integration tests for the multi-job runtime and the shared memoization
//! store: concurrency safety of `MemoDb` under real
//! thread contention, and the determinism contract that a single job run
//! through the runtime reconstructs identically to the classic
//! single-tenant pipeline.

use mlr_core::{MlrConfig, MlrPipeline};
use mlr_lamino::FftOpKind;
use mlr_math::Complex64;
use mlr_memo::{MemoDb, MemoDbConfig, MemoStore, Provenance};
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// 8 threads hammer one store concurrently — each inserting into its own
/// chunk locations, then querying both its own entries (must hit) and the
/// previous thread's (cross-job). Afterwards the global counters must agree
/// exactly with what the threads observed: no lost inserts, no lost hit
/// accounting.
#[test]
fn sharded_store_survives_concurrent_insert_query_stress() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 60;

    let store = Arc::new(MemoDb::new(MemoDbConfig {
        tau: 0.9,
        ..Default::default()
    }));
    let observed_hits = Arc::new(AtomicU64::new(0));
    let observed_cross = Arc::new(AtomicU64::new(0));
    let observed_queries = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let observed_hits = Arc::clone(&observed_hits);
            let observed_cross = Arc::clone(&observed_cross);
            let observed_queries = Arc::clone(&observed_queries);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let loc = (t * 10_000 + i) as usize;
                    let input = chunk(1.0 + t as f64, 0.1 * i as f64, 128);
                    let key = store.encode(&input);
                    // Insert at iteration i, then query at iteration i+1:
                    // identical input at the same location must hit.
                    let insert_origin = Provenance {
                        job: t + 1,
                        iteration: i as usize,
                    };
                    store.insert(
                        FftOpKind::Fu2D,
                        loc,
                        &input,
                        key.clone(),
                        chunk(2.0, 0.5, 16),
                        insert_origin,
                        mlr_memo::recompute_cost_estimate(FftOpKind::Fu2D, input.len()),
                    );
                    let query_origin = Provenance {
                        job: t + 1,
                        iteration: i as usize + 1,
                    };
                    observed_queries.fetch_add(1, Ordering::Relaxed);
                    let store: &dyn MemoStore = store.as_ref();
                    match probe_commit(store, FftOpKind::Fu2D, loc, &input, &key, query_origin) {
                        Some(origin) => {
                            assert_eq!(origin, insert_origin);
                            observed_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            panic!("own freshly inserted entry must hit (t={t}, i={i})")
                        }
                    }
                    // Probe the previous thread's location space: when its
                    // entry is already there this is a cross-job hit; either
                    // way the accounting must stay consistent.
                    let other_loc = (((t + THREADS - 1) % THREADS) * 10_000 + i) as usize;
                    let other_input = chunk(
                        1.0 + ((t + THREADS - 1) % THREADS) as f64,
                        0.1 * i as f64,
                        128,
                    );
                    let other_key = store.encode(&other_input);
                    observed_queries.fetch_add(1, Ordering::Relaxed);
                    if let Some(origin) = probe_commit(
                        store,
                        FftOpKind::Fu2D,
                        other_loc,
                        &other_input,
                        &other_key,
                        query_origin,
                    ) {
                        observed_hits.fetch_add(1, Ordering::Relaxed);
                        if origin.job != query_origin.job {
                            observed_cross.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let stats = store.stats();
    // No lost inserts: every entry is present and accounted for.
    assert_eq!(stats.inserts, THREADS * PER_THREAD);
    assert_eq!(store.len() as u64, THREADS * PER_THREAD);
    assert_eq!(stats.entries as u64, THREADS * PER_THREAD);
    // Hit accounting matches what the threads saw, exactly.
    assert_eq!(stats.queries, observed_queries.load(Ordering::Relaxed));
    assert_eq!(stats.hits, observed_hits.load(Ordering::Relaxed));
    assert_eq!(stats.cross_job_hits, observed_cross.load(Ordering::Relaxed));
    // Every own-entry query hit, so the rate is at least 1/2.
    assert!(stats.hit_rate() >= 0.5, "hit rate {}", stats.hit_rate());
    assert!(stats.value_bytes > 0);
}

/// The determinism contract: one job through `mlr-runtime` (shared
/// store, worker pool, queue) matched to the pipeline's config reconstructs
/// *bit-identically* to `MlrPipeline::run_memoized` with its private database.
#[test]
fn single_job_through_runtime_matches_run_memoized() {
    let config = MlrConfig::quick(12, 8).with_iterations(5);

    let pipeline = MlrPipeline::new(config);
    let (reference, _) = pipeline.run_memoized();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 2,
        ..RuntimeConfig::matching(pipeline.config())
    });
    let report = runtime
        .submit(ReconJob::new("determinism", config))
        .unwrap()
        .wait_report()
        .expect("determinism job completes");
    let stats = runtime.shutdown();

    let err = mlr_math::norms::relative_error(&reference.reconstruction, &report.reconstruction);
    assert!(err < 1e-12, "runtime diverged from run_memoized: {err}");
    // Loss trajectories match too.
    let ref_loss = reference.history.loss_series();
    assert_eq!(ref_loss.len(), report.loss.len());
    for ((ia, la), (ib, lb)) in ref_loss.iter().zip(&report.loss) {
        assert_eq!(ia, ib);
        assert!((la - lb).abs() <= 1e-12 * la.abs().max(1.0), "{la} vs {lb}");
    }
    // A lone job can't have cross-job hits.
    assert_eq!(stats.store.cross_job_hits, 0);
    assert!(stats.store.queries > 0);
}

/// Two identical jobs back to back on one worker: the second reuses the
/// first one's entries, and the whole schedule — hits, misses and inserts —
/// replays bit for bit on a fresh runtime.
#[test]
fn back_to_back_jobs_on_one_worker_reuse_entries_deterministically() {
    let config = MlrConfig::quick(12, 8).with_iterations(3);
    let run = || {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            ..RuntimeConfig::matching(&config)
        });
        let bits: Vec<Vec<u64>> = ["first", "second"]
            .iter()
            .map(|name| {
                let report = runtime
                    .submit(ReconJob::new(*name, config))
                    .unwrap()
                    .wait_report()
                    .expect("job completes");
                let volume = report.reconstruction.as_slice();
                volume.iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        (bits, runtime.shutdown().store)
    };
    let (bits, store) = run();
    assert!(store.hits > 0, "second job never hit the store: {store:?}");
    assert!(store.cross_job_hits > 0, "no reuse across jobs: {store:?}");
    assert_eq!(run(), (bits, store), "a second runtime diverged");
}

/// Four concurrent jobs over one store: all complete, and the shared store
/// serves cross-job hits that isolated databases cannot.
#[test]
fn concurrent_jobs_benefit_from_shared_store() {
    let config = MlrConfig::quick(12, 8).with_iterations(5);
    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: 8,
        ..RuntimeConfig::matching(&config)
    });
    let handles: Vec<_> = (0..4)
        .map(|i| {
            runtime
                .submit(ReconJob::new(format!("rep-{i}"), config))
                .unwrap()
        })
        .collect();
    let mut reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait_report().expect("replica job completes"))
        .collect();
    reports.sort_by_key(|r| r.job);

    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 4);
    assert!(
        stats.cross_job_hit_rate() > 0.0,
        "no cross-job reuse: {:?}",
        stats.store
    );

    // Isolated baseline: per-job private databases see zero cross-job hits.
    let (_, iso_exec) = MlrPipeline::new(config).run_memoized();
    assert_eq!(iso_exec.store().stats().cross_job_hits, 0);

    // Every job produced a finite reconstruction of the right shape.
    for r in &reports {
        assert!(r.reconstruction.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(r.loss.len(), 5);
    }
}
