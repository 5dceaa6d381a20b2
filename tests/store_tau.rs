//! One τ per store: the store's `MemoDbConfig::tau` gates every reuse — its
//! probe, its doorkeeper band and the executor's cache alike. A job's
//! `MemoConfig::tau` only sets the τ of the store `MemoizedExecutor::private`
//! builds, so a tenant looser than a shared store gets no hit it would refuse.

use mlr_lamino::{FftExecutor, FftOpKind};
use mlr_math::Complex64;
use mlr_memo::{MemoConfig, MemoDb, MemoDbConfig, MemoizedExecutor};
use rand::Rng;
use std::sync::Arc;

#[test]
fn a_looser_job_tau_gets_no_cache_hit_its_store_would_refuse() {
    let store_tau = 0.999;
    let job = MemoConfig {
        tau: 0.5,
        warmup_iterations: 0,
        ..Default::default()
    };
    let store = MemoDb::new(MemoDbConfig {
        tau: store_tau,
        ..Default::default()
    });
    let exec = MemoizedExecutor::with_store(job, Arc::new(store), 1);
    let fft = |x: &[Complex64]| -> Vec<Complex64> {
        x.iter().map(|z| Complex64::new(-z.im, z.re)).collect()
    };
    let mut rng = mlr_math::rng::seeded(37);
    let x: Vec<Complex64> = (0..256)
        .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    // Scaled down: the scale-aware similarity to `x` is the norm ratio, 0.8.
    let y: Vec<Complex64> = x.iter().map(|z| z.scale(0.8)).collect();
    let similarity = mlr_math::norms::scale_aware_similarity_c(&y, &x);
    assert!((job.tau..store_tau).contains(&similarity), "{similarity}");

    let op = FftOpKind::Fu2D;
    // Iteration 0: the first sighting of `x` only notes its fingerprint, the
    // second misses and inserts it. Iteration 1: a db hit caches it.
    exec.begin_iteration(0);
    exec.execute(op, 0, &x, &fft);
    exec.execute(op, 0, &x, &fft);
    exec.begin_iteration(1);
    exec.execute(op, 0, &x, &fft);
    let before = exec.stats().op(op);
    assert_eq!((before.failed_memo, before.db_hits), (1, 1), "{before:?}");

    // Iteration 2: the first sighting of `y` notes its fingerprint; the
    // second is admitted by the doorkeeper and peeks the cache holding `x`.
    let lookups = exec.cache_stats().lookups;
    exec.begin_iteration(2);
    exec.execute(op, 0, &y, &fft);
    exec.execute(op, 0, &y, &fft);
    let after = exec.stats().op(op);
    assert!(exec.cache_stats().lookups > lookups, "`y` never peeked");
    assert_eq!(after.cache_hits, 0, "hit below the store's τ: {after:?}");
    assert_eq!(after.db_hits, 1, "{after:?}");
}
