//! The private memo store's default bound: `MlrPipeline::new` caps an
//! unbounded `config.memo.budget` at `STORE_ITERATIONS` outer iterations of
//! memoizable chunk traffic, every store built from the pipeline's config
//! honours it, and a one-worker runtime matched to that config still
//! reproduces the private run bit for bit while the bound evicts.

use mlr_core::{MlrConfig, MlrPipeline, STORE_ITERATIONS};
use mlr_memo::{CapacityBudget, MemoizedExecutor};
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};

/// `MlrConfig::quick(n, angles)` with the repository benchmark's overrides.
fn workload(n: usize, angles: usize, iterations: usize, chunk: usize, step: f64) -> MlrConfig {
    let mut config = MlrConfig::quick(n, angles).with_iterations(iterations);
    config.chunk_size = chunk;
    config.admm.initial_step = step;
    config
}

/// `smallchunk-24`'s reconstruction (τ 0.92, 576-element chunks).
fn smallchunk_24() -> MlrConfig {
    workload(24, 12, 16, 1, 0.02)
}

#[test]
fn the_default_budget_is_two_iterations_of_chunk_traffic() {
    assert_eq!(STORE_ITERATIONS, 2);
    // 2 · n_inner · 2 · (|ũ1| + |ŝ|) · 8 B at the four workloads' geometries.
    for (name, config, bytes) in [
        ("hit-32", workload(32, 16, 12, 8, 0.01), 2_532_864),
        (
            "strict-48",
            workload(48, 24, 5, 8, 0.004).with_tau(0.99),
            8_352_000,
        ),
        ("smallchunk-24", smallchunk_24(), 1_093_248),
        ("serve-24x12", workload(24, 12, 8, 8, 0.02), 1_093_248),
    ] {
        let budget = MlrPipeline::new(config).config().memo.budget;
        assert_eq!(budget, CapacityBudget::bytes(bytes), "{name}");
    }
    // A budget the caller set is kept as it is.
    let entries = CapacityBudget::entries(5);
    let kept = MlrPipeline::new(MlrConfig::quick(12, 8).with_memo_budget(entries));
    assert_eq!(kept.config().memo.budget, entries);
}

#[test]
fn a_matching_runtime_reproduces_a_bounded_private_run() {
    // 8 iterations at 24³ store about 1.34 MB against the 1.09 MB bound.
    let pipeline = MlrPipeline::new(MlrConfig::quick(24, 12).with_iterations(8));
    let (reference, executor) = pipeline.run_memoized();
    let reference_store = executor.store().stats();
    assert!(
        reference_store.evictions > 0,
        "vacuous: {reference_store:?}"
    );

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 2,
        ..RuntimeConfig::matching(pipeline.config())
    });
    let report = runtime
        .submit(ReconJob::new("bounded", *pipeline.config()))
        .unwrap()
        .wait_report()
        .expect("the bounded job completes");
    let store = runtime.shutdown().store;

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(reference.reconstruction.as_slice()),
        bits(report.reconstruction.as_slice())
    );
    let loss_bits =
        |l: &[(usize, f64)]| l.iter().map(|&(i, x)| (i, x.to_bits())).collect::<Vec<_>>();
    assert_eq!(
        loss_bits(&reference.history.loss_series()),
        loss_bits(&report.loss)
    );
    assert_eq!(executor.stats(), report.memo);
    let counts = |s: &mlr_memo::StoreStats| (s.entries, s.queries, s.hits, s.inserts, s.evictions);
    assert_eq!(counts(&reference_store), counts(&store));
    assert_eq!(
        reference_store.peak_resident_bytes,
        store.peak_resident_bytes
    );
}

#[test]
fn a_private_store_stays_within_its_default_budget() {
    let pipeline = MlrPipeline::new(smallchunk_24());
    let budget = pipeline
        .config()
        .memo
        .budget
        .max_bytes
        .expect("bounded by default");
    let (_, executor): (_, MemoizedExecutor) = pipeline.run_memoized();
    let stats = executor.store().stats();
    assert!(stats.evictions > 0, "the bound never bound: {stats:?}");
    assert!(
        stats.peak_resident_bytes <= budget,
        "{} > {budget}",
        stats.peak_resident_bytes
    );
}
