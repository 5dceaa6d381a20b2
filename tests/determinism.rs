//! Schedule-perturbation determinism harness.
//!
//! The memoized executor's two-phase batch schedule claims the parallel
//! read-only phase is pure with respect to the ordered commit: thread count
//! and block completion order shape wall time only, never the
//! reconstruction. The thread-count half is pinned by `tests/parallel.rs`;
//! this harness attacks the *ordering* half directly. With
//! `with_schedule_perturbation(seed)` armed, every parallel-phase worker
//! runs a deterministic yield storm derived from `(seed, block index)`
//! before and after its block, forcing adversarial relative start and
//! completion orderings — blocks finishing reversed, interleaved, bunched —
//! while computing exactly the same work. Every seed × thread-count cell
//! must reproduce the sequential run bit-for-bit, hit counts included; any
//! divergence means schedule-dependent state leaked into the read-only
//! phase (a probe that wrote, a commit that read racing state).
//!
//! The final test re-runs the sweep against a fault-armed distributed
//! store: an active [`FaultPlan`](mlr_sim::faults::FaultPlan) must not
//! open a schedule-dependence hole (faults fire on logical ticks, and
//! ticks advance with the ordered commit, never with thread timing).

use mlr_core::{CancelToken, MlrConfig, MlrPipeline};
use mlr_memo::{DistributedMemoDb, MemoStore, NodeTopology};
use mlr_sim::faults::FaultPlan;
use std::sync::Arc;

fn base_config() -> MlrConfig {
    MlrConfig::quick(12, 8).with_iterations(4)
}

fn bits(reconstruction: &[f64]) -> Vec<u64> {
    reconstruction.iter().map(|v| v.to_bits()).collect()
}

/// Runs `pipeline` over `store`, with the perturbation checker armed when
/// `seed` is `Some`, and returns the reconstruction bits plus the
/// (db, cache, failed) hit counts.
fn run_over(
    pipeline: &MlrPipeline,
    store: Arc<dyn MemoStore>,
    seed: Option<u64>,
) -> (Vec<u64>, (u64, u64, u64)) {
    let executor = pipeline.memo_executor(store, 1);
    let executor = match seed {
        Some(seed) => executor.with_schedule_perturbation(seed),
        None => executor,
    };
    let (result, executor) = pipeline.run_with_executor(executor, &CancelToken::new());
    let total = executor.stats().total();
    (
        bits(result.reconstruction.as_slice()),
        (total.db_hits, total.cache_hits, total.failed_memo),
    )
}

/// One reconstruction at `threads` chunk threads over a private one-shard
/// store (what `run_memoized` builds).
fn run(threads: usize, seed: Option<u64>) -> (Vec<u64>, (u64, u64, u64)) {
    let pipeline = MlrPipeline::new(base_config().with_intra_job_threads(threads));
    run_over(&pipeline, pipeline.build_shared_store(1), seed)
}

#[test]
fn perturbed_schedules_commit_bit_identically() {
    let (reference, ref_hits) = run(1, None);
    assert!(
        ref_hits.0 + ref_hits.1 > 0,
        "schedule never hits — the sweep would be vacuous: {ref_hits:?}"
    );
    for threads in [2, 4] {
        for seed in [0x5EED_0001_u64, 0xC0FF_EE42, 0xDEAD_BEA7] {
            let (perturbed, hits) = run(threads, Some(seed));
            assert_eq!(
                perturbed, reference,
                "seed {seed:#x} at {threads} threads changed the reconstruction"
            );
            assert_eq!(
                hits, ref_hits,
                "seed {seed:#x} at {threads} threads changed the hit counts"
            );
        }
    }
}

/// Like [`run`], but against a fresh fault-armed distributed store under
/// `plan`. Returns the reconstruction bits, the executor hit counts, and
/// the fault footprint the store recorded.
fn run_faulted(
    threads: usize,
    seed: Option<u64>,
    plan: &FaultPlan,
) -> (Vec<u64>, (u64, u64, u64), mlr_memo::FaultStats) {
    const SHARDS: usize = 8;
    let pipeline = MlrPipeline::new(base_config().with_intra_job_threads(threads));
    let store = Arc::new(DistributedMemoDb::with_faults(
        pipeline.build_shared_store(SHARDS),
        NodeTopology::with_nodes(4),
        plan.clone(),
    ));
    let (reconstruction, hits) = run_over(&pipeline, store.clone(), seed);
    let faults = store.fault_stats().expect("plan armed");
    (reconstruction, hits, faults)
}

#[test]
fn perturbed_schedules_stay_deterministic_under_an_active_fault_plan() {
    // Measure the run's logical horizon fault-free, then park node 0 in a
    // crash window spanning the first half of the access stream — the
    // restart purge lands mid-run, where a schedule-dependence hole would
    // be most visible.
    let probe = MlrPipeline::new(base_config());
    let probe_store = probe.build_shared_store(8);
    let _ = run_over(&probe, probe_store.clone(), None);
    let horizon = probe_store.current_tick();
    assert!(horizon > 0, "probe run never touched the store");
    let plan = FaultPlan::new(11).crash_window(0, 1, horizon / 2);

    let (reference, ref_hits, ref_faults) = run_faulted(1, None, &plan);
    assert!(
        ref_faults.crashes > 0 && ref_faults.restarts > 0,
        "the crash window never fired: {ref_faults:?}"
    );
    for threads in [2, 4] {
        for seed in [0x5EED_0001_u64, 0xC0FF_EE42, 0xDEAD_BEA7] {
            let (perturbed, hits, faults) = run_faulted(threads, Some(seed), &plan);
            assert_eq!(
                perturbed, reference,
                "seed {seed:#x} at {threads} threads changed the faulted reconstruction"
            );
            assert_eq!(
                hits, ref_hits,
                "seed {seed:#x} at {threads} threads changed the faulted hit counts"
            );
            assert_eq!(
                faults, ref_faults,
                "seed {seed:#x} at {threads} threads changed the fault footprint"
            );
        }
    }
}

#[test]
fn perturbation_at_one_thread_is_exactly_the_sequential_run() {
    // With a single worker the yield storms have nothing to reorder; the
    // armed executor must be indistinguishable from the plain one.
    let (reference, ref_hits) = run(1, None);
    let (perturbed, hits) = run(1, Some(0x0DDB_A115));
    assert_eq!(perturbed, reference);
    assert_eq!(hits, ref_hits);
}
