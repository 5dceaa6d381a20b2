//! The ADMM solver's memory ceiling, read deterministically from the
//! counting allocator instead of the process RSS.
//!
//! One exact reconstruction (`MlrPipeline::run_exact`, a plain
//! `AdmmSolver::run` over the direct executor) at 24³, 12 angles, chunk 8
//! may hold at most [`MAX_SOLVER_VOLUMES`] `f64` volumes of live bytes above
//! what was live when it started: its workspace (u, the one-field dual state
//! `a` and the Barzilai–Borwein history `G_prev` in `f32`, the rolling
//! stencil buffers, the gradient and the operator intermediates `ũ1` and
//! `ŝ`) plus the projected half of `d̂` and the chunk results in flight.
//! Holding u, `a` and `G_prev` in `f64` read 9.2. Holding `d̂′` and the full
//! `d̂` as well read 10.6. Holding `ψ` and `λ` as two fields and the history
//! as `u_prev` and `G_prev` read 14.5. An allocating loop that keeps `∇u`,
//! the `ψ − λ/ρ` field or per-step clones of `u` alive reads about 26.
//!
//! A memoized solve of the same pipeline may hold that plus its store's
//! peak bytes: the memo engine carries no computed chunk past the chunk's
//! phase 1 but a failed memo's, which the store takes. Holding every
//! computed chunk's result until the ordered commit read 11.2 + the store.
//!
//! What a built pipeline keeps between runs is bounded too: its dataset
//! plus [`MAX_PARKED_VOLUMES`] — the operator's plans and the scratch its
//! kernels parked, no chunk arena.
//!
//! The kernels run on the calling thread (`RAYON_NUM_THREADS=1`), so the
//! per-thread counters see every byte the solve allocates.

use mlr_bench::alloc::{live_bytes, peak_bytes, reset_peak, CountingAllocator};
use mlr_core::{MlrConfig, MlrPipeline};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The ceiling, in `f64` volumes of the reconstruction's shape (the solve
/// reads 6.7).
const MAX_SOLVER_VOLUMES: f64 = 7.1;

/// What [`MlrPipeline::new`] may hold above its dataset, in `f64` volumes
/// (it reads 1.5; with the operator's gather and staging arenas parked it
/// read 3.2).
const MAX_PARKED_VOLUMES: f64 = 2.0;

/// The volume side of the pipeline both tests build.
const N: usize = 24;

/// Bytes of one `f64` volume of the reconstruction's shape.
const VOLUME: f64 = (N * N * N * std::mem::size_of::<f64>()) as f64;

/// The pipeline both tests build: 24³, 12 angles, chunk 8.
fn config() -> MlrConfig {
    let mut config = MlrConfig::quick(N, 12).with_iterations(3);
    config.chunk_size = 8;
    config.admm.initial_step = 0.02;
    config
}

#[test]
fn one_exact_solve_stays_under_its_volume_budget() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let pipeline = MlrPipeline::new(config());

    let start = reset_peak();
    let exact = pipeline.run_exact();
    let held = peak_bytes() - start;

    assert_eq!(exact.history.len(), 3);
    let volumes = held as f64 / VOLUME;
    eprintln!("peak live bytes above start: {held} ({volumes:.1} f64 volumes)");
    assert!(
        volumes <= MAX_SOLVER_VOLUMES,
        "one exact solve held {volumes:.1} f64 volumes above its start (budget {MAX_SOLVER_VOLUMES})"
    );
}

#[test]
fn a_built_pipeline_holds_its_dataset_and_little_else() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let start = live_bytes();
    let pipeline = MlrPipeline::new(config());
    let held = live_bytes() - start;

    let ds = pipeline.dataset();
    let dataset = ds.ground_truth.as_slice().len() + ds.projections.as_slice().len();
    let above = (held as f64 - (dataset * std::mem::size_of::<f64>()) as f64) / VOLUME;
    eprintln!("a built pipeline holds {held} bytes, {above:.1} f64 volumes above its dataset");
    assert!(
        above <= MAX_PARKED_VOLUMES,
        "a built pipeline holds {above:.1} f64 volumes above its dataset (budget {MAX_PARKED_VOLUMES})"
    );
}

#[test]
fn one_memoized_solve_holds_its_store_and_an_exact_solve() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let pipeline = MlrPipeline::new(config());

    let start = reset_peak();
    let (memo, executor) = pipeline.run_memoized();
    let held = peak_bytes() - start;

    assert_eq!(memo.history.len(), 3);
    let store = executor.store().stats().peak_resident_bytes as f64 / VOLUME;
    let volumes = held as f64 / VOLUME;
    eprintln!("peak live bytes above start: {held} ({volumes:.2} f64 volumes, store {store:.2})");
    assert!(
        volumes <= MAX_SOLVER_VOLUMES + store,
        "one memoized solve held {volumes:.2} f64 volumes above its start (budget \
         {MAX_SOLVER_VOLUMES} + the store's {store:.2})"
    );
}
