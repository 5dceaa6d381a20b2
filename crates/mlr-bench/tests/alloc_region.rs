//! Region-level allocation-budget tests for `no_alloc_region!`.
//!
//! This harness installs the counting global allocator, so the guard is
//! armed: the steady-state cache-hit window of the memoized executor must
//! stay inside the fig22 envelope (≤ 4 allocations per chunk), and an
//! over-budget region must panic. Under the `lockcheck` sanitizer the guard
//! disarms itself (backtrace capture allocates), which
//! `enforcement_matches_lockcheck_mode` pins down.

use mlr_bench::alloc::{counting_allocator_installed, AllocRegion, CountingAllocator};
use mlr_bench::hotpath::{chunk, drive, fft_compute};
use mlr_bench::no_alloc_region;
use mlr_math::Complex64;
use mlr_memo::{MemoConfig, MemoizedExecutor};
use mlr_telemetry::Telemetry;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The fig22 allocation envelope: encoded key plus amortised batch plumbing.
const MAX_HIT_ALLOCS_PER_CHUNK: u64 = 4;

#[test]
fn probe_detects_installed_counting_allocator() {
    assert!(
        counting_allocator_installed(),
        "this harness registers CountingAllocator via #[global_allocator]"
    );
}

#[test]
fn steady_hit_window_stays_inside_the_region_budget() {
    // One deterministic code path: the region must count chunk work, not
    // scheduling noise.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let n = 512;
    let locations = 8;
    let steady = 4;
    let compute = fft_compute(n);
    let inputs: Vec<Vec<Complex64>> = (0..locations).map(|loc| chunk(loc, n)).collect();
    let mut outputs: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; n]; locations];
    let memo = MemoConfig {
        warmup_iterations: 0,
        ..Default::default()
    };
    let exec = MemoizedExecutor::private(memo).with_telemetry(Telemetry::enabled());

    // Warm-up rounds: prefilter note, populate, promote, pool warming.
    let _ = drive(&exec, &inputs, &mut outputs, &compute, 0, 4);

    let chunks = (locations * steady) as u64;
    no_alloc_region!(
        "fig22 steady cache-hit window",
        MAX_HIT_ALLOCS_PER_CHUNK * chunks,
        drive(&exec, &inputs, &mut outputs, &compute, 4, steady)
    );
}

#[test]
fn over_budget_region_panics() {
    let region = AllocRegion::enter("enforcement probe", u64::MAX);
    if !region.enforced() {
        // Lockcheck build: backtrace capture allocates, the guard disarms.
        let _ = region.finish();
        return;
    }
    let caught = std::panic::catch_unwind(|| {
        no_alloc_region!("negative", 2, {
            for i in 0..8u64 {
                std::hint::black_box(vec![i; 16]);
            }
        })
    });
    let _ = region.finish();
    let err = caught.expect_err("8 allocations against a budget of 2 must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("exceed the budget"),
        "panic should name the budget, got: {msg}"
    );
}

#[test]
fn enforcement_matches_lockcheck_mode() {
    let region = AllocRegion::enter("mode probe", u64::MAX);
    assert_eq!(region.enforced(), !parking_lot::lockcheck_enabled());
    let _ = region.finish();
}
