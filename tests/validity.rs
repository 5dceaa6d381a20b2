//! The validity gate on the benchmark's four smoke configurations.
//!
//! `MlrPipeline::check_exact` is what makes a reconstruction count: a kernel
//! or solver change that tips one of these configs into divergence (the
//! non-negativity clamp then returns zeros) turns this red instead of
//! leaving the benchmark to compare against an all-zero reference. The
//! configs mirror `SMOKE_WORKLOADS` in `examples/benchmark/src/spec.rs`,
//! steps pinned as there.

use mlr_core::{MlrConfig, MlrPipeline};

/// `MlrConfig::quick(n, angles)` with the benchmark's overrides.
fn smoke_config(
    n: usize,
    iterations: usize,
    tau: f64,
    chunk_size: usize,
    initial_step: f64,
) -> MlrConfig {
    let mut config = MlrConfig::quick(n, 8)
        .with_iterations(iterations)
        .with_tau(tau);
    config.chunk_size = chunk_size;
    config.admm.initial_step = initial_step;
    config
}

fn assert_valid(name: &str, config: MlrConfig) {
    let pipeline = MlrPipeline::new(config);
    let exact = pipeline.run_exact();
    if let Err(why) = pipeline.check_exact(&exact) {
        panic!("{name}: {why}");
    }
    let (memo, _) = pipeline.run_memoized();
    let values = memo.reconstruction.as_slice();
    assert!(
        values.iter().all(|v| v.is_finite()),
        "{name}: memoized volume has non-finite voxels"
    );
    assert!(
        values.iter().any(|&v| v != 0.0),
        "{name}: memoized volume is all zero"
    );
}

#[test]
fn hit_32_smoke_reference_is_valid() {
    assert_valid("hit-32", smoke_config(16, 8, 0.92, 8, 0.04));
}

#[test]
fn strict_48_smoke_reference_is_valid() {
    assert_valid("strict-48", smoke_config(16, 5, 0.99, 8, 0.04));
}

#[test]
fn smallchunk_24_smoke_reference_is_valid() {
    assert_valid("smallchunk-24", smoke_config(12, 8, 0.92, 1, 0.07));
}

#[test]
fn serve_24x12_smoke_reference_is_valid() {
    assert_valid("serve-24x12", smoke_config(12, 6, 0.92, 8, 0.07));
}
