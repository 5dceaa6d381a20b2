//! Integration tests for the memoized executor's batch seam and its store:
//! a reconstruction over an injected shared `MemoDb` must match the private
//! store of `run_memoized` bit for bit — unbounded and under an eviction
//! budget — and the zero-copy batch path must emit exactly what the
//! one-chunk path does.

use mlr_core::{CancelToken, MlrConfig, MlrPipeline};
use mlr_memo::{CapacityBudget, MemoStore};
use std::sync::Arc;

fn base_config() -> MlrConfig {
    MlrConfig::quick(12, 8).with_iterations(5)
}

fn bits(reconstruction: &[f64]) -> Vec<u64> {
    reconstruction.iter().map(|v| v.to_bits()).collect()
}

/// Runs one standalone memoized reconstruction and returns the
/// reconstruction bits plus the (db, cache, failed) hit counts — hit parity
/// is part of the determinism contract.
fn run_standalone(config: MlrConfig) -> (Vec<u64>, (u64, u64, u64)) {
    let pipeline = MlrPipeline::new(config);
    let (result, executor) = pipeline.run_memoized();
    let total = executor.stats().total();
    (
        bits(result.reconstruction.as_slice()),
        (total.db_hits, total.cache_hits, total.failed_memo),
    )
}

/// Same, over a freshly built store injected as a shared one (job 7).
fn run_shared(config: MlrConfig) -> (Vec<u64>, (u64, u64, u64)) {
    let pipeline = MlrPipeline::new(config);
    let shared: Arc<dyn MemoStore> = pipeline.build_shared_store();
    let executor = pipeline.memo_executor(shared, 7);
    let (result, executor) = pipeline.run_with_executor(executor, &CancelToken::new());
    let total = executor.stats().total();
    (
        bits(result.reconstruction.as_slice()),
        (total.db_hits, total.cache_hits, total.failed_memo),
    )
}

#[test]
fn shared_store_is_bit_identical_to_the_private_one() {
    // The standalone run (a private store) is the reference; a fresh shared
    // store must reproduce it exactly.
    let (reference, ref_hits) = run_standalone(base_config());
    assert!(
        ref_hits.0 + ref_hits.1 > 0,
        "schedule never hits — test is vacuous: {ref_hits:?}"
    );
    assert_eq!(run_shared(base_config()), (reference, ref_hits));
}

#[test]
fn bounded_shared_store_is_bit_identical_to_the_private_one() {
    // Under a binding eviction budget the commit order *is* the eviction
    // schedule, so this pins that inserts and evictions replay identically
    // over an injected store.
    let probe = MlrPipeline::new(base_config());
    let (_, probe_exec) = probe.run_memoized();
    let cap = probe_exec.store().resident_bytes() / 2;
    assert!(cap > 0);

    let bounded = || base_config().with_memo_budget(CapacityBudget::bytes(cap));
    let (reference, ref_hits) = run_standalone(bounded());
    let evictions = {
        let pipeline = MlrPipeline::new(bounded());
        let (_, executor) = pipeline.run_memoized();
        executor.store().stats().evictions
    };
    assert!(evictions > 0, "budget never bound — test is vacuous");
    assert_eq!(run_shared(bounded()), (reference, ref_hits));
}

#[test]
fn zero_copy_batch_seam_matches_sequential_execute() {
    // Drives the output-slice seam directly: one executor runs chunk by
    // chunk through `execute` (owned-Vec returns), a twin consumes the same
    // trace through multi-chunk `execute_batch_into` dispatches whose memo
    // hits are single widening copies from the shared `Arc<[Complex32]>`
    // payloads into caller-provided slices. Outputs must be bitwise equal and the
    // case counts identical, so the zero-copy path cannot drift from the
    // one-chunk-at-a-time protocol.
    use mlr_lamino::{ChunkRequest, FftExecutor, FftOpKind};
    use mlr_math::Complex64;
    use mlr_memo::{MemoConfig, MemoDb, MemoDbConfig, MemoizedExecutor};
    use rand::Rng;

    let memo = MemoConfig {
        warmup_iterations: 0,
        ..Default::default()
    };
    let fake_fft = |x: &[Complex64]| -> Vec<Complex64> {
        x.iter().map(|z| Complex64::new(-z.im, z.re)).collect()
    };
    let chunk = |loc: usize, it: usize| -> Vec<Complex64> {
        let mut rng = mlr_math::rng::seeded(70 + loc as u64);
        (0..96)
            .map(|_| Complex64::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .map(|z| z.scale(1.0 + 0.001 * it as f64))
            .collect()
    };
    let executor = || {
        let db_config = MemoDbConfig {
            tau: memo.tau,
            ..Default::default()
        };
        MemoizedExecutor::with_store(memo, Arc::new(MemoDb::new(db_config)), 0)
    };
    let (sequential, batched) = (executor(), executor());
    let locations = 6usize;
    for it in 0..5 {
        sequential.begin_iteration(it);
        batched.begin_iteration(it);
        let inputs: Vec<Vec<Complex64>> = (0..locations).map(|loc| chunk(loc, it)).collect();
        let reference: Vec<Vec<Complex64>> = (0..locations)
            .map(|loc| sequential.execute(FftOpKind::Fu2D, loc, &inputs[loc], &fake_fft))
            .collect();
        let compute = |x: &[Complex64]| fake_fft(x);
        let batch: Vec<ChunkRequest<'_>> = inputs
            .iter()
            .enumerate()
            .map(|(loc, input)| ChunkRequest {
                loc,
                input,
                compute: &compute,
            })
            .collect();
        let mut outputs: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; 96]; locations];
        let mut slots: Vec<&mut [Complex64]> =
            outputs.iter_mut().map(|v| v.as_mut_slice()).collect();
        batched.execute_batch_into(FftOpKind::Fu2D, &batch, &mut slots);
        assert_eq!(
            outputs, reference,
            "zero-copy outputs diverged at iteration {it}"
        );
    }
    let a = sequential.stats().total();
    let b = batched.stats().total();
    let counts = |s: &mlr_memo::OpStats| {
        let cases = (s.failed_memo, s.db_hits, s.cache_hits);
        (cases, s.keys_encoded, s.prefiltered)
    };
    assert_eq!(
        counts(&a),
        counts(&b),
        "case counts or prefilter decisions diverged between the paths"
    );
    assert!(
        a.prefiltered > 0,
        "the norm prefilter never fired — vacuous for the doorkeeper"
    );
    assert!(a.db_hits + a.cache_hits > 0, "trace never hit — vacuous");
}

/// Four sightings of `inputs` (one chunk per location, `F_u2D`) through the
/// batch seam, each in its own iteration: the outputs of every sighting,
/// and the executor.
fn four_sightings(
    inputs: &[Vec<mlr_math::Complex64>],
) -> (
    Vec<Vec<Vec<mlr_math::Complex64>>>,
    mlr_memo::MemoizedExecutor,
) {
    use mlr_lamino::{ChunkRequest, FftExecutor, FftOpKind};
    use mlr_math::Complex64;
    let memo = mlr_memo::MemoConfig {
        warmup_iterations: 0,
        ..Default::default()
    };
    let exec = mlr_memo::MemoizedExecutor::private(memo);
    let compute =
        |x: &[Complex64]| -> Vec<Complex64> { x.iter().map(|z| z.scale(1.0 / 3.0)).collect() };
    let sightings = (0..4)
        .map(|it| {
            exec.begin_iteration(it);
            let batch: Vec<ChunkRequest<'_>> = inputs
                .iter()
                .enumerate()
                .map(|(loc, input)| ChunkRequest {
                    loc,
                    input,
                    compute: &compute,
                })
                .collect();
            let mut outputs: Vec<Vec<Complex64>> = inputs
                .iter()
                .map(|x| vec![Complex64::ZERO; x.len()])
                .collect();
            let mut slots: Vec<&mut [Complex64]> =
                outputs.iter_mut().map(|v| v.as_mut_slice()).collect();
            exec.execute_batch_into(FftOpKind::Fu2D, &batch, &mut slots);
            outputs
        })
        .collect();
    (sightings, exec)
}

#[test]
fn lanes_chosen_by_store_state_emit_identical_bits() {
    // The same chunk is prefiltered on its first sighting, a failed memo on
    // its second, a database hit on its third and a cache hit on its
    // fourth. Which of those a sighting gets depends on what the store
    // holds (a crashed memory node turns the hit back into a recompute), so
    // all four must hand the operator the same bits: the exact result
    // rounded through the stored single-precision format.
    use mlr_math::Complex64;
    let inputs: Vec<Vec<Complex64>> = (0..6)
        .map(|loc| {
            (0..128)
                .map(|i| Complex64::new((0.3 * (i + loc) as f64).sin(), 0.01 * i as f64))
                .collect()
        })
        .collect();
    let complex_bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    let (sightings, exec) = four_sightings(&inputs);
    let total = exec.stats().total();
    assert_eq!(
        (
            total.prefiltered,
            total.failed_memo,
            total.db_hits,
            total.cache_hits
        ),
        (6, 6, 6, 6),
        "the four sightings did not take the four lanes"
    );
    for (loc, input) in inputs.iter().enumerate() {
        let exact: Vec<Complex64> = input.iter().map(|z| z.scale(1.0 / 3.0)).collect();
        let mut rounded = vec![Complex64::ZERO; exact.len()];
        assert!(mlr_math::complex::round_into(&exact, &mut rounded));
        assert_ne!(rounded, exact, "x / 3 has no exact f32 form");
        for (sighting, outputs) in sightings.iter().enumerate() {
            assert_eq!(
                complex_bits(&outputs[loc]),
                complex_bits(&rounded),
                "sighting {sighting} of location {loc} is not widen(narrow(F(x)))"
            );
        }
    }
}

#[test]
fn a_chunk_f32_cannot_hold_is_answered_exactly_and_never_stored() {
    // At location 0 one input component overflows f32 (the output, a third
    // of it, does not); at location 1 one output component is not finite.
    // Neither may be stored: every sighting recomputes, the store counts
    // the refusals, and an output f32 cannot hold is handed over exactly as
    // computed. Location 2 is an ordinary chunk.
    use mlr_math::Complex64;
    let ordinary: Vec<Complex64> = (0..128)
        .map(|i| Complex64::new((0.3 * i as f64).sin(), 0.01 * i as f64))
        .collect();
    let mut inputs = vec![ordinary.clone(), ordinary.clone(), ordinary];
    inputs[0][5].re = 1e39;
    inputs[1][5].im = f64::INFINITY;
    let (sightings, exec) = four_sightings(&inputs);
    for outputs in &sightings {
        assert_eq!(outputs[0][5].re, (1e39 / 3.0) as f32 as f64);
        assert_eq!(outputs[1][5].im, f64::INFINITY);
        let exact = inputs[1][6].scale(1.0 / 3.0);
        assert_ne!(
            exact.im, exact.im as f32 as f64,
            "the probe element must round"
        );
        assert_eq!(outputs[1][6], exact, "an unstorable output was rounded");
    }
    let store = exec.store().stats();
    assert_eq!((store.entries, store.inserts), (1, 1), "{store:?}");
    // Sightings 2 to 4 of both bad chunks each probed, missed and were refused.
    assert_eq!(store.refused_inserts, 6, "{store:?}");
    assert_eq!(store.resident_bytes, 8 * (128 + 128));
    let total = exec.stats().total();
    assert_eq!(
        (total.failed_memo, total.db_hits + total.cache_hits),
        (7, 2)
    );
}
