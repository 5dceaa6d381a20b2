//! Micro-measurements: direct calls of single public functions at the
//! workload's own sizes, each reported as the median over its calls.

use crate::report::{median, Outcome};
use mlr_core::MlrPipeline;
use mlr_fft::fft::{Direction, FftPlan};
use mlr_fft::fft2d::{to_complex, Fft2Batch};
use mlr_fft::usfft::{Usfft1d, Usfft2d};
use mlr_lamino::FftOpKind;
use mlr_math::{Array3, Complex64};
use mlr_memo::{
    recompute_cost_estimate, ChunkFingerprint, CnnEncoder, EncoderScratch, MemoStore, Provenance,
};
use std::hint::black_box;
use std::time::Instant;

/// Calls per micro-measurement (the operator applications take 5).
const CALLS: usize = 200;
const OPERATOR_CALLS: usize = 5;
/// Sub-microsecond kernels are timed in groups of this many calls.
const FFT1D_GROUP: usize = 32;

/// Median seconds of one call of `f` over `calls` calls.
fn median_call_seconds(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// A deterministic, non-trivial complex signal.
fn signal(len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|i| {
            let t = i as f64;
            Complex64::new((0.37 * t).sin(), (0.11 * t).cos())
        })
        .collect()
}

/// `mlr-fft` kernels and `mlr-lamino` whole-operator applications on the
/// workload's geometry.
pub fn kernels(pipeline: &MlrPipeline, out: &mut Outcome) {
    let g = pipeline.operator().geometry();
    let (h, w) = (g.detector.rows, g.detector.cols);

    // Length 2n is what the oversampled USFFTs transform: radix-2 at 32³,
    // Bluestein at 24³ and 48³.
    let plan = FftPlan::new(2 * g.n0);
    let mut line = signal(plan.len());
    let group = median_call_seconds(CALLS, || {
        for _ in 0..FFT1D_GROUP {
            plan.process(black_box(&mut line), Direction::Forward);
        }
    });
    out.set(
        "mlr-fft.fft1d_ns_per_elem",
        group * 1e9 / (FFT1D_GROUP * plan.len()) as f64,
    );

    let vertical = Usfft1d::with_params(g.n0, g.vertical_freqs(), 2, 6);
    let column = signal(vertical.input_len());
    let rows = signal(vertical.output_len());
    out.set(
        "mlr-fft.usfft1d_fwd_us",
        1e6 * median_call_seconds(CALLS, || {
            black_box(vertical.forward(black_box(&column)));
        }),
    );
    out.set(
        "mlr-fft.usfft1d_adj_us",
        1e6 * median_call_seconds(CALLS, || {
            black_box(vertical.adjoint(black_box(&rows)));
        }),
    );

    let inplane = Usfft2d::with_params(g.n1, g.n2, g.inplane_freqs_for_row(h / 2), 2, 6);
    let plane = signal(g.n1 * g.n2);
    let samples = signal(inplane.output_len());
    out.set(
        "mlr-fft.usfft2d_fwd_us",
        1e6 * median_call_seconds(CALLS, || {
            black_box(inplane.forward(black_box(&plane)));
        }),
    );
    out.set(
        "mlr-fft.usfft2d_adj_us",
        1e6 * median_call_seconds(CALLS, || {
            black_box(inplane.adjoint(black_box(&samples)));
        }),
    );

    let detector = Fft2Batch::new(h, w);
    let mut projection = signal(h * w);
    out.set(
        "mlr-fft.fft2_plane_us",
        1e6 * median_call_seconds(CALLS, || {
            detector.process_plane(black_box(&mut projection), Direction::Forward);
        }),
    );

    let dataset = pipeline.dataset();
    out.set(
        "mlr-lamino.forward_s",
        median_call_seconds(OPERATOR_CALLS, || {
            black_box(pipeline.operator().forward(&dataset.ground_truth));
        }),
    );
    out.set(
        "mlr-lamino.adjoint_s",
        median_call_seconds(OPERATOR_CALLS, || {
            black_box(pipeline.operator().adjoint(&dataset.projections));
        }),
    );
}

/// `mlr-memo` hit-path pieces on a real chunk (the first `F_u1D` chunk of
/// `volume`) and on `store` as a finished reconstruction left it.
/// `next_iteration` is one past the run's last, so every stored entry is old
/// enough to serve the probes. The inserts come last: they grow the store.
pub fn memo(
    pipeline: &MlrPipeline,
    volume: &Array3<f64>,
    store: &dyn MemoStore,
    next_iteration: usize,
    out: &mut Outcome,
) {
    let kind = FftOpKind::Fu1D;
    let chunk_len = pipeline.operator().chunk_elems(kind);
    let chunk: Vec<Complex64> = to_complex(volume).as_slice()[..chunk_len].to_vec();

    let encoder = CnnEncoder::new(pipeline.encoder_config(), pipeline.config().problem.seed);
    let mut scratch = EncoderScratch::default();
    out.set(
        "mlr-memo.encode_us",
        1e6 * median_call_seconds(CALLS, || {
            black_box(encoder.encode_with(black_box(&chunk), &mut scratch));
        }),
    );
    out.set(
        "mlr-memo.fingerprint_us",
        1e6 * median_call_seconds(CALLS, || {
            black_box(ChunkFingerprint::compute(black_box(&chunk)));
        }),
    );

    let key = store.encode(&chunk);
    let origin = Provenance::solo(next_iteration);
    out.set(
        "mlr-memo.store_probe_us",
        1e6 * median_call_seconds(CALLS, || {
            black_box(store.probe_with_key(kind, 0, black_box(&chunk), &key, origin));
        }),
    );
    let operator = pipeline.operator();
    let planes = operator.chunk_size().min(operator.geometry().n1);
    let value = operator.fu1d_chunk_compute(&chunk, planes);
    let cost = recompute_cost_estimate(kind, chunk.len());
    let inserts: Vec<f64> = (0..CALLS)
        .map(|_| {
            // The store takes ownership; the copies are the caller's, not the insert's.
            let (key, value) = (key.clone(), value.clone());
            let start = Instant::now();
            black_box(store.insert(kind, 0, &chunk, key, value, origin, cost));
            start.elapsed().as_secs_f64()
        })
        .collect();
    out.set("mlr-memo.store_insert_us", 1e6 * median(&inserts));
}
