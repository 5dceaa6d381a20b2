//! Figure 22 (beyond the paper): the zero-copy, allocation-free chunk hot
//! path.
//!
//! mLR's premise is that a memo hit must be far cheaper than the FFT it
//! replaces. This harness measures the *constant factors* of that claim on
//! the real executor seam (`FftExecutor::execute_batch_into`):
//!
//! * **hit path** — steady-state cache-hit and db-hit cost per chunk
//!   (ns/chunk; each db-hit round runs a cold-cache executor over the
//!   populated store), with every payload handed out as a shared
//!   single-precision `Arc<[Complex32]>` (8 bytes an element —
//!   `stored_bytes_per_elem`, gated) and widened exactly once, straight into
//!   the caller's output slice;
//! * **miss path** — exact-FFT throughput through the same seam (the work a
//!   hit avoids);
//! * **prefilter path** — a drifting-amplitude trace in which every chunk's
//!   norm fingerprint falls outside the τ-band of its scope's history, so
//!   the doorkeeper routes every chunk straight to the exact FFT without
//!   touching the cache, the key or the index. The skip rate and the ns/chunk
//!   saved versus the full peek→encode→probe→miss→insert path (the same chunks'
//!   second sighting) are both recorded, with the second sighting's `insert`
//!   stage (narrow + index add + budget enforcement) beside them;
//! * **allocator traffic** — allocations and bytes per steady-state hit
//!   chunk, measured by the counting global allocator. This is the
//!   deterministic CI gate: a reintroduced payload deep-clone (the pre-PR-5
//!   behaviour cloned every hit out of the store) immediately shows up as
//!   payload-sized allocations per chunk. The hit-path executors run with
//!   telemetry *enabled*, so the gate also certifies that the instrumented
//!   path stays allocation-free;
//! * **stage breakdown** — where the hit ns/chunk goes: prefilter, cache
//!   peek (the τ gate on the raw chunk), key sketch, index probe (flat scan,
//!   then the τ gate), payload copy and miss-FFT nanoseconds per chunk from the
//!   telemetry stage histograms, answering how the measured hit cost
//!   splits. A steady cache hit records no encode and no probe: it never
//!   computes a key. The stage sum is printed beside the measured wall
//!   clock (`stage_sum_fraction`, informational);
//! * **recorder cost** — a telemetry-*disabled* twin of the cache-hit
//!   executor runs the same schedule, then the two alternate
//!   [`OVERHEAD_PAIRS`] pairs of steady windows. What the recorder costs is an
//!   absolute time per chunk (stage clocks and spans), whatever the hit
//!   beside it costs, so the gate is the median over the pairs of
//!   `enabled − disabled` ns/chunk against [`MAX_OVERHEAD_NS`]
//!   (`overhead_within_bound`). The ratio of the per-mode minima is recorded
//!   beside it, ungated (`overhead_fraction`): its denominator shrinks
//!   whenever the hit path gets cheaper.
//!
//! `--sweep` additionally runs a chunk-size sweep (256 .. 16 Ki complex
//! elems) of what the memo path costs — the steady cache hit, and the tax
//! a memoized *miss* pays on top of its compute (cache peek, key, probe,
//! insert) — against the exact `F_u1D` and `F_u2D` chunk computes a hit
//! replaces in a reconstruction, and judges the seam against it. Every
//! chunk an operator hands the executor is memoized, so the decision per
//! op family is whether its chunks cross the seam at all (2-D yes, 1-D
//! never, read off a memoizing executor's case counts after one forward +
//! adjoint application): at every swept size it must match
//! `p · compute ≥ p · hit + (1 − p) · miss tax` (`p` = [`REUSE_SHARE`]),
//! except within a factor of two of break-even, where either decision
//! passes (`gate_agrees_with_measurement`). CI runs
//! `fig22_hotpath --smoke --sweep` so `BENCH_hotpath.json` always carries
//! the sweep; without `--sweep` the sweep is empty and the flag false.
//!
//! Gated in CI (`ci/bench_baseline.json`): `hit_path_allocation_free` and
//! `zero_payload_clone` must hold exactly; `stored_bytes_per_elem` must equal
//! 8 (an entry going back to double precision reads 16); the
//! *measured* `measured_hit_speedup` must stay above 1.0 (the
//! `measured_hit_beats_fft` boolean), `gate_agrees_with_measurement` must
//! hold, the drifting trace's
//! `prefilter.skip_rate` must stay positive, and `overhead_within_bound`
//! must hold. Remaining wall-clock columns are informational.
//!
//! The machine-readable record lands in `BENCH_hotpath.json` (and under
//! `target/experiments/`).

use mlr_bench::alloc::CountingAllocator;
use mlr_bench::hotpath::{chunk, drive, fft_compute};
use mlr_bench::{compare_row, fmt_secs, header, pct, smoke_from_args, write_record};
use mlr_lamino::{FftOpKind, LaminoGeometry, LaminoOperator};
use mlr_math::{Array3, Complex32, Complex64};
use mlr_memo::{MemoConfig, MemoStats, MemoizedExecutor, OpStats};
use mlr_telemetry::{MetricsSnapshot, StageId, Telemetry, STAGE_NAMES};
use serde::Serialize;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[derive(Serialize)]
struct PathStats {
    ns_per_chunk: f64,
    allocs_per_chunk: f64,
    alloc_bytes_per_chunk: f64,
    db_hits: u64,
    cache_hits: u64,
    failed_memo: u64,
    computed: u64,
}

/// Per-stage split of a steady-state hit chunk, from the telemetry stage
/// histograms recorded by the executor itself (prefilter → cache peek →
/// encode → index probe → payload copy, plus the miss-FFT stage on
/// recompute paths). This answers the question the aggregate ns/chunk
/// column cannot: *where* the hit-path time goes.
#[derive(Serialize)]
struct StageBreakdown {
    encode_ns_per_chunk: f64,
    cache_peek_ns_per_chunk: f64,
    ivf_probe_ns_per_chunk: f64,
    payload_copy_ns_per_chunk: f64,
    miss_fft_ns_per_chunk: f64,
    /// Fingerprint compute + doorkeeper consult, charged on every chunk.
    prefilter_ns_per_chunk: f64,
    /// Sum of the six stage columns.
    stage_sum_ns_per_chunk: f64,
    /// The wall-clock ns/chunk measured over the same steady window.
    measured_ns_per_chunk: f64,
    /// stage_sum / measured: how much of the measured time the stage timers
    /// explain (the remainder is untimed commit bookkeeping).
    stage_sum_fraction: f64,
    /// The most expensive stage of this path.
    top_stage: String,
}

/// Cost of the doorkeeper skip lane, measured over a drifting-amplitude
/// trace in which *every* new chunk is provably outside the τ-band
/// (successive amplitudes differ by 3×, so the norm-ratio gate alone
/// rejects) and every chunk is presented twice: the first sighting skips
/// encode + probe, the second — admitted by its own noted fingerprint, with
/// nothing similar stored — pays the full encode → probe → miss path.
#[derive(Serialize)]
struct PrefilterStats {
    /// Prefiltered chunks over first sightings on the drifting trace (1.0
    /// by construction — the CI gate only demands it stays positive).
    skip_rate: f64,
    skipped_chunks: u64,
    /// ns/chunk of a first sighting: fingerprint + exact FFT.
    skip_ns_per_chunk: f64,
    /// ns/chunk of a second sighting: encode + probe + exact FFT + insert.
    full_path_ns_per_chunk: f64,
    /// What the doorkeeper saves per never-going-to-hit chunk.
    saved_ns_per_chunk: f64,
    /// Of the second sighting: the `insert` stage of its ordered commit.
    insert_ns_per_chunk: f64,
}

/// One op family at one swept chunk size: the measured compute a hit
/// replaces and the seam's decision, side by side.
#[derive(Serialize)]
struct GateCheck {
    /// Mean ns of the exact chunk compute.
    compute_ns_per_chunk: f64,
    /// `REUSE_SHARE · compute_ns_per_chunk`: what memoizing the chunk is
    /// expected to save; it pays when this reaches `memo_path_ns_per_chunk`.
    expected_saving_ns: f64,
    /// Whether the operators hand this family's chunks to the executor,
    /// which memoizes every chunk it is handed.
    gate_memoizes: bool,
    /// The decision matches the measurement, or the measurement is within a
    /// factor of two of break-even (where either decision passes).
    agrees: bool,
}

/// One chunk size of the `--sweep` mode: what the memo path costs against
/// the exact USFFT chunk computes of a reconstruction.
#[derive(Serialize)]
struct SweepPoint {
    chunk_elems: usize,
    cache_hit_ns_per_chunk: f64,
    /// What a memoized miss pays beyond its compute: the prefilter, cache
    /// peek, encode, probe and insert stages of a second-sighting chunk with
    /// nothing similar stored.
    miss_tax_ns_per_chunk: f64,
    /// `p · cache_hit + (1 − p) · miss_tax` at `p = REUSE_SHARE`: what a
    /// memoized chunk is expected to pay — the hit lane encodes no key and
    /// inserts nothing, so it alone understates it.
    memo_path_ns_per_chunk: f64,
    /// `LaminoOperator::fu1d_chunk_compute` on the chunk read as `len`
    /// volume planes of a `side³` geometry with `side/2` angles, `side` =
    /// 16 below 1 Ki elements, 32 below 4 Ki, 64 from there.
    fu1d: GateCheck,
    /// `LaminoOperator::fu2d_chunk_compute` on the same chunk and geometry.
    usfft2d: GateCheck,
}

#[derive(Serialize)]
struct Record {
    smoke: bool,
    chunk_elems: usize,
    /// Bytes of one stored value of `chunk_elems` elements.
    payload_bytes: u64,
    /// CI gate: value bytes the db-hit store holds per stored element — 8,
    /// the paper's COMPLEX64.
    stored_bytes_per_elem: f64,
    locations: usize,
    steady_iterations: usize,
    cache_hit: PathStats,
    db_hit: PathStats,
    miss: PathStats,
    /// Stage split of the steady cache-hit window (telemetry enabled).
    cache_hit_stages: StageBreakdown,
    /// Stage split of the steady db-hit window (telemetry enabled).
    db_hit_stages: StageBreakdown,
    /// The doorkeeper skip lane measured on a drifting-amplitude trace.
    prefilter: PrefilterStats,
    miss_throughput_elems_per_sec: f64,
    /// Measured miss-ns / cache-hit-ns on this machine; gated in CI to
    /// stay above 1.0 — a memo hit must beat the FFT it replaces.
    measured_hit_speedup: f64,
    /// CI gate: `measured_hit_speedup > 1.0` at the smoke chunk size.
    measured_hit_beats_fft: bool,
    /// Steady-state cache-hit path stays within the allocation envelope
    /// (≤ MAX_HIT_ALLOCS allocations and ≤ MAX_HIT_ALLOC_BYTES per chunk).
    hit_path_allocation_free: bool,
    /// No hit chunk allocated anything payload-sized: the stored value is
    /// shared, never deep-cloned.
    zero_payload_clone: bool,
    /// Median over the interleaved window pairs of enabled − disabled
    /// steady cache-hit ns/chunk: what the telemetry recorder adds to a hit.
    overhead_ns_per_chunk: f64,
    /// enabled / disabled − 1 over the per-mode fastest windows
    /// (informational).
    overhead_fraction: f64,
    /// CI gate: `overhead_ns_per_chunk` ≤ [`MAX_OVERHEAD_NS`].
    overhead_within_bound: bool,
    /// Whether the `--sweep` chunk-size sweep ran (CI always passes it).
    sweep_run: bool,
    /// Per-chunk-size hit-vs-USFFT points (empty without `--sweep`).
    sweep: Vec<SweepPoint>,
    /// CI gate (with `--sweep`): every [`GateCheck`] of the sweep agrees.
    gate_agrees_with_measurement: bool,
}

/// Share of memoized chunks whose compute a hit replaces, a conservative fit
/// at τ = 0.92 (runs reuse 46–50 % of their 2-D chunks at the benchmark's
/// `hit-32` and `smallchunk-24` configs). The other two thirds pay the memo
/// path and then compute anyway.
const REUSE_SHARE: f64 = 1.0 / 3.0;

/// Allocation envelope of one steady-state cache-hit chunk (which computes
/// no key): slack for amortised batch plumbing.
const MAX_HIT_ALLOCS: f64 = 4.0;
const MAX_HIT_ALLOC_BYTES: f64 = 1024.0;

/// Interleaved disabled / enabled steady windows the recorder cost is the
/// median over.
const OVERHEAD_PAIRS: usize = 15;
/// What the enabled recorder may add to a steady cache-hit chunk (ns,
/// median over the window pairs): about three times what it costs (76–453
/// ns over 44 `--smoke` runs; `ci/bench_baseline.json`).
const MAX_OVERHEAD_NS: f64 = 800.0;

/// Builds the per-stage breakdown of one steady window from the stage
/// histograms' count/sum deltas across it.
fn stage_breakdown(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    chunks: u64,
    measured_ns_per_chunk: f64,
) -> StageBreakdown {
    let per_chunk = |id: StageId| {
        let delta = after.stage(id).sum - before.stage(id).sum;
        delta as f64 / chunks as f64
    };
    // In STAGE_NAMES order, so the argmax below can index the names table.
    let stages = [
        per_chunk(StageId::Encode),
        per_chunk(StageId::CachePeek),
        per_chunk(StageId::IvfProbe),
        per_chunk(StageId::PayloadCopy),
        per_chunk(StageId::MissFft),
        per_chunk(StageId::Prefilter),
    ];
    let stage_sum: f64 = stages.iter().sum();
    let top = stages
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| STAGE_NAMES[i])
        .unwrap_or("none");
    let fraction = stage_sum / measured_ns_per_chunk.max(1e-9);
    StageBreakdown {
        encode_ns_per_chunk: stages[0],
        cache_peek_ns_per_chunk: stages[1],
        ivf_probe_ns_per_chunk: stages[2],
        payload_copy_ns_per_chunk: stages[3],
        miss_fft_ns_per_chunk: stages[4],
        prefilter_ns_per_chunk: stages[5],
        stage_sum_ns_per_chunk: stage_sum,
        measured_ns_per_chunk,
        stage_sum_fraction: fraction,
        top_stage: top.to_string(),
    }
}

/// Snapshot of an executor's telemetry stage histograms; the executors
/// here always run with telemetry enabled.
fn metrics_of(exec: &MemoizedExecutor) -> MetricsSnapshot {
    exec.telemetry()
        .snapshot()
        .expect("telemetry is enabled on every fig22 executor")
        .metrics
}

fn path_stats(total: OpStats, seconds: f64, allocs: u64, bytes: u64, chunks: u64) -> PathStats {
    PathStats {
        ns_per_chunk: seconds * 1e9 / chunks as f64,
        allocs_per_chunk: allocs as f64 / chunks as f64,
        alloc_bytes_per_chunk: bytes as f64 / chunks as f64,
        db_hits: total.db_hits,
        cache_hits: total.cache_hits,
        failed_memo: total.failed_memo,
        computed: total.computed,
    }
}

/// One sweep point: steady cache-hit ns/chunk at chunk size `n` through
/// `execute_batch_into` (fastest of three steady windows) and the miss tax
/// (fastest of three drifting-amplitude windows, as in the prefilter lane:
/// every chunk's second sighting misses and inserts), against the exact
/// USFFT computes at that size. The cache path needs four warm-up dispatches
/// under the doorkeeper (prefiltered first sighting → miss + insert → db-hit
/// promote → cache-pool warm) before the steady all-cache-hit window.
fn sweep_point(n: usize, memo: MemoConfig, dispatched: &[bool; 4]) -> SweepPoint {
    let locations = 8usize;
    let steady = 4usize;
    let compute = fft_compute(n);
    let inputs: Vec<Vec<Complex64>> = (0..locations).map(|loc| chunk(loc, n)).collect();
    let mut outputs: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; n]; locations];
    let chunks = (steady * locations) as f64;

    let hit_exec = MemoizedExecutor::private(memo);
    let _ = drive(&hit_exec, &inputs, &mut outputs, &compute, 0, 4);
    let hit_secs = (0..3)
        .map(|window| {
            let first = 4 + window * steady;
            drive(&hit_exec, &inputs, &mut outputs, &compute, first, steady).0
        })
        .fold(f64::INFINITY, f64::min);
    let cache_hit_ns = hit_secs * 1e9 / chunks;

    // The miss tax is read off the engine's own stage clocks (a difference
    // of two wall times at these sizes is mostly noise): the stages a
    // second sighting records beside its FFT, fastest of three windows.
    let miss_exec = MemoizedExecutor::private(memo).with_telemetry(Telemetry::enabled());
    let tax_stages = |m: &MetricsSnapshot| -> u64 {
        use StageId::{CachePeek, Encode, Insert, IvfProbe, Prefilter};
        [Prefilter, CachePeek, Encode, IvfProbe, Insert]
            .iter()
            .map(|&id| m.stage(id).sum)
            .sum()
    };
    let mut tax_ns = u64::MAX;
    for window in 0..3 {
        let mut window_ns = 0;
        for it in window * steady..(window + 1) * steady {
            let amp = 3.0f64.powi(it as i32);
            let drift: Vec<Vec<Complex64>> = inputs
                .iter()
                .map(|c| c.iter().map(|z| z.scale(amp)).collect())
                .collect();
            let _ = drive(&miss_exec, &drift, &mut outputs, &compute, 2 * it, 1);
            let before = tax_stages(&metrics_of(&miss_exec));
            let _ = drive(&miss_exec, &drift, &mut outputs, &compute, 2 * it + 1, 1);
            window_ns += tax_stages(&metrics_of(&miss_exec)) - before;
        }
        tax_ns = tax_ns.min(window_ns);
    }
    let missed = miss_exec.stats().total().failed_memo as f64;
    assert_eq!(missed, 3.0 * chunks, "every second sighting must miss");
    let miss_tax_ns = tax_ns as f64 / chunks;
    let memo_path_ns = REUSE_SHARE * cache_hit_ns + (1.0 - REUSE_SHARE) * miss_tax_ns;

    let (usfft2d_ns, fu1d_ns) = usfft_chunk_ns(&inputs[0]);
    let check = |kind: FftOpKind, compute_ns: f64| {
        let gate_memoizes = dispatched[kind.index()];
        let expected_saving_ns = REUSE_SHARE * compute_ns;
        let ratio = expected_saving_ns / memo_path_ns.max(1e-9);
        GateCheck {
            compute_ns_per_chunk: compute_ns,
            expected_saving_ns,
            gate_memoizes,
            agrees: (0.5..=2.0).contains(&ratio) || gate_memoizes == (ratio > 1.0),
        }
    };
    SweepPoint {
        chunk_elems: n,
        cache_hit_ns_per_chunk: cache_hit_ns,
        miss_tax_ns_per_chunk: miss_tax_ns,
        memo_path_ns_per_chunk: memo_path_ns,
        fu1d: check(FftOpKind::Fu1D, fu1d_ns),
        usfft2d: check(FftOpKind::Fu2D, usfft2d_ns),
    }
}

/// Ns of the exact `F_u2D` and `F_u1D` computes on one chunk of
/// `input.len()` elements (see [`SweepPoint::fu1d`] for the geometry), each
/// the fastest of three 8-call means: `(usfft2d, fu1d)`.
fn usfft_chunk_ns(input: &[Complex64]) -> (f64, f64) {
    let side = match input.len() {
        0..=1023 => 16,
        1024..=4095 => 32,
        _ => 64,
    };
    let len = input.len() / (side * side);
    let op = LaminoOperator::new(LaminoGeometry::cube(side, side / 2, 30.0), len);
    let best_mean_ns = |compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>| {
        let reps = 8;
        let _ = compute(input);
        (0..3)
            .map(|_| {
                #[expect(clippy::disallowed_methods, reason = "harness: measures wall time")]
                let start = Instant::now();
                for _ in 0..reps {
                    std::hint::black_box(compute(std::hint::black_box(input)));
                }
                start.elapsed().as_secs_f64() * 1e9 / reps as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    (
        best_mean_ns(&|x| op.fu2d_chunk_compute(x, 0, len)),
        best_mean_ns(&|x| op.fu1d_chunk_compute(x, len)),
    )
}

/// Which op kinds cross the executor seam, by [`FftOpKind::index`]: one
/// forward + adjoint application at 16³ through a memoizing executor, read
/// back from its case counts.
fn dispatched_kinds(memo: MemoConfig) -> [bool; 4] {
    let op = LaminoOperator::new(LaminoGeometry::cube(16, 8, 30.0), 4);
    let shape = op.geometry().volume_shape();
    let exec = MemoizedExecutor::private(memo);
    let d = op.forward_with(&Array3::from_vec(shape, vec![1.0; shape.len()]), &exec);
    let _ = op.adjoint_with(&d, &exec);
    FftOpKind::DENSE.map(|kind| exec.stats().op(kind).total() > 0)
}

fn main() {
    // Pin the rayon shim to one thread and run batches sequentially: the
    // subject under measurement is the per-chunk constant factor, and the
    // allocation gate must count one deterministic code path.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    header(
        "Figure 22",
        "zero-copy memo hits: hit ns/chunk, miss FFT throughput, allocations/chunk",
    );
    let smoke = smoke_from_args();
    let sweep_run = std::env::args().any(|a| a == "--sweep");
    // `window`: iterations in one window of a recorder-cost pair.
    let (n, locations, steady, window) = if smoke {
        (1024, 24, 8, 6)
    } else {
        (4096, 32, 12, 8)
    };
    let payload_bytes = (n * std::mem::size_of::<Complex32>()) as u64;
    println!(
        "chunk: {n} complex elems ({} KiB payload), {locations} locations, \
         {steady} steady-state iterations\n",
        payload_bytes / 1024
    );

    let compute = fft_compute(n);
    let inputs: Vec<Vec<Complex64>> = (0..locations).map(|loc| chunk(loc, n)).collect();
    let mut outputs: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; n]; locations];
    let memo = MemoConfig {
        warmup_iterations: 0,
        ..Default::default()
    };
    let chunks = (steady * locations) as u64;

    // --- cache-hit path: identical inputs every iteration; under the
    // doorkeeper the first sighting is prefiltered (fingerprint noted, no
    // key), so after the prefilter, populate (miss), promote (db-hit →
    // cache fill) and pool-warming rounds, every chunk is a compute-node
    // cache hit. The executor runs with telemetry *enabled*: the
    // allocation gates below thereby certify that the instrumented hit
    // path is still allocation-free, and the stage histograms feed the
    // breakdown. A telemetry-disabled twin is built and warmed beside it
    // for the recorder-cost pairs below.
    let twin = MemoizedExecutor::private(memo);
    let _ = drive(&twin, &inputs, &mut outputs, &compute, 0, 4);
    let exec = MemoizedExecutor::private(memo).with_telemetry(Telemetry::enabled());
    let _ = drive(&exec, &inputs, &mut outputs, &compute, 0, 4);
    let stages_before = metrics_of(&exec);
    // Region-level enforcement of the same envelope the JSON gate reports:
    // a reintroduced hit-path allocation aborts the bench run outright.
    let (secs, allocs, bytes) = mlr_bench::no_alloc_region!(
        "fig22 steady cache-hit window",
        MAX_HIT_ALLOCS as u64 * chunks,
        drive(&exec, &inputs, &mut outputs, &compute, 4, steady)
    );
    let stages_after = metrics_of(&exec);
    let cache_hit = path_stats(exec.stats().total(), secs, allocs, bytes, chunks);
    let cache_hit_stages = stage_breakdown(
        &stages_before,
        &stages_after,
        chunks,
        cache_hit.ns_per_chunk,
    );
    assert_eq!(
        cache_hit.cache_hits,
        chunks + locations as u64,
        "steady window must be all cache hits"
    );

    // --- recorder cost: the twin catches up with the window above
    // untimed, then the two alternate steady windows. The two windows of a
    // pair see the same thermal / frequency environment, so their
    // difference is the recorder's cost, and the median over the pairs
    // drops a disturbed one.
    let _ = drive(&twin, &inputs, &mut outputs, &compute, 4, steady);
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    let mut pair_ns: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|pair| {
            let first = 4 + steady + pair * window;
            let off = drive(&twin, &inputs, &mut outputs, &compute, first, window).0;
            let on = drive(&exec, &inputs, &mut outputs, &compute, first, window).0;
            (best_off, best_on) = (best_off.min(off), best_on.min(on));
            (on - off) * 1e9 / (window * locations) as f64
        })
        .collect();
    assert_eq!(
        twin.stats(),
        exec.stats(),
        "both modes must run the identical all-hit schedule"
    );
    pair_ns.sort_by(f64::total_cmp);
    let overhead_ns_per_chunk = pair_ns[OVERHEAD_PAIRS / 2];
    let overhead_fraction = best_on / best_off.max(1e-12) - 1.0;
    let overhead_within_bound = overhead_ns_per_chunk <= MAX_OVERHEAD_NS;

    // --- db-hit path: each steady round runs a fresh executor over the
    // populated store, so its cache is cold and every chunk is a database
    // hit served through the shared payload buffer (warm-ups: prefiltered
    // sighting, populate, first db-hit round). The round executors share
    // one recorder.
    let db_tel = Telemetry::enabled();
    let populate = MemoizedExecutor::private(memo).with_telemetry(db_tel.clone());
    let _ = drive(&populate, &inputs, &mut outputs, &compute, 0, 3);
    let store = populate.store().clone();
    let rounds: Vec<MemoizedExecutor> = (0..steady)
        .map(|_| {
            MemoizedExecutor::with_store(memo, store.clone(), 0).with_telemetry(db_tel.clone())
        })
        .collect();
    let db_stages_before = metrics_of(&populate);
    let (mut secs, mut allocs, mut bytes) = (0.0, 0, 0);
    for (round, exec) in rounds.iter().enumerate() {
        let (s, a, b) = drive(exec, &inputs, &mut outputs, &compute, 3 + round, 1);
        (secs, allocs, bytes) = (secs + s, allocs + a, bytes + b);
    }
    let db_stages_after = metrics_of(&populate);
    let mut db_stats = MemoStats::new();
    for exec in &rounds {
        db_stats.merge(&exec.stats());
    }
    let db_hit = path_stats(db_stats.total(), secs, allocs, bytes, chunks);
    let db_hit_stages = stage_breakdown(
        &db_stages_before,
        &db_stages_after,
        chunks,
        db_hit.ns_per_chunk,
    );
    assert_eq!(
        (db_hit.db_hits, db_hit.cache_hits),
        (chunks, 0),
        "steady window must be all db hits"
    );
    let stored_bytes_per_elem = store.value_bytes() as f64 / (store.len() * n) as f64;

    // --- miss path: memoization disabled, every chunk recomputes the exact
    // FFT through the same batch seam.
    let miss_exec = MemoizedExecutor::private(MemoConfig {
        enabled: false,
        ..memo
    });
    let _ = drive(&miss_exec, &inputs, &mut outputs, &compute, 0, 1);
    let (secs, allocs, bytes) = drive(&miss_exec, &inputs, &mut outputs, &compute, 1, steady);
    let miss = path_stats(miss_exec.stats().total(), secs, allocs, bytes, chunks);
    let miss_throughput = (chunks as f64 * n as f64) / secs;

    // --- prefilter path: a drifting-amplitude trace (each iteration 3×
    // the last) keeps every new chunk's norm ratio far below τ = 0.92, so
    // the doorkeeper provably rejects its first sighting and no key is
    // encoded; presented again, the chunk is admitted by its own noted
    // fingerprint and — nothing similar being stored — pays the full
    // encode → probe → failed-memo path.
    let pf_iters = 8usize;
    let pf_exec = MemoizedExecutor::private(memo).with_telemetry(Telemetry::enabled());
    let (mut skip_secs, mut full_secs) = (0.0f64, 0.0f64);
    for it in 0..pf_iters {
        let amp = 3.0f64.powi(it as i32);
        let drift: Vec<Vec<Complex64>> = inputs
            .iter()
            .map(|c| c.iter().map(|z| z.scale(amp)).collect())
            .collect();
        let (s, _, _) = drive(&pf_exec, &drift, &mut outputs, &compute, 2 * it, 1);
        skip_secs += s;
        let (s, _, _) = drive(&pf_exec, &drift, &mut outputs, &compute, 2 * it + 1, 1);
        full_secs += s;
    }
    let pf_chunks = (pf_iters * locations) as u64;
    let pf_total = pf_exec.stats().total();
    assert_eq!(
        (pf_total.prefiltered, pf_total.failed_memo),
        (pf_chunks, pf_chunks),
        "every drifting chunk must be prefiltered once, then miss once"
    );
    let skip_ns = skip_secs * 1e9 / pf_chunks as f64;
    let full_ns = full_secs * 1e9 / pf_chunks as f64;
    let prefilter = PrefilterStats {
        skip_rate: pf_total.prefiltered as f64 / pf_chunks as f64,
        skipped_chunks: pf_total.prefiltered,
        skip_ns_per_chunk: skip_ns,
        full_path_ns_per_chunk: full_ns,
        saved_ns_per_chunk: full_ns - skip_ns,
        insert_ns_per_chunk: metrics_of(&pf_exec).stage(StageId::Insert).sum as f64
            / pf_chunks as f64,
    };

    let measured_hit_speedup = miss.ns_per_chunk / cache_hit.ns_per_chunk.max(1e-9);
    let measured_hit_beats_fft = measured_hit_speedup > 1.0;

    let hit_path_allocation_free = cache_hit.allocs_per_chunk <= MAX_HIT_ALLOCS
        && cache_hit.alloc_bytes_per_chunk <= MAX_HIT_ALLOC_BYTES;
    let zero_payload_clone = cache_hit.alloc_bytes_per_chunk < payload_bytes as f64 / 2.0
        && db_hit.alloc_bytes_per_chunk < payload_bytes as f64 / 2.0;

    // --- chunk-size sweep: does the seam memoize the families the
    // measurement says it should?
    let sweep: Vec<SweepPoint> = if sweep_run {
        let dispatched = dispatched_kinds(memo);
        [256usize, 512, 1024, 2048, 4096, 8192, 16384]
            .iter()
            .map(|&sz| sweep_point(sz, memo, &dispatched))
            .collect()
    } else {
        Vec::new()
    };
    let gate_agrees_with_measurement =
        sweep_run && sweep.iter().all(|p| p.fu1d.agrees && p.usfft2d.agrees);

    println!(
        "{:>12} {:>14} {:>14} {:>16}",
        "path", "ns/chunk", "allocs/chunk", "bytes/chunk"
    );
    for (label, p) in [
        ("cache hit", &cache_hit),
        ("db hit", &db_hit),
        ("miss (FFT)", &miss),
    ] {
        println!(
            "{label:>12} {:>14.0} {:>14.2} {:>16.1}",
            p.ns_per_chunk, p.allocs_per_chunk, p.alloc_bytes_per_chunk
        );
    }
    println!();
    println!(
        "{:>12} {:>10} {:>12} {:>8} {:>11} {:>14} {:>10} {:>11}",
        "path",
        "prefilter",
        "cache peek",
        "encode",
        "probe",
        "payload copy",
        "miss FFT",
        "stage sum"
    );
    for (label, b) in [("cache hit", &cache_hit_stages), ("db hit", &db_hit_stages)] {
        println!(
            "{label:>12} {:>10.0} {:>12.0} {:>8.0} {:>11.0} {:>14.0} {:>10.0} {:>11.0}",
            b.prefilter_ns_per_chunk,
            b.cache_peek_ns_per_chunk,
            b.encode_ns_per_chunk,
            b.ivf_probe_ns_per_chunk,
            b.payload_copy_ns_per_chunk,
            b.miss_fft_ns_per_chunk,
            b.stage_sum_ns_per_chunk,
        );
    }
    println!();
    if sweep_run {
        println!(
            "{:>12} {:>13} {:>12} {:>13} {:>13} {:>9} {:>16} {:>9}",
            "chunk elems",
            "cache hit ns",
            "miss tax ns",
            "memo path ns",
            "p x fu1d ns",
            "1-D gate",
            "p x usfft2d ns",
            "2-D gate"
        );
        let verdict = |c: &GateCheck| match (c.gate_memoizes, c.agrees) {
            (true, true) => "memoize",
            (false, true) => "bypass",
            (true, false) => "MEMOIZE?",
            (false, false) => "BYPASS?",
        };
        for p in &sweep {
            println!(
                "{:>12} {:>13.0} {:>12.0} {:>13.0} {:>13.0} {:>9} {:>16.0} {:>9}",
                p.chunk_elems,
                p.cache_hit_ns_per_chunk,
                p.miss_tax_ns_per_chunk,
                p.memo_path_ns_per_chunk,
                p.fu1d.expected_saving_ns,
                verdict(&p.fu1d),
                p.usfft2d.expected_saving_ns,
                verdict(&p.usfft2d),
            );
        }
        println!();
        compare_row(
            "seam's memoized families vs measured p x compute >= memo path",
            "agrees (2x dead band)",
            if gate_agrees_with_measurement {
                "agrees"
            } else {
                "DISAGREES"
            },
        );
    }
    compare_row(
        "telemetry enabled - disabled, median over window pairs",
        &format!("<= {MAX_OVERHEAD_NS:.0} ns"),
        &format!(
            "{overhead_ns_per_chunk:.0} ns/chunk ({} over the minima)",
            pct(overhead_fraction.max(0.0))
        ),
    );
    compare_row(
        "hit-path top stage",
        "(informational)",
        &format!(
            "{} ({:.0} ns/chunk, stages explain {:.0}% of measured)",
            cache_hit_stages.top_stage,
            match cache_hit_stages.top_stage.as_str() {
                "encode" => cache_hit_stages.encode_ns_per_chunk,
                "cache_peek" => cache_hit_stages.cache_peek_ns_per_chunk,
                "ivf_probe" => cache_hit_stages.ivf_probe_ns_per_chunk,
                "payload_copy" => cache_hit_stages.payload_copy_ns_per_chunk,
                "prefilter" => cache_hit_stages.prefilter_ns_per_chunk,
                _ => cache_hit_stages.miss_fft_ns_per_chunk,
            },
            100.0 * cache_hit_stages.stage_sum_fraction
        ),
    );
    compare_row(
        "prefilter skip lane vs full miss path",
        "(informational)",
        &format!(
            "saves {:.0} ns/chunk at skip rate {:.2} (miss lane: {:.0} ns/chunk, insert {:.0})",
            prefilter.saved_ns_per_chunk,
            prefilter.skip_rate,
            prefilter.full_path_ns_per_chunk,
            prefilter.insert_ns_per_chunk
        ),
    );
    compare_row(
        "stored bytes per element",
        "8 (COMPLEX64)",
        &format!("{stored_bytes_per_elem}"),
    );
    compare_row(
        "steady hit-path allocations per chunk",
        "~0 (no key)",
        &format!(
            "{:.2} allocs / {:.0} B",
            cache_hit.allocs_per_chunk, cache_hit.alloc_bytes_per_chunk
        ),
    );
    compare_row(
        "payload deep-clones on a hit",
        "zero",
        if zero_payload_clone {
            "zero"
        } else {
            "PRESENT"
        },
    );
    compare_row(
        "measured hit speedup vs exact FFT",
        "> 1.0×",
        &format!("{measured_hit_speedup:.1}x"),
    );
    compare_row(
        "miss-path FFT throughput",
        "(informational)",
        &format!(
            "{:.1} Melem/s ({}/chunk)",
            miss_throughput / 1e6,
            fmt_secs(miss.ns_per_chunk / 1e9)
        ),
    );

    assert!(
        hit_path_allocation_free,
        "hit path allocates: {:.2} allocs / {:.1} B per chunk (envelope {MAX_HIT_ALLOCS} / {MAX_HIT_ALLOC_BYTES} B)",
        cache_hit.allocs_per_chunk, cache_hit.alloc_bytes_per_chunk
    );
    assert!(
        zero_payload_clone,
        "a hit performed payload-sized allocations — a deep clone is back"
    );
    assert!(
        measured_hit_beats_fft,
        "a memo hit must beat the FFT it replaces: measured {measured_hit_speedup:.2}x"
    );
    assert!(
        !sweep_run || gate_agrees_with_measurement,
        "the families the seam memoizes disagree with the measured sweep by more than 2x"
    );
    assert!(
        overhead_within_bound,
        "telemetry adds {overhead_ns_per_chunk:.0} ns to a hit chunk, over the \
         {MAX_OVERHEAD_NS} ns bound"
    );

    let record = Record {
        smoke,
        chunk_elems: n,
        payload_bytes,
        stored_bytes_per_elem,
        locations,
        steady_iterations: steady,
        cache_hit,
        db_hit,
        miss,
        cache_hit_stages,
        db_hit_stages,
        prefilter,
        miss_throughput_elems_per_sec: miss_throughput,
        measured_hit_speedup,
        measured_hit_beats_fft,
        hit_path_allocation_free,
        zero_payload_clone,
        overhead_ns_per_chunk,
        overhead_fraction,
        overhead_within_bound,
        sweep_run,
        sweep,
        gate_agrees_with_measurement,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(json) => {
            if std::fs::write("BENCH_hotpath.json", &json).is_ok() {
                println!("\n[record written to BENCH_hotpath.json]");
            }
        }
        Err(e) => eprintln!("failed to serialise record: {e}"),
    }
    write_record("fig22_hotpath", &record);
}
