//! Invariant tests for the unified telemetry stack (`mlr-telemetry`) and
//! its integration with the memo engine:
//!
//! * the span journal is a bounded ring even under multi-threaded stress;
//! * log₂-histogram percentiles track a sorted-reference nearest-rank
//!   percentile within bucket resolution, and never exceed any recorded
//!   sample;
//! * a disabled recorder records nothing anywhere (stages, spans,
//!   snapshot);
//! * span sequences are keyed by *logical* ticks, so the executor emits an
//!   identical span stream on every run of the same schedule — one
//!   `Operator` span per batch;
//! * the stage histograms, the only time ledger, take one sample per chunk
//!   of exactly the `MemoStats` cases that run the stage;
//! * the JSON snapshot and the Chrome trace parse back with that content;
//! * every job the runtime admits ends in exactly one terminal span, however
//!   it ends.

use mlr_bench::hotpath::{chunk, drive};
use mlr_bench::json::JsonValue;
use mlr_core::{CancelToken, MlrConfig, MlrPipeline};
use mlr_math::rng::seeded;
use mlr_math::Complex64;
use mlr_memo::{MemoConfig, MemoStats, MemoizedExecutor};
use mlr_runtime::{Deadline, JobPhase, ReconJob, Runtime, RuntimeConfig};
use mlr_telemetry::{Histogram, SpanJournal, SpanKind, StageId, StageTable, Telemetry};
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn span_journal_stays_bounded_under_concurrent_stress() {
    const CAPACITY: usize = 256;
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let journal = Arc::new(SpanJournal::new(CAPACITY));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let journal = Arc::clone(&journal);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    journal.record(t, SpanKind::Iteration, i);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(journal.len(), CAPACITY);
    assert_eq!(journal.dropped(), THREADS * PER_THREAD - CAPACITY as u64);
    let spans = journal.snapshot();
    assert_eq!(spans.len(), CAPACITY);
    // Ticks are unique (one fetch_add per record) and the ring keeps a
    // strictly ordered suffix of the stream.
    for pair in spans.windows(2) {
        assert!(pair[0].tick < pair[1].tick, "ring must stay oldest-first");
    }
    assert_eq!(spans.last().unwrap().tick, THREADS * PER_THREAD - 1);
}

#[test]
fn histogram_percentiles_track_a_sorted_reference() {
    // Deterministic heavy-tailed samples: the interesting regime for a
    // log2-bucket histogram.
    let mut rng = seeded(0x7E1E);
    let samples: Vec<u64> = (0..4096)
        .map(|_| {
            let magnitude = rng.gen_range(0..28u32);
            rng.gen_range(0..2u64.pow(magnitude))
        })
        .collect();
    let mut hist = Histogram::new();
    for &s in &samples {
        hist.record(s);
    }
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    for p in [0.0, 0.10, 0.50, 0.90, 0.99, 1.0] {
        let reference = sorted[((p * (sorted.len() - 1) as f64).round() as usize).min(4095)];
        let estimate = hist.percentile(p);
        // The estimate is the lower bound of the bucket holding the
        // reference rank: never above the reference, never below half of
        // it (one power of two), and never above the global maximum.
        assert!(
            estimate <= reference,
            "p{p}: estimate {estimate} above reference {reference}"
        );
        assert!(
            reference == 0 || estimate * 2 > reference,
            "p{p}: estimate {estimate} more than a bucket below reference {reference}"
        );
        assert!(estimate <= *sorted.last().unwrap());
    }
    assert_eq!(hist.count, 4096);
    assert_eq!(hist.sum, samples.iter().sum::<u64>());
}

#[test]
fn disabled_recorder_records_nothing() {
    let telemetry = Telemetry::disabled();
    assert!(!telemetry.is_enabled());
    let mut stages = StageTable::new();
    stages.record(StageId::Encode, 1234);
    telemetry.fold_stages(&stages);
    telemetry.span(1, SpanKind::Admitted, 0);
    assert!(telemetry.metrics().is_none());
    assert!(telemetry.spans().is_none());
    assert!(telemetry.snapshot().is_none());
}

/// Runs a fixed three-iteration schedule of twelve-chunk batches through a
/// telemetry-enabled executor: prefiltered first sightings, then misses,
/// then db hits.
fn three_batches() -> MemoizedExecutor {
    let n = 256;
    let locations = 12;
    let inputs: Vec<Vec<Complex64>> = (0..locations).map(|loc| chunk(loc, n)).collect();
    let mut outputs: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; n]; locations];
    let exec = MemoizedExecutor::private(MemoConfig {
        warmup_iterations: 0,
        ..Default::default()
    })
    .with_telemetry(Telemetry::enabled());
    let _ = drive(&exec, &inputs, &mut outputs, &|x| x.to_vec(), 0, 3);
    exec
}

/// The span stream of [`three_batches`] as `(kind, arg, tick)` triples, plus
/// the executor's case counts.
fn span_stream() -> (Vec<(String, u64, u64)>, MemoStats) {
    let exec = three_batches();
    let snapshot = exec.telemetry().snapshot().expect("telemetry enabled");
    let spans = snapshot
        .spans
        .iter()
        .map(|s| (s.kind.name().to_string(), s.arg, s.tick))
        .collect();
    (spans, exec.stats())
}

#[test]
fn span_stream_is_deterministic() {
    // Spans are stamped with logical ticks, so the full stream — kinds,
    // args and tick values — is bit-identical on every run.
    let (first, memo) = span_stream();
    let (second, memo_again) = span_stream();
    assert_eq!(first, second);
    assert_eq!(memo, memo_again);
    // The stream has the expected shape: one Iteration span per iteration,
    // one Operator span per batch, in alternating order.
    let kinds: Vec<&str> = first.iter().map(|(k, _, _)| k.as_str()).collect();
    assert_eq!(
        kinds,
        [
            "iteration",
            "operator",
            "iteration",
            "operator",
            "iteration",
            "operator"
        ]
    );
    // Three batches of twelve chunks: every operator span carries its
    // batch's chunk count, and the case ledger holds each chunk once.
    let operator_args: Vec<u64> = (first.iter())
        .filter(|(k, _, _)| k == "operator")
        .map(|&(_, arg, _)| arg)
        .collect();
    assert_eq!(operator_args, [12, 12, 12]);
    assert_eq!(memo.total().total(), 36);
}

#[test]
fn exports_parse_back_with_the_recorded_content() {
    let exec = three_batches();
    let snapshot = exec.telemetry().snapshot().expect("telemetry enabled");
    let json = JsonValue::parse(&snapshot.to_json()).expect("the snapshot JSON parses");
    let operator_spans = json
        .get("spans")
        .and_then(JsonValue::as_array)
        .expect("a spans array")
        .iter()
        .filter(|s| s.get("kind").and_then(JsonValue::as_str) == Some("operator"))
        .count();
    assert_eq!(operator_spans, 3, "one operator span per batch");
    let cases = exec.stats().total();
    let hits = cases.db_hits + cases.cache_hits;
    assert!(hits > 0, "vacuous: the schedule hit nothing: {cases:?}");
    assert_eq!(
        json.get("stages.payload_copy.count")
            .and_then(JsonValue::as_f64),
        Some(hits as f64),
        "one payload copy per hit"
    );
    let trace = JsonValue::parse(&snapshot.to_chrome_trace()).expect("the Chrome trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::len);
    assert_eq!(
        events,
        Some(snapshot.spans.len()),
        "one trace event per span"
    );
}

#[test]
fn stage_sample_counts_match_the_case_ledger() {
    // A reconstruction that reaches every case: warm-up (computed), first
    // sightings (prefiltered), misses, db hits and cache hits.
    let pipeline = MlrPipeline::new(MlrConfig::quick(12, 8).with_iterations(6));
    let executor = pipeline
        .memo_executor(pipeline.build_shared_store(), 0)
        .with_telemetry(Telemetry::enabled());
    let (_, executor) = pipeline.run_with_executor(executor, &CancelToken::new());
    let cases = executor.stats().total();
    assert!(
        cases.computed > 0 && cases.prefiltered > 0 && cases.failed_memo > 0,
        "{cases:?}"
    );
    assert!(cases.db_hits > 0 && cases.cache_hits > 0, "{cases:?}");
    let snapshot = executor.telemetry().snapshot().expect("telemetry enabled");
    let samples = |stage| snapshot.metrics.stage(stage).count;
    assert_eq!(
        samples(StageId::PayloadCopy),
        cases.db_hits + cases.cache_hits
    );
    assert_eq!(
        samples(StageId::MissFft),
        cases.computed + cases.failed_memo + cases.prefiltered
    );
    assert_eq!(
        samples(StageId::Prefilter),
        cases.failed_memo + cases.db_hits + cases.cache_hits + cases.prefiltered
    );
}

#[test]
fn every_admitted_job_ends_in_exactly_one_terminal_span() {
    // One worker held by a blocker; behind it, one job cancelled while
    // queued (resolved by its handle), one expired before pop (resolved by
    // the worker) and one that completes. Each path must close its job's
    // lifecycle with exactly one terminal span.
    let config = MlrConfig::quick(12, 8).with_iterations(4);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 4,
        telemetry: true,
        ..RuntimeConfig::matching(&config)
    });
    let telemetry = rt.telemetry().clone();
    let blocker = rt
        .submit(ReconJob::new("blocker", config.with_iterations(40)))
        .unwrap();
    mlr_bench::spin_until("blocker to start running", Duration::from_secs(30), || {
        blocker.phase() == JobPhase::Running
    });
    let cancelled = rt.submit(ReconJob::new("cancelled", config)).unwrap();
    let expired = rt
        .submit(ReconJob::new("expired", config).with_deadline(Deadline::within(Duration::ZERO)))
        .unwrap();
    let completed = rt.submit(ReconJob::new("completed", config)).unwrap();
    assert!(cancelled.cancel(), "cancel of a queued job must register");
    let ids = [blocker.id(), cancelled.id(), expired.id(), completed.id()];
    assert!(cancelled.wait().is_cancelled());
    assert!(expired.wait().is_expired());
    assert!(completed.wait().is_completed());
    assert!(blocker.wait().is_completed());
    let stats = rt.shutdown();
    assert_eq!((stats.cancelled, stats.expired, stats.completed), (1, 1, 2));

    let snapshot = telemetry.snapshot().expect("telemetry enabled");
    assert_eq!(snapshot.spans_dropped, 0, "the journal must hold the run");
    let admitted: Vec<u64> = snapshot
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Admitted)
        .map(|s| s.job)
        .collect();
    assert_eq!(admitted, ids);
    for id in ids {
        let terminal: Vec<&str> = snapshot
            .spans
            .iter()
            .filter(|s| s.job == id && s.kind.is_terminal())
            .map(|s| s.kind.name())
            .collect();
        assert_eq!(terminal.len(), 1, "job {id} ended in {terminal:?}");
    }
}
