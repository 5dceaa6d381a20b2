//! Observability: stage timers and lifecycle spans over a
//! telemetry-enabled runtime, beside the counts each layer keeps.
//!
//! The runtime runs a small multi-tenant workload (bulk jobs plus a
//! deadline-tagged preview), then prints the job counts (`RuntimeStats`),
//! the operator batches (one `Operator` span each), the chunk cases (the
//! jobs' `MemoStats`) and everything the telemetry stack recorded:
//! per-stage hit-path latency percentiles from the log₂ histograms, the
//! tail of the span journal, and the JSON / Chrome-trace exports.
//!
//! ```bash
//! cargo run --release --example telemetry
//! ```

use mlr_core::MlrConfig;
use mlr_memo::MemoStats;
use mlr_runtime::{Deadline, Priority, ReconJob, Runtime, RuntimeConfig};
use mlr_telemetry::{SpanKind, StageId, STAGE_NAMES};
use std::time::Duration;

fn main() {
    let config = MlrConfig::quick(16, 8).with_iterations(6);
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: 8,
        // Turn the recorder on. Disabled (the default) every instrument in
        // the stack compiles down to one predictable branch.
        telemetry: true,
        ..RuntimeConfig::matching(&config)
    });

    println!("running 4 jobs through a telemetry-enabled 2-worker runtime ...\n");

    let handles: Vec<_> = (0..3)
        .map(|i| {
            rt.submit(ReconJob::new(format!("bulk-{i}"), config).with_priority(Priority::Batch))
                .expect("queue has room for the demo")
        })
        .collect();
    let preview = rt
        .submit(
            ReconJob::new("preview", config)
                .with_priority(Priority::Interactive)
                .with_deadline(Deadline::within(Duration::from_secs(120))),
        )
        .expect("queue has room for the demo");

    let mut memo = MemoStats::new();
    for handle in handles.iter().chain([&preview]) {
        let status = handle
            .wait_timeout(Duration::from_secs(600))
            .expect("all jobs resolve well within the demo budget");
        println!("job {:<2} {:<9} → {status}", handle.id(), handle.name());
        if let Some(report) = status.report() {
            memo.merge(&report.memo);
        }
    }

    // Everything recorded so far, in one self-contained copy. The handle
    // stays live after shutdown, so snapshots can also be taken mid-flight.
    let snapshot = rt
        .telemetry()
        .snapshot()
        .expect("telemetry was enabled in the RuntimeConfig");
    let stats = rt.shutdown();

    // Counts live with the layer that owns them, not in the recorder.
    println!("\n== counts ==");
    println!(
        "jobs   : {} admitted, {} completed, {} failed, {} cancelled, {} expired, {} worker restarts",
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.cancelled,
        stats.expired,
        stats.worker_restarts
    );
    let cases = memo.total();
    let batches = (snapshot.spans.iter())
        .filter(|s| s.kind == SpanKind::Operator)
        .count();
    println!(
        "batches: {batches} operator batches, {} chunks",
        cases.total()
    );
    println!(
        "chunks : {} computed (warm-up), {} prefiltered, {} failed memo, {} db hits, {} cache hits",
        cases.computed, cases.prefiltered, cases.failed_memo, cases.db_hits, cases.cache_hits
    );

    println!("\n== hit-path stage timers (ns per chunk, log2-bucket floors) ==");
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p90", "p99"
    );
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        let stage = &snapshot.metrics.stages[i];
        if stage.count == 0 {
            continue;
        }
        println!(
            "{:<14} {:>8} {:>10} {:>10} {:>10}",
            name,
            stage.count,
            stage.percentile(0.50),
            stage.percentile(0.90),
            stage.percentile(0.99),
        );
    }
    println!(
        "\nhit rate: {:.1} % of {} chunks; encode p50 {} ns vs miss-FFT p50 {} ns",
        100.0 * cases.avoided_fraction(),
        cases.total(),
        snapshot.metrics.stage(StageId::Encode).percentile(0.50),
        snapshot.metrics.stage(StageId::MissFft).percentile(0.50),
    );

    println!(
        "\n== span journal (last 8 of {}, {} dropped by the ring) ==",
        snapshot.spans.len(),
        snapshot.spans_dropped
    );
    for span in snapshot.spans.iter().rev().take(8).rev() {
        println!(
            "tick {:>5}  job {:<2} {:<10} arg={}",
            span.tick,
            span.job,
            span.kind.name(),
            span.arg
        );
    }

    // The whole snapshot exports as one JSON document, and the span journal
    // additionally as Chrome trace-event format — load it in Perfetto or
    // chrome://tracing to see per-job tracks.
    let json = snapshot.to_json();
    let trace = snapshot.to_chrome_trace();
    println!("\n== exports ==");
    println!(
        "snapshot JSON   : {} bytes, starts {:?}",
        json.len(),
        &json[..32]
    );
    println!(
        "chrome trace    : {} bytes, starts {:?}",
        trace.len(),
        &trace[..32]
    );
}
