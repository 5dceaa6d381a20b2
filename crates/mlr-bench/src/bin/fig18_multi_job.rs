//! Figure 18 (beyond the paper): multi-job runtime with a shared
//! memoization database vs the same jobs run with isolated per-job
//! databases.
//!
//! The paper's distributed design keeps the memoization database on a
//! dedicated memory node; its payoff grows when many reconstructions share
//! it. Here no memory node runs: the workers share one in-process
//! `MemoDb`, the store every memoized run uses. This harness replays
//! the beamline scenario — several reconstructions of the same sample
//! family submitted together — through `mlr-runtime`'s worker pool over
//! that store, then replays the identical jobs
//! with private databases, and compares hit rates, database footprint and
//! wall time. The machine-readable record lands in `BENCH_runtime.json`
//! (and, like every harness, under `target/experiments/`).

use mlr_bench::{compare_row, header, pct, scale_from_args, smoke_from_args, write_record};
use mlr_core::{MlrConfig, MlrPipeline, Scale};
use mlr_runtime::{JobSummary, ReconJob, Runtime, RuntimeConfig};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct SideRecord {
    hit_rate: f64,
    cross_job_hit_rate: f64,
    store_entries: usize,
    store_value_bytes: u64,
    wall_seconds: f64,
}

#[derive(Serialize)]
struct Record {
    smoke: bool,
    jobs: usize,
    workers: usize,
    queue_capacity: usize,
    shared: SideRecord,
    isolated: SideRecord,
    cross_job_advantage: f64,
    queue_seconds_mean: f64,
    queue_seconds_max: f64,
    throughput_jobs_per_second: f64,
    utilisation: f64,
    job_summaries: Vec<JobSummary>,
}

fn main() {
    header(
        "Figure 18",
        "multi-job runtime: shared memo DB vs isolated per-job DBs",
    );
    let scale = scale_from_args();
    // `--smoke` is the CI bench-smoke mode: smallest problem that still
    // exercises cross-job reuse, so the regression gate has a signal.
    let smoke = smoke_from_args();
    let n = if smoke || scale == Scale::Tiny {
        12
    } else {
        16
    };
    let iterations = if smoke || scale == Scale::Tiny { 5 } else { 8 };
    let jobs = 4usize;
    let workers = 2usize;

    // The beamline scenario: the same sample family reconstructed several
    // times (replicated runs / parameter rechecks), submitted concurrently.
    let config = MlrConfig::quick(n, n / 2).with_iterations(iterations);

    // ---------------------------------------------------- shared store path
    let rt_config = RuntimeConfig {
        workers,
        queue_capacity: 8,
        ..RuntimeConfig::matching(&config)
    };
    let queue_capacity = rt_config.queue_capacity;
    let runtime = Runtime::new(rt_config);
    #[expect(clippy::disallowed_methods, reason = "harness: measures wall time")]
    let shared_start = Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            runtime
                .submit(ReconJob::new(format!("sample-rep-{i}"), config))
                .expect("queue sized for the demo")
        })
        .collect();
    let reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait_report().expect("demo job completes"))
        .collect();
    let shared_wall = shared_start.elapsed().as_secs_f64();
    let stats = runtime.shutdown();
    let shared = SideRecord {
        hit_rate: stats.hit_rate(),
        cross_job_hit_rate: stats.cross_job_hit_rate(),
        store_entries: stats.store.entries,
        store_value_bytes: stats.store.value_bytes,
        wall_seconds: shared_wall,
    };

    // ------------------------------------------------- isolated per-job path
    #[expect(clippy::disallowed_methods, reason = "harness: measures wall time")]
    let isolated_start = Instant::now();
    let mut iso_queries = 0u64;
    let mut iso_hits = 0u64;
    let mut iso_cross = 0u64;
    let mut iso_entries = 0usize;
    let mut iso_bytes = 0u64;
    for _ in 0..jobs {
        let pipeline = MlrPipeline::new(config);
        let (_result, executor) = pipeline.run_memoized();
        let s = executor.store().stats();
        iso_queries += s.queries;
        iso_hits += s.hits;
        iso_cross += s.cross_job_hits;
        iso_entries += s.entries;
        iso_bytes += s.value_bytes;
    }
    let isolated_wall = isolated_start.elapsed().as_secs_f64();
    let isolated = SideRecord {
        hit_rate: if iso_queries == 0 {
            0.0
        } else {
            iso_hits as f64 / iso_queries as f64
        },
        cross_job_hit_rate: if iso_queries == 0 {
            0.0
        } else {
            iso_cross as f64 / iso_queries as f64
        },
        store_entries: iso_entries,
        store_value_bytes: iso_bytes,
        wall_seconds: isolated_wall,
    };

    // ------------------------------------------------------------- reporting
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "store", "hit rate", "cross-job", "entries", "DB bytes", "wall"
    );
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>12} {:>9.2}s",
        "shared",
        pct(shared.hit_rate),
        pct(shared.cross_job_hit_rate),
        shared.store_entries,
        shared.store_value_bytes,
        shared.wall_seconds
    );
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>12} {:>9.2}s",
        "isolated",
        pct(isolated.hit_rate),
        pct(isolated.cross_job_hit_rate),
        isolated.store_entries,
        isolated.store_value_bytes,
        isolated.wall_seconds
    );
    println!();
    for r in &reports {
        println!(
            "  job {:>2} {:<14} avoided {:>7}  cache hit {:>7}  queued {:>8.3}s  ran {:>7.2}s",
            r.job,
            r.name,
            pct(r.avoided_fraction),
            pct(r.cache_hit_rate),
            r.queue_seconds,
            r.run_seconds
        );
    }
    println!();
    compare_row(
        "cross-job hit rate (shared > isolated)",
        "> 0 vs = 0",
        &format!(
            "{} vs {}",
            pct(shared.cross_job_hit_rate),
            pct(isolated.cross_job_hit_rate)
        ),
    );
    compare_row(
        "database footprint (shared deduplicates)",
        "smaller",
        &format!(
            "{} vs {} bytes",
            shared.store_value_bytes, isolated.store_value_bytes
        ),
    );
    assert!(
        shared.cross_job_hit_rate > isolated.cross_job_hit_rate,
        "shared store must beat isolated databases on cross-job hit rate \
         ({} vs {})",
        shared.cross_job_hit_rate,
        isolated.cross_job_hit_rate
    );

    let record = Record {
        smoke,
        jobs,
        workers,
        queue_capacity,
        cross_job_advantage: shared.cross_job_hit_rate - isolated.cross_job_hit_rate,
        shared,
        isolated,
        queue_seconds_mean: stats.queue_seconds_mean,
        queue_seconds_max: stats.queue_seconds_max,
        throughput_jobs_per_second: stats.throughput_jobs_per_second(),
        utilisation: stats.utilisation(),
        job_summaries: reports.iter().map(|r| r.summary()).collect(),
    };
    // The acceptance artifact at the repo root, plus the standard
    // target/experiments record.
    match serde_json::to_string_pretty(&record) {
        Ok(json) => {
            if std::fs::write("BENCH_runtime.json", &json).is_ok() {
                println!("\n[record written to BENCH_runtime.json]");
            }
        }
        Err(e) => eprintln!("failed to serialise record: {e}"),
    }
    write_record("fig18_multi_job", &record);
}
