//! Multi-tenant serving: four concurrent reconstruction jobs sharing one
//! memoization store.
//!
//! Later-arriving jobs reuse the USFFT results earlier jobs memoized, so
//! they avoid far more FFT work than a cold-started reconstruction — the
//! multi-job payoff of the paper's shared memoization database.
//!
//! ```bash
//! cargo run --release --example multi_tenant
//! ```

use mlr_core::MlrConfig;
use mlr_runtime::{Priority, ReconJob, Runtime, RuntimeConfig};

fn main() {
    // The beamline scenario: replicated reconstructions of one sample
    // family (same geometry, same phantom statistics) arriving together.
    let config = MlrConfig::quick(16, 8).with_iterations(8);
    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: 8,
        ..RuntimeConfig::matching(&config)
    });

    println!("submitting 4 jobs to a 2-worker runtime over one shared store ...\n");
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let job = ReconJob::new(format!("sample-{i}"), config).with_priority(if i == 3 {
                Priority::Interactive
            } else {
                Priority::Normal
            });
            runtime.submit(job).expect("queue has room for the demo")
        })
        .collect();

    let mut reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait_report().expect("demo job completes"))
        .collect();
    reports.sort_by_key(|r| r.job);
    for r in &reports {
        println!(
            "job {} ({:<9})  FFT work avoided: {:>5.1} %   queued {:>6.3}s   ran {:>5.2}s",
            r.job,
            r.name,
            100.0 * r.avoided_fraction,
            r.queue_seconds,
            r.run_seconds
        );
    }

    let stats = runtime.shutdown();
    println!("\n== shared store, after all jobs ==");
    println!("entries                  : {}", stats.store.entries);
    println!(
        "hit rate                 : {:.1} %",
        100.0 * stats.hit_rate()
    );
    println!(
        "cross-job hit rate       : {:.1} %  (queries served by another job's entry)",
        100.0 * stats.cross_job_hit_rate()
    );
    println!(
        "mean queue latency       : {:.3} s",
        stats.queue_seconds_mean
    );
    println!(
        "throughput               : {:.2} jobs/s",
        stats.throughput_jobs_per_second()
    );
    println!(
        "worker utilisation       : {:.1} %",
        100.0 * stats.utilisation()
    );
}
