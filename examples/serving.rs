//! Deadline-aware serving: requests with deadlines and cancellation over
//! the shared-store runtime.
//!
//! The beamline scenario: bulk reconstructions fill the queue while an
//! operator asks for an interactive alignment preview that is only useful
//! before the next scan starts (a deadline), and abandons one of the bulk
//! jobs halfway (cancellation). Every submission resolves to a typed
//! status — completed, cancelled, or expired — instead of a bare channel
//! error.
//!
//! ```bash
//! cargo run --release --example serving
//! ```

use mlr_core::MlrConfig;
use mlr_runtime::{Deadline, Priority, ReconJob, Runtime, RuntimeConfig};
use std::time::Duration;

fn main() {
    let config = MlrConfig::quick(16, 8).with_iterations(8);
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: 8,
        ..RuntimeConfig::matching(&config)
    });

    println!("submitting to a 2-worker runtime over one shared store ...\n");

    // Bulk work at batch priority.
    let bulk: Vec<_> = (0..4)
        .map(|i| {
            rt.submit(ReconJob::new(format!("bulk-{i}"), config).with_priority(Priority::Batch))
                .expect("queue has room for the demo")
        })
        .collect();

    // The operator's preview: interactive priority, 120 s deadline.
    let preview = rt
        .submit(
            ReconJob::new("preview", config)
                .with_priority(Priority::Interactive)
                .with_deadline(Deadline::within(Duration::from_secs(120))),
        )
        .expect("queue has room for the demo");

    // A hopeless request: its deadline is already due when it is admitted,
    // so the worker skips it at pop — it never runs.
    let hopeless = rt
        .submit(ReconJob::new("hopeless", config).with_deadline(Deadline::within(Duration::ZERO)))
        .expect("queue has room for the demo");

    // The operator changes their mind about one bulk job.
    let abandoned = &bulk[3];
    let registered = abandoned.cancel();
    println!(
        "cancelled {:<10} (registered while live: {registered})",
        abandoned.name()
    );

    for handle in bulk.iter().chain([&preview, &hopeless]) {
        let status = handle
            .wait_timeout(Duration::from_secs(600))
            .expect("all jobs resolve well within the demo budget");
        println!("job {:<2} {:<10} → {status}", handle.id(), handle.name());
    }

    let stats = rt.shutdown();
    println!("\n== runtime, after all requests ==");
    println!("completed                : {}", stats.completed);
    println!("cancelled                : {}", stats.cancelled);
    println!("expired                  : {}", stats.expired);
    println!(
        "deadline miss rate       : {:.1} %  ({} met / {} missed)",
        100.0 * stats.deadline_miss_rate(),
        stats.deadline.met,
        stats.deadline.missed
    );
    println!(
        "deadline slack p50       : {:+.2} s",
        stats.deadline.slack_p50_seconds
    );
    println!(
        "cross-job hit rate       : {:.1} %",
        100.0 * stats.cross_job_hit_rate()
    );
    println!(
        "throughput               : {:.2} jobs/s",
        stats.throughput_jobs_per_second()
    );
}
