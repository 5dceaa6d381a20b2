//! A long-running multi-tenant workload holding steady-state memory under a
//! fixed memoization budget.
//!
//! Waves of reconstruction jobs flow through the runtime while the shared
//! store is capped at a fraction of what the workload would otherwise
//! accumulate: the store's replacement rule keeps the proven-reusable
//! entries resident, the footprint plateaus at the budget instead of
//! growing with every job, and the cross-job hit rate survives.
//!
//! ```bash
//! cargo run --release --example bounded_store
//! ```

use mlr_core::{MlrConfig, MlrPipeline};
use mlr_memo::CapacityBudget;
use mlr_runtime::{ReconJob, Runtime, RuntimeConfig};

fn main() {
    let base = MlrConfig::quick(12, 8).with_iterations(4);

    // Size the budget from a one-job probe: a single reconstruction's
    // memo footprint, which a long replicated run would otherwise multiply.
    let (_, probe) = MlrPipeline::new(base).run_memoized();
    let budget_bytes = probe.store().resident_bytes() * 3 / 2;
    let config = base.with_memo_budget(CapacityBudget::bytes(budget_bytes));
    println!("memo budget: {budget_bytes} bytes (1.5x one job's footprint)\n");

    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: 8,
        ..RuntimeConfig::matching(&config)
    });

    // Six waves of replicated jobs — the kind of run that unboundedly grows
    // an ungoverned store.
    let waves = 6usize;
    let jobs_per_wave = 3usize;
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "wave", "jobs done", "resident", "peak", "budget %", "evicted", "cross-job"
    );
    for wave in 0..waves {
        let handles: Vec<_> = (0..jobs_per_wave)
            .map(|i| {
                runtime
                    .submit_blocking(ReconJob::new(format!("wave{wave}-job{i}"), config))
                    .expect("queue accepts the demo load")
            })
            .collect();
        for h in handles {
            let _ = h.wait();
        }
        let stats = runtime.stats();
        println!(
            "{:>5} {:>10} {:>12} {:>12} {:>9.1}% {:>10} {:>9.1}%",
            wave + 1,
            stats.completed,
            stats.store.resident_bytes,
            stats.store.peak_resident_bytes,
            100.0 * stats.store_pressure,
            stats.store.evictions,
            100.0 * stats.cross_job_hit_rate(),
        );
    }

    let stats = runtime.shutdown();
    println!("\n== after {} jobs ==", stats.completed);
    println!("resident bytes           : {}", stats.store.resident_bytes);
    println!(
        "peak resident bytes      : {} (cap {budget_bytes})",
        stats.store.peak_resident_bytes
    );
    println!("entries evicted          : {}", stats.store.evictions);
    println!(
        "hit rate                 : {:.1} %",
        100.0 * stats.hit_rate()
    );
    println!(
        "hit rate under pressure  : {:.1} %",
        100.0 * stats.hit_rate_under_pressure()
    );
    println!(
        "cross-job hit rate       : {:.1} %",
        100.0 * stats.cross_job_hit_rate()
    );
    assert!(
        stats.store.peak_resident_bytes <= budget_bytes,
        "the budget must hold at every post-enforcement point"
    );
    println!("\nsteady-state memory held under the budget for the whole run.");
}
