//! Quickstart: simulate a flat phantom, reconstruct it with and without
//! memoization, and print what mLR buys you.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
use mlr_core::{MlrConfig, MlrPipeline};

fn main() {
    // A 24^3 brain-like phantom observed from 12 angles at a 35° laminography
    // tilt, reconstructed with 12 ADMM-TV iterations; memoization at τ = 0.92.
    let config = MlrConfig::quick(24, 12).with_iterations(12);
    let pipeline = MlrPipeline::new(config);

    println!("simulating projections and running exact + memoized ADMM-FFT ...");
    let report = pipeline.run_comparison();

    println!("\n== mLR quickstart ==");
    println!(
        "reconstruction accuracy vs exact ADMM-FFT : {:.3}",
        report.accuracy
    );
    println!(
        "FFT invocations avoided by memoization    : {:.1} %",
        100.0 * report.avoided_fraction
    );
    let (fail, db, cache) = report.case_distribution;
    println!(
        "case distribution (fail / db / cache)     : {:.0} % / {:.0} % / {:.0} %",
        100.0 * fail,
        100.0 * db,
        100.0 * cache
    );
    println!(
        "FFT compute wall-clock saved              : {:.1} %",
        100.0 * report.compute_saving()
    );
    println!(
        "memoization store (values / resident)     : {:.1} / {:.1} MiB",
        report.db_bytes as f64 / (1 << 20) as f64,
        report.db_resident_bytes as f64 / (1 << 20) as f64
    );

    // Project the measured behaviour to the paper's 1K^3 problem.
    let projection = pipeline.project_to_paper_scale(1024, report.case_distribution);
    println!(
        "projected improvement at 1K^3 (cost model) : {:.1} % (normalized time {:.3})",
        projection.improvement_percent(),
        projection.normalized_time
    );
}
