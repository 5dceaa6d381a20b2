//! Biological-tissue scenario: a flat soft-tissue phantom reconstructed with
//! the strict τ = 0.95 the paper recommends for fine structures.
//!
//! ```bash
//! cargo run --release --example brain_imaging
//! ```
use mlr_core::{MlrConfig, MlrPipeline};

fn main() {
    // Numerical reconstruction at laptop scale, strict threshold.
    let config = MlrConfig::quick(32, 16).with_tau(0.95).with_iterations(15);
    let pipeline = MlrPipeline::new(config);
    println!("reconstructing a 32^3 soft-tissue phantom (τ = 0.95) ...");
    let report = pipeline.run_comparison();
    println!("accuracy vs exact reconstruction : {:.3}", report.accuracy);
    println!(
        "FFT invocations avoided          : {:.1} %",
        100.0 * report.avoided_fraction
    );
}
