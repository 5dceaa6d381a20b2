//! Table 1: impact of the memoization threshold τ on reconstruction accuracy.
use mlr_bench::{compare_row, header, require_valid, scale_from_args, write_record};
use mlr_core::{MlrConfig, MlrPipeline, Scale};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    tau: f64,
    accuracy: f64,
    avoided_fraction: f64,
}

fn main() {
    header(
        "Table 1",
        "reconstruction accuracy vs memoization threshold τ",
    );
    let scale = scale_from_args();
    let n = scale.volume_size();
    let iterations = if scale == Scale::Tiny { 8 } else { 20 };
    let paper = [
        (0.86, 0.691),
        (0.88, 0.808),
        (0.90, 0.901),
        (0.92, 0.946),
        (0.94, 0.958),
        (0.96, 0.973),
    ];
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>16} {:>16} {:>16}",
        "τ", "paper accuracy", "reproduced", "FFT avoided"
    );
    for &(tau, paper_acc) in &paper {
        let pipeline = MlrPipeline::new(
            MlrConfig::quick(n, n / 2)
                .with_tau(tau)
                .with_iterations(iterations),
        );
        let report = pipeline.run_comparison();
        require_valid(&report);
        println!(
            "{:>6.2} {:>16.3} {:>16.3} {:>16}",
            tau,
            paper_acc,
            report.accuracy,
            mlr_bench::pct(report.avoided_fraction)
        );
        rows.push(Row {
            tau,
            accuracy: report.accuracy,
            avoided_fraction: report.avoided_fraction,
        });
    }
    println!();
    let monotone = rows
        .windows(2)
        .all(|w| w[1].accuracy + 0.02 >= w[0].accuracy);
    compare_row(
        "accuracy increases with τ",
        "yes",
        if monotone { "yes" } else { "mostly" },
    );
    compare_row(
        "accuracy at τ = 0.92",
        "0.946",
        &format!("{:.3}", rows[3].accuracy),
    );
    write_record("table1_accuracy", &rows);
}
