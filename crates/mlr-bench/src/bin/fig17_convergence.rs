//! Figure 17: ADMM convergence loss with and without memoization.
use mlr_bench::{compare_row, header, require_valid, scale_from_args, write_record};
use mlr_core::{MlrConfig, MlrPipeline, Scale};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    exact_loss: Vec<(usize, f64)>,
    memo_loss: Vec<(usize, f64)>,
    final_ratio: f64,
    accuracy: f64,
}

fn main() {
    header(
        "Figure 17",
        "convergence loss with and without memoization (τ = 0.92)",
    );
    let scale = scale_from_args();
    let n = scale.volume_size();
    let iterations = if scale == Scale::Tiny { 12 } else { 30 };
    let pipeline = MlrPipeline::new(MlrConfig::quick(n, n / 2).with_iterations(iterations));
    let report = pipeline.run_comparison();
    require_valid(&report);

    println!(
        "{:>10} {:>18} {:>18}",
        "iteration", "loss (exact)", "loss (memoized)"
    );
    for (a, b) in report.exact_loss.iter().zip(&report.memo_loss) {
        if a.0 % 3 == 0 || a.0 + 1 == iterations {
            println!("{:>10} {:>18.4e} {:>18.4e}", a.0, a.1, b.1);
        }
    }
    let final_ratio = report.memo_loss.last().unwrap().1 / report.exact_loss.last().unwrap().1;
    println!();
    compare_row(
        "loss curves with/without memoization",
        "nearly identical",
        &format!("final-loss ratio {final_ratio:.3}"),
    );
    compare_row(
        "extra iterations needed with memoization",
        "none",
        if final_ratio < 1.2 { "none" } else { "some" },
    );
    compare_row(
        "reconstruction accuracy vs exact",
        ">= 0.94 at τ = 0.92",
        &format!("{:.3}", report.accuracy),
    );
    write_record(
        "fig17_convergence",
        &Record {
            exact_loss: report.exact_loss,
            memo_loss: report.memo_loss,
            final_ratio,
            accuracy: report.accuracy,
        },
    );
}
