//! Figure 10 + §6.4: memoization breakdown per FFT operator — original
//! computation vs failed memoization vs successful memoization vs cache hit —
//! and the distribution of the three cases.
use mlr_bench::{compare_row, fmt_secs, header, scale_from_args, write_record};
use mlr_core::{MlrConfig, MlrPipeline, Scale};
use mlr_lamino::FftOpKind;
use mlr_sim::workload::{AdmmWorkload, ProblemSize};
use mlr_sim::CostModel;
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    case_distribution: (f64, f64, f64),
    per_op_avoided: Vec<(String, f64)>,
    paper_scale_case_seconds: Vec<(String, f64, f64, f64, f64)>,
}

fn main() {
    header(
        "Figure 10",
        "memoization breakdown per operator, and the §6.4 case distribution",
    );
    let scale = scale_from_args();
    let n = scale.volume_size();
    let iterations = if scale == Scale::Tiny { 8 } else { 20 };
    let pipeline = MlrPipeline::new(MlrConfig::quick(n, n / 2).with_iterations(iterations));
    let (_result, executor) = pipeline.run_memoized();
    let stats = executor.stats();

    let mut per_op_avoided = Vec::new();
    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "op", "computed", "failed memo", "db hits", "cache hits", "chunk elems"
    );
    for op in [
        FftOpKind::Fu1D,
        FftOpKind::Fu1DAdj,
        FftOpKind::Fu2D,
        FftOpKind::Fu2DAdj,
    ] {
        let s = stats.op(op);
        println!(
            "{:<8} {:>10} {:>12} {:>10} {:>12} {:>12}",
            op.label(),
            s.computed,
            s.failed_memo,
            s.db_hits,
            s.cache_hits,
            pipeline.operator().chunk_elems(op),
        );
        per_op_avoided.push((op.label().to_string(), s.avoided_fraction()));
    }
    let (fail, db, cache) = stats.case_distribution();
    println!();
    compare_row(
        "case shares of all chunks (fail/db/cache)",
        "53 % / 19 % / 28 %",
        &format!(
            "{:.0} % / {:.0} % / {:.0} %",
            100.0 * fail,
            100.0 * db,
            100.0 * cache
        ),
    );
    compare_row(
        "FFT computation avoided (USFFT ops)",
        "~47 %",
        &mlr_bench::pct(stats.total().avoided_fraction()),
    );

    // Paper-scale per-case timing for one chunk (cost-model projection).
    let w = AdmmWorkload::new(ProblemSize::paper_1k());
    let cost = CostModel::polaris();
    let mut paper_rows = Vec::new();
    println!("\nper-chunk time at 1K^3 (cost model): original / failed memo / db hit / cache hit");
    for (label, stage) in [("Fu1D", w.fu1d_time(&cost)), ("Fu2D", w.fu2d_time(&cost))] {
        let c = w.memo_chunk_seconds(&cost, stage);
        println!(
            "  {label:<6} {} / {} / {} / {}",
            fmt_secs(c.exact),
            fmt_secs(c.failed),
            fmt_secs(c.db_hit),
            fmt_secs(c.cache_hit)
        );
        paper_rows.push((label.to_string(), c.exact, c.failed, c.db_hit, c.cache_hit));
    }
    println!("(shape check: failed memo ~= original; db hit far cheaper; cache hit cheaper still)");
    write_record(
        "fig10_memo_breakdown",
        &Record {
            case_distribution: (fail, db, cache),
            per_op_avoided,
            paper_scale_case_seconds: paper_rows,
        },
    );
}
