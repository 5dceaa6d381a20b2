//! Figure 4: number of similar chunks across ADMM iterations at three chunk
//! locations (top / middle / bottom), τ = 0.93.
//!
//! The memoized executor runs inside a [`SimilarityRecorder`], which notes
//! every `F_u2D` chunk input per location; warm-up 0 makes every dispatch
//! memoize, so the recorder sees the chunks the engine reuses from.
use mlr_bench::similarity::SimilarityRecorder;
use mlr_bench::{compare_row, header, scale_from_args, write_record};
use mlr_core::{CancelToken, MlrConfig, MlrPipeline, Scale};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    locations: Vec<usize>,
    series: Vec<Vec<(usize, usize)>>,
    fraction_with_similar: f64,
}

fn main() {
    header(
        "Figure 4",
        "similar chunks across iterations at three chunk locations (τ = 0.93)",
    );
    let scale = scale_from_args();
    let n = scale.volume_size();
    let iterations = if scale == Scale::Tiny { 12 } else { 30 };
    let mut config = MlrConfig::quick(n, n / 2)
        .with_tau(0.93)
        .with_iterations(iterations);
    config.memo.warmup_iterations = 0;
    let pipeline = MlrPipeline::new(config);
    let recorder = SimilarityRecorder::new(
        pipeline.memo_executor(pipeline.build_shared_store(), 0),
        pipeline.config().memo.tau,
    );
    let (_, recorder) = pipeline.run_with_executor(recorder, &CancelToken::new());
    let tracker = recorder.into_tracker();

    let num_locations = pipeline.operator().fu2d_grid().num_chunks();
    let locations = vec![0, num_locations / 2, num_locations - 1];
    let mut series = Vec::new();
    println!(
        "{:<12} {:<10} similar prior chunks",
        "location", "iteration"
    );
    for &loc in &locations {
        let s = tracker.series(loc);
        for &(it, count) in s
            .iter()
            .filter(|(it, _)| it % 5 == 0 || *it + 1 == iterations)
        {
            println!("{:<12} {:<10} {}", loc, it, count);
        }
        series.push(s);
    }
    let fraction = tracker.fraction_with_similar();
    println!();
    compare_row(
        "iterations with >=1 similar prior chunk",
        "~70 %",
        &mlr_bench::pct(fraction),
    );
    compare_row(
        "similar chunks grow as ADMM converges",
        "yes (4-9 after 30 iters)",
        &format!(
            "last-iteration counts {:?}",
            series
                .iter()
                .map(|s| s.last().map(|p| p.1).unwrap_or(0))
                .collect::<Vec<_>>()
        ),
    );
    write_record(
        "fig04_chunk_similarity",
        &Record {
            locations,
            series,
            fraction_with_similar: fraction,
        },
    );
}
