//! # mlr-bench
//!
//! Evaluation harness for the mLR reproduction. Every table and figure of the
//! paper's evaluation section has a corresponding binary in `src/bin/`, except
//! Figures 9 (the solver has no Algorithm-1 LSP to set cancellation and fusion
//! against), 11 (key coalescing, which this repository does not run), 13
//! (ADMM-Offload, whose variables the solver does not hold) and 14–16
//! (multi-GPU scaling and one memory node under 1–16 GPUs, which nothing here
//! measures; `fig24_cluster` replays a recorded trace through the link model):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig02_memory_breakdown` | Figure 2 — measured: the arrays an exact solve holds and its peak live bytes (counting allocator), a memoized solve's peak and its store's, the LSP's share of time; the paper's breakdown cited beside them |
//! | `fig04_chunk_similarity` | Figure 4 — similar chunks across iterations at three locations ([`similarity::SimilarityRecorder`] around the memo engine) |
//! | `fig08_overall` | Figure 8 — overall normalized time, mLR vs the exact Algorithm-2 run (the paper's baseline is Algorithm 1), three dataset sizes |
//! | `fig10_memo_breakdown` | Figure 10 — per-operator memoization case breakdown (+ §6.4 case distribution) |
//! | `fig12_cache_hit_rate` | Figure 12 — private vs global cache hit rate over iterations |
//! | `fig17_convergence` | Figure 17 — convergence loss with and without memoization |
//! | `table1_accuracy` | Table 1 — reconstruction accuracy vs τ |
//! | `fig18_multi_job` | beyond the paper — multi-job runtime, shared vs isolated stores |
//! | `fig19_eviction` | beyond the paper — what a capacity budget costs in cross-job hit rate |
//! | `fig21_serving` | beyond the paper — deadline-aware serving: load × deadline tightness vs miss rate, cancellation guarantees |
//! | `fig22_hotpath` | beyond the paper — zero-copy memo hits ([`hotpath::drive`]): hit ns/chunk, miss FFT throughput, allocations/chunk (counting allocator), per-stage hit breakdown (prefilter/peek/encode/probe), prefilter skip lane, what the telemetry recorder adds to a hit (`overhead_within_bound`); `--sweep` adds the 256..16 Ki-elem chunk-size sweep that holds the stages the seam memoizes to the measurement (`gate_agrees_with_measurement`) |
//! | `fig24_cluster` | beyond the paper — distributed memo tier: hit parity vs `ShardedMemoDb`, access-trace replay over simulated memory nodes (Figure 15/16 analogues) |
//! | `fig25_faults` | beyond the paper — chaos harness: a serving workload under swept fault plans (node crash, link degrade, stripe stall), bit identity, bounded degradation, recovery |
//! | `check_bench` | CI regression gate over the `BENCH_*.json` records (see `ci/bench_baseline.json`) |
//!
//! Run any of them with `cargo run --release -p mlr-bench --bin <name> [-- --scale tiny|small|paper]`.
//! `fig18_multi_job`, `fig19_eviction`, `fig21_serving`, `fig22_hotpath`,
//! `fig24_cluster` and `fig25_faults` additionally accept `--smoke`, the
//! reduced-size mode CI's bench-smoke job runs; `fig22_hotpath` also accepts
//! `--sweep` (CI passes it) to embed the chunk-size sweep in
//! `BENCH_hotpath.json`. Each prints a human-readable
//! table with the paper's reported values next to the reproduced ones and
//! writes a JSON record under `target/experiments/`.

use mlr_core::{MlrReport, Scale};
use serde::Serialize;
use std::path::PathBuf;

pub mod alloc;
pub mod hotpath;
pub mod json;
pub mod similarity;

/// Parses the `--scale` argument from the process command line.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--scale" && i + 1 < args.len() {
            return Scale::parse(&args[i + 1]);
        }
    }
    Scale::Small
}

/// Whether `--smoke` was passed: the reduced-size mode CI's bench-smoke job
/// runs, small enough for a pull-request gate but still producing the same
/// `BENCH_*.json` records the full runs do.
pub fn smoke_from_args() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// The value of `--arg <value>` from the process command line, if present.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == name && i + 1 < args.len() {
            return Some(args[i + 1].clone());
        }
    }
    None
}

/// Exits non-zero with `MlrPipeline::check_exact`'s reason when the exact
/// reference of `report` is invalid: every number in the report compares
/// against that run, and a diverged reference (all zeros) scores a perfect
/// accuracy against a memoized run that diverged the same way.
pub fn require_valid(report: &MlrReport) {
    if let Some(why) = &report.invalid_reason {
        eprintln!("invalid exact reference: {why}");
        std::process::exit(1);
    }
}

/// Prints a section header for a harness.
pub fn header(experiment: &str, description: &str) {
    println!("================================================================");
    println!("{experiment}: {description}");
    println!("================================================================");
}

/// Prints one row of a two-column comparison (paper vs reproduced).
pub fn compare_row(label: &str, paper: &str, measured: &str) {
    println!("{label:<44} paper: {paper:<16} reproduced: {measured}");
}

/// Writes the machine-readable record of an experiment to
/// `target/experiments/<name>.json`.
pub fn write_record<T: Serialize>(name: &str, record: &T) {
    let dir = PathBuf::from("target/experiments");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(record) {
        let _ = std::fs::write(&path, json);
        println!("\n[record written to {}]", path.display());
    }
}

/// Spins (yielding) until `done` returns true, panicking with `what` after
/// `timeout` — the wait primitive the serving harness and tests use to
/// observe another thread reaching a phase (job started running, first
/// iteration in flight) without sleeping past it.
#[expect(clippy::disallowed_methods, reason = "harness: spin timeout")]
pub fn spin_until(what: &str, timeout: std::time::Duration, mut done: impl FnMut() -> bool) {
    let giving_up = std::time::Instant::now() + timeout;
    while !done() {
        assert!(
            std::time::Instant::now() < giving_up,
            "timed out waiting for: {what}"
        );
        std::thread::yield_now();
    }
}

/// Formats seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Formats a fraction as a percentage.
pub fn pct(f: f64) -> String {
    format!("{:.1} %", 100.0 * f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(2.5e-6), "2.5 µs");
        assert_eq!(pct(0.528), "52.8 %");
    }

    #[test]
    fn default_scale_is_small() {
        assert_eq!(scale_from_args(), Scale::Small);
    }

    #[test]
    fn smoke_defaults_off() {
        assert!(!smoke_from_args());
        assert_eq!(arg_value("--no-such-arg"), None);
    }
}
