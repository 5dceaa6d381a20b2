//! The CI bench-regression gate.
//!
//! Compares the `BENCH_*.json` records produced by a smoke run of
//! `fig18_multi_job` / `fig19_eviction` against the committed baseline in
//! `ci/bench_baseline.json`, with a tolerance band per metric. A cross-job
//! hit rate (or any other gated metric) dropping below
//! `baseline - tolerance` fails the process with exit code 1, which fails
//! the `bench-smoke` CI job; improvements beyond the band are reported as a
//! hint to refresh the baseline but do not fail.
//!
//! Baseline format (parsed with the crate's own minimal JSON reader — the
//! vendored `serde_json` shim only serialises):
//!
//! ```json
//! {
//!   "tolerance": 0.1,
//!   "checks": [
//!     { "file": "BENCH_eviction.json",
//!       "path": "cost_aware_half_cross_job_hit_rate",
//!       "baseline": 0.09 },
//!     { "file": "BENCH_eviction.json",
//!       "path": "all_cells_bounded", "equals": true }
//!   ]
//! }
//! ```
//!
//! `baseline` checks are numeric with an optional per-check `tolerance`
//! overriding the global one; `equals` checks demand exactly the given
//! boolean or number.
//!
//! Usage: `check_bench [--baseline ci/bench_baseline.json] [--dir .]`

use mlr_bench::arg_value;
use mlr_bench::json::JsonValue;
use std::path::Path;
use std::process::ExitCode;

struct Outcome {
    file: String,
    path: String,
    detail: String,
    failed: bool,
}

fn run(baseline_path: &str, dir: &str) -> Result<Vec<Outcome>, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline =
        JsonValue::parse(&text).map_err(|e| format!("bad baseline {baseline_path}: {e}"))?;
    let global_tolerance = baseline
        .get("tolerance")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.1);
    let checks = baseline
        .get("checks")
        .and_then(JsonValue::as_array)
        .ok_or("baseline has no checks array")?;

    let mut outcomes = Vec::new();
    // Parse each record file once.
    let mut records: Vec<(String, Result<JsonValue, String>)> = Vec::new();
    for check in checks {
        let file = check
            .get("file")
            .and_then(JsonValue::as_str)
            .ok_or("check without file")?
            .to_string();
        if !records.iter().any(|(f, _)| *f == file) {
            let full = Path::new(dir).join(&file);
            let parsed = std::fs::read_to_string(&full)
                .map_err(|e| format!("cannot read {}: {e}", full.display()))
                .and_then(|t| {
                    JsonValue::parse(&t).map_err(|e| format!("bad json {}: {e}", full.display()))
                });
            records.push((file.clone(), parsed));
        }
    }

    for check in checks {
        let file = check.get("file").and_then(JsonValue::as_str).unwrap_or("");
        let path = check
            .get("path")
            .and_then(JsonValue::as_str)
            .ok_or("check without path")?;
        let record = match &records.iter().find(|(f, _)| f == file).unwrap().1 {
            Ok(v) => v,
            Err(e) => {
                outcomes.push(Outcome {
                    file: file.to_string(),
                    path: path.to_string(),
                    detail: e.clone(),
                    failed: true,
                });
                continue;
            }
        };
        let Some(value) = record.get(path) else {
            outcomes.push(Outcome {
                file: file.to_string(),
                path: path.to_string(),
                detail: "metric missing from record".to_string(),
                failed: true,
            });
            continue;
        };
        let outcome = if let Some(expected) = check.get("equals") {
            let show = |v: &JsonValue| match v {
                JsonValue::Bool(b) => b.to_string(),
                JsonValue::Number(n) => n.to_string(),
                other => format!("{other:?}"),
            };
            let failed = value != expected;
            Outcome {
                file: file.to_string(),
                path: path.to_string(),
                detail: if failed {
                    format!("expected {}, got {}", show(expected), show(value))
                } else {
                    format!("= {} (required)", show(value))
                },
                failed,
            }
        } else {
            let target = check
                .get("baseline")
                .and_then(JsonValue::as_f64)
                .ok_or("numeric check without baseline value")?;
            let tolerance = check
                .get("tolerance")
                .and_then(JsonValue::as_f64)
                .unwrap_or(global_tolerance);
            match value.as_f64() {
                None => Outcome {
                    file: file.to_string(),
                    path: path.to_string(),
                    detail: "metric is not numeric".to_string(),
                    failed: true,
                },
                Some(actual) if actual < target - tolerance => Outcome {
                    file: file.to_string(),
                    path: path.to_string(),
                    detail: format!(
                        "REGRESSION: {actual:.4} < baseline {target:.4} - tolerance {tolerance:.4}"
                    ),
                    failed: true,
                },
                Some(actual) if actual > target + tolerance => Outcome {
                    file: file.to_string(),
                    path: path.to_string(),
                    detail: format!(
                        "{actual:.4} beats baseline {target:.4} by more than {tolerance:.4} — \
                         consider refreshing ci/bench_baseline.json"
                    ),
                    failed: false,
                },
                Some(actual) => Outcome {
                    file: file.to_string(),
                    path: path.to_string(),
                    detail: format!("{actual:.4} within {target:.4} ± {tolerance:.4}"),
                    failed: false,
                },
            }
        };
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

fn main() -> ExitCode {
    let baseline = arg_value("--baseline").unwrap_or_else(|| "ci/bench_baseline.json".to_string());
    let dir = arg_value("--dir").unwrap_or_else(|| ".".to_string());
    println!("bench regression gate: baseline {baseline}, records in {dir}");
    match run(&baseline, &dir) {
        Err(e) => {
            eprintln!("check_bench: {e}");
            ExitCode::FAILURE
        }
        Ok(outcomes) => {
            let mut failed = 0usize;
            for o in &outcomes {
                let flag = if o.failed { "FAIL" } else { " ok " };
                println!("[{flag}] {}:{} — {}", o.file, o.path, o.detail);
                failed += o.failed as usize;
            }
            if failed > 0 {
                eprintln!("{failed} bench metric(s) regressed beyond tolerance");
                ExitCode::FAILURE
            } else {
                println!("all {} bench metrics within tolerance", outcomes.len());
                ExitCode::SUCCESS
            }
        }
    }
}
