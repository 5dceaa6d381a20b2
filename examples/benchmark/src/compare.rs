//! `--compare a.jsonl b.jsonl`: two sets of `--out` records side by side.
//!
//! For every (workload, end-to-end metric) it prints both medians and
//! quartiles, each set's spread (interquartile distance as a share of its
//! median), how much worse the second median is than the first, and the
//! metric's bound. A pair is outside its bound when the second median is
//! worse by more than the bound, or when a spread (other than `setup_s`'s)
//! exceeds it — a metric that unsteady cannot resolve a change of that size.
//! The passes' absolute wall seconds are printed the same way but never
//! judged: they are only comparable between runs that alternated.

use crate::report::quartiles;
use crate::spec::{Better, END_TO_END};
use mlr_bench::json::JsonValue;
use std::collections::BTreeMap;

/// One compared quantity: where it sits in a record, and how it is judged.
struct Row {
    name: &'static str,
    path: String,
    better: Better,
    /// `None`: shown, not judged.
    bound: Option<f64>,
}

fn rows() -> Vec<Row> {
    let gated = END_TO_END.iter().map(|m| Row {
        name: m.name,
        path: format!("result.metrics.{}.value", m.name),
        better: m.better,
        bound: Some(m.bound),
    });
    let wall = ["exact_s", "recon_s"].map(|name| Row {
        name,
        path: format!("wall_s.{name}"),
        better: Better::Lower,
        bound: None,
    });
    gated.chain(wall).collect()
}

/// Workload → row name → one value per untraced run.
type Runs = BTreeMap<String, BTreeMap<&'static str, Vec<f64>>>;

fn load(path: &str, rows: &[Row]) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| format!("{path}:{}: {what}", number + 1);
        let record = JsonValue::parse(line).map_err(|e| at(&e.to_string()))?;
        if record.get("smoke").and_then(JsonValue::as_bool) != Some(false) {
            return Err(at("a smoke run is not a measurement"));
        }
        if record.get("trace").and_then(JsonValue::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| at("no workload"))?;
        let values = runs.entry(workload.to_string()).or_default();
        for row in rows {
            let value = record
                .get(&row.path)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| at(&format!("no value for {}", row.name)))?;
            values.entry(row.name).or_default().push(value);
        }
    }
    Ok(runs)
}

/// Prints the comparison; `Ok(true)` when every judged pair is inside its bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let rows = rows();
    let (a, b) = (load(a_path, &rows)?, load(b_path, &rows)?);
    if !a.keys().eq(b.keys()) {
        return Err("the two files cover different workloads".into());
    }
    println!(
        "{:<14} {:<15} {:>7} {:>32} {:>7}  {:>32} {:>7}  {:>8} {:>6}",
        "workload",
        "metric",
        "runs",
        "A median [q1, q3]",
        "spread",
        "B median [q1, q3]",
        "spread",
        "worse by",
        "bound"
    );
    let mut all_inside = true;
    for (workload, a_values) in &a {
        for row in &rows {
            let (va, vb) = (&a_values[row.name], &b[workload][row.name]);
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1;
            let worse = match row.better {
                Better::Lower => (qb.1 - qa.1) / qa.1,
                Better::Higher => (qa.1 - qb.1) / qa.1,
            };
            let (bound, verdict) = match row.bound {
                None => ("-".to_string(), "not judged"),
                Some(bound) => {
                    let unsteady = row.name != "setup_s" && spread(qa).max(spread(qb)) > bound;
                    let verdict = if worse > bound {
                        "WORSE"
                    } else if unsteady {
                        "UNSTEADY"
                    } else {
                        "ok"
                    };
                    all_inside &= verdict == "ok";
                    (format!("{:.0}%", 100.0 * bound), verdict)
                }
            };
            let cell = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
            println!(
                "{workload:<14} {:<15} {:>3}/{:<3} {:>32} {:>6.1}%  {:>32} {:>6.1}%  {:>+7.1}% {bound:>6}  {verdict}",
                row.name,
                va.len(),
                vb.len(),
                cell(qa),
                100.0 * spread(qa),
                cell(qb),
                100.0 * spread(qb),
                100.0 * worse,
            );
        }
    }
    Ok(all_inside)
}
