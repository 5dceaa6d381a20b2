//! What one benchmark pass produces, and how it is printed.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::validity::Failure;
use std::fmt::Write as _;

/// Result of one pass over one workload.
#[derive(Default)]
pub struct Outcome {
    /// Reconstructions attempted (every exact, memoized and served one).
    pub attempted: u64,
    /// Of those, how many did not complete or failed a check (see `validity`).
    pub failed: u64,
    /// Of those, how many completed with an output that failed a check.
    wrong: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Wall seconds of an untraced pass: printed and recorded, never gated.
    wall_s: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records the absolute wall seconds behind `recon_vs_exact`.
    pub fn note_wall_s(&mut self, exact_s: f64, recon_s: f64) {
        self.wall_s = vec![("exact_s", exact_s), ("recon_s", recon_s)];
    }

    /// Counts one failed reconstruction and says why on stderr.
    pub fn fail(&mut self, failure: &Failure) {
        self.failed += 1;
        match failure {
            Failure::Failed(why) => eprintln!("FAILED: {why}"),
            Failure::Wrong(why) => {
                self.wrong += 1;
                eprintln!("WRONG: {why}");
            }
        }
    }

    /// Counts one reconstruction whose output failed a check.
    pub fn wrong(&mut self, why: &str) {
        self.fail(&Failure::Wrong(why.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Per-layer metrics of layers a workload does not run are reported as 0.
    pub fn zero_layer(&mut self, layer_prefix: &str) {
        for (name, _) in PER_LAYER {
            if name.starts_with(layer_prefix) {
                self.set(name, 0.0);
            }
        }
    }

    /// A pass is correct when no output failed a check and every metric is a
    /// number. A reconstruction that did not complete is a failed operation,
    /// not a wrong output: it shows in `failed` only (one served job in
    /// ~3000 dies here on `pthread_join` returning EINVAL under the rayon
    /// shim's thread churn).
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    fn listed(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name, unit, value)
            })
            .collect()
    }

    /// Every metric of the pass by name, with its unit.
    pub fn print_table(&self, trace: bool) {
        for (name, unit, value) in self.listed(trace) {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        for (name, value) in &self.wall_s {
            println!("{name:<36} {value:>16.6} s (this pass's wall seconds, not gated)");
        }
    }

    /// `{"exact_s": …, "recon_s": …}` for the `--out` record.
    pub fn wall_s_json(&self) -> String {
        let fields: Vec<String> = self
            .wall_s
            .iter()
            .map(|(name, value)| format!("\"{name}\": {}", json_number(*value)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one-line result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (plus `"smoke": true` when it is not a measurement).
    pub fn result_json(&self, trace: bool, smoke: bool) -> String {
        let mut out = String::from("{");
        if smoke {
            out.push_str("\"smoke\": true, ");
        }
        let _ = write!(
            out,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.listed(trace).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// JSON has no NaN or infinity; a non-finite value already made the pass
/// incorrect, so `null` only keeps the line parseable.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        value.to_string()
    } else {
        "null".into()
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them, so spreads computed here match the
/// ones the acceptance check computes. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    // A NaN (a phantom that never completed) sorts last; the pass that
    // produced it has already counted the failure.
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), (3.5, 13.5, 31.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
