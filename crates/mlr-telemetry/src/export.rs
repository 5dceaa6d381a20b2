//! Snapshot export: one JSON document for everything, plus Chrome
//! trace-event format for the span journal.
//!
//! The JSON is emitted by hand (every key is a static identifier and every
//! value a number or fixed name, so no escaping machinery is needed) and is
//! designed to round-trip through `mlr-bench::json`'s dotted-path reader —
//! the vendored `serde_json` shim only serialises, so benches *read* these
//! documents through `mlr_bench::json::JsonValue`.
//!
//! Chrome trace output loads directly into `chrome://tracing` / Perfetto:
//! each span becomes an instant event on the job's track, timestamped with
//! its wall-clock microseconds; the logical tick rides along in `args`.

use crate::hist::Histogram;
use crate::metrics::{MetricsSnapshot, STAGE_NAMES};
use crate::span::SpanRecord;
use std::fmt::Write as _;

/// A complete, self-contained copy of everything the telemetry stack
/// recorded: stage histograms and the span journal.
pub struct TelemetrySnapshot {
    /// Stage histograms.
    pub metrics: MetricsSnapshot,
    /// Span journal contents, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Spans overwritten because the journal ring was full.
    pub spans_dropped: u64,
}

fn write_histogram(out: &mut String, hist: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        hist.count,
        hist.sum,
        hist.mean(),
        hist.percentile(0.50),
        hist.percentile(0.90),
        hist.percentile(0.99),
    );
}

impl TelemetrySnapshot {
    /// Serialises the whole snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"stages\": {");
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": ");
            write_histogram(&mut out, &self.metrics.stages[i]);
        }
        let _ = write!(
            out,
            "\n  }},\n  \"spans_dropped\": {},\n  \"spans\": [",
            self.spans_dropped
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"job\":{},\"kind\":\"{}\",\"arg\":{},\"tick\":{},\"wall_ns\":{}}}",
                span.job,
                span.kind.name(),
                span.arg,
                span.tick,
                span.wall_ns
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Serialises the span journal as a Chrome trace-event document (the
    /// `{"traceEvents": [...]}` object form). Each span is an instant event
    /// on track `tid = job` at `ts` = its wall-clock microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"name\":\"{}\",\"cat\":\"mlr\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"arg\":{},\"tick\":{}}}}}",
                span.kind.name(),
                span.job,
                span.wall_ns / 1_000,
                span.arg,
                span.tick
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, StageId, StageTable};
    use crate::span::SpanKind;

    fn sample_snapshot() -> TelemetrySnapshot {
        let registry = MetricsRegistry::new();
        let mut stages = StageTable::new();
        stages.record(StageId::Encode, 1234);
        registry.fold_stages(&stages);
        TelemetrySnapshot {
            metrics: registry.snapshot(),
            spans: vec![SpanRecord {
                job: 1,
                kind: SpanKind::Admitted,
                arg: 0,
                tick: 0,
                wall_ns: 0,
            }],
            spans_dropped: 0,
        }
    }

    #[test]
    fn json_contains_every_section() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"encode\": {\"count\":1,\"sum\":1234"));
        assert!(json.contains("\"kind\":\"admitted\""));
        assert!(json.contains("\"spans_dropped\": 0"));
    }

    #[test]
    fn chrome_trace_is_an_event_array() {
        let trace = sample_snapshot().to_chrome_trace();
        assert!(trace.starts_with("{\"displayTimeUnit\""));
        assert!(trace.contains("\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"tid\":1"));
    }
}
