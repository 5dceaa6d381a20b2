//! The `Telemetry` handle: a cloneable recorder that is a compile-time
//! no-op when disabled.
//!
//! `Telemetry` is an `Option<Arc<_>>` under the hood. Every recording
//! method is `#[inline]` and starts with the `None` check, so the disabled
//! form compiles down to a single predictable branch on a register — no
//! atomics, no locks, no `Instant::now()`. The hot path additionally gates
//! its stage timers on [`Telemetry::is_enabled`] captured once per batch,
//! so disabled mode takes zero clock reads per chunk. `fig22_hotpath` holds
//! the enabled cost to ≤ 800 ns a cache-hit chunk.

use crate::export::TelemetrySnapshot;
use crate::metrics::{MetricsRegistry, StageTable};
use crate::span::{SpanJournal, SpanKind};
use std::sync::Arc;

/// Span journal ring capacity (records) of an enabled recorder.
const SPAN_CAPACITY: usize = 8192;

struct TelemetryInner {
    metrics: MetricsRegistry,
    spans: SpanJournal,
}

/// Cloneable recorder handle threaded through runtime, memo engine, solver
/// and operators. Disabled (`Telemetry::disabled()`, also the `Default`)
/// it records nothing and costs one branch per call site.
///
/// ```
/// use mlr_telemetry::{SpanKind, StageId, StageTable, Telemetry};
///
/// let telemetry = Telemetry::enabled();
/// telemetry.span(7, SpanKind::Admitted, 0);
/// let mut stages = StageTable::new();
/// stages.record(StageId::Encode, 1_500);
/// telemetry.fold_stages(&stages);
/// let snapshot = telemetry.snapshot().expect("enabled recorders snapshot");
/// assert_eq!(snapshot.metrics.stage(StageId::Encode).count, 1);
/// assert_eq!(snapshot.spans.len(), 1);
/// assert!(snapshot.to_json().contains("\"kind\":\"admitted\""));
///
/// // Disabled — the default everywhere — records nothing and has nothing
/// // to snapshot; every recording call above would have been one branch.
/// let disabled = Telemetry::disabled();
/// disabled.span(7, SpanKind::Admitted, 0);
/// assert!(disabled.snapshot().is_none());
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// The no-op recorder. All recording methods return immediately.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled recorder: stage histograms and the span journal.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(TelemetryInner {
                metrics: MetricsRegistry::new(),
                spans: SpanJournal::new(SPAN_CAPACITY),
            })),
        }
    }

    /// Whether this handle records anything. Hot paths capture this once
    /// per batch and skip their stage clocks entirely when `false`.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Folds per-thread stage-timer scratch into the registry.
    #[inline]
    pub fn fold_stages(&self, scratch: &StageTable) {
        if let Some(inner) = &self.inner {
            inner.metrics.fold_stages(scratch);
        }
    }

    /// Records one lifecycle span.
    #[inline]
    pub fn span(&self, job: u64, kind: SpanKind, arg: u64) {
        if let Some(inner) = &self.inner {
            inner.spans.record(job, kind, arg);
        }
    }

    /// The live metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|inner| &inner.metrics)
    }

    /// The span journal, when enabled.
    pub fn spans(&self) -> Option<&SpanJournal> {
        self.inner.as_ref().map(|inner| &inner.spans)
    }

    /// A complete copy of everything recorded so far; `None` when disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let inner = self.inner.as_ref()?;
        Some(TelemetrySnapshot {
            metrics: inner.metrics.snapshot(),
            spans: inner.spans.snapshot(),
            spans_dropped: inner.spans.dropped(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StageId;

    #[test]
    fn disabled_records_nothing_and_snapshots_none() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        telemetry.span(1, SpanKind::Admitted, 0);
        let mut stages = StageTable::new();
        stages.record(StageId::Encode, 100);
        telemetry.fold_stages(&stages);
        assert!(telemetry.snapshot().is_none());
        assert!(telemetry.metrics().is_none());
        assert!(telemetry.spans().is_none());
    }

    #[test]
    fn enabled_round_trips_through_snapshot() {
        let telemetry = Telemetry::enabled();
        telemetry.span(3, SpanKind::Admitted, 0);
        telemetry.span(3, SpanKind::Completed, 0);
        let snap = telemetry.snapshot().expect("enabled");
        assert_eq!(snap.spans.len(), 2);
        assert!(snap.to_json().contains("\"kind\":\"completed\""));
    }

    #[test]
    fn clones_share_one_registry() {
        let telemetry = Telemetry::enabled();
        let clone = telemetry.clone();
        let mut stages = StageTable::new();
        stages.record(StageId::MissFft, 40);
        stages.record(StageId::MissFft, 60);
        clone.fold_stages(&stages);
        clone.span(2, SpanKind::Completed, 0);
        let snap = telemetry.snapshot().expect("enabled");
        assert_eq!(snap.metrics.stage(StageId::MissFft).count, 2);
        assert_eq!(snap.spans.len(), 1);
    }
}
