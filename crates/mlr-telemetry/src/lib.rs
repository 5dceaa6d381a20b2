//! # mlr-telemetry — stage timing and lifecycle spans
//!
//! The recorder keeps only what no other layer records. Counts stay with
//! the layer that owns them: chunk cases in `MemoStats`, jobs in
//! `RuntimeStats`; a batch is one `Operator` span. What is left is time
//! and order:
//!
//! ```text
//!                 Telemetry (Clone, Option<Arc<_>>)
//!                ┌──────────────┴───┐
//!                ▼                  ▼
//!        MetricsRegistry       SpanJournal
//!        log₂ stage            bounded ring,
//!        histograms            logical ticks +
//!                              wall ns
//!                ▲                  ▲
//!     fold at ordered      admit/run/iter/      TelemetrySnapshot
//!     commit from Copy     operator/done          .to_json()
//!     scratch tables       spans per job          .to_chrome_trace()
//! ```
//!
//! Design rules, all load-bearing:
//!
//! * **Allocation-free hot path.** Workers accumulate into a
//!   stack-resident `Copy` [`StageTable`] and fold it at the
//!   ordered-commit boundary — the `MemoStats` pattern — so the fig22
//!   ≤4-allocs-per-hit gate holds with telemetry enabled.
//! * **Zero-cost when disabled.** [`Telemetry::disabled`] is an
//!   `Option::None`; every recording method inlines to one branch, and hot
//!   loops capture [`Telemetry::is_enabled`] once per batch, so a disabled
//!   recorder means the memo engine reads no clock at all.
//! * **Deterministic logical time.** Span ordering uses a monotone logical
//!   tick; a span's wall-clock timestamp never influences ordering, so the
//!   bit-identity contracts are untouched.

#![warn(missing_docs)]

mod export;
mod hist;
mod metrics;
mod recorder;
mod ring;
mod span;

pub use export::TelemetrySnapshot;
pub use hist::{bucket_floor, bucket_index, Histogram, SignedHistogram, HIST_BUCKETS};
pub use metrics::{
    MetricsRegistry, MetricsSnapshot, StageId, StageTable, STAGE_COUNT, STAGE_NAMES,
};
pub use recorder::Telemetry;
pub use span::{SpanJournal, SpanKind, SpanRecord};
