//! # mlr-telemetry — unified tracing, metrics, and hot-path profiling
//!
//! One observability surface for the whole serving stack, replacing the
//! five ad-hoc stat structs (`RuntimeStats`, `DeadlineStats`,
//! `ParallelStats`, `MemoStats`, `OffloadTrace`) that could not be
//! correlated per job or exported together:
//!
//! ```text
//!                        Telemetry (Clone, Option<Arc<_>>)
//!                ┌──────────────┼──────────────────┐
//!                ▼              ▼                  ▼
//!        MetricsRegistry   SpanJournal       AccessTrace (opt-in)
//!        sharded atomic    bounded ring,     bounded ring of store
//!        counters + log₂   logical ticks +   accesses stamped with
//!        stage histograms  optional wall ns  StoreClock ticks
//!                ▲              ▲
//!     fold at ordered      admit/run/iter/   TelemetrySnapshot
//!     commit from Copy     operator/done       .to_json()
//!     scratch tables       spans per job       .to_chrome_trace()
//! ```
//!
//! Design rules, all load-bearing:
//!
//! * **Allocation-free hot path.** Workers accumulate into stack-resident
//!   `Copy` scratch ([`CounterTable`], [`StageTable`]) and fold at the
//!   ordered-commit boundary — the `MemoStats` pattern — so the fig22
//!   ≤4-allocs-per-hit gate holds with telemetry enabled.
//! * **Zero-cost when disabled.** [`Telemetry::disabled`] is an
//!   `Option::None`; every recording method inlines to one branch, and hot
//!   loops capture [`Telemetry::is_enabled`] once per batch so disabled
//!   mode takes zero clock reads per chunk (gated ≤5 % by `fig23`).
//! * **Deterministic logical time.** Span ordering uses a monotone logical
//!   tick and the access trace uses the store's `StoreClock`; wall-clock
//!   timestamps are optional and never influence ordering, so the
//!   bit-identity contracts are untouched.

#![warn(missing_docs)]

mod export;
mod hist;
mod metrics;
mod recorder;
mod replay;
mod span;
mod trace;

pub use export::TelemetrySnapshot;
pub use hist::{bucket_floor, bucket_index, Histogram, SignedHistogram, HIST_BUCKETS};
pub use metrics::{
    CounterId, CounterTable, MetricsRegistry, MetricsSnapshot, StageId, StageTable, COUNTER_COUNT,
    COUNTER_NAMES, STAGE_COUNT, STAGE_NAMES,
};
pub use recorder::{Telemetry, TelemetryConfig};
pub use replay::{export_access_records, parse_access_records, TraceParseError};
pub use span::{SpanJournal, SpanKind, SpanRecord};
pub use trace::{AccessKind, AccessRecord, AccessTrace};
