//! # mlr-runtime
//!
//! A multi-tenant reconstruction runtime for the mLR reproduction, with a
//! deadline-aware serving front-end.
//!
//! The paper's distributed memoization (Figure 6) separates compute nodes
//! from a memory node holding the memoization database — a design that only
//! pays off when *many* reconstructions share that database. Synchrotron
//! laminography runs many large samples back-to-back (and concurrently),
//! and those requests arrive with acquisition-driven deadlines; this crate
//! is the serving layer for that regime:
//!
//! ```text
//!   ServeRequest ──► bounded priority queue ──► worker pool ──► JobStatus
//!   (deadline,        (admission control,         │ │ │          Completed
//!    priority)         backpressure,              ▼ ▼ ▼          Failed
//!        │             removable entries)   ShardedMemoDb        Cancelled
//!        ▼                                  (N lock stripes,     Expired
//!    JobHandle ── cancel() ─► queued: removed on the spot        ▲
//!    try_wait / wait_timeout  running: stops at the next ADMM    │
//!    / wait ──────────────────iteration boundary ────────────────┘
//! ```
//!
//! * [`ServeFront`] — the request/response front-end: [`ServeRequest`]s
//!   carry a [`Priority`] and an optional [`Deadline`]; every admitted
//!   request yields a ticket-style [`JobHandle`] (`try_wait`,
//!   `wait_timeout`, `wait`, `cancel`) resolving to a typed [`JobStatus`]
//!   instead of the old bare channel on which a crashed job surfaced as a
//!   `RecvError`.
//! * Deadlines are enforced twice: an entry still queued past its deadline
//!   is skipped at pop (reported [`JobStatus::Expired`], never run), and an
//!   in-flight job past its deadline stops cooperatively at the next ADMM
//!   iteration boundary via the solver's `CancelToken`.
//! * Cancellation has the same two stages — a queued job is removed from
//!   the queue on the spot (its slot frees immediately); a running job
//!   stops at the next iteration boundary and the memo entries it already
//!   published keep serving every other tenant.
//! * [`Runtime`] — fixed worker pool; [`Runtime::submit`] rejects when the
//!   queue is full (admission control), [`Runtime::submit_blocking`] parks
//!   the producer (backpressure). With
//!   [`RuntimeConfig::admission_max_pressure`] set, admission additionally
//!   consults the shared store's capacity pressure and turns jobs away
//!   while the memoization budget is saturated. Every rejection path is
//!   counted in [`RuntimeStats::rejected`], and job ids are allocated only
//!   after admission succeeds (rejected submissions never consume one).
//! * The shared [`ShardedMemoDb`](mlr_memo::ShardedMemoDb): every worker's
//!   executor queries and feeds the same store, so job B reuses USFFT
//!   results job A computed. Entries carry a
//!   [`Provenance`](mlr_memo::Provenance) so intra-job freshness gating
//!   still holds per job while cross-job reuse is unrestricted; the store
//!   counts those cross-job hits, surfaced via
//!   [`RuntimeStats::cross_job_hit_rate`]. The capacity budget rides in
//!   the configuration ([`RuntimeConfig::matching`]).
//! * [`RuntimeStats`] — throughput, queue latency, utilisation, store
//!   counters, plus cancelled/expired counts and [`DeadlineStats`]
//!   (met/missed and slack percentiles across decided jobs).
//! * **Robustness layer** — a panicking worker is respawned (counted in
//!   [`RuntimeStats::worker_restarts`]) and its job resolves
//!   [`JobStatus::Failed`] with a `retryable` flag instead of wedging the
//!   pool; retryable admission rejections can be resubmitted through
//!   [`ServeFront::submit_with_retry`] under a seeded, bounded
//!   [`RetryPolicy`]; and [`RuntimeConfig::fault_plan`] arms the
//!   distributed store's deterministic fault injection
//!   ([`FaultPlan`](mlr_sim::faults::FaultPlan) windows on logical store
//!   ticks: node crash/restart, link degradation, stripe stalls), whose
//!   footprint surfaces as [`mlr_memo::FaultStats`] via
//!   [`RuntimeStats::fault_stats`]. Faults degrade hits into exact
//!   recomputes — never into different values (`tests/faults.rs`,
//!   `fig25_faults`).
//!
//! Determinism contract: a job that *runs to completion* through the
//! serving front-end (over a store built by [`RuntimeConfig::matching`])
//! produces the *same reconstruction* as `MlrPipeline::run_memoized` —
//! sharding, ticketing and deadline bookkeeping are implementation details,
//! pinned by tests in `tests/runtime.rs` and `tests/serving.rs`. A
//! cancelled-while-queued or expired-while-queued job never executes at
//! all.

#![warn(missing_docs)]

pub mod handle;
pub mod job;
mod queue;
pub mod retry;
pub mod runtime;
pub mod serve;
pub mod stats;

pub use handle::{JobHandle, JobPhase, JobStatus};
pub use job::{JobReport, JobSummary, Priority, ReconJob};
pub use queue::AdmissionError;
pub use retry::RetryPolicy;
pub use runtime::{Runtime, RuntimeConfig};
pub use serve::{Deadline, ServeFront, ServeRequest};
pub use stats::{DeadlineStats, RuntimeStats};
