//! # mlr-runtime
//!
//! A multi-tenant, deadline-aware reconstruction runtime for the mLR
//! reproduction.
//!
//! The paper's distributed memoization (Figure 6) separates compute nodes
//! from a memory node holding the memoization database — a design that only
//! pays off when *many* reconstructions share that database. Here the
//! workers share one in-process store instead of a memory node. Synchrotron
//! laminography runs many large samples back-to-back (and concurrently),
//! and those requests arrive with acquisition-driven deadlines; this crate
//! is the serving layer for that regime:
//!
//! ```text
//!   ReconJob ──► bounded priority queue ──► worker pool ──► JobStatus
//!   (deadline,    (admission control,         │ │ │          Completed
//!    priority)     backpressure,              ▼ ▼ ▼          Failed
//!        │         removable entries)       MemoDb           Cancelled
//!        ▼                              (one lock)           Expired
//!    JobHandle ── cancel() ─► queued: removed on the spot        ▲
//!    try_wait / wait_timeout  running: stops at the next ADMM    │
//!    / wait ──────────────────iteration boundary ────────────────┘
//! ```
//!
//! * [`Runtime`] — one front door: a fixed worker pool over a bounded
//!   priority queue. [`Runtime::submit`] rejects when the queue is full
//!   (admission control), [`Runtime::submit_blocking`] parks the producer
//!   (backpressure). Every rejection is counted in
//!   [`RuntimeStats::rejected`], and job ids are allocated only after
//!   admission succeeds (rejected submissions never consume one).
//! * [`ReconJob`]s carry a [`Priority`] and an optional [`Deadline`] that
//!   starts counting at submission; every admitted job yields a
//!   ticket-style [`JobHandle`] (`try_wait`, `wait_timeout`, `wait`,
//!   `cancel`) resolving to a typed [`JobStatus`].
//! * Deadlines stop a job in one of two places: an entry popped past its
//!   deadline is reported [`JobStatus::Expired`] and never runs, and an
//!   in-flight job past its deadline stops cooperatively at the next ADMM
//!   iteration boundary via the solver's `CancelToken`.
//! * Cancellation has the same two stages — a queued job is removed from
//!   the queue on the spot (its slot frees immediately); a running job
//!   stops at the next iteration boundary and the memo entries it already
//!   published keep serving every other tenant.
//! * The shared [`MemoDb`](mlr_memo::MemoDb): every worker's
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
//!   pool.
//!
//! [`ServeFront`] and [`ServeRequest`] are aliases of [`Runtime`] and
//! [`ReconJob`], kept for the frozen repository benchmark.
//!
//! Determinism contract: a job that *runs to completion* through a
//! one-worker runtime matched to its pipeline's config
//! ([`RuntimeConfig::matching`]`(pipeline.config())`) produces the *same
//! reconstruction* as that pipeline's `run_memoized` — the queue, the
//! ticketing and deadline bookkeeping are implementation details, pinned by
//! `tests/runtime.rs`, `tests/serving.rs` and `tests/store_budget.rs`. A
//! job cancelled or expired while queued never executes at all.

#![warn(missing_docs)]

pub mod handle;
pub mod job;
mod queue;
pub mod runtime;
pub mod serve;
pub mod stats;

pub use handle::{JobHandle, JobPhase, JobStatus};
pub use job::{Deadline, JobReport, JobSummary, Priority, ReconJob};
pub use queue::AdmissionError;
pub use runtime::{Runtime, RuntimeConfig};
pub use serve::{ServeFront, ServeRequest};
pub use stats::{DeadlineStats, RuntimeStats};
