//! The deadline-aware serving front-end over the runtime.
//!
//! At a beamline the runtime is a shared facility: many users submit
//! reconstruction requests against one memo store, and those requests carry
//! acquisition-driven deadlines — an alignment preview that arrives after
//! the next scan started is worthless. [`ServeFront`] is the
//! request/response layer for that regime, built from std threads and
//! condvars (no async runtime, no external crates):
//!
//! * every admitted [`ServeRequest`] yields a ticket-style
//!   [`JobHandle`] with `try_wait` / `wait_timeout` /
//!   `wait` / `cancel`;
//! * a request's [`Deadline`] is converted to an absolute instant at
//!   admission and enforced in two places: a job still *queued* past its
//!   deadline is skipped at pop and resolves
//!   [`JobStatus::Expired`](crate::JobStatus) without ever running; a job
//!   *in flight* past its deadline stops cooperatively at the next ADMM
//!   iteration boundary;
//! * cancellation follows the same two-stage semantics (removed from the
//!   queue, or stopped at an iteration boundary with its memo entries kept
//!   published);
//! * [`RuntimeStats::deadline`](crate::RuntimeStats) aggregates met/missed
//!   counts and slack percentiles across all decided jobs.

use crate::handle::JobHandle;
use crate::job::{Priority, ReconJob};
use crate::queue::AdmissionError;
use crate::retry::RetryPolicy;
use crate::runtime::{Runtime, RuntimeConfig};
use crate::stats::RuntimeStats;
use mlr_core::MlrConfig;
use mlr_memo::ShardedMemoDb;
use mlr_telemetry::CounterId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A completion deadline, expressed as a budget relative to admission time
/// (the natural way a beamline operator states it: "I need this before the
/// next scan, in 90 seconds").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` after the moment of admission.
    pub fn within(budget: Duration) -> Self {
        Self { budget }
    }

    /// A deadline `seconds` (fractional allowed) after admission.
    pub fn within_seconds(seconds: f64) -> Self {
        Self {
            budget: Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    /// The relative budget.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    pub(crate) fn starting_now(&self) -> Instant {
        Instant::now() + self.budget // mlr-check: allow(wall-clock) — serving deadline: budget is anchored to wall clock by design
    }
}

/// One serving request: a named pipeline configuration plus scheduling
/// priority and an optional completion deadline.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Human-readable name, used in reports.
    pub name: String,
    /// Full pipeline configuration (problem, ADMM, memoization, chunking).
    pub config: MlrConfig,
    /// Scheduling priority.
    pub priority: Priority,
    /// Optional completion deadline, relative to admission.
    pub deadline: Option<Deadline>,
}

impl ServeRequest {
    /// A normal-priority request without a deadline.
    pub fn new(name: impl Into<String>, config: MlrConfig) -> Self {
        Self {
            name: name.into(),
            config,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the completion deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    fn into_parts(self) -> (ReconJob, Option<Deadline>) {
        (
            ReconJob::new(self.name, self.config).with_priority(self.priority),
            self.deadline,
        )
    }
}

/// The deadline-aware serving front-end: request/response submission with
/// job cancellation over a [`Runtime`].
///
/// ```
/// use mlr_core::MlrConfig;
/// use mlr_runtime::{RuntimeConfig, ServeFront, ServeRequest};
///
/// let config = MlrConfig::quick(12, 8).with_iterations(2);
/// let front = ServeFront::new(RuntimeConfig {
///     workers: 1,
///     ..RuntimeConfig::matching(&config)
/// });
/// let report = front
///     .submit(ServeRequest::new("demo", config))
///     .expect("queue has room")
///     .wait_report()
///     .expect("job completes");
/// assert_eq!(report.loss.len(), 2);
/// let stats = front.shutdown();
/// assert_eq!(stats.completed, 1);
/// ```
pub struct ServeFront {
    runtime: Runtime,
}

impl ServeFront {
    /// Starts a front-end over a fresh runtime (and a fresh shared store).
    pub fn new(config: RuntimeConfig) -> Self {
        Self {
            runtime: Runtime::new(config),
        }
    }

    /// Starts a front-end over a runtime sharing an existing store.
    pub fn with_store(config: RuntimeConfig, store: Arc<ShardedMemoDb>) -> Self {
        Self {
            runtime: Runtime::with_store(config, store),
        }
    }

    /// Wraps an already-running runtime.
    pub fn over(runtime: Runtime) -> Self {
        Self { runtime }
    }

    /// The runtime underneath (store, governor, pressure, plain submits).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The runtime's telemetry recorder (disabled unless
    /// [`RuntimeConfig::telemetry`] was set).
    pub fn telemetry(&self) -> &mlr_telemetry::Telemetry {
        self.runtime.telemetry()
    }

    /// Non-blocking submission with admission control; the request's
    /// deadline (if any) starts counting now.
    pub fn submit(&self, request: ServeRequest) -> Result<JobHandle, AdmissionError> {
        let (job, deadline) = request.into_parts();
        self.runtime
            .admit(job, deadline.map(|d| d.starting_now()), false)
    }

    /// Blocking submission: applies backpressure to the producer until a
    /// queue slot frees up. Note that a deadline keeps counting while the
    /// producer is parked — a request that waited too long for admission
    /// can expire in the queue like any other.
    pub fn submit_blocking(&self, request: ServeRequest) -> Result<JobHandle, AdmissionError> {
        let (job, deadline) = request.into_parts();
        self.runtime
            .admit(job, deadline.map(|d| d.starting_now()), true)
    }

    /// Submission with bounded, deterministic retry: a *retryable* rejection
    /// ([`AdmissionError::QueueFull`] / [`AdmissionError::StorePressure`])
    /// is re-attempted up to `policy.max_attempts` times total, waiting
    /// `policy`'s seeded-jitter exponential backoff between attempts. A
    /// non-retryable rejection ([`AdmissionError::ShuttingDown`]) returns
    /// immediately, and the final attempt's error is returned verbatim when
    /// the budget runs out. Each re-attempt is counted in the telemetry's
    /// `retry_attempts`. The request's deadline (if any) starts counting at
    /// the attempt that is finally *admitted*, not at the first rejection —
    /// backoff never silently eats a job's deadline budget.
    pub fn submit_with_retry(
        &self,
        request: ServeRequest,
        policy: &RetryPolicy,
    ) -> Result<JobHandle, AdmissionError> {
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match self.submit(request.clone()) {
                Ok(handle) => return Ok(handle),
                Err(e) if e.is_retryable() && attempt < attempts => {
                    self.telemetry().count(CounterId::RetryAttempts, 1);
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// A snapshot of the runtime statistics (including deadline slack
    /// percentiles and cancelled/expired counts).
    pub fn stats(&self) -> RuntimeStats {
        self.runtime.stats()
    }

    /// Enters drain mode: rejects new requests, keeps serving admitted ones.
    pub fn close(&self) {
        self.runtime.close();
    }

    /// Drains admitted jobs, stops the workers, returns final statistics.
    pub fn shutdown(self) -> RuntimeStats {
        self.runtime.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_budget_roundtrip() {
        let d = Deadline::within_seconds(1.5);
        assert_eq!(d.budget(), Duration::from_millis(1500));
        // Negative budgets clamp to an immediately-due deadline.
        assert_eq!(Deadline::within_seconds(-3.0).budget(), Duration::ZERO);
        let at = d.starting_now();
        assert!(at > Instant::now());
    }

    #[test]
    fn retry_bounds_attempts_and_counts_them() {
        use mlr_memo::CapacityBudget;
        // A one-entry budget saturates the store after the first job, and
        // pressure never drains on its own — a deterministic, race-free
        // retryable rejection for every later attempt.
        let config = MlrConfig::quick(12, 8)
            .with_iterations(4)
            .with_memo_budget(CapacityBudget::entries(1));
        let front = ServeFront::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            admission_max_pressure: Some(0.5),
            telemetry: true,
            ..RuntimeConfig::matching(&config)
        });
        let fill = front
            .submit(ServeRequest::new("fill", config))
            .expect("empty queue admits");
        assert!(fill.wait().is_completed());
        let policy = RetryPolicy::new(3)
            .with_seed(9)
            .with_tick(Duration::from_micros(50));
        match front.submit_with_retry(ServeRequest::new("turned-away", config), &policy) {
            Err(AdmissionError::StorePressure { pressure, limit }) => assert!(pressure > limit),
            Err(e) => panic!("expected StorePressure after retries, got {e}"),
            Ok(_) => panic!("expected StorePressure after retries, got admission"),
        }
        // 3 attempts total = 2 re-attempts counted.
        let snap = front.telemetry().snapshot().expect("telemetry enabled");
        assert_eq!(snap.metrics.counter(CounterId::RetryAttempts), 2);
        let _ = front.shutdown();
    }

    #[test]
    fn non_retryable_rejections_return_without_retrying() {
        let config = MlrConfig::quick(12, 8).with_iterations(2);
        let front = ServeFront::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            telemetry: true,
            ..RuntimeConfig::matching(&config)
        });
        front.close();
        let policy = RetryPolicy::new(8).with_tick(Duration::from_micros(50));
        match front.submit_with_retry(ServeRequest::new("late", config), &policy) {
            Err(AdmissionError::ShuttingDown) => {}
            Err(e) => panic!("expected immediate ShuttingDown, got {e}"),
            Ok(_) => panic!("expected immediate ShuttingDown, got admission"),
        }
        let snap = front.telemetry().snapshot().expect("telemetry enabled");
        assert_eq!(
            snap.metrics.counter(CounterId::RetryAttempts),
            0,
            "a non-retryable rejection must never be re-attempted"
        );
        let _ = front.shutdown();
    }

    #[test]
    fn request_builder_carries_everything() {
        let req = ServeRequest::new("preview", MlrConfig::quick(12, 8))
            .with_priority(Priority::Interactive)
            .with_deadline(Deadline::within(Duration::from_secs(30)));
        assert_eq!(req.name, "preview");
        assert_eq!(req.priority, Priority::Interactive);
        let (job, deadline) = req.into_parts();
        assert_eq!(job.priority, Priority::Interactive);
        assert_eq!(deadline.unwrap().budget(), Duration::from_secs(30));
    }
}
