//! Job descriptions and per-job results.

use mlr_core::MlrConfig;
use mlr_math::Array3;
use mlr_memo::{JobId, MemoStats};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Scheduling priority of a job. Higher priorities are popped first; jobs of
/// equal priority run in submission order (FIFO).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Priority {
    /// Background bulk reconstruction; yields to everything else.
    Batch,
    /// The default.
    #[default]
    Normal,
    /// Operator-in-the-loop work (e.g. alignment previews at the beamline).
    Interactive,
}

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

    #[expect(clippy::disallowed_methods, reason = "serving deadline: wall budget")]
    pub(crate) fn starting_now(&self) -> Instant {
        Instant::now() + self.budget
    }
}

/// One reconstruction job: a named pipeline configuration (which carries the
/// dataset spec — the runtime simulates the acquisition when the job runs)
/// plus a scheduling priority and an optional completion deadline.
#[derive(Debug, Clone)]
pub struct ReconJob {
    /// Human-readable name, used in reports.
    pub name: String,
    /// Full pipeline configuration (problem, ADMM, memoization, chunking).
    pub config: MlrConfig,
    /// Scheduling priority.
    pub priority: Priority,
    /// Optional completion deadline; it starts counting at submission.
    pub deadline: Option<Deadline>,
    /// Test hook: panic on the worker thread *outside* the per-job panic
    /// containment, simulating a worker death with this job in flight (the
    /// respawn path has no organic trigger — run_job panics are contained).
    pub(crate) planted_worker_panic: bool,
}

impl ReconJob {
    /// Creates a normal-priority job without a deadline.
    pub fn new(name: impl Into<String>, config: MlrConfig) -> Self {
        Self {
            name: name.into(),
            config,
            priority: Priority::Normal,
            deadline: None,
            planted_worker_panic: false,
        }
    }

    /// Sets the priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the completion deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Makes the worker that picks this job up die to a panic that escapes
    /// the per-job containment — the fault-injection trigger behind the
    /// worker-respawn tests. The job resolves
    /// [`Failed { retryable: true }`](crate::JobStatus::Failed) and the
    /// pool respawns the worker in place.
    #[doc(hidden)]
    pub fn with_planted_worker_panic(mut self) -> Self {
        self.planted_worker_panic = true;
        self
    }
}

/// The completed result of one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Runtime-assigned job id (also the provenance stamped on every memo
    /// entry this job inserted).
    pub job: JobId,
    /// Job name.
    pub name: String,
    /// The reconstructed volume.
    pub reconstruction: Array3<f64>,
    /// Per-iteration `(iteration, loss)` series.
    pub loss: Vec<(usize, f64)>,
    /// Memoization case statistics for this job's executor.
    pub memo: MemoStats,
    /// Fraction of memoizable FFT invocations this job avoided computing.
    pub avoided_fraction: f64,
    /// This job's compute-node cache hit rate.
    pub cache_hit_rate: f64,
    /// Time the job spent waiting in the queue.
    pub queue_seconds: f64,
    /// Time the job spent executing on a worker.
    pub run_seconds: f64,
}

/// Compact, serialisable summary of a [`JobReport`] (everything except the
/// volume), for experiment records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSummary {
    /// Job id.
    pub job: JobId,
    /// Job name.
    pub name: String,
    /// Final loss value.
    pub final_loss: f64,
    /// Fraction of memoizable FFT invocations avoided.
    pub avoided_fraction: f64,
    /// Compute-node cache hit rate.
    pub cache_hit_rate: f64,
    /// Queue latency in seconds.
    pub queue_seconds: f64,
    /// Execution time in seconds.
    pub run_seconds: f64,
}

impl JobReport {
    /// The serialisable summary of this report.
    pub fn summary(&self) -> JobSummary {
        JobSummary {
            job: self.job,
            name: self.name.clone(),
            final_loss: self.loss.last().map(|&(_, l)| l).unwrap_or(f64::NAN),
            avoided_fraction: self.avoided_fraction,
            cache_hit_rate: self.cache_hit_rate,
            queue_seconds: self.queue_seconds,
            run_seconds: self.run_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(Priority::Interactive > Priority::Normal);
        assert!(Priority::Normal > Priority::Batch);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn job_builder() {
        let job =
            ReconJob::new("sample-a", MlrConfig::quick(12, 8)).with_priority(Priority::Interactive);
        assert_eq!(job.name, "sample-a");
        assert_eq!(job.priority, Priority::Interactive);
    }
}
