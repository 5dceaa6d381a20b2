//! Ticket-style job handles with typed terminal statuses.
//!
//! Every admitted submission gets a [`JobHandle`] backed by a shared ticket
//! (std `Mutex` + `Condvar` — no async runtime). The worker that finishes,
//! skips, or crashes the job resolves the ticket exactly once with a
//! [`JobStatus`]; the submitter observes it through `try_wait` /
//! `wait_timeout` / `wait`, and can request cancellation at any time with
//! [`JobHandle::cancel`]. This replaces the old bare `Sender<JobReport>`
//! protocol, where a panicked job or torn-down runtime surfaced to the
//! submitter as an undiagnosable channel `RecvError`.
//!
//! ```text
//!             submit                    pop                resolve(once)
//!   Runtime ───────► ticket: Queued ────► Running ───────► Done
//!                        │                  │                with one of
//!                        │ cancel()         │ cancel()       Completed(report)
//!                        ▼                  ▼                Failed{error}
//!                 removed from queue   token seen at         Cancelled{..}
//!                 → Cancelled(queued)  iteration boundary    Expired{..}
//!                                      → Cancelled(running)
//! ```

use crate::job::JobReport;
use crate::queue::JobQueue;
use crate::runtime::Counters;
use mlr_core::CancelToken;
use mlr_memo::JobId;
use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting in the queue.
    Queued,
    /// Picked up by a worker and executing.
    Running,
    /// Reached a terminal [`JobStatus`].
    Done,
}

/// The typed terminal status of a job — what a [`JobHandle`] resolves to.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// The job ran all its iterations; the full report is attached. Behind
    /// an `Arc` so the clones handed out by `try_wait`/`wait_timeout` are a
    /// refcount bump, not a copy of the reconstruction volume (which can be
    /// hundreds of MB at paper scale) under the ticket mutex.
    Completed(Arc<JobReport>),
    /// The job panicked while running (e.g. a bad configuration asserting
    /// deep in the pipeline), or was in flight when its worker died. The
    /// pool survived either way; this is the panic message.
    Failed {
        /// The panic payload, stringified.
        error: String,
        /// Whether resubmitting the same job could plausibly succeed:
        /// `false` for a panic inside the job itself (a bad configuration
        /// fails the same way every time), `true` when the job was the
        /// casualty of a worker death and was never at fault.
        retryable: bool,
    },
    /// The job was cancelled: either removed from the queue before any
    /// worker picked it up (`while_running == false`, it never executed), or
    /// stopped cooperatively at an ADMM iteration boundary
    /// (`while_running == true`; the iterations it did run published their
    /// memo entries for every other tenant).
    Cancelled {
        /// `true` when the job had already started executing.
        while_running: bool,
        /// Outer ADMM iterations that ran to completion before the stop.
        completed_iterations: usize,
    },
    /// The job's deadline passed: either while still queued (it is skipped
    /// at pop and never runs) or mid-run (it stops at the next iteration
    /// boundary).
    Expired {
        /// `true` when the deadline fired mid-run rather than in the queue.
        while_running: bool,
        /// How far past the deadline the job was when it was resolved.
        late_seconds: f64,
        /// Outer ADMM iterations that ran to completion before the stop.
        completed_iterations: usize,
    },
}

impl JobStatus {
    /// Whether the job ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobStatus::Completed(_))
    }

    /// Whether the job ended cancelled.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, JobStatus::Cancelled { .. })
    }

    /// Whether the job ended past its deadline.
    pub fn is_expired(&self) -> bool {
        matches!(self, JobStatus::Expired { .. })
    }

    /// The completed report, if any.
    pub fn report(&self) -> Option<&JobReport> {
        match self {
            JobStatus::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the status and returns the completed report, if any
    /// (cloning only when another clone of the status is still alive).
    pub fn into_report(self) -> Option<JobReport> {
        match self {
            JobStatus::Completed(r) => Some(Arc::try_unwrap(r).unwrap_or_else(|r| (*r).clone())),
            _ => None,
        }
    }

    /// Short label for logs and tables.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Completed(_) => "completed",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Cancelled { .. } => "cancelled",
            JobStatus::Expired { .. } => "expired",
        }
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobStatus::Completed(r) => write!(f, "completed in {:.3}s", r.run_seconds),
            JobStatus::Failed { error, retryable } => {
                let tag = if *retryable { " (retryable)" } else { "" };
                write!(f, "failed{tag}: {error}")
            }
            JobStatus::Cancelled {
                while_running,
                completed_iterations,
            } => write!(
                f,
                "cancelled {} ({completed_iterations} iterations ran)",
                if *while_running {
                    "mid-run"
                } else {
                    "while queued"
                },
            ),
            JobStatus::Expired {
                while_running,
                late_seconds,
                ..
            } => write!(
                f,
                "deadline expired {} ({late_seconds:.3}s late)",
                if *while_running {
                    "mid-run"
                } else {
                    "in the queue"
                },
            ),
        }
    }
}

const PHASE_QUEUED: u8 = 0;
const PHASE_RUNNING: u8 = 1;
const PHASE_DONE: u8 = 2;

/// The shared state behind a [`JobHandle`]: resolved exactly once with a
/// terminal status, plus the cancellation token the solver polls.
pub(crate) struct Ticket {
    status: Mutex<Option<JobStatus>>,
    done: Condvar,
    phase: AtomicU8,
    pub(crate) token: CancelToken,
}

impl Ticket {
    pub(crate) fn new(token: CancelToken) -> Self {
        Self {
            status: Mutex::new(None),
            done: Condvar::new(),
            phase: AtomicU8::new(PHASE_QUEUED),
            token,
        }
    }

    pub(crate) fn phase(&self) -> JobPhase {
        match self.phase.load(Ordering::Acquire) {
            PHASE_QUEUED => JobPhase::Queued,
            PHASE_RUNNING => JobPhase::Running,
            _ => JobPhase::Done,
        }
    }

    /// Marks the job as executing (workers call this right before running).
    pub(crate) fn set_running(&self) {
        // Never move backwards out of Done.
        let _ = self.phase.compare_exchange(
            PHASE_QUEUED,
            PHASE_RUNNING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Resolves the ticket with a terminal status. Idempotent: only the
    /// first resolution sticks (cancel racing a worker is harmless).
    pub(crate) fn resolve(&self, status: JobStatus) -> bool {
        let mut slot = self.status.lock();
        if slot.is_some() {
            return false;
        }
        *slot = Some(status);
        self.phase.store(PHASE_DONE, Ordering::Release);
        drop(slot);
        self.done.notify_all();
        true
    }
}

/// Ticket-style handle to a submitted job.
///
/// The handle never panics on a crashed job — a panic surfaces as
/// [`JobStatus::Failed`], cancellation as [`JobStatus::Cancelled`], a missed
/// deadline as [`JobStatus::Expired`]. Dropping the handle does not cancel
/// the job: it still runs and its memo entries still benefit every other
/// tenant of the shared store.
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) name: String,
    pub(crate) ticket: Arc<Ticket>,
    pub(crate) queue: Arc<JobQueue>,
    pub(crate) counters: Arc<Counters>,
}

impl JobHandle {
    /// The runtime-assigned job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The absolute deadline this job was admitted with, if any (read from
    /// the cancel token — the single source of truth the queue-skip check
    /// and the solver's mid-run expiry check consult too).
    pub fn deadline(&self) -> Option<Instant> {
        self.ticket.token.deadline()
    }

    /// Where the job currently is: queued, running, or done.
    pub fn phase(&self) -> JobPhase {
        self.ticket.phase()
    }

    /// Non-blocking poll: the terminal status if the job is done, else
    /// `None`. The handle stays usable.
    pub fn try_wait(&self) -> Option<JobStatus> {
        self.ticket.status.lock().clone()
    }

    /// Blocks up to `timeout` for the terminal status; `None` on timeout.
    /// The handle stays usable.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobStatus> {
        #[expect(clippy::disallowed_methods, reason = "serving deadline: wall timeout")]
        let deadline = Instant::now() + timeout;
        let mut slot = self.ticket.status.lock();
        loop {
            if let Some(status) = slot.as_ref() {
                return Some(status.clone());
            }
            if self.ticket.done.wait_until(&mut slot, deadline).timed_out() {
                // One final check: a resolution racing the timeout wins.
                return slot.clone();
            }
        }
    }

    /// Blocks until the job reaches a terminal status and returns it.
    pub fn wait(self) -> JobStatus {
        let mut slot = self.ticket.status.lock();
        loop {
            if let Some(status) = slot.take() {
                return status;
            }
            self.ticket.done.wait(&mut slot);
        }
    }

    /// Convenience: blocks for the terminal status and unwraps the report of
    /// a completed job (`None` when the job failed / was cancelled /
    /// expired).
    pub fn wait_report(self) -> Option<JobReport> {
        self.wait().into_report()
    }

    /// Requests cancellation.
    ///
    /// * Still queued → the entry is removed from the queue on the spot (the
    ///   slot frees immediately for backpressured producers) and the ticket
    ///   resolves `Cancelled { while_running: false }`: the job never runs.
    /// * Running → the cancel token trips; the solver stops at the next ADMM
    ///   iteration boundary and the ticket resolves
    ///   `Cancelled { while_running: true }`. Entries memoized by the
    ///   iterations that did run stay published for other tenants.
    /// * Already terminal → no effect.
    ///
    /// Returns `true` when the request was registered before the job reached
    /// a terminal status (best-effort for running jobs: a job in its final
    /// iteration may still complete).
    pub fn cancel(&self) -> bool {
        if self.ticket.phase() == JobPhase::Done {
            return false;
        }
        self.ticket.token.cancel();
        if let Some(removed) = self.queue.remove(self.id) {
            // Removed before any worker picked it up: resolve right here.
            let status = JobStatus::Cancelled {
                while_running: false,
                completed_iterations: 0,
            };
            self.counters.resolve(self.id, &removed.ticket, status);
            return true;
        }
        self.ticket.phase() != JobPhase::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_resolves_exactly_once() {
        let t = Ticket::new(CancelToken::new());
        assert_eq!(t.phase(), JobPhase::Queued);
        t.set_running();
        assert_eq!(t.phase(), JobPhase::Running);
        assert!(t.resolve(JobStatus::Failed {
            error: "first".into(),
            retryable: false,
        }));
        assert!(!t.resolve(JobStatus::Cancelled {
            while_running: true,
            completed_iterations: 3
        }));
        assert_eq!(t.phase(), JobPhase::Done);
        let slot = t.status.lock();
        match slot.as_ref() {
            Some(JobStatus::Failed { error, .. }) => assert_eq!(error, "first"),
            other => panic!("first resolution must stick, got {other:?}"),
        }
    }

    #[test]
    fn set_running_cannot_resurrect_a_done_ticket() {
        let t = Ticket::new(CancelToken::new());
        t.resolve(JobStatus::Cancelled {
            while_running: false,
            completed_iterations: 0,
        });
        t.set_running();
        assert_eq!(t.phase(), JobPhase::Done);
    }

    #[test]
    fn status_predicates() {
        let completed_like = JobStatus::Failed {
            error: "x".into(),
            retryable: false,
        };
        assert!(matches!(completed_like, JobStatus::Failed { .. }));
        assert!(!completed_like.is_completed());
        assert!(completed_like.report().is_none());
        assert!(!format!("{completed_like}").contains("retryable"));
        let casualty = JobStatus::Failed {
            error: "worker died".into(),
            retryable: true,
        };
        assert!(format!("{casualty}").contains("retryable"));
        let cancelled = JobStatus::Cancelled {
            while_running: false,
            completed_iterations: 0,
        };
        assert!(cancelled.is_cancelled());
        assert_eq!(cancelled.label(), "cancelled");
        let expired = JobStatus::Expired {
            while_running: true,
            late_seconds: 0.5,
            completed_iterations: 2,
        };
        assert!(expired.is_expired());
        assert!(format!("{expired}").contains("mid-run"));
    }
}
