//! The runtime: a fixed worker pool multiplexing reconstruction jobs over
//! one shared memoization store.
//!
//! Every admitted job is tracked by a ticket (see [`crate::handle`]) that
//! resolves to a typed [`JobStatus`]. Workers check a popped entry's cancel
//! token and deadline *before* running it — a cancelled or expired queued
//! job is reported and skipped, never executed — and in-flight jobs stop
//! cooperatively at ADMM iteration boundaries through the same token.
#![expect(clippy::disallowed_methods, reason = "deadlines, latency, worker pool")]

use crate::handle::{JobHandle, JobStatus, Ticket};
use crate::job::{JobReport, ReconJob};
use crate::queue::{AdmissionError, JobQueue, QueuedJob};
use crate::stats::{DeadlineStats, RuntimeStats};
use mlr_core::{CancelToken, MlrPipeline, StopCause};
use mlr_memo::{JobId, MemoDb, MemoDbConfig, MemoStore};
use mlr_telemetry::{SignedHistogram, SpanKind, Telemetry};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queue capacity; submissions beyond it are rejected (admission
    /// control) or block (backpressure), depending on the submit call.
    pub queue_capacity: usize,
    /// Ignored (the store has one lock); kept for `examples/benchmark`.
    pub shards: usize,
    /// Shared store database configuration: its τ gates every tenant's
    /// reuse (store probe and compute-node cache), whatever the job's own.
    pub db: MemoDbConfig,
    /// Telemetry: lock-free stage histograms and per-job lifecycle spans.
    /// Counts are not telemetry: jobs are in [`RuntimeStats`], chunks in
    /// each job's `MemoStats`, whether this is on or off. Off by default —
    /// disabled telemetry is a no-op recorder whose call sites cost one
    /// branch each, so the hot path stays allocation-free and the memo
    /// engine reads no clock.
    pub telemetry: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
            queue_capacity: 32,
            shards: 1,
            db: MemoDbConfig::default(),
            telemetry: false,
        }
    }
}

impl RuntimeConfig {
    /// Gives the store a job configuration's τ and capacity budget as they
    /// are: matched to `pipeline.config()`, whose budget `MlrPipeline::new`
    /// bounds, a one-worker runtime reproduces its `run_memoized` bit for
    /// bit; a plain config's unbounded budget stays unbounded.
    pub fn matching(config: &mlr_core::MlrConfig) -> Self {
        Self {
            db: config.memo.db_config(),
            ..Default::default()
        }
    }
}

/// Signed slack of `deadline` seen from `at`: positive while there is time
/// left, negative once the deadline has passed.
pub(crate) fn slack_seconds(deadline: Instant, at: Instant) -> f64 {
    deadline.saturating_duration_since(at).as_secs_f64()
        - at.saturating_duration_since(deadline).as_secs_f64()
}

/// Deadline bookkeeping behind [`RuntimeStats::deadline`]: decided outcomes
/// plus the decided jobs' signed slack distribution. The distribution lives
/// in a fixed-bucket [`SignedHistogram`] (microsecond-resolution log₂
/// buckets), so the ledger is O(1) memory however many jobs are decided and
/// a stats snapshot never sorts a sample vector.
#[derive(Default)]
pub(crate) struct DeadlineLedger {
    pub(crate) submitted: u64,
    pub(crate) met: u64,
    pub(crate) missed: u64,
    pub(crate) slack: SignedHistogram,
}

#[derive(Default)]
pub(crate) struct Counters {
    /// Recorder shared with the workers and the memo engine; disabled by
    /// default, so the `note_*` hooks cost one branch each.
    pub(crate) telemetry: Telemetry,
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    /// Workers respawned in place after a panic escaped the per-job
    /// containment — the pool's capacity never shrinks on a worker death.
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) queue_ns_total: AtomicU64,
    /// Jobs whose queue latency landed in `queue_ns_total` — every popped
    /// entry that actually ran, whatever its terminal status — so the mean
    /// divides a matching sample set.
    pub(crate) queue_samples: AtomicU64,
    pub(crate) queue_ns_max: AtomicU64,
    pub(crate) busy_ns_total: AtomicU64,
    pub(crate) deadlines: Mutex<DeadlineLedger>,
}

impl Counters {
    /// Counts a rejected submission — every rejection path must land here so
    /// `RuntimeStats::rejected` never under-reports.
    pub(crate) fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one worker death + respawn, and resolves the job that was in
    /// flight on the dying worker (if any) as `Failed { retryable: true }`:
    /// the job was a casualty of the worker, not of its own configuration,
    /// so resubmitting it is sound.
    pub(crate) fn note_worker_restart(
        &self,
        casualty: Option<(JobId, Arc<Ticket>)>,
        error: String,
    ) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
        if let Some((id, ticket)) = casualty {
            let status = JobStatus::Failed {
                error,
                retryable: true,
            };
            self.resolve(id, &ticket, status);
        }
    }

    /// The one way a job ends: counts its terminal status (deadline outcome
    /// included), emits its terminal span and resolves its ticket. Every
    /// path calls it — a run's outcome, a worker death's casualty, and a job
    /// that never ran (cancelled by its handle or at pop, expired at pop) —
    /// so every admitted job's lifecycle ends in exactly one terminal span.
    pub(crate) fn resolve(&self, id: JobId, ticket: &Ticket, status: JobStatus) {
        let (kind, arg) = match &status {
            JobStatus::Completed(report) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                if let Some(at) = ticket.token.deadline() {
                    self.note_deadline_outcome(slack_seconds(at, Instant::now()));
                }
                (SpanKind::Completed, report.loss.len())
            }
            JobStatus::Failed { .. } => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                (SpanKind::Failed, 0)
            }
            JobStatus::Cancelled {
                completed_iterations,
                ..
            } => {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                (SpanKind::Cancelled, *completed_iterations)
            }
            JobStatus::Expired {
                late_seconds,
                completed_iterations,
                ..
            } => {
                self.note_expired(*late_seconds);
                (SpanKind::Expired, *completed_iterations)
            }
        };
        self.telemetry.span(id, kind, arg as u64);
        ticket.resolve(status);
    }

    /// An expired job (skipped in the queue or stopped mid-run): counted as
    /// a deadline miss with its (negative) slack sample.
    fn note_expired(&self, late_seconds: f64) {
        self.expired.fetch_add(1, Ordering::Relaxed);
        let mut ledger = self.deadlines.lock();
        ledger.missed += 1;
        ledger.slack.record_seconds(-late_seconds);
    }

    /// A completed job that carried a deadline: met when it finished with
    /// non-negative slack, missed otherwise (it ran to completion late).
    fn note_deadline_outcome(&self, slack_seconds: f64) {
        let mut ledger = self.deadlines.lock();
        if slack_seconds >= 0.0 {
            ledger.met += 1;
        } else {
            ledger.missed += 1;
        }
        ledger.slack.record_seconds(slack_seconds);
    }
}

/// The multi-tenant reconstruction runtime.
///
/// Jobs enter a bounded priority queue; a fixed pool of worker threads pops
/// them and runs the full memoized ADMM reconstruction, every executor
/// sharing one [`MemoDb`]. Chunk-level USFFT kernels inside a job
/// fan out through the operators' rayon plane loop, so the two
/// parallelism grains compose: jobs across workers, chunk kernels within a
/// job. A job's [`Deadline`](crate::Deadline) starts counting at
/// submission; every submission yields a [`JobHandle`].
///
/// ```
/// use mlr_core::MlrConfig;
/// use mlr_runtime::{Deadline, ReconJob, Runtime, RuntimeConfig};
/// use std::time::Duration;
///
/// let config = MlrConfig::quick(12, 8).with_iterations(2);
/// let rt = Runtime::new(RuntimeConfig {
///     workers: 1,
///     ..RuntimeConfig::matching(&config)
/// });
/// let job = ReconJob::new("demo", config)
///     .with_deadline(Deadline::within(Duration::from_secs(600)));
/// let report = rt
///     .submit(job)
///     .expect("queue has room")
///     .wait_report()
///     .expect("job completes");
/// assert_eq!(report.loss.len(), 2);
/// let stats = rt.shutdown();
/// assert_eq!((stats.completed, stats.deadline.met), (1, 1));
/// ```
pub struct Runtime {
    queue: Arc<JobQueue>,
    store: Arc<MemoDb>,
    counters: Arc<Counters>,
    workers: Vec<JoinHandle<()>>,
    worker_count: usize,
    next_job: AtomicU64,
    started: Instant,
}

impl Runtime {
    /// Starts a runtime with a fresh shared store.
    ///
    /// # Panics
    /// Panics when `config.workers` is zero.
    pub fn new(config: RuntimeConfig) -> Self {
        assert!(config.workers > 0, "worker count must be positive");
        let telemetry = if config.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let store = Arc::new(MemoDb::new(config.db));
        let queue = Arc::new(JobQueue::new(config.queue_capacity));
        let counters = Arc::new(Counters {
            telemetry,
            ..Counters::default()
        });
        #[expect(clippy::expect_used, reason = "startup: fail fast without a pool")]
        let workers = (0..config.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let store = Arc::clone(&store) as Arc<dyn MemoStore>;
                let counters = Arc::clone(&counters);
                std::thread::Builder::new()
                    .name(format!("mlr-worker-{i}"))
                    .spawn(move || {
                        // Graceful degradation: a panic that escapes the
                        // per-job containment kills one pass of the loop,
                        // not the pool slot. The in-flight job (tracked in
                        // the slot below) resolves `Failed { retryable }`,
                        // the restart is counted, and the same thread
                        // re-enters the worker loop — the pool's capacity
                        // never shrinks. A clean exit (queue closed and
                        // drained) ends the thread.
                        let inflight: Mutex<Option<(JobId, Arc<Ticket>)>> = Mutex::new(None);
                        loop {
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    worker_loop(&queue, &store, &counters, &inflight)
                                }));
                            match outcome {
                                Ok(()) => break,
                                Err(payload) => {
                                    let casualty = inflight.lock().take();
                                    counters.note_worker_restart(casualty, panic_message(payload));
                                }
                            }
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            queue,
            store,
            counters,
            workers,
            worker_count: config.workers,
            // Job 0 is reserved for standalone executors.
            next_job: AtomicU64::new(1),
            started: Instant::now(),
        }
    }

    /// The shared memo store.
    pub fn store(&self) -> &Arc<MemoDb> {
        &self.store
    }

    /// The runtime's telemetry recorder: disabled (a no-op handle) unless
    /// [`RuntimeConfig::telemetry`] was set. Snapshot it for stage
    /// histograms and lifecycle spans.
    pub fn telemetry(&self) -> &Telemetry {
        &self.counters.telemetry
    }

    /// The one admission path: every rejection — queue full or shutting
    /// down, blocking or not — is counted in [`RuntimeStats::rejected`], and
    /// the job id is allocated by the queue only *after* admission succeeds
    /// (rejected submissions never consume an id, keeping the admitted-id
    /// sequence dense). The job's deadline, if any, starts counting here.
    fn admit(&self, job: ReconJob, blocking: bool) -> Result<JobHandle, AdmissionError> {
        let name = job.name.clone();
        let deadline = job.deadline.map(|d| d.starting_now());
        // The token is the single source of truth for both cancellation and
        // the absolute deadline: queue-skip, mid-run expiry and the handle
        // all read it from here.
        let token = match deadline {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::new(),
        };
        let ticket = Arc::new(Ticket::new(token));
        // Count the deadline submission *before* the push: the instant the
        // entry is in the queue a worker may pop and decide it, and a stats
        // snapshot must never see more decided deadline jobs than submitted
        // ones. Rolled back below if admission fails.
        if deadline.is_some() {
            self.counters.deadlines.lock().submitted += 1;
        }
        let pushed = if blocking {
            self.queue
                .push_blocking(&self.next_job, job, Arc::clone(&ticket))
        } else {
            self.queue
                .try_push(&self.next_job, job, Arc::clone(&ticket))
        };
        match pushed {
            Ok(id) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .telemetry
                    .span(id, SpanKind::Admitted, u64::from(deadline.is_some()));
                Ok(JobHandle {
                    id,
                    name,
                    ticket,
                    queue: Arc::clone(&self.queue),
                    counters: Arc::clone(&self.counters),
                })
            }
            Err(e) => {
                if deadline.is_some() {
                    self.counters.deadlines.lock().submitted -= 1;
                }
                self.counters.note_rejected();
                Err(e)
            }
        }
    }

    /// Non-blocking submission with admission control: rejects with
    /// [`AdmissionError::QueueFull`] when the queue is at capacity. The
    /// job's deadline (if any) starts counting now.
    pub fn submit(&self, job: ReconJob) -> Result<JobHandle, AdmissionError> {
        self.admit(job, false)
    }

    /// Blocking submission: applies backpressure to the producer until a
    /// queue slot frees up. The job's deadline starts counting at the call
    /// and keeps counting while the producer is parked, so a job that
    /// waited too long for a slot can expire in the queue like any other.
    pub fn submit_blocking(&self, job: ReconJob) -> Result<JobHandle, AdmissionError> {
        self.admit(job, true)
    }

    /// A snapshot of the runtime statistics.
    pub fn stats(&self) -> RuntimeStats {
        let completed = self.counters.completed.load(Ordering::Relaxed);
        let failed = self.counters.failed.load(Ordering::Relaxed);
        let queue_samples = self.counters.queue_samples.load(Ordering::Relaxed);
        let queue_ns_total = self.counters.queue_ns_total.load(Ordering::Relaxed);
        let deadline = {
            let ledger = self.counters.deadlines.lock();
            DeadlineStats {
                submitted: ledger.submitted,
                met: ledger.met,
                missed: ledger.missed,
                slack_p50_seconds: ledger.slack.percentile_seconds(0.50),
                slack_p90_seconds: ledger.slack.percentile_seconds(0.90),
                slack_p99_seconds: ledger.slack.percentile_seconds(0.99),
            }
        };
        RuntimeStats {
            workers: self.worker_count,
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            completed,
            failed,
            worker_restarts: self.counters.worker_restarts.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            expired: self.counters.expired.load(Ordering::Relaxed),
            queued: self.queue.len(),
            wall_seconds: self.started.elapsed().as_secs_f64(),
            busy_seconds: self.counters.busy_ns_total.load(Ordering::Relaxed) as f64 * 1e-9,
            queue_seconds_mean: if queue_samples == 0 {
                0.0
            } else {
                queue_ns_total as f64 * 1e-9 / queue_samples as f64
            },
            queue_seconds_max: self.counters.queue_ns_max.load(Ordering::Relaxed) as f64 * 1e-9,
            store_pressure: self.store.pressure(),
            store: self.store.stats(),
            deadline,
        }
    }

    /// Drains the queue, stops the workers and returns the final statistics.
    /// Already-admitted jobs still run to completion.
    pub fn shutdown(mut self) -> RuntimeStats {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("job panicked").to_string()
}

fn worker_loop(
    queue: &JobQueue,
    store: &Arc<dyn MemoStore>,
    counters: &Counters,
    inflight: &Mutex<Option<(JobId, Arc<Ticket>)>>,
) {
    while let Some(QueuedJob {
        id,
        job,
        enqueued,
        ticket,
        ..
    }) = queue.pop()
    {
        // A job cancelled or expired while queued is resolved and skipped:
        // it never runs (and never touches the store).
        if let Some(status) = skipped_at_pop(&ticket) {
            counters.resolve(id, &ticket, status);
            continue;
        }
        // From here to resolution this job is the worker's in-flight slot:
        // if the worker dies before resolving it, the respawn path reads
        // the slot and fails the job over (resolve is idempotent, so a
        // race with a late resolution is harmless).
        *inflight.lock() = Some((id, Arc::clone(&ticket)));
        ticket.set_running();
        counters.telemetry.span(id, SpanKind::Running, 0);
        // Fault injection: die *outside* the per-job containment below with
        // the job still in flight — the only way to exercise the respawn
        // path, since organic job panics are caught around `run_job`.
        if job.planted_worker_panic {
            panic!("planted worker panic with job {id} in flight");
        }
        let queue_ns = enqueued.elapsed().as_nanos() as u64;
        let token = ticket.token.clone();
        // Contain per-job panics (bad configs assert deep in the pipeline):
        // one misbehaving tenant must not kill the worker and starve every
        // queued job behind it. The panicked job resolves `Failed`; the
        // worker lives on.
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(id, job, token, store, counters, queue_ns)
        }));
        let busy_ns = start.elapsed().as_nanos() as u64;
        counters.busy_ns_total.fetch_add(busy_ns, Ordering::Relaxed);
        // Queue-latency accounting lands together with its own sample count
        // (cancelled/expired mid-run jobs waited in the queue too), so the
        // mean always divides a matching sample set.
        counters
            .queue_ns_total
            .fetch_add(queue_ns, Ordering::Relaxed);
        counters.queue_samples.fetch_add(1, Ordering::Relaxed);
        counters.queue_ns_max.fetch_max(queue_ns, Ordering::Relaxed);
        let status = match outcome {
            Ok(status) => status,
            // A panic *inside* the job is deterministic (a bad configuration
            // asserts the same way every run): not retryable.
            Err(payload) => JobStatus::Failed {
                error: panic_message(payload),
                retryable: false,
            },
        };
        counters.resolve(id, &ticket, status);
        inflight.lock().take();
    }
}

/// The status of a popped job that must not run: cancelled while queued
/// (popped before its handle could remove it) or already past its deadline.
/// Cancellation wins over expiry, as everywhere else — a submitter-cancelled
/// job must not inflate the deadline-miss rate.
fn skipped_at_pop(ticket: &Ticket) -> Option<JobStatus> {
    if ticket.token.is_cancelled() {
        return Some(JobStatus::Cancelled {
            while_running: false,
            completed_iterations: 0,
        });
    }
    let at = ticket.token.deadline()?;
    let now = Instant::now();
    (now >= at).then(|| JobStatus::Expired {
        while_running: false,
        late_seconds: -slack_seconds(at, now),
        completed_iterations: 0,
    })
}

fn run_job(
    id: JobId,
    job: ReconJob,
    token: CancelToken,
    store: &Arc<dyn MemoStore>,
    counters: &Counters,
    queue_ns: u64,
) -> JobStatus {
    let start = Instant::now();
    let pipeline = MlrPipeline::new(job.config);
    let executor = pipeline
        .memo_executor(Arc::clone(store), id)
        .with_telemetry(counters.telemetry.clone());
    let (result, executor) = pipeline.run_with_executor(executor, &token);
    let busy_ns = start.elapsed().as_nanos() as u64;

    let stats = executor.stats();
    let completed_iterations = result.history.records().len();
    match result.stopped {
        Some(StopCause::Cancelled) => JobStatus::Cancelled {
            while_running: true,
            completed_iterations,
        },
        Some(StopCause::DeadlineExpired) => {
            let late = token
                .deadline()
                .map(|at| -slack_seconds(at, Instant::now()))
                .unwrap_or(0.0)
                .max(0.0);
            JobStatus::Expired {
                while_running: true,
                late_seconds: late,
                completed_iterations,
            }
        }
        None => JobStatus::Completed(Arc::new(JobReport {
            job: id,
            name: job.name,
            reconstruction: result.reconstruction,
            loss: result.history.loss_series(),
            avoided_fraction: stats.total().avoided_fraction(),
            memo: stats,
            cache_hit_rate: executor.cache_stats().hit_rate(),
            queue_seconds: queue_ns as f64 * 1e-9,
            run_seconds: busy_ns as f64 * 1e-9,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use mlr_core::MlrConfig;

    fn tiny_config() -> MlrConfig {
        MlrConfig::quick(12, 8).with_iterations(4)
    }

    #[test]
    fn single_job_runs_to_completion() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            ..RuntimeConfig::matching(&tiny_config())
        });
        let handle = rt.submit(ReconJob::new("solo", tiny_config())).unwrap();
        let report = handle.wait_report().expect("job completes");
        assert_eq!(report.job, 1);
        assert_eq!(report.name, "solo");
        assert_eq!(report.loss.len(), 4);
        assert!(report.run_seconds > 0.0);
        assert!(report
            .reconstruction
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.cancelled, 0);
        assert_eq!(stats.expired, 0);
        assert!(stats.store.queries > 0);
    }

    #[test]
    fn concurrent_jobs_share_the_store() {
        let config = tiny_config();
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            queue_capacity: 8,
            ..RuntimeConfig::matching(&config)
        });
        let handles: Vec<_> = (0..4)
            .map(|i| {
                rt.submit(ReconJob::new(format!("job-{i}"), config))
                    .unwrap()
            })
            .collect();
        let reports: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait_report().expect("job completes"))
            .collect();
        assert_eq!(reports.len(), 4);
        // Identical samples: later jobs must reuse earlier jobs' entries.
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 4);
        assert!(
            stats.store.cross_job_hits > 0,
            "no cross-job reuse despite identical samples: {:?}",
            stats.store
        );
        assert!(stats.cross_job_hit_rate() > 0.0);
        assert!(stats.utilisation() > 0.0);
    }

    #[test]
    fn admission_control_applies_backpressure() {
        // One worker, capacity-1 queue: flooding submissions must reject.
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 1,
            ..RuntimeConfig::matching(&tiny_config())
        });
        let mut handles = Vec::new();
        let mut rejected = 0usize;
        for i in 0..12 {
            match rt.submit(
                ReconJob::new(format!("flood-{i}"), tiny_config()).with_priority(Priority::Batch),
            ) {
                Ok(h) => handles.push(h),
                Err(AdmissionError::QueueFull { .. }) => rejected += 1,
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        assert!(rejected > 0, "capacity-1 queue never pushed back");
        for h in handles {
            let _ = h.wait();
        }
        let stats = rt.shutdown();
        assert_eq!(stats.rejected as usize, rejected);
        assert_eq!(stats.submitted + stats.rejected, 12);
    }

    #[test]
    fn rejected_submissions_do_not_leak_job_ids() {
        // One worker, capacity-1 queue: the first job is popped immediately,
        // the second fills the slot, and everything after rejects. Rejected
        // submissions must not consume ids — the next admitted job's id is
        // dense with the previous one.
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 1,
            ..RuntimeConfig::matching(&tiny_config())
        });
        let a = rt.submit(ReconJob::new("a", tiny_config())).unwrap();
        assert_eq!(a.id(), 1);
        let mut b = None;
        let mut rejections = 0;
        for _ in 0..16 {
            match rt.submit(ReconJob::new("b", tiny_config())) {
                Ok(h) => {
                    b = Some(h);
                    break;
                }
                Err(AdmissionError::QueueFull { .. }) => rejections += 1,
                Err(e) => panic!("unexpected admission error: {e}"),
            }
            // The worker may still be holding "a"; give it a moment.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let b = b.expect("one submission eventually admitted");
        assert_eq!(b.id(), 2, "rejected submissions consumed job ids");
        assert!(a.wait().is_completed());
        assert!(b.wait().is_completed());
        // Wait for b to leave the queue, then the next admit must be id 3.
        let c = loop {
            match rt.submit(ReconJob::new("c", tiny_config())) {
                Ok(h) => break h,
                Err(AdmissionError::QueueFull { .. }) => {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        };
        assert_eq!(c.id(), 3, "id sequence of admitted jobs must stay dense");
        let _ = c.wait();
        let stats = rt.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.rejected as usize, rejections);
    }

    #[test]
    fn panicking_job_resolves_failed_not_a_channel_error() {
        // An invalid configuration asserts deep inside the pipeline; the
        // worker must survive, keep serving the jobs queued behind it, and
        // the submitter must see a typed `Failed` status (not a bare
        // RecvError as in the old channel protocol).
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            ..RuntimeConfig::matching(&tiny_config())
        });
        let bad = rt
            .submit(ReconJob::new("bad", MlrConfig::quick(0, 0)))
            .unwrap();
        let good = rt.submit(ReconJob::new("good", tiny_config())).unwrap();
        match bad.wait() {
            JobStatus::Failed { error, retryable } => {
                assert!(!error.is_empty(), "panic message must be captured");
                assert!(!retryable, "a job-level panic is deterministic");
            }
            other => panic!("panicked job must resolve Failed, got {other:?}"),
        }
        let report = good.wait_report().expect("queued job must still run");
        assert_eq!(report.name, "good");
        let stats = rt.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        // The per-job containment caught the panic: no worker died.
        assert_eq!(stats.worker_restarts, 0);
    }

    #[test]
    fn worker_death_respawns_and_keeps_draining_a_full_queue() {
        // A panic that escapes the per-job containment must not shrink the
        // pool: the dying worker's in-flight job fails over as retryable,
        // the restart is counted, and the same pool slot keeps draining the
        // jobs queued behind it — a full queue never stalls.
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 8,
            ..RuntimeConfig::matching(&tiny_config())
        });
        let doomed = rt
            .submit(ReconJob::new("doomed-1", tiny_config()).with_planted_worker_panic())
            .unwrap();
        let survivors: Vec<_> = (0..3)
            .map(|i| {
                rt.submit(ReconJob::new(format!("survivor-{i}"), tiny_config()))
                    .unwrap()
            })
            .collect();
        let doomed_again = rt
            .submit(ReconJob::new("doomed-2", tiny_config()).with_planted_worker_panic())
            .unwrap();
        match doomed.wait() {
            JobStatus::Failed { error, retryable } => {
                assert!(error.contains("planted"), "unexpected panic: {error}");
                assert!(retryable, "a worker-death casualty is retryable");
            }
            other => panic!("casualty must resolve Failed, got {other:?}"),
        }
        assert!(matches!(
            doomed_again.wait(),
            JobStatus::Failed {
                retryable: true,
                ..
            }
        ));
        for h in survivors {
            let report = h.wait_report().expect("queued jobs must still run");
            assert!(report.name.starts_with("survivor-"));
        }
        let stats = rt.shutdown();
        assert_eq!(stats.worker_restarts, 2);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn shutdown_drains_admitted_jobs() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 8,
            ..RuntimeConfig::matching(&tiny_config())
        });
        let h1 = rt.submit(ReconJob::new("a", tiny_config())).unwrap();
        let h2 = rt.submit(ReconJob::new("b", tiny_config())).unwrap();
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(h1.wait_report().expect("drained").name, "a");
        assert_eq!(h2.wait_report().expect("drained").name, "b");
    }

    #[test]
    fn slack_ledger_is_bounded_and_tracks_percentiles() {
        // The ledger's memory is a fixed pair of histograms, however many
        // jobs are decided — no sample vector to cap or sort.
        assert!(std::mem::size_of::<DeadlineLedger>() < 2048);
        let c = Counters::default();
        for i in 0..10_000 {
            c.note_deadline_outcome(i as f64);
        }
        c.note_expired(50.0);
        let ledger = c.deadlines.lock();
        // Outcome counters keep the full history; so does the histogram's
        // sample count.
        assert_eq!(ledger.met, 10_000);
        assert_eq!(ledger.missed, 1);
        assert_eq!(ledger.slack.count(), 10_001);
        // Percentiles are monotone and live within the sampled range; the
        // bucket representative is a lower bound, so p99 of samples up to
        // ~10_000 s cannot exceed the largest sample.
        let p50 = ledger.slack.percentile_seconds(0.50);
        let p90 = ledger.slack.percentile_seconds(0.90);
        let p99 = ledger.slack.percentile_seconds(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p50 > 0.0 && p99 < 10_000.0);
        // The expiry landed as a negative sample: the distribution's floor
        // is negative (bucket representatives are magnitude lower bounds,
        // so it sits in (-50, 0)).
        let floor = ledger.slack.percentile_seconds(0.0);
        assert!(floor < 0.0 && floor > -50.0);
    }

    #[test]
    fn shutdown_time_rejections_are_counted_for_both_submit_paths() {
        // The old `submit_blocking` lost ShuttingDown rejections from
        // `RuntimeStats::rejected` (the `?` returned before the counter);
        // every rejection path must be visible in the stats.
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            ..RuntimeConfig::matching(&tiny_config())
        });
        // Drain mode, as `shutdown` enters it, with the runtime still here.
        rt.queue.close();
        assert!(matches!(
            rt.submit_blocking(ReconJob::new("late-blocking", tiny_config())),
            Err(AdmissionError::ShuttingDown)
        ));
        assert!(matches!(
            rt.submit(ReconJob::new("late", tiny_config())),
            Err(AdmissionError::ShuttingDown)
        ));
        let stats = rt.shutdown();
        assert_eq!(
            stats.rejected, 2,
            "shutdown-time rejections must be counted on both submit paths"
        );
        assert_eq!(stats.submitted, 0);
    }
}
