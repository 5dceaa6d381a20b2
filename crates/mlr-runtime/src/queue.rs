//! The bounded priority job queue with admission control and removable,
//! deadline-tagged entries.
//!
//! Capacity is the backpressure mechanism: [`JobQueue::try_push`] rejects
//! when the queue is full (admission control — the caller is told to back
//! off), while [`JobQueue::push_blocking`] parks the producer until a worker
//! drains a slot. Jobs pop highest-priority-first; *within* a priority class
//! the order is earliest-deadline-first (deadline-tagged entries ahead of
//! untagged ones), FIFO among equals — so under load the runtime
//! spends its worker time on the requests that can still meet their
//! deadlines instead of expiring them behind older, slacker work.
//!
//! Two serving properties are layered on top:
//!
//! * **Ids are allocated inside admission.** A `JobId` is taken from the
//!   runtime's counter only once the entry is definitely admitted, so a
//!   rejected submission never consumes an id and the id sequence of
//!   admitted jobs stays dense (stats and entry provenance key off it).
//! * **Entries are removable.** A cancelled queued job is taken out of the
//!   heap on the spot by [`JobQueue::remove`] — its slot frees immediately
//!   for blocked producers and no worker ever picks it up. Entries also
//!   carry their absolute deadline so the pop side can skip expired jobs
//!   without running them.

use crate::handle::Ticket;
use crate::job::{Priority, ReconJob};
use mlr_memo::JobId;
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The queue is at capacity; retry later or use the blocking submit.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The runtime is shutting down and no longer accepts work.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(
                    f,
                    "job queue is at capacity ({capacity}); backpressure applied"
                )
            }
            AdmissionError::ShuttingDown => write!(f, "runtime is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A job admitted to the queue, with everything a worker needs to run it and
/// deliver its terminal status.
pub(crate) struct QueuedJob {
    pub(crate) id: JobId,
    pub(crate) job: ReconJob,
    pub(crate) enqueued: Instant,
    /// The single source of truth for cancellation *and* the absolute
    /// deadline is the ticket's token (`ticket.token.deadline()`): the pop
    /// side and the solver's mid-run expiry check read the same value.
    pub(crate) ticket: Arc<Ticket>,
    /// Deadline snapshot taken at admission (heap ordering must be stable,
    /// so the rank never re-reads the token).
    deadline: Option<Instant>,
    /// Tie-breaker: submission sequence number (FIFO within a priority and
    /// deadline).
    seq: u64,
}

/// Max-heap rank key of a queued entry: priority class, then earliest
/// deadline (deadline-tagged ahead of untagged), then FIFO sequence.
type Rank = (Priority, Reverse<(bool, Option<Instant>)>, Reverse<u64>);

impl QueuedJob {
    /// Max-heap rank: priority first; within a priority, earliest deadline
    /// first with deadline-tagged entries ahead of untagged ones (the
    /// `(is_none, deadline)` pair ascends from tagged-early to untagged, and
    /// `Reverse` flips it for the max-heap); FIFO among equals.
    fn rank(&self) -> Rank {
        (
            self.job.priority,
            Reverse((self.deadline.is_none(), self.deadline)),
            Reverse(self.seq),
        )
    }
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

struct Inner {
    heap: BinaryHeap<QueuedJob>,
    next_seq: u64,
    closed: bool,
}

/// The bounded priority queue.
pub(crate) struct JobQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.inner.lock().heap.len()
    }

    /// Admits under the lock: the id is allocated *here*, after every
    /// admission check has passed, so rejected submissions never consume one.
    fn admit(inner: &mut Inner, next_job: &AtomicU64, job: ReconJob, ticket: Arc<Ticket>) -> JobId {
        let id = next_job.fetch_add(1, Ordering::Relaxed);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let deadline = ticket.token.deadline();
        #[expect(clippy::disallowed_methods, reason = "decoration: queue latency")]
        inner.heap.push(QueuedJob {
            id,
            job,
            enqueued: Instant::now(),
            ticket,
            deadline,
            seq,
        });
        id
    }

    /// Non-blocking admission: rejects when full or closed. Returns the
    /// allocated job id on success.
    pub(crate) fn try_push(
        &self,
        next_job: &AtomicU64,
        job: ReconJob,
        ticket: Arc<Ticket>,
    ) -> Result<JobId, AdmissionError> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(AdmissionError::ShuttingDown);
        }
        if inner.heap.len() >= self.capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.capacity,
            });
        }
        let id = Self::admit(&mut inner, next_job, job, ticket);
        drop(inner);
        self.not_empty.notify_one();
        Ok(id)
    }

    /// Blocking admission: waits for a slot (backpressure on the producer).
    /// Returns the allocated job id on success.
    pub(crate) fn push_blocking(
        &self,
        next_job: &AtomicU64,
        job: ReconJob,
        ticket: Arc<Ticket>,
    ) -> Result<JobId, AdmissionError> {
        let mut inner = self.inner.lock();
        loop {
            if inner.closed {
                return Err(AdmissionError::ShuttingDown);
            }
            if inner.heap.len() < self.capacity {
                let id = Self::admit(&mut inner, next_job, job, ticket);
                drop(inner);
                self.not_empty.notify_one();
                return Ok(id);
            }
            self.not_full.wait(&mut inner);
        }
    }

    /// Blocks until a job is available (returning it) or the queue is closed
    /// and drained (returning `None`). Workers loop on this; the worker
    /// checks the popped entry's cancel token and deadline *before* running
    /// it, so cancelled/expired entries are reported, never executed.
    pub(crate) fn pop(&self) -> Option<QueuedJob> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(q) = inner.heap.pop() {
                drop(inner);
                self.not_full.notify_one();
                return Some(q);
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    /// Removes a still-queued entry by id (cancellation of a queued job).
    /// Returns the entry when it was found — the caller resolves its ticket
    /// — or `None` when a worker already popped it (or it never existed).
    /// The freed slot immediately re-admits a blocked producer.
    pub(crate) fn remove(&self, id: JobId) -> Option<QueuedJob> {
        let mut inner = self.inner.lock();
        // BinaryHeap has no targeted removal: rebuild without the entry.
        // Queues are bounded and small, so the O(n) rebuild is irrelevant
        // next to the seconds-long jobs the entries describe.
        let mut entries = std::mem::take(&mut inner.heap).into_vec();
        let found = entries
            .iter()
            .position(|q| q.id == id)
            .map(|at| entries.swap_remove(at));
        inner.heap = BinaryHeap::from(entries);
        let removed = found.is_some();
        drop(inner);
        if removed {
            self.not_full.notify_one();
        }
        found
    }

    /// Closes the queue: no further admissions; workers drain what remains
    /// and then see `None`.
    pub(crate) fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests drive threads, timeouts")]
mod tests {
    use super::*;
    use mlr_core::{CancelToken, MlrConfig};

    fn job(name: &str, priority: Priority) -> ReconJob {
        ReconJob::new(name, MlrConfig::quick(12, 8)).with_priority(priority)
    }

    fn ticket() -> Arc<Ticket> {
        Arc::new(Ticket::new(CancelToken::new()))
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let q = JobQueue::new(8);
        let ids = AtomicU64::new(1);
        q.try_push(&ids, job("batch-1", Priority::Batch), ticket())
            .unwrap();
        q.try_push(&ids, job("normal-1", Priority::Normal), ticket())
            .unwrap();
        q.try_push(&ids, job("interactive", Priority::Interactive), ticket())
            .unwrap();
        q.try_push(&ids, job("normal-2", Priority::Normal), ticket())
            .unwrap();
        let order: Vec<String> = (0..4).map(|_| q.pop().unwrap().job.name).collect();
        assert_eq!(order, ["interactive", "normal-1", "normal-2", "batch-1"]);
    }

    #[test]
    fn admission_control_rejects_when_full_without_consuming_ids() {
        let q = JobQueue::new(2);
        let ids = AtomicU64::new(1);
        assert_eq!(
            q.try_push(&ids, job("a", Priority::Normal), ticket()),
            Ok(1)
        );
        assert_eq!(
            q.try_push(&ids, job("b", Priority::Normal), ticket()),
            Ok(2)
        );
        match q.try_push(&ids, job("c", Priority::Normal), ticket()) {
            Err(AdmissionError::QueueFull { capacity: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // The rejection consumed no id; the next admitted job stays dense.
        let _ = q.pop().unwrap();
        assert_eq!(
            q.try_push(&ids, job("c", Priority::Normal), ticket()),
            Ok(3)
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn remove_takes_a_queued_entry_out() {
        let q = JobQueue::new(4);
        let ids = AtomicU64::new(1);
        let a = q
            .try_push(&ids, job("a", Priority::Normal), ticket())
            .unwrap();
        let b = q
            .try_push(&ids, job("b", Priority::Interactive), ticket())
            .unwrap();
        let removed = q.remove(b).expect("b is still queued");
        assert_eq!(removed.id, b);
        assert_eq!(removed.job.name, "b");
        // Removing again (or a never-admitted id) is a no-op.
        assert!(q.remove(b).is_none());
        assert!(q.remove(999).is_none());
        // The untouched entry still pops, in its original order.
        assert_eq!(q.pop().unwrap().id, a);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn remove_preserves_priority_order_of_the_rest() {
        let q = JobQueue::new(8);
        let ids = AtomicU64::new(1);
        q.try_push(&ids, job("batch", Priority::Batch), ticket())
            .unwrap();
        let victim = q
            .try_push(&ids, job("normal-1", Priority::Normal), ticket())
            .unwrap();
        q.try_push(&ids, job("normal-2", Priority::Normal), ticket())
            .unwrap();
        q.try_push(&ids, job("interactive", Priority::Interactive), ticket())
            .unwrap();
        q.remove(victim).expect("victim queued");
        let order: Vec<String> = (0..3).map(|_| q.pop().unwrap().job.name).collect();
        assert_eq!(order, ["interactive", "normal-2", "batch"]);
    }

    #[test]
    fn earliest_deadline_pops_first_within_a_priority() {
        let q = JobQueue::new(8);
        let ids = AtomicU64::new(1);
        let now = Instant::now();
        let with_deadline = |secs: u64| {
            Arc::new(Ticket::new(CancelToken::with_deadline(
                now + std::time::Duration::from_secs(secs),
            )))
        };
        // Submission order deliberately scrambles the deadline order.
        q.try_push(&ids, job("late", Priority::Normal), with_deadline(60))
            .unwrap();
        q.try_push(&ids, job("no-deadline-1", Priority::Normal), ticket())
            .unwrap();
        q.try_push(&ids, job("early", Priority::Normal), with_deadline(10))
            .unwrap();
        q.try_push(&ids, job("no-deadline-2", Priority::Normal), ticket())
            .unwrap();
        q.try_push(&ids, job("mid", Priority::Normal), with_deadline(30))
            .unwrap();
        let order: Vec<String> = (0..5).map(|_| q.pop().unwrap().job.name).collect();
        // EDF within the class; untagged entries follow, FIFO among
        // themselves.
        assert_eq!(
            order,
            ["early", "mid", "late", "no-deadline-1", "no-deadline-2"]
        );
    }

    #[test]
    fn priority_still_dominates_deadlines() {
        let q = JobQueue::new(4);
        let ids = AtomicU64::new(1);
        let soon = Instant::now() + std::time::Duration::from_secs(1);
        q.try_push(
            &ids,
            job("urgent-batch", Priority::Batch),
            Arc::new(Ticket::new(CancelToken::with_deadline(soon))),
        )
        .unwrap();
        q.try_push(
            &ids,
            job("relaxed-interactive", Priority::Interactive),
            ticket(),
        )
        .unwrap();
        // A tight deadline never promotes a job across priority classes.
        assert_eq!(q.pop().unwrap().job.name, "relaxed-interactive");
        assert_eq!(q.pop().unwrap().job.name, "urgent-batch");
    }

    #[test]
    fn deadlines_ride_along_with_entries() {
        let q = JobQueue::new(4);
        let ids = AtomicU64::new(1);
        let soon = Instant::now() + std::time::Duration::from_secs(30);
        let dl_ticket = Arc::new(Ticket::new(CancelToken::with_deadline(soon)));
        q.try_push(&ids, job("dl", Priority::Normal), dl_ticket)
            .unwrap();
        q.try_push(&ids, job("no-dl", Priority::Batch), ticket())
            .unwrap();
        assert_eq!(q.pop().unwrap().ticket.token.deadline(), Some(soon));
        assert_eq!(q.pop().unwrap().ticket.token.deadline(), None);
    }

    #[test]
    fn close_rejects_and_unblocks() {
        let q = Arc::new(JobQueue::new(2));
        let ids = AtomicU64::new(1);
        q.try_push(&ids, job("a", Priority::Normal), ticket())
            .unwrap();
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || {
            // Drains "a", then blocks until close.
            let first = q2.pop();
            let second = q2.pop();
            (first.is_some(), second.is_none())
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        assert_eq!(
            q.try_push(&ids, job("late", Priority::Normal), ticket()),
            Err(AdmissionError::ShuttingDown)
        );
        let (first_ok, second_none) = waiter.join().unwrap();
        assert!(first_ok && second_none);
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = Arc::new(JobQueue::new(1));
        let ids = Arc::new(AtomicU64::new(1));
        q.try_push(&ids, job("a", Priority::Normal), ticket())
            .unwrap();
        let q2 = Arc::clone(&q);
        let ids2 = Arc::clone(&ids);
        let producer = std::thread::spawn(move || {
            q2.push_blocking(&ids2, job("b", Priority::Normal), ticket())
                .unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Producer is parked on backpressure; free a slot.
        assert_eq!(q.pop().unwrap().job.name, "a");
        producer.join().unwrap();
        assert_eq!(q.pop().unwrap().job.name, "b");
    }

    #[test]
    fn remove_readmits_a_blocked_producer() {
        let q = Arc::new(JobQueue::new(1));
        let ids = Arc::new(AtomicU64::new(1));
        let victim = q
            .try_push(&ids, job("victim", Priority::Normal), ticket())
            .unwrap();
        let q2 = Arc::clone(&q);
        let ids2 = Arc::clone(&ids);
        let producer = std::thread::spawn(move || {
            q2.push_blocking(&ids2, job("waiter", Priority::Normal), ticket())
                .unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Cancelling the queued victim frees the slot for the producer.
        q.remove(victim).expect("victim queued");
        let waiter_id = producer.join().unwrap();
        assert_eq!(waiter_id, 2);
        assert_eq!(q.pop().unwrap().job.name, "waiter");
    }
}
