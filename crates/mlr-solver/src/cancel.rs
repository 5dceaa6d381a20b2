//! Cooperative cancellation for the ADMM driver.
//!
//! A [`CancelToken`] is shared between a submitter (who may request
//! cancellation at any time) and the solver (which polls it at iteration
//! boundaries — the only points where stopping leaves every ADMM variable in
//! a consistent state). The token optionally carries a deadline: a run that
//! is still going when the deadline passes stops with
//! [`StopCause::DeadlineExpired`] at the next boundary.
//!
//! Stopping is *cooperative and clean*: the solver breaks out of the outer
//! loop, still calls the executor's `finish` hook (a memoizing executor's
//! entries are published as they are inserted, so they stay available to
//! other tenants), and reports the cause in `AdmmResult::stopped`. A token that is never
//! cancelled and carries no deadline changes nothing — the iteration
//! sequence, and therefore the reconstruction, is bit-identical to a run
//! without a token.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a solver run stopped before completing its configured iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The submitter requested cancellation.
    Cancelled,
    /// The token's deadline passed while the run was in flight.
    DeadlineExpired,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Fixed at construction; `None` means no deadline.
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle checked by the solver at iteration
/// boundaries. Cancellation wins over deadline expiry when both apply.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that never stops the run on its own (cancel it explicitly).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally stops the run once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation: the run stops at the next iteration boundary.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The deadline this token carries, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// What the solver polls at each iteration boundary.
    #[expect(clippy::disallowed_methods, reason = "serving deadline: wall expiry")]
    pub fn should_stop(&self) -> Option<StopCause> {
        if self.is_cancelled() {
            return Some(StopCause::Cancelled);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(StopCause::DeadlineExpired),
            _ => None,
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests set wall deadlines")]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_never_stops() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.should_stop(), None);
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn cancel_is_visible_through_clones() {
        let t = CancelToken::new();
        let seen_by_solver = t.clone();
        t.cancel();
        assert_eq!(seen_by_solver.should_stop(), Some(StopCause::Cancelled));
    }

    #[test]
    fn past_deadline_expires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.should_stop(), Some(StopCause::DeadlineExpired));
    }

    #[test]
    fn cancellation_wins_over_expiry() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.should_stop(), Some(StopCause::Cancelled));
    }

    #[test]
    fn future_deadline_does_not_stop() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(t.should_stop(), None);
    }
}
