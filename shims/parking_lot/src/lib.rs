//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync::Mutex`/`RwLock`/`Condvar` with parking_lot's
//! non-poisoning API: `lock()`/`read()`/`write()` return guards directly, a
//! panic while a lock is held does not poison it for later users (the
//! underlying std poison error is unwrapped into the inner guard), and
//! [`Condvar`] waits on a `&mut MutexGuard` instead of consuming it.
//!
//! # The `lockcheck` sanitizer
//!
//! Because every lock in the workspace goes through this shim (clippy's
//! `disallowed-types` bans `std::sync::{Mutex, RwLock, Condvar}` in `crates/`),
//! the shim doubles as the instrumentation point for a lock-order sanitizer.
//! With `--features lockcheck` every acquisition is recorded:
//!
//! * each thread keeps a stack of the locks it currently holds;
//! * blocking on lock `B` while holding lock `A` adds the directed edge
//!   `A → B` to a global acquisition-order graph (remembering both
//!   acquisition backtraces the first time the edge is seen);
//! * an edge that closes a cycle — some other code path acquired the same
//!   locks in the opposite order — means the two paths can deadlock if their
//!   threads interleave, so the sanitizer panics immediately with the
//!   backtraces of both acquisitions, even though *this* run did not
//!   deadlock;
//! * re-entrant acquisition of a lock the thread already holds (guaranteed
//!   self-deadlock with the std primitives underneath) panics likewise.
//!
//! Successful `try_lock`s never block, so they add no graph edges, but the
//! lock they take still joins the held stack: blocking on another lock while
//! it is held is a real wait-while-holding edge. The checker is conservative
//! about `RwLock` readers (a read acquisition participates in ordering like
//! a write, because a queued writer can make reader/reader cycles deadlock
//! with std's `RwLock`), and it observes *potential* inversions, not actual
//! contention — single-threaded tests catch ordering bugs that would only
//! deadlock under production interleavings.
//!
//! The feature costs a backtrace capture per acquisition, so it is meant for
//! the dedicated `static-analysis` CI job (`cargo test --features
//! lockcheck`), never for benchmarking builds. [`lockcheck_enabled`] lets
//! harnesses with allocation-budget assertions relax them under the
//! sanitizer (backtrace capture allocates).

use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};
use std::time::{Duration, Instant};

#[cfg(feature = "lockcheck")]
mod lockcheck;

/// Whether the lock-order sanitizer is compiled in.
///
/// Allocation-budget assertions (`mlr_bench::no_alloc_region!`) consult this
/// to relax themselves: under `lockcheck` every lock acquisition captures a
/// backtrace, which allocates, so "the hot path performs no allocator
/// traffic" is deliberately violated by the instrumentation itself.
pub const fn lockcheck_enabled() -> bool {
    cfg!(feature = "lockcheck")
}

/// A non-poisoning mutual-exclusion lock.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    tag: lockcheck::LockTag,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(feature = "lockcheck")]
            tag: lockcheck::LockTag::new(),
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lockcheck")]
        self.tag.blocking_acquire();
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard {
            #[cfg(feature = "lockcheck")]
            tag: &self.tag,
            inner: Some(guard),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(feature = "lockcheck")]
        self.tag.try_acquired();
        Some(MutexGuard {
            #[cfg(feature = "lockcheck")]
            tag: &self.tag,
            inner: Some(guard),
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// RAII guard of a [`Mutex`]; unlocks on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    tag: &'a lockcheck::LockTag,
    /// `None` only transiently inside [`Condvar`] waits, which hold the
    /// guard exclusively; every deref outside that window sees `Some`.
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("mutex guard active")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("mutex guard active")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None; // release the std guard first
        #[cfg(feature = "lockcheck")]
        self.tag.released();
    }
}

/// A non-poisoning reader-writer lock.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    tag: lockcheck::LockTag,
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(feature = "lockcheck")]
            tag: lockcheck::LockTag::new(),
            inner: StdRwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "lockcheck")]
        self.tag.blocking_acquire();
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RwLockReadGuard {
            #[cfg(feature = "lockcheck")]
            tag: &self.tag,
            inner: guard,
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "lockcheck")]
        self.tag.blocking_acquire();
        let guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        RwLockWriteGuard {
            #[cfg(feature = "lockcheck")]
            tag: &self.tag,
            inner: guard,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// RAII shared-read guard of an [`RwLock`]; unlocks on drop.
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    tag: &'a lockcheck::LockTag,
    inner: StdRwLockReadGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(feature = "lockcheck")]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.tag.released();
    }
}

/// RAII exclusive-write guard of an [`RwLock`]; unlocks on drop.
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    tag: &'a lockcheck::LockTag,
    inner: StdRwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "lockcheck")]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.tag.released();
    }
}

/// Whether a [`Condvar`] wait returned because its timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` when the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable in parking_lot's style: waits take the
/// [`MutexGuard`] by `&mut`, re-locking before they return, so the guard
/// binding stays valid across the wait.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: StdCondvar::new(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Atomically releases the guarded mutex and blocks until notified
    /// (spurious wakeups allowed — callers loop on their predicate), then
    /// re-acquires the mutex before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("mutex guard active");
        #[cfg(feature = "lockcheck")]
        guard.tag.released();
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        // The wait re-acquired the mutex while holding whatever else this
        // thread still holds — record that like any blocking acquisition.
        #[cfg(feature = "lockcheck")]
        guard.tag.blocking_acquire();
        guard.inner = Some(inner);
    }

    /// Like [`Condvar::wait`], but gives up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("mutex guard active");
        #[cfg(feature = "lockcheck")]
        guard.tag.released();
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "lockcheck")]
        guard.tag.blocking_acquire();
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Like [`Condvar::wait`], but gives up once `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        if timeout.is_zero() {
            return WaitTimeoutResult(true);
        }
        self.wait_for(guard, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(5);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().expect("uncontended"), 5);
    }

    // Re-entrant same-thread reads are exactly what lockcheck flags (they
    // deadlock behind a queued writer), so this test only runs unchecked;
    // the checked counterpart pinning the panic lives in `lockcheck::tests`.
    #[cfg(not(feature = "lockcheck"))]
    #[test]
    fn rwlock_many_readers() {
        let l = Arc::new(RwLock::new(7));
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 14);
        drop((a, b));
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn rwlock_concurrent_readers_across_threads() {
        let l = Arc::new(RwLock::new(7));
        let l2 = Arc::clone(&l);
        let got = {
            let _mine = l.read();
            std::thread::spawn(move || *l2.read())
                .join()
                .expect("reader")
        };
        assert_eq!(got, 7);
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: still lockable afterwards.
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn condvar_handshake() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        std::thread::sleep(Duration::from_millis(20));
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_one();
        }
        assert!(waiter.join().expect("waiter finishes"));
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let mut g = lock.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
        // The guard is locked again after the wait.
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn condvar_wait_until_past_deadline_returns_immediately() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let mut g = lock.lock();
        let res = cv.wait_until(&mut g, Instant::now() - Duration::from_millis(1));
        assert!(res.timed_out());
    }
}
