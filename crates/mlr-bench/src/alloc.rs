//! A counting global allocator for the allocation gates.
//!
//! The zero-copy hot-path contract (`fig22_hotpath`) is not "the hit path is
//! fast on this machine" — that would be noise-gated — but "the hit path
//! performs (approximately) **no allocator traffic**", which is a
//! deterministic property of the code path and therefore CI-gateable. A
//! harness opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mlr_bench::alloc::CountingAllocator = CountingAllocator;
//! ```
//!
//! and brackets its measured region with [`snapshot`]: the delta of
//! `(allocations, bytes)` divided by the chunks processed is the
//! allocations-per-chunk figure the gate asserts on.
//!
//! The counters are **per thread**: a region measures what the thread that
//! opened it allocated, so sibling tests allocating concurrently under
//! `cargo test`'s parallel runner (or any other thread of the process)
//! cannot leak into it. The memo engine runs a batch's hit path on the
//! calling thread, which is what makes that the right scope. Counting is a
//! few thread-local `Cell` updates per `alloc`/`realloc`/`dealloc` —
//! cheap enough to leave on for the timing columns too (it perturbs hit and
//! miss paths equally).
//!
//! Beside the traffic counters each thread keeps its **live bytes**
//! (allocations minus frees) and their **peak**: [`reset_peak`] before a
//! region and [`peak_bytes`] after it give the most the region ever held
//! above its start — the memory ceiling of code that runs on one thread
//! (`RAYON_NUM_THREADS=1`). A block freed on another thread than the one
//! that allocated it moves both threads' live counts, so read them only
//! around single-threaded regions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator never allocates and never registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` against the calling thread. `try_with`
/// because the allocator also runs while a thread is being torn down.
#[inline]
fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Moves the calling thread's live bytes by `delta`, raising its peak.
#[inline]
fn grow(delta: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// System allocator wrapper counting every allocation and its size against
/// the allocating thread.
pub struct CountingAllocator;

// SAFETY: defers every operation to `System`; only counters are added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is fresh allocator traffic for the grown span; counting the
        // full new size keeps the gate conservative. Live bytes move by the
        // difference only.
        count(new_size);
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

/// The calling thread's `(allocations, bytes)` totals since it started.
pub fn snapshot() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get))
}

/// The calling thread's live bytes: what it allocated minus what it freed.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Starts a peak measurement on the calling thread: lowers its peak to its
/// live bytes and returns them.
pub fn reset_peak() -> i64 {
    let live = live_bytes();
    PEAK_BYTES.with(|peak| peak.set(live));
    live
}

/// The most live bytes the calling thread held since its last
/// [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK_BYTES.with(Cell::get)
}

/// Delta between two [`snapshot`]s as `(allocations, bytes)`.
pub fn delta(before: (u64, u64), after: (u64, u64)) -> (u64, u64) {
    (after.0 - before.0, after.1 - before.1)
}

/// Whether [`CountingAllocator`] is actually installed as the global
/// allocator of this process, detected once with a probe allocation (on
/// whichever thread asks first — installation is process-wide).
///
/// The counters only move when a harness has opted in with
/// `#[global_allocator]`; a library unit test running under the plain
/// system allocator sees a flat counter and must not assert on it.
pub fn counting_allocator_installed() -> bool {
    static INSTALLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *INSTALLED.get_or_init(|| {
        let before = snapshot();
        std::hint::black_box(vec![0u8; 64]);
        delta(before, snapshot()).0 > 0
    })
}

/// RAII bracket asserting an allocation budget over a region of code.
///
/// Created by [`enter`](AllocRegion::enter) (or the [`no_alloc_region!`](crate::no_alloc_region)
/// macro), closed by [`finish`](AllocRegion::finish) which returns the
/// `(allocations, bytes)` the calling thread performed inside the region
/// and panics when the allocation count exceeds the budget. Open and close a
/// region on the same thread. Dropping the guard without calling `finish`
/// still enforces the budget (unless the thread is already panicking).
///
/// Enforcement is automatically disarmed when
///
/// * the counting allocator is not installed (see
///   [`counting_allocator_installed`]) — the counters would read zero and
///   vacuously pass, so the guard reports but never asserts; or
/// * the `lockcheck` lock-order sanitizer is compiled in
///   (`parking_lot::lockcheck_enabled()`): lockcheck captures an
///   acquisition backtrace on every lock, which allocates freely and would
///   fail any honest budget.
#[must_use = "the budget is checked when the region is finished or dropped"]
pub struct AllocRegion {
    label: &'static str,
    max_allocs: u64,
    before: (u64, u64),
    enforced: bool,
    finished: bool,
}

impl AllocRegion {
    /// Opens a region allowing at most `max_allocs` allocations.
    pub fn enter(label: &'static str, max_allocs: u64) -> Self {
        let enforced = counting_allocator_installed() && !parking_lot::lockcheck_enabled();
        Self {
            label,
            max_allocs,
            before: snapshot(),
            enforced,
            finished: false,
        }
    }

    /// Whether this region will actually assert its budget.
    pub fn enforced(&self) -> bool {
        self.enforced
    }

    fn check(&self) -> (u64, u64) {
        let d = delta(self.before, snapshot());
        if self.enforced {
            assert!(
                d.0 <= self.max_allocs,
                "no_alloc_region '{}': {} allocations ({} bytes) exceed the budget of {}",
                self.label,
                d.0,
                d.1,
                self.max_allocs
            );
        }
        d
    }

    /// Closes the region, asserting the budget and returning the
    /// `(allocations, bytes)` delta.
    pub fn finish(mut self) -> (u64, u64) {
        self.finished = true;
        self.check()
    }
}

impl Drop for AllocRegion {
    fn drop(&mut self) {
        if !self.finished && !std::thread::panicking() {
            self.check();
        }
    }
}

/// Runs a block under an [`AllocRegion`] allocation budget.
///
/// ```ignore
/// let out = no_alloc_region!("steady hit window", 4 * chunks, {
///     drive(&exec, &inputs, &mut outputs, &compute, 4, steady)
/// });
/// ```
///
/// Evaluates to the block's value; panics if the block performs more than
/// the budgeted number of allocations (see [`AllocRegion`] for when
/// enforcement is disarmed).
#[macro_export]
macro_rules! no_alloc_region {
    ($label:expr, $max_allocs:expr, $body:expr) => {{
        let __region = $crate::alloc::AllocRegion::enter($label, $max_allocs);
        let __out = $body;
        __region.finish();
        __out
    }};
}
