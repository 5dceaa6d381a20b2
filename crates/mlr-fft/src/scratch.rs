//! Reusable scratch arenas for the per-chunk FFT hot path.
//!
//! Every chunk-level transform used to allocate its working buffers afresh:
//! the Bluestein chirp product, the USFFT fine grids, the 2-D transpose
//! buffer, the per-plane column scratch. On the memoized hot path those
//! allocations dominate the constant factor of a hit (the FFT itself is
//! skipped, the allocator is not), and on the miss path they churn the
//! allocator once per chunk. A [`ScratchPool`] amortises them: buffers are
//! leased, used, and returned on drop, so after the first few transforms the
//! steady state performs **zero** allocations per call.
//!
//! The pool is a plain mutex-guarded free list. Concurrent callers (the
//! worker threads the `ConcurrencyGovernor` grants to a batch, or rayon's
//! plane-level fan-out) each pop their own buffer, so a pool's resident size
//! converges to the peak number of leases that were ever out at once — never
//! one buffer per chunk. That bound only means something if the pool is
//! shared by everything that leases from it in turn, so ownership follows
//! sharing:
//!
//! * an [`FftPlan`](crate::fft::FftPlan) owns its Bluestein scratch and a
//!   [`Fft2Batch`](crate::fft2d::Fft2Batch) its column buffers — one plan
//!   serves every plane;
//! * a [`Usfft1d`](crate::usfft::Usfft1d) owns its fine-grid pool — the
//!   operator has one vertical plan;
//! * a [`Usfft2d`](crate::usfft::Usfft2d) only *borrows* its fine-grid and
//!   column pools from the [`Usfft2dGrid`](crate::usfft::Usfft2dGrid) it is
//!   built on. The laminography operator builds one grid and hands it to all
//!   `h` per-detector-row plans, which share the same `nr1 × nr2`, so the
//!   operator parks at most one fine grid and one column per concurrently
//!   running plane transform — O(threads), not O(detector rows). A plan
//!   built on its own gets a private grid;
//! * the operator owns the gather/staging arena of its `F_u2D` stages.
//!
//! Reuse is invisible numerically: leases are either zero-filled
//! ([`ScratchPool::lease_zeroed`]) or handed out with unspecified contents
//! for callers that overwrite every element ([`ScratchPool::lease`]).

use mlr_math::Complex64;
use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};

/// A free list of reusable `Complex64` buffers.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<Vec<Complex64>>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently parked in the pool (diagnostics).
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }

    /// Bytes of storage held by the parked buffers (diagnostics).
    pub fn idle_bytes(&self) -> usize {
        let elems: usize = self.free.lock().iter().map(Vec::capacity).sum();
        elems * std::mem::size_of::<Complex64>()
    }

    /// Leases a buffer of exactly `len` elements with **unspecified**
    /// contents — for callers that overwrite every element (gather arenas,
    /// transpose targets). Returns the buffer to the pool on drop.
    pub fn lease(&self, len: usize) -> ScratchLease<'_> {
        let mut buf = self.pop();
        buf.resize(len, Complex64::ZERO);
        ScratchLease { pool: self, buf }
    }

    /// Leases a buffer of exactly `len` elements, zero-filled — for sparse
    /// writers (fine-grid spreading, zero-padded chirp products).
    pub fn lease_zeroed(&self, len: usize) -> ScratchLease<'_> {
        let mut buf = self.pop();
        // Emptied first, so `resize` writes every element exactly once.
        buf.clear();
        buf.resize(len, Complex64::ZERO);
        ScratchLease { pool: self, buf }
    }

    fn pop(&self) -> Vec<Complex64> {
        self.free.lock().pop().unwrap_or_default()
    }

    fn give_back(&self, buf: Vec<Complex64>) {
        self.free.lock().push(buf);
    }
}

/// A leased scratch buffer; dereferences to `[Complex64]` and returns its
/// storage to the owning [`ScratchPool`] on drop.
#[derive(Debug)]
pub struct ScratchLease<'a> {
    pool: &'a ScratchPool,
    buf: Vec<Complex64>,
}

impl Deref for ScratchLease<'_> {
    type Target = [Complex64];
    fn deref(&self) -> &[Complex64] {
        &self.buf
    }
}

impl DerefMut for ScratchLease<'_> {
    fn deref_mut(&mut self) -> &mut [Complex64] {
        &mut self.buf
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        self.pool.give_back(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_reuses_returned_buffers() {
        let pool = ScratchPool::new();
        {
            let mut a = pool.lease(16);
            a[3] = Complex64::new(1.0, -1.0);
        }
        assert_eq!(pool.idle(), 1);
        // The returned buffer is reused (no second allocation grows the
        // pool) and a zeroed lease really is zeroed despite the stale write.
        let b = pool.lease_zeroed(16);
        assert!(b.iter().all(|z| z.re == 0.0 && z.im == 0.0));
        assert_eq!(pool.idle(), 0);
        drop(b);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn lease_resizes_to_requested_length() {
        let pool = ScratchPool::new();
        drop(pool.lease(8));
        let big = pool.lease(32);
        assert_eq!(big.len(), 32);
        drop(big);
        let small = pool.lease_zeroed(4);
        assert_eq!(small.len(), 4);
    }

    #[test]
    fn concurrent_leases_get_distinct_buffers() {
        let pool = ScratchPool::new();
        let mut a = pool.lease_zeroed(8);
        let mut b = pool.lease_zeroed(8);
        a[0] = Complex64::new(1.0, 0.0);
        b[0] = Complex64::new(2.0, 0.0);
        assert_eq!(a[0].re, 1.0);
        assert_eq!(b[0].re, 2.0);
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
    }
}
