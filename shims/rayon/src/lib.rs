//! Offline stand-in for `rayon`.
//!
//! Implements exactly the parallel-iterator surface this workspace uses —
//! `par_chunks_mut().for_each()` (plus `.enumerate()`) and
//! `(a..b).into_par_iter().map().collect()` — on top of
//! `std::thread::scope`. Work is split into one
//! contiguous block per worker thread, and every call spawns and joins its
//! own OS threads ([`spawned_threads`] counts them). Only when one hardware
//! thread is available, or the input has at most one item, does a call
//! degrade to the sequential loop; any longer input forks, however little
//! work each item carries.
//!
//! Set `RAYON_NUM_THREADS` to override the detected parallelism.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// OS threads spawned by this shim so far (a statistic, hence `Relaxed`).
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Number of OS threads the shim has spawned in this process, over every
/// parallel iterator so far.
pub fn spawned_threads() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

/// Number of worker threads (cached).
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f(0), f(1), ..., f(len-1)` and returns the results in index order,
/// splitting the index space into one contiguous block per worker.
fn map_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    let threads = current_num_threads();
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let workers = threads.min(len);
    let block = len.div_ceil(workers);
    let mut blocks: Vec<Vec<T>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                SPAWNED.fetch_add(1, Ordering::Relaxed);
                s.spawn(move || {
                    let start = w * block;
                    let end = ((w + 1) * block).min(len);
                    (start..end).map(f).collect::<Vec<T>>()
                })
            })
            .collect();
        for h in handles {
            blocks.push(h.join().expect("rayon shim worker panicked"));
        }
    });
    blocks.into_iter().flatten().collect()
}

/// Runs `f` over a set of owned work items, one contiguous block per worker.
fn for_each_owned<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let threads = current_num_threads();
    if threads <= 1 || items.len() <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let len = items.len();
    let workers = threads.min(len);
    let block = len.div_ceil(workers);
    let mut split: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut rest = items;
    while !rest.is_empty() {
        let take = block.min(rest.len());
        let tail = rest.split_off(take);
        split.push(std::mem::replace(&mut rest, tail));
    }
    std::thread::scope(|s| {
        for chunk in split {
            let f = &f;
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            s.spawn(move || {
                for item in chunk {
                    f(item);
                }
            });
        }
    });
}

// ------------------------------------------------------------ mutable slices

/// `par_chunks_mut` on slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over mutable chunks.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Applies `f` to every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut [T]) + Sync,
    {
        let chunks: Vec<&'a mut [T]> = self.slice.chunks_mut(self.chunk_size).collect();
        for_each_owned(chunks, f);
    }

    /// Pairs every chunk with its index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { inner: self }
    }
}

/// Enumerated parallel iterator over mutable chunks.
pub struct ParChunksMutEnumerate<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    /// Applies `f` to every `(index, chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &'a mut [T])) + Sync,
    {
        let chunks: Vec<(usize, &'a mut [T])> = self
            .inner
            .slice
            .chunks_mut(self.inner.chunk_size)
            .enumerate()
            .collect();
        for_each_owned(chunks, f);
    }
}

// ------------------------------------------------------------------- ranges

/// Conversion into a parallel iterator (implemented for `Range<usize>`).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over a `usize` range.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Maps every index; evaluation happens at `collect`.
    pub fn map<R, F>(self, f: F) -> ParRangeMap<F>
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
    {
        ParRangeMap {
            range: self.range,
            f,
        }
    }
}

/// A mapped parallel range iterator.
pub struct ParRangeMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeMap<F> {
    /// Evaluates the map in parallel, preserving index order.
    pub fn collect<R, C>(self) -> C
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = &self.f;
        map_indexed(len, |i| f(start + i)).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_mut_covers_every_chunk() {
        let mut data = vec![0u64; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i as u64;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[99], 9);
        assert_eq!(data[102], 10);
    }

    #[test]
    fn range_into_par_iter() {
        let squares: Vec<usize> = (3..8).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, vec![9, 16, 25, 36, 49]);
    }
}
