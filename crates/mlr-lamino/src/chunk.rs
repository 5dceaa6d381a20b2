//! Chunk partitioning of 3-D arrays.
//!
//! The paper breaks the input dataset into *chunks* — slabs along one
//! dimension — so that each FFT operation works on a piece small enough for
//! GPU memory, and so that memoization, caching and multi-GPU distribution
//! can all key on the *chunk location* (the slab index). The default chunk
//! size in the paper's evaluation is 16.

use serde::{Deserialize, Serialize};

/// Identifies one chunk location: which slab of the partitioned axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChunkLocation {
    /// Index of the chunk along the partitioned axis (0-based).
    pub index: usize,
    /// First slab (axis-0 plane) covered by this chunk.
    pub start: usize,
    /// Number of slabs covered by this chunk.
    pub len: usize,
}

/// A partition of an axis of length `extent` into chunks of `chunk_size`
/// slabs (the final chunk may be shorter).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkGrid {
    extent: usize,
    chunk_size: usize,
}

impl ChunkGrid {
    /// Creates a grid over an axis of length `extent` with the given chunk
    /// size.
    ///
    /// # Panics
    /// Panics when `extent == 0` or `chunk_size == 0`.
    pub fn new(extent: usize, chunk_size: usize) -> Self {
        assert!(extent > 0, "chunked axis must be non-empty");
        assert!(chunk_size > 0, "chunk size must be positive");
        Self { extent, chunk_size }
    }

    /// Nominal chunk size (the last chunk may be smaller).
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of chunk locations.
    pub fn num_chunks(&self) -> usize {
        self.extent.div_ceil(self.chunk_size)
    }

    /// Returns the chunk location for chunk `index`.
    ///
    /// # Panics
    /// Panics when `index >= self.num_chunks()`.
    pub fn location(&self, index: usize) -> ChunkLocation {
        assert!(index < self.num_chunks(), "chunk index out of range");
        let start = index * self.chunk_size;
        let len = self.chunk_size.min(self.extent - start);
        ChunkLocation { index, start, len }
    }

    /// Iterates over every chunk location in order.
    pub fn iter(&self) -> impl Iterator<Item = ChunkLocation> + '_ {
        (0..self.num_chunks()).map(|i| self.location(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_and_last_chunk() {
        let g = ChunkGrid::new(100, 16);
        assert_eq!(g.num_chunks(), 7);
        let last = g.location(6);
        assert_eq!(last.start, 96);
        assert_eq!(last.len, 4);
        let g2 = ChunkGrid::new(64, 16);
        assert_eq!(g2.num_chunks(), 4);
        assert_eq!(g2.location(3).len, 16);
    }

    #[test]
    fn locations_cover_axis_disjointly() {
        let g = ChunkGrid::new(77, 10);
        let mut covered = [false; 77];
        for loc in g.iter() {
            for (i, c) in covered.iter_mut().enumerate().skip(loc.start).take(loc.len) {
                assert!(!*c, "slab {i} covered twice");
                *c = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    #[should_panic(expected = "chunk index out of range")]
    fn out_of_range_location_panics() {
        let g = ChunkGrid::new(10, 4);
        let _ = g.location(3);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = ChunkGrid::new(10, 0);
    }
}
