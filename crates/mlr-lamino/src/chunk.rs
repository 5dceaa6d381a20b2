//! Chunk partitioning of 3-D arrays.
//!
//! The paper breaks the input dataset into *chunks* — slabs along one
//! dimension — so that each FFT operation works on a piece small enough for
//! GPU memory, and so that memoization, caching and multi-GPU distribution
//! can all key on the *chunk location* (the slab index). The default chunk
//! size in the paper's evaluation is 16.

use mlr_math::{Array3, Shape3};
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

    /// Splits the chunk locations round-robin across `workers` workers.
    /// Used by `mlr-cluster` to distribute chunks across GPUs/nodes.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn round_robin(&self, workers: usize) -> Vec<Vec<ChunkLocation>> {
        assert!(workers > 0, "need at least one worker");
        let mut out = vec![Vec::new(); workers];
        for loc in self.iter() {
            out[loc.index % workers].push(loc);
        }
        out
    }

    /// Splits the chunk locations into `workers` contiguous, balanced ranges.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn contiguous(&self, workers: usize) -> Vec<Vec<ChunkLocation>> {
        assert!(workers > 0, "need at least one worker");
        let n = self.num_chunks();
        let base = n / workers;
        let extra = n % workers;
        let mut out = Vec::with_capacity(workers);
        let mut next = 0usize;
        for w in 0..workers {
            let count = base + usize::from(w < extra);
            let mut v = Vec::with_capacity(count);
            for i in next..next + count {
                v.push(self.location(i));
            }
            next += count;
            out.push(v);
        }
        out
    }

    /// Extracts the chunk `loc` from `volume` (slabs along axis 0).
    ///
    /// # Panics
    /// Panics when the chunk does not fit in the volume.
    pub fn extract<T: Clone + Default>(&self, volume: &Array3<T>, loc: ChunkLocation) -> Array3<T> {
        volume.slab(loc.start, loc.len)
    }

    /// Writes the chunk `loc` back into `volume`.
    ///
    /// # Panics
    /// Panics when shapes are inconsistent.
    pub fn insert<T: Clone + Default>(
        &self,
        volume: &mut Array3<T>,
        loc: ChunkLocation,
        chunk: &Array3<T>,
    ) {
        assert_eq!(chunk.shape().n0, loc.len, "chunk length mismatch");
        volume.set_slab(loc.start, chunk);
    }

    /// Shape of the chunk at `loc` for a volume whose full shape is `shape`.
    pub fn chunk_shape(&self, shape: Shape3, loc: ChunkLocation) -> Shape3 {
        Shape3::new(loc.len, shape.n1, shape.n2)
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
    fn extract_insert_roundtrip() {
        let shape = Shape3::new(12, 3, 3);
        let data: Vec<f64> = (0..shape.len()).map(|i| i as f64).collect();
        let volume = Array3::from_vec(shape, data);
        let g = ChunkGrid::new(12, 5);
        let mut rebuilt: Array3<f64> = Array3::zeros(shape);
        for loc in g.iter() {
            let chunk = g.extract(&volume, loc);
            assert_eq!(chunk.shape(), g.chunk_shape(shape, loc));
            g.insert(&mut rebuilt, loc, &chunk);
        }
        assert_eq!(rebuilt, volume);
    }

    #[test]
    fn round_robin_distribution() {
        let g = ChunkGrid::new(64, 16); // 4 chunks
        let parts = g.round_robin(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 2); // chunks 0 and 3
        assert_eq!(parts[1].len(), 1);
        assert_eq!(parts[2].len(), 1);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, g.num_chunks());
    }

    #[test]
    fn contiguous_distribution_balanced() {
        let g = ChunkGrid::new(130, 10); // 13 chunks
        let parts = g.contiguous(4);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3, 3]);
        // Contiguity: each worker's chunks are consecutive.
        for p in &parts {
            for w in p.windows(2) {
                assert_eq!(w[1].index, w[0].index + 1);
            }
        }
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
