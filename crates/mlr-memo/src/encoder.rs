//! The memoization key: a block-average sketch of the chunk.
//!
//! A chunk of COMPLEX64 FFT input is read as a flat sequence, cut into
//! [`SKETCH_GRID`]² contiguous blocks, and each block is replaced by the
//! mean of its real and of its imaginary parts: [`SKETCH_DIM`] = 128 numbers,
//! a linear map of the chunk with no weights, no seed, no scratch and no
//! lock. [`sketch`] is the whole encoder.
//!
//! That is enough because the key never decides a hit. It only orders the
//! entries of one `(operation, location)` scope so the store can pick the
//! *candidate* nearest to the query; the τ gate then runs on the raw chunks
//! (see `db.rs`). Chunks that pass the gate differ by a small fraction of
//! their norm, and block averaging is non-expansive: two keys are never
//! further apart than their chunks.
//!
//! The paper's key is the output of a CNN trained with a contrastive
//! objective (Eq. 2) and quantised to INT8 (§4.3.1), because its database
//! holds millions of chunks at 2K³ and the key has to carry a Faiss search.
//! A scope here holds tens of entries (see `ann.rs`), and on the benchmark
//! workloads the sketch's nearest candidate loses fewer reachable hits than
//! a seeded random CNN's did (ROADMAP item 4). What the paper's encoder
//! costs at paper scale stays what it was: a cost-model row,
//! `mlr_sim::CostModel::cnn_encode_time`. Key coalescing (§4.3.3) batches
//! keys for a network hop this store does not have: every probe is an
//! in-process call.

use mlr_math::Complex64;

/// Side of the grid a chunk is block-averaged onto.
pub const SKETCH_GRID: usize = 8;

/// Length of a key: one real and one imaginary mean per grid cell.
pub const SKETCH_DIM: usize = 2 * SKETCH_GRID * SKETCH_GRID;

/// The chunk's key: the means of the real parts of its `SKETCH_GRID²`
/// contiguous blocks, then the means of the imaginary parts. Blocks are
/// `⌈len / cells⌉` elements long, so a chunk shorter than the grid leaves
/// its trailing cells at zero (as does the empty chunk, everywhere).
pub fn sketch(chunk: &[Complex64]) -> Vec<f64> {
    const CELLS: usize = SKETCH_GRID * SKETCH_GRID;
    let mut key = vec![0.0; SKETCH_DIM];
    let per_cell = chunk.len().div_ceil(CELLS).max(1);
    for (cell, block) in chunk.chunks(per_cell).enumerate() {
        let (mut re, mut im) = (0.0, 0.0);
        for z in block {
            re += z.re;
            im += z.im;
        }
        let count = block.len() as f64;
        key[cell] = re / count;
        key[CELLS + cell] = im / count;
    }
    key
}

/// Exists for `examples/benchmark`'s frozen call shapes (nothing else may
/// name it); a `[benchmark]` PR removes it. There is nothing to configure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncoderConfig;

/// Exists for `examples/benchmark`'s frozen call shapes (nothing else may
/// name it); a `[benchmark]` PR removes it. [`sketch`] needs no scratch.
#[derive(Debug, Default)]
pub struct EncoderScratch;

/// Exists for `examples/benchmark`'s frozen call shapes (nothing else may
/// name it); a `[benchmark]` PR removes it. Call [`sketch`].
#[derive(Debug, Clone, Copy)]
pub struct CnnEncoder;

impl CnnEncoder {
    /// [`sketch`] has no weights: both arguments are ignored.
    pub fn new(_config: EncoderConfig, _seed: u64) -> Self {
        Self
    }

    /// [`sketch`].
    pub fn encode_with(&self, chunk: &[Complex64], _scratch: &mut EncoderScratch) -> Vec<f64> {
        sketch(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::norms::l2_distance;

    fn chunk_from_pattern(n: usize, scale: f64, phase: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Complex64::new(
                    scale * (6.0 * t + phase).sin(),
                    scale * (4.0 * t + phase).cos(),
                )
            })
            .collect()
    }

    #[test]
    fn encode_is_deterministic_and_fixed_dim() {
        for n in [1, 63, 64, 300, 576, 8192] {
            let chunk = chunk_from_pattern(n, 1.0, 0.0);
            let key = sketch(&chunk);
            assert_eq!(key.len(), SKETCH_DIM, "n={n}");
            assert_eq!(key, sketch(&chunk), "n={n}");
        }
    }

    #[test]
    fn sketch_is_the_block_means_and_linear_in_the_chunk() {
        // 128 elements: two per cell.
        let chunk: Vec<Complex64> = (0..128)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let key = sketch(&chunk);
        for cell in 0..64 {
            assert_eq!(key[cell], 2.0 * cell as f64 + 0.5);
            assert_eq!(key[64 + cell], -(2.0 * cell as f64 + 0.5));
        }
        let doubled: Vec<Complex64> = chunk.iter().map(|z| z.scale(2.0)).collect();
        let twice: Vec<f64> = key.iter().map(|k| 2.0 * k).collect();
        assert_eq!(sketch(&doubled), twice);
        // A ragged tail: 130 elements are 3 per cell, the last block short.
        let ragged = sketch(&chunk_from_pattern(130, 1.0, 0.0));
        assert!(ragged[43] != 0.0 && ragged[44..64].iter().all(|&k| k == 0.0));
    }

    #[test]
    fn similar_chunks_encode_closer_than_dissimilar() {
        let base = chunk_from_pattern(512, 1.0, 0.0);
        let near = chunk_from_pattern(512, 1.02, 0.01);
        let far = chunk_from_pattern(512, 3.0, 1.5);
        let (zb, zn, zf) = (sketch(&base), sketch(&near), sketch(&far));
        assert!(l2_distance(&zb, &zn) < l2_distance(&zb, &zf));
    }

    #[test]
    fn empty_chunk_encodes_to_finite_vector() {
        let z = sketch(&[]);
        assert_eq!(z.len(), SKETCH_DIM);
        assert!(z.iter().all(|&v| v == 0.0));
    }
}
