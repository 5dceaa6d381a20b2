//! The CNN key encoder.
//!
//! The memoization database is searched with *encoded* keys: a chunk of
//! COMPLEX64 FFT input is split into real and imaginary planes, downsampled
//! onto a fixed spatial grid, and passed through a small convolutional
//! network whose output is a low-dimensional embedding (~60 values). The
//! architecture follows the paper: a 5×5 convolution bank, a 3×3
//! convolution bank, and a fully connected projection; ReLU nonlinearities;
//! average pooling between stages (the paper's point that mainstream
//! frameworks do not accept COMPLEX64 inputs is moot once the re/im split
//! is done explicitly).
//!
//! **The weights are a fixed, seeded random draw.** Every key of every
//! reconstruction, bench and test comes from `CnnEncoder::new(config, seed)`;
//! the encoder is immutable afterwards, so stores share it without a lock.
//! That is sound because the key never decides a hit: it only picks the
//! nearest-neighbour *candidate*, and the τ gate then runs on the raw chunks
//! (see `db.rs`). A random convolutional projection keeps similar chunks
//! close, which is all candidate selection needs.
//!
//! The paper trains the network with a contrastive objective (Eq. 2,
//! `L = | ‖z_a − z_b‖₂ − ‖Ch_a − Ch_b‖₂ |`) and quantises its weights to INT8
//! for CPU inference (§4.3.1), and coalesces keys into 4 KiB queries on
//! their way to the memory node (§4.3.3). None of the three is live code
//! here: what an INT8 encode costs at paper scale is
//! `mlr_sim::CostModel::cnn_encode_time`, what coalescing buys is the
//! cost-model figure `fig11_key_coalesce`, and the coalesced query is the
//! message size `mlr_cluster::replay_trace` prices.

use mlr_math::rng::seeded;
use mlr_math::Complex64;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Encoder hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Side length of the square grid chunks are resampled onto before the
    /// first convolution (the encoder input is `2 × grid × grid`).
    pub input_grid: usize,
    /// Number of filters in the first (5×5) convolution layer.
    pub conv1_filters: usize,
    /// Number of filters in the second (3×3) convolution layer.
    pub conv2_filters: usize,
    /// Output embedding dimension.
    pub embedding_dim: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        // The paper's encoder uses 32 and 64 filters; the defaults here are
        // smaller so the (CPU-only) reproduction encodes in microseconds, and
        // tests shrink them further. The embedding dimension matches the
        // paper's ~60-dimensional keys.
        Self {
            input_grid: 16,
            conv1_filters: 8,
            conv2_filters: 16,
            embedding_dim: 60,
        }
    }
}

/// A small CHW tensor used inside the encoder.
#[derive(Debug, Clone, Default, PartialEq)]
struct Tensor {
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f64>,
}

impl Tensor {
    #[cfg(test)]
    fn zeros(c: usize, h: usize, w: usize) -> Self {
        Self {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    /// Re-dimensions the tensor in place, reusing its storage. Contents are
    /// unspecified afterwards; callers overwrite (or `fill`) every element.
    fn reshape(&mut self, c: usize, h: usize, w: usize) {
        self.c = c;
        self.h = h;
        self.w = w;
        self.data.resize(c * h * w, 0.0);
    }

    #[inline]
    fn at(&self, c: usize, y: usize, x: usize) -> f64 {
        self.data[(c * self.h + y) * self.w + x]
    }

    #[inline]
    fn at_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f64 {
        &mut self.data[(c * self.h + y) * self.w + x]
    }
}

/// `weights`, a row-major `[out][rest]` matrix, as `[rest][out]`: the layout
/// in which the inference kernels find the weights of every output channel
/// for one tap side by side.
fn transpose_out_innermost(weights: &[f64], out: usize) -> Vec<f64> {
    let rest = weights.len() / out.max(1);
    (0..rest)
        .flat_map(|r| (0..out).map(move |o| weights[o * rest + r]))
        .collect()
}

/// One convolution layer (stride 1, zero padding preserving spatial size).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ConvLayer {
    in_c: usize,
    out_c: usize,
    k: usize,
    /// Weights indexed `[out][in][ky][kx]`, flattened, in the order the
    /// seeded generator drew them: what the reference pass reads.
    weights: Vec<f64>,
    bias: Vec<f64>,
    /// `weights` as `[in][ky][kx][out]` for [`ConvLayer::forward_into`].
    weights_t: Vec<f64>,
}

impl ConvLayer {
    fn new(in_c: usize, out_c: usize, k: usize, rng: &mut impl Rng) -> Self {
        let fan_in = (in_c * k * k) as f64;
        let scale = (2.0 / fan_in).sqrt();
        let weights: Vec<f64> = (0..out_c * in_c * k * k)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
            .collect();
        Self {
            in_c,
            out_c,
            k,
            weights_t: transpose_out_innermost(&weights, out_c),
            weights,
            bias: vec![0.0; out_c],
        }
    }

    /// The reference forward pass, one output element at a time: bias first,
    /// then the taps in `(in, ky, kx)` lexicographic order with out-of-bounds
    /// taps skipped. The inference kernel is held bit-identical to it.
    #[cfg(test)]
    fn forward(&self, input: &Tensor) -> Tensor {
        let pad = self.k / 2;
        let mut out = Tensor::zeros(self.out_c, input.h, input.w);
        for o in 0..self.out_c {
            for y in 0..input.h {
                for x in 0..input.w {
                    let mut acc = self.bias[o];
                    for i in 0..self.in_c {
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let yy = y as isize + ky as isize - pad as isize;
                                let xx = x as isize + kx as isize - pad as isize;
                                if yy >= 0
                                    && xx >= 0
                                    && (yy as usize) < input.h
                                    && (xx as usize) < input.w
                                {
                                    let widx = ((o * self.in_c + i) * self.k + ky) * self.k + kx;
                                    acc +=
                                        self.weights[widx] * input.at(i, yy as usize, xx as usize);
                                }
                            }
                        }
                    }
                    *out.at_mut(o, y, x) = acc;
                }
            }
        }
        out
    }

    /// The inference forward pass into a caller-provided (scratch) tensor:
    /// zero allocations in steady state, every output element written
    /// unconditionally.
    ///
    /// The output channel is the innermost loop: for one output position the
    /// accumulators of a block of channels start at the bias, then every
    /// valid `(in, ky, kx)` tap, in that order, adds `weight · input` to each
    /// of them — one contiguous multiply-add over `weights_t`. A single
    /// output element therefore sees exactly the mul-then-add sequence of
    /// [`ConvLayer::forward`], so the result is bit-identical, while the
    /// inner loop is a fixed-width vector operation instead of a walk over
    /// the (≤ 8-element) valid span of an image row.
    fn forward_into(&self, input: &Tensor, out: &mut Tensor) {
        out.reshape(self.out_c, input.h, input.w);
        let mut o0 = 0;
        while o0 < self.out_c {
            o0 += match self.out_c - o0 {
                8.. => self.sweep_channels::<8>(o0, input, out),
                4.. => self.sweep_channels::<4>(o0, input, out),
                2.. => self.sweep_channels::<2>(o0, input, out),
                _ => self.sweep_channels::<1>(o0, input, out),
            };
        }
    }

    /// Fills output channels `o0 .. o0 + OC` and returns `OC`.
    fn sweep_channels<const OC: usize>(
        &self,
        o0: usize,
        input: &Tensor,
        out: &mut Tensor,
    ) -> usize {
        let (k, pad) = (self.k, self.k / 2);
        let (h, w) = (input.h, input.w);
        let bias: [f64; OC] = std::array::from_fn(|o| self.bias[o0 + o]);
        for y in 0..h {
            // Valid taps: y + ky - pad ∈ [0, h), x + kx - pad ∈ [0, w).
            let ky_range = pad.saturating_sub(y)..(h + pad - y).min(k);
            for x in 0..w {
                let kx_range = pad.saturating_sub(x)..(w + pad - x).min(k);
                let mut acc = bias;
                for i in 0..self.in_c {
                    for ky in ky_range.clone() {
                        let irow = (i * h + y + ky - pad) * w + x;
                        let wrow = (i * k + ky) * k;
                        for kx in kx_range.clone() {
                            let v = input.data[irow + kx - pad];
                            let taps = &self.weights_t[(wrow + kx) * self.out_c + o0..][..OC];
                            for (a, wgt) in acc.iter_mut().zip(taps) {
                                *a += wgt * v;
                            }
                        }
                    }
                }
                for (o, a) in acc.iter().enumerate() {
                    out.data[((o0 + o) * h + y) * w + x] = *a;
                }
            }
        }
        OC
    }
}

/// Fully connected projection layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FcLayer {
    in_dim: usize,
    out_dim: usize,
    /// Weights indexed `[out][k]`, flattened, as drawn: what the reference
    /// pass reads.
    weights: Vec<f64>,
    bias: Vec<f64>,
    /// `weights` as `[k][out]` for [`FcLayer::forward_inference`].
    weights_t: Vec<f64>,
}

impl FcLayer {
    fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let scale = (2.0 / in_dim as f64).sqrt();
        let weights: Vec<f64> = (0..out_dim * in_dim)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
            .collect();
        Self {
            in_dim,
            out_dim,
            weights_t: transpose_out_innermost(&weights, out_dim),
            weights,
            bias: vec![0.0; out_dim],
        }
    }

    /// The reference projection: per output, the products summed in `k`
    /// order, then added to the bias.
    #[cfg(test)]
    fn forward(&self, input: &[f64]) -> Vec<f64> {
        (0..self.out_dim)
            .map(|o| {
                self.bias[o]
                    + self.weights[o * self.in_dim..(o + 1) * self.in_dim]
                        .iter()
                        .zip(input)
                        .map(|(w, x)| w * x)
                        .sum::<f64>()
            })
            .collect()
    }

    /// The inference projection, bit-identical to [`FcLayer::forward`]: all
    /// outputs advance together, one contiguous multiply-add over
    /// `weights_t` per input element, instead of one latency-bound scalar
    /// sum per output. Each sum starts from the value `Iterator::sum` starts
    /// from and takes its products in the same `k` order; the bias is added
    /// last, as in the reference.
    fn forward_inference(&self, input: &[f64]) -> Vec<f64> {
        let sum_identity: f64 = std::iter::empty::<f64>().sum();
        let mut out = vec![sum_identity; self.out_dim];
        for (x, row) in input
            .iter()
            .zip(self.weights_t.chunks_exact(self.out_dim.max(1)))
        {
            for (a, w) in out.iter_mut().zip(row) {
                *a += w * x;
            }
        }
        for (a, bias) in out.iter_mut().zip(&self.bias) {
            let sum = *a;
            *a = bias + sum;
        }
        out
    }
}

/// The CNN encoder: immutable after [`CnnEncoder::new`], so any number of
/// threads encode through one shared instance without a lock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CnnEncoder {
    config: EncoderConfig,
    conv1: ConvLayer,
    conv2: ConvLayer,
    fc: FcLayer,
}

/// Reusable intermediate activations for the inference (encode) path.
///
/// One scratch per thread suffices: [`CnnEncoder::encode`] leases a
/// thread-local instance, so the steady-state hot path allocates nothing but
/// the returned embedding itself. Reuse is numerically invisible — every
/// stage overwrites (or zero-fills) its scratch tensor completely, so
/// [`CnnEncoder::encode_with`] produces bit-identical embeddings to the
/// allocating reference pass. It holds activations only: anything derived from
/// an encoder's weights lives in that encoder, because encoders with
/// different weights share one thread's scratch.
#[derive(Debug, Default)]
pub struct EncoderScratch {
    input: Tensor,
    conv1: Tensor,
    pool1: Tensor,
    conv2: Tensor,
}

thread_local! {
    /// The calling thread's activations for [`CnnEncoder::encode`] and
    /// [`CnnEncoder::encode_batch`].
    static SCRATCH: std::cell::RefCell<EncoderScratch> =
        std::cell::RefCell::new(EncoderScratch::default());
}

impl CnnEncoder {
    /// Creates an encoder with the seeded random weights it keeps for life.
    pub fn new(config: EncoderConfig, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let conv1 = ConvLayer::new(2, config.conv1_filters, 5, &mut rng);
        let conv2 = ConvLayer::new(config.conv1_filters, config.conv2_filters, 3, &mut rng);
        let pooled = config.input_grid / 2;
        let flat_dim = config.conv2_filters * pooled * pooled;
        let fc = FcLayer::new(flat_dim, config.embedding_dim, &mut rng);
        Self {
            config,
            conv1,
            conv2,
            fc,
        }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Resamples a complex chunk onto the fixed `2 × grid × grid` encoder
    /// input, in a caller-provided (scratch) tensor: the chunk is treated as
    /// a flat sequence, split into re/im planes and averaged into grid cells
    /// (a cheap, shape-agnostic downsampling that preserves coarse magnitude
    /// structure).
    fn prepare_input_into(&self, chunk: &[Complex64], t: &mut Tensor) {
        let g = self.config.input_grid;
        t.reshape(2, g, g);
        t.data.fill(0.0);
        if chunk.is_empty() {
            return;
        }
        let cells = g * g;
        let per_cell = chunk.len().div_ceil(cells);
        for cell in 0..cells {
            let start = cell * per_cell;
            if start >= chunk.len() {
                break;
            }
            let end = ((cell + 1) * per_cell).min(chunk.len());
            let count = (end - start) as f64;
            let mut re = 0.0;
            let mut im = 0.0;
            for z in &chunk[start..end] {
                re += z.re;
                im += z.im;
            }
            let y = cell / g;
            let x = cell % g;
            *t.at_mut(0, y, x) = re / count;
            *t.at_mut(1, y, x) = im / count;
        }
    }

    /// The allocating reference forward pass the inference path
    /// ([`Self::encode_with`]) is held bit-identical to: fresh tensors, the
    /// per-element convolution and the per-output projection.
    #[cfg(test)]
    fn forward_reference(&self, chunk: &[Complex64]) -> Vec<f64> {
        let g = self.config.input_grid;
        let mut input = Tensor::zeros(2, g, g);
        self.prepare_input_into(chunk, &mut input);
        let pool1 = avg_pool2(&relu(&self.conv1.forward(&input)));
        let relu2 = relu(&self.conv2.forward(&pool1));
        self.fc.forward(&relu2.data)
    }

    /// Encodes a complex chunk into the embedding space.
    ///
    /// Runs over a thread-local [`EncoderScratch`], so in steady state the
    /// only allocation is the returned embedding (the memoization key) —
    /// every intermediate activation reuses the calling thread's scratch.
    pub fn encode(&self, chunk: &[Complex64]) -> Vec<f64> {
        SCRATCH.with(|s| self.encode_with(chunk, &mut s.borrow_mut()))
    }

    /// Encodes a batch of chunks through the same thread-local scratch as
    /// [`encode`](Self::encode): one scratch lease for the whole batch, no
    /// per-call buffer allocations once the thread's scratch is warm.
    /// Per-chunk results are those of [`CnnEncoder::encode_with`].
    pub fn encode_batch(&self, chunks: &[&[Complex64]]) -> Vec<Vec<f64>> {
        SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            chunks
                .iter()
                .map(|chunk| self.encode_with(chunk, scratch))
                .collect()
        })
    }

    /// Encodes with an explicit scratch (for callers managing their own
    /// per-worker scratch). Bit-identical to the allocating reference pass.
    pub fn encode_with(&self, chunk: &[Complex64], scratch: &mut EncoderScratch) -> Vec<f64> {
        self.prepare_input_into(chunk, &mut scratch.input);
        self.conv1.forward_into(&scratch.input, &mut scratch.conv1);
        relu_inplace(&mut scratch.conv1);
        avg_pool2_into(&scratch.conv1, &mut scratch.pool1);
        self.conv2.forward_into(&scratch.pool1, &mut scratch.conv2);
        relu_inplace(&mut scratch.conv2);
        self.fc.forward_inference(&scratch.conv2.data)
    }
}

/// The reference (allocating) ReLU.
#[cfg(test)]
fn relu(t: &Tensor) -> Tensor {
    Tensor {
        c: t.c,
        h: t.h,
        w: t.w,
        data: t.data.iter().map(|&x| x.max(0.0)).collect(),
    }
}

/// In-place ReLU for the scratch-based inference path (same arithmetic as
/// the reference `relu`).
fn relu_inplace(t: &mut Tensor) {
    for x in &mut t.data {
        *x = x.max(0.0);
    }
}

/// 2×2 average pooling (floor semantics; inputs here are powers of two).
#[cfg(test)]
fn avg_pool2(t: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(t.c, t.h / 2, t.w / 2);
    avg_pool2_into(t, &mut out);
    out
}

/// 2×2 average pooling into a caller-provided (scratch) tensor.
fn avg_pool2_into(t: &Tensor, out: &mut Tensor) {
    let h = t.h / 2;
    let w = t.w / 2;
    out.reshape(t.c, h, w);
    for c in 0..t.c {
        for y in 0..h {
            for x in 0..w {
                let s = t.at(c, 2 * y, 2 * x)
                    + t.at(c, 2 * y + 1, 2 * x)
                    + t.at(c, 2 * y, 2 * x + 1)
                    + t.at(c, 2 * y + 1, 2 * x + 1);
                *out.at_mut(c, y, x) = s / 4.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::norms::l2_distance;

    fn tiny_config() -> EncoderConfig {
        EncoderConfig {
            input_grid: 8,
            conv1_filters: 4,
            conv2_filters: 6,
            embedding_dim: 12,
        }
    }

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
        let enc = CnnEncoder::new(tiny_config(), 1);
        let chunk = chunk_from_pattern(256, 1.0, 0.0);
        let a = enc.encode(&chunk);
        let b = enc.encode(&chunk);
        assert_eq!(a.len(), 12);
        assert_eq!(a, b);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn random_chunk(rng: &mut impl Rng, n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|_| Complex64::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
            .collect()
    }

    /// The inference path (`encode_with`) against the retained reference
    /// (`forward_reference`), bit for bit, over random chunks of several
    /// lengths.
    fn assert_inference_matches_trace(enc: &CnnEncoder, rng: &mut impl Rng, what: &str) {
        let mut scratch = EncoderScratch::default();
        for n in [576, 64, 8192, 1, 300] {
            let chunk = random_chunk(rng, n);
            assert_eq!(
                bits(&enc.encode_with(&chunk, &mut scratch)),
                bits(&enc.forward_reference(&chunk)),
                "{what}, n={n}"
            );
        }
    }

    #[test]
    fn scratch_encode_is_bit_identical_to_trace_path() {
        // The scratch-based inference path must reproduce the allocating
        // reference pass bit for bit — including across reuses of one scratch
        // with different chunk sizes (stale data must never leak through).
        let enc = CnnEncoder::new(tiny_config(), 7);
        let mut scratch = EncoderScratch::default();
        for (n, scale) in [(256, 1.0), (64, 2.5), (0, 0.0), (512, 0.3)] {
            let chunk = chunk_from_pattern(n, scale, 0.1);
            let via_scratch = enc.encode_with(&chunk, &mut scratch);
            let via_reference = enc.forward_reference(&chunk);
            assert_eq!(bits(&via_scratch), bits(&via_reference), "n={n}");
        }
    }

    #[test]
    fn inference_kernels_match_trace_path_for_every_config() {
        // What `MlrPipeline::encoder_config` returns (4- and 8-wide channel
        // blocks), the default (8 + 8-wide blocks, dim 60) and the tests'
        // tiny config (6 = 4 + 2 channels).
        let pipeline = EncoderConfig {
            input_grid: 8,
            conv1_filters: 4,
            conv2_filters: 8,
            embedding_dim: 32,
        };
        let mut rng = seeded(0xB17);
        for (what, config) in [
            ("pipeline", pipeline),
            ("default", EncoderConfig::default()),
            ("tiny", tiny_config()),
        ] {
            for seed in [1, 7] {
                let enc = CnnEncoder::new(config, seed);
                assert_inference_matches_trace(&enc, &mut rng, what);
            }
        }
    }

    #[test]
    fn encoders_sharing_a_thread_keep_their_own_weights() {
        // Several stores with different seeds encode on one thread through
        // one thread-local scratch: the scratch holds activations only, so
        // alternating encoders never see each other's weights.
        let mut rng = seeded(0x5EED);
        let a = CnnEncoder::new(tiny_config(), 1);
        let b = CnnEncoder::new(tiny_config(), 2);
        for n in [256, 64, 512, 256] {
            let chunk = random_chunk(&mut rng, n);
            let (ka, kb) = (a.encode(&chunk), b.encode(&chunk));
            assert_ne!(bits(&ka), bits(&kb), "n={n}");
            assert_eq!(bits(&ka), bits(&a.forward_reference(&chunk)), "n={n}");
            assert_eq!(bits(&kb), bits(&b.forward_reference(&chunk)), "n={n}");
            assert_eq!(bits(&a.encode_batch(&[&chunk])[0]), bits(&ka), "n={n}");
        }
    }

    #[test]
    fn channel_sweep_conv_is_bit_identical_to_reference() {
        // The channel-innermost kernel must reproduce, bit for bit, the
        // per-element reference loop: bias first, then (i, ky, kx) in
        // lexicographic order with out-of-bounds taps skipped. Output widths
        // cover every channel-block decomposition (15 = 8 + 4 + 2 + 1).
        let mut rng = seeded(0xC0DE);
        for (in_c, out_c, k, h, w) in [
            (2, 4, 5, 8, 8),
            (4, 6, 3, 4, 4),
            (1, 1, 3, 1, 1),
            (3, 2, 5, 2, 6),
            (2, 15, 3, 3, 5),
            (8, 16, 3, 8, 8),
        ] {
            let layer = ConvLayer::new(in_c, out_c, k, &mut rng);
            let mut input = Tensor::zeros(in_c, h, w);
            for v in &mut input.data {
                *v = rng.gen::<f64>() * 2.0 - 1.0;
            }
            let reference = layer.forward(&input);
            // A dirty, wrongly shaped scratch tensor: every element must be
            // overwritten.
            let mut fast = Tensor::zeros(1, 2, 3);
            fast.data.fill(f64::NAN);
            layer.forward_into(&input, &mut fast);
            assert_eq!((fast.c, fast.h, fast.w), (out_c, h, w));
            assert_eq!(
                bits(&reference.data),
                bits(&fast.data),
                "in_c={in_c} out_c={out_c} k={k} {h}x{w}"
            );
        }
    }

    #[test]
    fn similar_chunks_encode_closer_than_dissimilar() {
        let enc = CnnEncoder::new(tiny_config(), 2);
        let base = chunk_from_pattern(512, 1.0, 0.0);
        let near = chunk_from_pattern(512, 1.02, 0.01);
        let far = chunk_from_pattern(512, 3.0, 1.5);
        let zb = enc.encode(&base);
        let zn = enc.encode(&near);
        let zf = enc.encode(&far);
        assert!(l2_distance(&zb, &zn) < l2_distance(&zb, &zf));
    }

    #[test]
    fn empty_chunk_encodes_to_finite_vector() {
        let enc = CnnEncoder::new(tiny_config(), 6);
        let z = enc.encode(&[]);
        assert_eq!(z.len(), 12);
        assert!(z.iter().all(|v| v.is_finite()));
    }
}
