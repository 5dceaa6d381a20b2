//! The CNN key encoder.
//!
//! The memoization database is searched with *encoded* keys: a chunk of
//! COMPLEX64 FFT input is split into real and imaginary planes, downsampled
//! onto a fixed spatial grid, and passed through a small convolutional
//! network whose output is a low-dimensional embedding (~60 values). The
//! network is trained with the paper's contrastive objective (Eq. 2):
//!
//! ```text
//! L = | ‖z_a − z_b‖₂ − ‖Ch_a − Ch_b‖₂ |
//! ```
//!
//! i.e. the embedding distance of two chunks should match the L2 distance of
//! the chunks themselves, so that nearest-neighbour search in embedding space
//! finds chunks that really are similar.
//!
//! The architecture follows the paper: a 5×5 convolution bank, a 3×3
//! convolution bank, and a fully connected projection; ReLU nonlinearities;
//! average pooling between stages. Everything — forward pass, backward pass,
//! SGD, INT8 weight quantisation for inference — is implemented here from
//! scratch (the paper's point that mainstream frameworks do not accept
//! COMPLEX64 inputs is moot once the re/im split is done explicitly).

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
    /// SGD learning rate used by [`CnnEncoder::train_contrastive`].
    pub learning_rate: f64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        // The paper's encoder uses 32 and 64 filters; the defaults here are
        // smaller so the (CPU-only) reproduction trains in seconds, and tests
        // shrink them further. The embedding dimension matches the paper's
        // ~60-dimensional keys.
        Self {
            input_grid: 16,
            conv1_filters: 8,
            conv2_filters: 16,
            embedding_dim: 60,
            learning_rate: 1e-3,
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

/// Copies `weights`, a row-major `[out][rest]` matrix, into `transposed` as
/// `[rest][out]`: the layout in which the inference kernels find the weights
/// of every output channel for one tap side by side.
fn transpose_out_innermost(weights: &[f64], out: usize, transposed: &mut Vec<f64>) {
    let rest = weights.len() / out.max(1);
    transposed.clear();
    transposed.extend((0..rest).flat_map(|r| (0..out).map(move |o| weights[o * rest + r])));
}

/// One convolution layer (stride 1, zero padding preserving spatial size).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ConvLayer {
    in_c: usize,
    out_c: usize,
    k: usize,
    /// Weights indexed `[out][in][ky][kx]`, flattened: what training updates
    /// and the reference pass reads.
    weights: Vec<f64>,
    bias: Vec<f64>,
    /// `weights` as `[in][ky][kx][out]` for [`ConvLayer::forward_into`];
    /// [`ConvLayer::sync_inference_layout`] rebuilds it after every change
    /// to `weights`.
    weights_t: Vec<f64>,
}

impl ConvLayer {
    fn new(in_c: usize, out_c: usize, k: usize, rng: &mut impl Rng) -> Self {
        let fan_in = (in_c * k * k) as f64;
        let scale = (2.0 / fan_in).sqrt();
        let weights = (0..out_c * in_c * k * k)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
            .collect();
        let mut layer = Self {
            in_c,
            out_c,
            k,
            weights,
            bias: vec![0.0; out_c],
            weights_t: Vec::new(),
        };
        layer.sync_inference_layout();
        layer
    }

    fn sync_inference_layout(&mut self) {
        transpose_out_innermost(&self.weights, self.out_c, &mut self.weights_t);
    }

    /// The reference forward pass, one output element at a time: bias first,
    /// then the taps in `(in, ky, kx)` lexicographic order with out-of-bounds
    /// taps skipped. Training runs it (through `forward_trace`) and the
    /// inference kernel is held bit-identical to it.
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

    /// Backward pass: given dL/d(output), accumulates weight/bias gradients
    /// and returns dL/d(input).
    fn backward(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
        grad_w: &mut [f64],
        grad_b: &mut [f64],
    ) -> Tensor {
        let pad = self.k / 2;
        let mut grad_in = Tensor::zeros(input.c, input.h, input.w);
        #[allow(clippy::needless_range_loop)] // `o` indexes grad_out, grad_w and grad_b alike
        for o in 0..self.out_c {
            for y in 0..input.h {
                for x in 0..input.w {
                    let go = grad_out.at(o, y, x);
                    if go == 0.0 {
                        continue;
                    }
                    grad_b[o] += go;
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
                                    grad_w[widx] += go * input.at(i, yy as usize, xx as usize);
                                    *grad_in.at_mut(i, yy as usize, xx as usize) +=
                                        go * self.weights[widx];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }
}

/// Fully connected projection layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FcLayer {
    in_dim: usize,
    out_dim: usize,
    /// Weights indexed `[out][k]`, flattened: what training updates and the
    /// reference pass reads.
    weights: Vec<f64>,
    bias: Vec<f64>,
    /// `weights` as `[k][out]` for [`FcLayer::forward_inference`], kept current
    /// by [`FcLayer::sync_inference_layout`].
    weights_t: Vec<f64>,
}

impl FcLayer {
    fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let scale = (2.0 / in_dim as f64).sqrt();
        let weights = (0..out_dim * in_dim)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
            .collect();
        let mut layer = Self {
            in_dim,
            out_dim,
            weights,
            bias: vec![0.0; out_dim],
            weights_t: Vec::new(),
        };
        layer.sync_inference_layout();
        layer
    }

    fn sync_inference_layout(&mut self) {
        transpose_out_innermost(&self.weights, self.out_dim, &mut self.weights_t);
    }

    /// The reference projection: per output, the products summed in `k`
    /// order, then added to the bias.
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

    fn backward(
        &self,
        input: &[f64],
        grad_out: &[f64],
        grad_w: &mut [f64],
        grad_b: &mut [f64],
    ) -> Vec<f64> {
        let mut grad_in = vec![0.0; self.in_dim];
        for o in 0..self.out_dim {
            let go = grad_out[o];
            grad_b[o] += go;
            for i in 0..self.in_dim {
                grad_w[o * self.in_dim + i] += go * input[i];
                grad_in[i] += go * self.weights[o * self.in_dim + i];
            }
        }
        grad_in
    }
}

/// INT8-quantised weights of one layer (symmetric, per-layer scale).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantisedLayer {
    /// Quantised weights in `[-127, 127]`.
    pub weights: Vec<i8>,
    /// Dequantisation scale.
    pub scale: f64,
}

/// Quantises a weight slice to INT8 with a symmetric per-layer scale.
pub fn quantise_int8(weights: &[f64]) -> QuantisedLayer {
    let max = weights
        .iter()
        .fold(0.0f64, |m, &w| m.max(w.abs()))
        .max(1e-12);
    let scale = max / 127.0;
    let q = weights
        .iter()
        .map(|&w| (w / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    QuantisedLayer { weights: q, scale }
}

/// Dequantises an INT8 layer back to `f64` weights.
pub fn dequantise(layer: &QuantisedLayer) -> Vec<f64> {
    layer
        .weights
        .iter()
        .map(|&q| q as f64 * layer.scale)
        .collect()
}

/// The CNN encoder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CnnEncoder {
    config: EncoderConfig,
    conv1: ConvLayer,
    conv2: ConvLayer,
    fc: FcLayer,
    /// True when the weights currently in use went through INT8
    /// quantise/dequantise (inference mode).
    pub quantised: bool,
}

/// Reusable intermediate activations for the inference (encode) path.
///
/// One scratch per thread suffices: [`CnnEncoder::encode`] leases a
/// thread-local instance, so the steady-state hot path allocates nothing but
/// the returned embedding itself. Reuse is numerically invisible — every
/// stage overwrites (or zero-fills) its scratch tensor completely, so
/// [`CnnEncoder::encode_with`] produces bit-identical embeddings to the
/// allocating trace path. It holds activations only: anything derived from
/// an encoder's weights lives in that encoder, because encoders with
/// different weights share one thread's scratch.
#[derive(Debug, Default)]
pub struct EncoderScratch {
    input: Tensor,
    conv1: Tensor,
    pool1: Tensor,
    conv2: Tensor,
}

/// Intermediate activations kept for the backward pass.
struct ForwardTrace {
    input: Tensor,
    conv1_out: Tensor,
    relu1: Tensor,
    pool1: Tensor,
    conv2_out: Tensor,
    relu2: Tensor,
    flat: Vec<f64>,
    embedding: Vec<f64>,
}

impl CnnEncoder {
    /// Creates an encoder with randomly initialised weights.
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
            quantised: false,
        }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Output embedding dimension.
    pub fn embedding_dim(&self) -> usize {
        self.config.embedding_dim
    }

    /// Resamples a complex chunk onto the fixed `2 × grid × grid` encoder
    /// input: the chunk is treated as a flat sequence, split into re/im
    /// planes and averaged into grid cells (a cheap, shape-agnostic
    /// downsampling that preserves coarse magnitude structure).
    fn prepare_input(&self, chunk: &[Complex64]) -> Tensor {
        let g = self.config.input_grid;
        let mut t = Tensor::zeros(2, g, g);
        self.prepare_input_into(chunk, &mut t);
        t
    }

    /// [`Self::prepare_input`] into a caller-provided (scratch) tensor.
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

    fn forward_trace(&self, chunk: &[Complex64]) -> ForwardTrace {
        let input = self.prepare_input(chunk);
        let conv1_out = self.conv1.forward(&input);
        let relu1 = relu(&conv1_out);
        let pool1 = avg_pool2(&relu1);
        let conv2_out = self.conv2.forward(&pool1);
        let relu2 = relu(&conv2_out);
        let flat = relu2.data.clone();
        let embedding = self.fc.forward(&flat);
        ForwardTrace {
            input,
            conv1_out,
            relu1,
            pool1,
            conv2_out,
            relu2,
            flat,
            embedding,
        }
    }

    /// Encodes a complex chunk into the embedding space.
    ///
    /// Runs over a thread-local [`EncoderScratch`], so in steady state the
    /// only allocation is the returned embedding (the memoization key) —
    /// every intermediate activation reuses the calling thread's scratch.
    pub fn encode(&self, chunk: &[Complex64]) -> Vec<f64> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<EncoderScratch> =
                std::cell::RefCell::new(EncoderScratch::default());
        }
        SCRATCH.with(|s| self.encode_with(chunk, &mut s.borrow_mut()))
    }

    /// Encodes a batch of chunks through the same thread-local scratch as
    /// [`encode`](Self::encode): one scratch lease for the whole batch, no
    /// per-call buffer allocations once the thread's scratch is warm.
    pub fn encode_batch(&self, chunks: &[&[Complex64]]) -> Vec<Vec<f64>> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<EncoderScratch> =
                std::cell::RefCell::new(EncoderScratch::default());
        }
        SCRATCH.with(|s| self.encode_batch_with(chunks, &mut s.borrow_mut()))
    }

    /// Encodes with an explicit scratch (for callers managing their own
    /// per-worker scratch). Bit-identical to the allocating forward pass.
    pub fn encode_with(&self, chunk: &[Complex64], scratch: &mut EncoderScratch) -> Vec<f64> {
        self.prepare_input_into(chunk, &mut scratch.input);
        self.conv1.forward_into(&scratch.input, &mut scratch.conv1);
        relu_inplace(&mut scratch.conv1);
        avg_pool2_into(&scratch.conv1, &mut scratch.pool1);
        self.conv2.forward_into(&scratch.pool1, &mut scratch.conv2);
        relu_inplace(&mut scratch.conv2);
        self.fc.forward_inference(&scratch.conv2.data)
    }

    /// Encodes a batch of chunks through one shared [`EncoderScratch`].
    ///
    /// Per-chunk results are bit-identical to calling
    /// [`CnnEncoder::encode_with`] once per chunk — batching only amortises
    /// the scratch reuse and lets a store implementation hold its encoder
    /// lock once for the whole batch instead of once per chunk.
    pub fn encode_batch_with(
        &self,
        chunks: &[&[Complex64]],
        scratch: &mut EncoderScratch,
    ) -> Vec<Vec<f64>> {
        chunks
            .iter()
            .map(|chunk| self.encode_with(chunk, scratch))
            .collect()
    }

    /// Re-derives every layer's inference-layout weights from the training
    /// layout; every method that changes weights ends with it.
    fn sync_inference_layout(&mut self) {
        self.conv1.sync_inference_layout();
        self.conv2.sync_inference_layout();
        self.fc.sync_inference_layout();
    }

    /// One SGD step of the contrastive objective on a pair of chunks.
    /// Returns the loss before the update.
    pub fn train_pair(&mut self, a: &[Complex64], b: &[Complex64]) -> f64 {
        let lr = self.config.learning_rate;
        let ta = self.forward_trace(a);
        let tb = self.forward_trace(b);

        // Ground-truth label: L2 distance between the *prepared* inputs
        // (normalised per element so the scale is comparable to embeddings).
        let target: f64 = ta
            .input
            .data
            .iter()
            .zip(&tb.input.data)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();

        let diff: Vec<f64> = ta
            .embedding
            .iter()
            .zip(&tb.embedding)
            .map(|(x, y)| x - y)
            .collect();
        let dist = diff.iter().map(|d| d * d).sum::<f64>().sqrt().max(1e-12);
        let loss = (dist - target).abs();
        let sign = if dist >= target { 1.0 } else { -1.0 };

        // dL/d(z_a) = sign * (z_a - z_b)/dist ; dL/d(z_b) = -that.
        let grad_za: Vec<f64> = diff.iter().map(|d| sign * d / dist).collect();
        let grad_zb: Vec<f64> = grad_za.iter().map(|g| -g).collect();

        // Accumulate gradients from both branches (shared weights).
        let mut gw_fc = vec![0.0; self.fc.weights.len()];
        let mut gb_fc = vec![0.0; self.fc.bias.len()];
        let mut gw_c1 = vec![0.0; self.conv1.weights.len()];
        let mut gb_c1 = vec![0.0; self.conv1.bias.len()];
        let mut gw_c2 = vec![0.0; self.conv2.weights.len()];
        let mut gb_c2 = vec![0.0; self.conv2.bias.len()];

        for (trace, grad_z) in [(&ta, &grad_za), (&tb, &grad_zb)] {
            let grad_flat = self
                .fc
                .backward(&trace.flat, grad_z, &mut gw_fc, &mut gb_fc);
            let mut grad_relu2 = Tensor {
                c: trace.relu2.c,
                h: trace.relu2.h,
                w: trace.relu2.w,
                data: grad_flat,
            };
            relu_backward(&trace.conv2_out, &mut grad_relu2);
            let grad_pool1 = self
                .conv2
                .backward(&trace.pool1, &grad_relu2, &mut gw_c2, &mut gb_c2);
            let mut grad_relu1 = avg_pool2_backward(&grad_pool1, &trace.relu1);
            relu_backward(&trace.conv1_out, &mut grad_relu1);
            let _ = self
                .conv1
                .backward(&trace.input, &grad_relu1, &mut gw_c1, &mut gb_c1);
        }

        // SGD update.
        sgd(&mut self.fc.weights, &gw_fc, lr);
        sgd(&mut self.fc.bias, &gb_fc, lr);
        sgd(&mut self.conv1.weights, &gw_c1, lr);
        sgd(&mut self.conv1.bias, &gb_c1, lr);
        sgd(&mut self.conv2.weights, &gw_c2, lr);
        sgd(&mut self.conv2.bias, &gb_c2, lr);
        self.sync_inference_layout();
        loss
    }

    /// Trains the encoder with contrastive pairs drawn from `samples`
    /// (all-pairs round-robin) for `epochs` passes. Returns the mean loss of
    /// the final epoch.
    pub fn train_contrastive(&mut self, samples: &[Vec<Complex64>], epochs: usize) -> f64 {
        if samples.len() < 2 {
            return 0.0;
        }
        let mut final_loss = 0.0;
        for _ in 0..epochs {
            let mut total = 0.0;
            let mut count = 0usize;
            for i in 0..samples.len() {
                let j = (i + 1) % samples.len();
                total += self.train_pair(&samples[i], &samples[j]);
                count += 1;
            }
            final_loss = total / count as f64;
        }
        final_loss
    }

    /// Quantises all weights to INT8 and back (the paper applies INT8
    /// quantisation to the CNN weights for cheap CPU inference); subsequent
    /// encodes use the quantised weights.
    pub fn quantise_weights(&mut self) {
        self.conv1.weights = dequantise(&quantise_int8(&self.conv1.weights));
        self.conv2.weights = dequantise(&quantise_int8(&self.conv2.weights));
        self.fc.weights = dequantise(&quantise_int8(&self.fc.weights));
        self.sync_inference_layout();
        self.quantised = true;
    }
}

fn relu(t: &Tensor) -> Tensor {
    Tensor {
        c: t.c,
        h: t.h,
        w: t.w,
        data: t.data.iter().map(|&x| x.max(0.0)).collect(),
    }
}

/// In-place ReLU for the scratch-based inference path (same arithmetic as
/// [`relu`]; the backward pass keeps the pre-activation copy it needs, the
/// inference path does not).
fn relu_inplace(t: &mut Tensor) {
    for x in &mut t.data {
        *x = x.max(0.0);
    }
}

/// Zeroes gradient entries where the pre-activation was non-positive.
fn relu_backward(pre: &Tensor, grad: &mut Tensor) {
    for (g, &x) in grad.data.iter_mut().zip(&pre.data) {
        if x <= 0.0 {
            *g = 0.0;
        }
    }
}

/// 2×2 average pooling (floor semantics; inputs here are powers of two).
fn avg_pool2(t: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(t.c, t.h / 2, t.w / 2);
    avg_pool2_into(t, &mut out);
    out
}

/// [`avg_pool2`] into a caller-provided (scratch) tensor.
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

/// Backward of 2×2 average pooling: spread each gradient over its window.
fn avg_pool2_backward(grad_pooled: &Tensor, pre_pool: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(pre_pool.c, pre_pool.h, pre_pool.w);
    for c in 0..grad_pooled.c {
        for y in 0..grad_pooled.h {
            for x in 0..grad_pooled.w {
                let g = grad_pooled.at(c, y, x) / 4.0;
                *out.at_mut(c, 2 * y, 2 * x) += g;
                *out.at_mut(c, 2 * y + 1, 2 * x) += g;
                *out.at_mut(c, 2 * y, 2 * x + 1) += g;
                *out.at_mut(c, 2 * y + 1, 2 * x + 1) += g;
            }
        }
    }
    out
}

fn sgd(weights: &mut [f64], grads: &[f64], lr: f64) {
    for (w, g) in weights.iter_mut().zip(grads) {
        *w -= lr * g;
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
            learning_rate: 1e-3,
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
    /// (`forward_trace`), bit for bit, over random chunks of several lengths.
    fn assert_inference_matches_trace(enc: &CnnEncoder, rng: &mut impl Rng, what: &str) {
        let mut scratch = EncoderScratch::default();
        for n in [576, 64, 8192, 1, 300] {
            let chunk = random_chunk(rng, n);
            assert_eq!(
                bits(&enc.encode_with(&chunk, &mut scratch)),
                bits(&enc.forward_trace(&chunk).embedding),
                "{what}, n={n}"
            );
        }
    }

    #[test]
    fn scratch_encode_is_bit_identical_to_trace_path() {
        // The scratch-based inference path must reproduce the allocating
        // forward trace bit for bit — including across reuses of one scratch
        // with different chunk sizes (stale data must never leak through).
        let enc = CnnEncoder::new(tiny_config(), 7);
        let mut scratch = EncoderScratch::default();
        for (n, scale) in [(256, 1.0), (64, 2.5), (0, 0.0), (512, 0.3)] {
            let chunk = chunk_from_pattern(n, scale, 0.1);
            let via_scratch = enc.encode_with(&chunk, &mut scratch);
            let via_trace = enc.forward_trace(&chunk).embedding;
            assert_eq!(bits(&via_scratch), bits(&via_trace), "n={n}");
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
            learning_rate: 1e-3,
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
    fn inference_layout_follows_training_and_quantisation() {
        // The transposed copy must be rebuilt whenever the weights change:
        // a stale copy would keep producing the pre-training keys.
        let mut rng = seeded(0x7EA);
        let mut enc = CnnEncoder::new(tiny_config(), 11);
        let probe = random_chunk(&mut rng, 256);
        let before = enc.encode(&probe);
        let samples: Vec<Vec<Complex64>> = (0..4).map(|_| random_chunk(&mut rng, 256)).collect();
        enc.train_contrastive(&samples, 2);
        assert_ne!(
            bits(&before),
            bits(&enc.encode(&probe)),
            "training moved no key"
        );
        assert_inference_matches_trace(&enc, &mut rng, "after train_contrastive");
        enc.train_pair(&samples[0], &samples[1]);
        assert_inference_matches_trace(&enc, &mut rng, "after train_pair");
        enc.quantise_weights();
        assert_inference_matches_trace(&enc, &mut rng, "after quantise_weights");
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
            assert_eq!(bits(&ka), bits(&a.forward_trace(&chunk).embedding), "n={n}");
            assert_eq!(bits(&kb), bits(&b.forward_trace(&chunk).embedding), "n={n}");
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
    fn contrastive_training_reduces_loss() {
        let mut enc = CnnEncoder::new(tiny_config(), 3);
        let samples: Vec<Vec<Complex64>> = (0..6)
            .map(|i| chunk_from_pattern(256, 1.0 + 0.3 * i as f64, 0.2 * i as f64))
            .collect();
        // Measure initial mean loss without updating by using a clone.
        let mut probe = enc.clone();
        let initial = probe.train_contrastive(&samples, 1);
        let final_loss = enc.train_contrastive(&samples, 30);
        assert!(
            final_loss < initial,
            "training should reduce loss: initial {initial}, final {final_loss}"
        );
    }

    #[test]
    fn training_pair_returns_nonnegative_loss() {
        let mut enc = CnnEncoder::new(tiny_config(), 4);
        let a = chunk_from_pattern(128, 1.0, 0.0);
        let b = chunk_from_pattern(128, 2.0, 0.4);
        let loss = enc.train_pair(&a, &b);
        assert!(loss >= 0.0);
    }

    #[test]
    fn quantisation_roundtrip_and_small_error() {
        let weights: Vec<f64> = (0..100).map(|i| (i as f64 - 50.0) / 37.0).collect();
        let q = quantise_int8(&weights);
        assert_eq!(q.weights.len(), 100);
        let back = dequantise(&q);
        let max_err = weights
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // Error bounded by half a quantisation step.
        assert!(max_err <= q.scale * 0.5 + 1e-12);
    }

    #[test]
    fn quantised_encoder_stays_close_to_float() {
        let config = tiny_config();
        let float_enc = CnnEncoder::new(config, 5);
        let mut q_enc = float_enc.clone();
        q_enc.quantise_weights();
        assert!(q_enc.quantised);
        let chunk = chunk_from_pattern(512, 1.3, 0.7);
        let zf = float_enc.encode(&chunk);
        let zq = q_enc.encode(&chunk);
        let rel = l2_distance(&zf, &zq) / zf.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        assert!(rel < 0.1, "quantisation error {rel}");
    }

    #[test]
    fn empty_chunk_encodes_to_finite_vector() {
        let enc = CnnEncoder::new(tiny_config(), 6);
        let z = enc.encode(&[]);
        assert_eq!(z.len(), 12);
        assert!(z.iter().all(|v| v.is_finite()));
    }
}
