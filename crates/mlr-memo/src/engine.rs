//! The memoized FFT executor.
//!
//! [`MemoizedExecutor`] implements `mlr_lamino::FftExecutor`, so the ADMM
//! solver can run unmodified while every unequally-spaced FFT invocation goes
//! through the memoization protocol of Figure 6:
//!
//! 1. take the chunk's O(n) fingerprint and ask the scope's doorkeeper
//!    history for a τ-band neighbor: without one no stored entry can pass
//!    the τ gate (it runs on raw inputs, and the band bounds *raw*
//!    similarity), so the chunk is computed exactly and only its
//!    fingerprint is noted — a repeating chunk is admitted on its second
//!    sighting;
//! 2. check the compute-node memoization cache (private per chunk location):
//!    the entry that last hit here is reused if the chunk passes the τ gate
//!    against *its* raw input — no key is computed for a cache hit;
//! 3. on a cache miss, sketch the chunk into its key (`encoder.rs`);
//! 4. probe the memoization database (the paper's memory node; what
//!    shipping the key there costs is priced offline by
//!    `mlr_cluster::replay_trace`, at its 1 KiB coalesced query size): the
//!    scope's entry with the nearest key, among those this job and
//!    iteration may use, goes through the same τ gate;
//! 5. on a database hit, reuse the stored value and cache the entry;
//! 6. otherwise compute the FFT exactly and insert the result asynchronously.
//!
//! Every reuse decision is therefore the paper's Eq. 3 on the chunks
//! themselves ([`tau_gate`](crate::db::tau_gate)), in the cache and in the
//! store alike; the key only picks which stored chunk the store compares.
//!
//! Only `F_u2D` / `F*_u2D` chunks reach an executor, and every one of them
//! takes this path once warm-up is over: the operators run the uniform FFTs
//! (`F_2D`, `F*_2D`, gone after the operation cancellation of Algorithm 2)
//! and the 1-D USFFTs, whose compute costs about what a hit does, as whole
//! plane loops.
//!
//! # What a chunk's output slot receives
//!
//! Entries are single precision, so a hit is one *widening* copy into the
//! operator's output window. A crashed memory node turns a hit into a
//! recompute of the same input, and a fault must not change a bit: every
//! lane chosen by store state (prefiltered, failed memo, cache hit, db hit)
//! emits `widen(narrow(F(x)))`, rounding fused into the emit copy; the lane
//! chosen by configuration alone (`computed`: memoization disabled, or
//! warm-up) emits the exact `f64` result.

use crate::cache::{CacheKind, MemoCache};
use crate::db::MemoDbConfig;
use crate::encoder::EncoderConfig;
use crate::eviction::{recompute_cost_estimate, CapacityBudget};
use crate::fingerprint::ChunkFingerprint;
use crate::sharded::ShardedMemoDb;
use crate::stats::{MemoCase, MemoStats};
use crate::store::{JobId, MemoStore, ProbeOutcome, Provenance};
use mlr_lamino::{ChunkRequest, FftExecutor, FftOpKind};
use mlr_math::complex::{round_into, widen_into};
use mlr_math::{Complex32, Complex64};
use mlr_telemetry::{SpanKind, StageId, StageTable, Telemetry};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

/// Starts a stage clock only when telemetry is enabled. Stage clocks are
/// the engine's only timing: with a disabled recorder it reads no clock at
/// all.
#[inline]
#[expect(clippy::disallowed_methods, reason = "decoration: stage clocks")]
fn stage_clock(enabled: bool) -> Option<Instant> {
    enabled.then(Instant::now)
}

/// Elapsed nanoseconds of a stage clock (0 when telemetry is disabled).
#[inline]
fn stage_ns(start: Option<Instant>) -> u64 {
    start.map_or(0, |s| s.elapsed().as_nanos() as u64)
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoConfig {
    /// `τ` of the store [`MemoizedExecutor::private`] builds (default 0.92).
    pub tau: f64,
    /// Master switch: when `false` every invocation is computed exactly
    /// (useful for producing the reference reconstruction).
    pub enabled: bool,
    /// Cache organisation (private per location vs. global).
    pub cache_kind: CacheKind,
    /// Number of initial ADMM iterations during which memoization is not
    /// consulted: early iterates change too quickly for reuse to be safe, and
    /// the paper's own characterisation (Figure 4) shows similar chunks only
    /// start appearing after the first iterations.
    pub warmup_iterations: usize,
    /// Capacity caps for the memoization database: unbounded here, but
    /// `MlrPipeline::new` (mlr-core) bounds an unbounded budget at two outer
    /// iterations of chunk traffic. A private store takes it through
    /// [`Self::db_config`]; the runtime's shared store carries its own copy.
    pub budget: CapacityBudget,
}

impl Default for MemoConfig {
    fn default() -> Self {
        Self {
            tau: 0.92,
            enabled: true,
            cache_kind: CacheKind::Private,
            warmup_iterations: 2,
            budget: CapacityBudget::unbounded(),
        }
    }
}

impl MemoConfig {
    /// The store configuration of a job configured like this (`tau`,
    /// `budget`). The one conversion — private stores,
    /// pipeline-built shared stores and the runtime's store all go through
    /// it.
    pub fn db_config(&self) -> MemoDbConfig {
        MemoDbConfig {
            tau: self.tau,
            budget: self.budget,
        }
    }
}

/// Per-executor mutable state behind one lock: the statistics are private
/// to one job and only touched during the *ordered commit* phase, so a
/// single mutex suffices and is never held while a chunk computes. The
/// compute-node cache lives outside this lock, behind a read-write lock:
/// phase 1 only peeks it. The memoization database itself lives behind the
/// [`MemoStore`] seam, so several executors can share one store
/// concurrently.
struct EngineState {
    /// Fixed-arity `Copy` counter table: `stats()` snapshots it with one
    /// memcpy under the lock.
    stats: MemoStats,
    iteration: usize,
}

/// What a chunk's output slot receives: phase 1 emits a computed lane, the
/// ordered commit a hit (the module docs say which lane emits which bits).
enum Emit<'a> {
    /// An exact result: copied as it is, or — `round` — emitted as
    /// `widen(narrow(·))`, the bits a hit on the same input serves.
    Computed { exact: &'a [Complex64], round: bool },
    /// A stored value, widened.
    Stored(&'a [Complex32]),
}

impl Emit<'_> {
    fn len(&self) -> usize {
        match self {
            Emit::Computed { exact, .. } => exact.len(),
            Emit::Stored(v) => v.len(),
        }
    }

    fn write_into(self, dst: &mut [Complex64]) {
        match self {
            Emit::Stored(v) => widen_into(v, dst),
            // A result `f32` cannot hold is never stored, so no hit can
            // disagree with it: it stays exact.
            Emit::Computed { exact, round } => {
                if !(round && round_into(exact, dst)) {
                    dst.copy_from_slice(exact);
                }
            }
        }
    }
}

/// Per-chunk result of phase 1, carried into the ordered commit.
enum ProbeCase {
    /// A stored value is reused (a shared buffer, never a copy — the commit
    /// widens it straight into the output slice): the compute-node cache
    /// held one similar enough (`db: None`), or the database probe passed
    /// the τ gate with this entry.
    Hit {
        value: Arc<[Complex32]>,
        db: Option<DbHit>,
    },
    /// The exact transform was computed, and emitted, in phase 1. `case`
    /// says why: [`MemoCase::FailedMemo`] when cache, key and database found
    /// nothing reusable — the one lane that carries its result (`insert`)
    /// to the commit, which stores it; otherwise no key was encoded and no
    /// query issued — [`MemoCase::Prefiltered`] by the norm prefilter,
    /// [`MemoCase::Computed`] when memoization does not apply (disabled,
    /// warm-up). `fft_ns` is the exact compute's stage time (0 when
    /// telemetry is disabled).
    Computed {
        insert: Option<Vec<Complex64>>,
        fft_ns: u64,
        case: MemoCase,
    },
}

/// The database entry behind a db hit: what the commit accounts the hit to
/// and what it hands the compute-node cache.
struct DbHit {
    entry: u64,
    origin: Provenance,
    raw: (f64, Arc<[Complex32]>),
}

/// What phase 1 produces for one chunk beside its [`ProbeCase`]: its key
/// (if the chunk got as far as the database), the compute-node-cache
/// accounting to replay, and its stage timings (folded into the recorder
/// during the ordered commit — never under the state lock while
/// computing).
#[derive(Default)]
struct ChunkTrail {
    /// Empty unless the database was probed.
    key: Vec<f64>,
    /// The chunk's fingerprint, noted into the scope's doorkeeper history
    /// at ordered commit (`Some` whenever the dispatch memoizes).
    fingerprint: Option<ChunkFingerprint>,
    cache_checked: bool,
    cache_comparisons: u64,
    /// Stage timings (ns), all zero when telemetry is disabled.
    prefilter_ns: u64,
    peek_ns: u64,
    encode_ns: u64,
    probe_ns: u64,
}

/// What one dispatch — an operator batch, or `execute`'s single chunk —
/// fixes before its phase 1, read by both phases.
struct Dispatch {
    iteration: usize,
    /// Memoization is enabled and warm-up is over: every chunk of the
    /// dispatch takes the memo path.
    memoize: bool,
    tel_on: bool,
    origin: Provenance,
}

/// One chunk as both phases see it: location, input, exact compute. Generic
/// over the compute closure so `execute` (whose closure is not `Sync` and
/// therefore cannot ride in a `ChunkRequest`) shares the batch path's code.
type Task<'a, F> = (usize, &'a [Complex64], &'a F);

/// The memoized FFT executor.
pub struct MemoizedExecutor {
    config: MemoConfig,
    /// The job this executor runs on behalf of (0 for standalone use);
    /// stamped into every insert so shared stores can gate intra-job reuse
    /// and account cross-job hits.
    job: JobId,
    store: Arc<dyn MemoStore>,
    /// Compute-node cache: peeked (read) by phase 1, written only during
    /// the ordered commit.
    cache: RwLock<MemoCache>,
    state: Mutex<EngineState>,
    /// Telemetry recorder (disabled by default). Stage timers and span
    /// emission are gated on `telemetry.is_enabled()` captured once per
    /// batch, so the disabled form adds one branch per batch, not per chunk.
    telemetry: Telemetry,
}

impl MemoizedExecutor {
    /// Creates an executor backed by a private store: a one-shard
    /// [`ShardedMemoDb`] configured by [`MemoConfig::db_config`].
    pub fn private(config: MemoConfig) -> Self {
        let store = ShardedMemoDb::with_shards(config.db_config(), 1);
        Self::with_store(config, Arc::new(store), 0)
    }

    /// [`Self::private`]. Exists for `examples/benchmark`'s frozen call
    /// shape (nothing else may call it); a `[benchmark]` PR removes it.
    pub fn new(config: MemoConfig, _encoder_config: EncoderConfig, _seed: u64) -> Self {
        Self::private(config)
    }

    /// Creates an executor on top of a (possibly shared) memo store, on
    /// behalf of job `job`. This is the multi-tenant entry point used by the
    /// runtime: several executors built over one `Arc<ShardedMemoDb>` reuse
    /// each other's entries.
    pub fn with_store(config: MemoConfig, store: Arc<dyn MemoStore>, job: JobId) -> Self {
        Self {
            config,
            job,
            store,
            cache: RwLock::new(MemoCache::new(config.cache_kind)),
            state: Mutex::new(EngineState {
                stats: MemoStats::new(),
                iteration: 0,
            }),
            telemetry: Telemetry::disabled(),
        }
    }

    /// `self`, unchanged: every batch runs on the calling thread, and the
    /// only fork inside a job is the operators' plane loop. Exists for
    /// `examples/benchmark`'s frozen call shape (nothing else may call it);
    /// a `[benchmark]` PR removes it.
    pub fn with_parallelism(self, _threads: usize, _governor: Option<Infallible>) -> Self {
        self
    }

    /// Attaches a telemetry recorder: per-iteration and per-batch lifecycle
    /// spans and hit-path stage histograms (prefilter / cache-peek / encode
    /// / probe / payload-copy / miss-FFT / insert). Chunk counts stay in
    /// [`Self::stats`]; a batch is one `Operator` span. The default is
    /// [`Telemetry::disabled`], which records nothing and reads no clock.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The telemetry recorder attached to this executor.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The executor configuration.
    pub fn config(&self) -> &MemoConfig {
        &self.config
    }

    /// The job this executor is attributed to.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The memo store backing this executor.
    pub fn store(&self) -> &Arc<dyn MemoStore> {
        &self.store
    }

    /// Marks the start of a new ADMM (outer) iteration; used by the
    /// freshness rule and reports.
    pub fn begin_iteration(&self, iteration: usize) {
        self.state.lock().iteration = iteration;
        self.telemetry
            .span(self.job, SpanKind::Iteration, iteration as u64);
    }

    /// Snapshot of the accumulated statistics: a plain copy of the fixed
    /// counter table, taken under the state lock.
    pub fn stats(&self) -> MemoStats {
        self.state.lock().stats
    }

    /// Snapshot of the compute-node cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.read().stats()
    }

    /// Number of entries in the memoization database.
    pub fn db_len(&self) -> usize {
        self.store.len()
    }

    /// Resident bytes of the value database.
    pub fn db_value_bytes(&self) -> u64 {
        self.store.value_bytes()
    }

    /// Freezes what a dispatch needs before its phase 1.
    fn dispatch(&self) -> Dispatch {
        let iteration = self.state.lock().iteration;
        let memoize = self.config.enabled && iteration >= self.config.warmup_iterations;
        Dispatch {
            iteration,
            memoize,
            tel_on: self.telemetry.is_enabled(),
            origin: Provenance {
                job: self.job,
                iteration,
            },
        }
    }

    /// **Phase 1** for one chunk of a dispatch: in a memoizing dispatch it
    /// takes its fingerprint, peeks the compute-node cache (read-only), and
    /// — on a cache miss — sketches its key, probes the database (read-only)
    /// and, finding nothing, computes the exact transform; otherwise it only
    /// computes. A computed result goes to `emit` at once: only a failed
    /// memo's, which the commit inserts, outlives this call. Every chunk of
    /// a dispatch runs this before any of them commits, so all probe the
    /// store, cache and doorkeeper state *frozen at the start of the
    /// application*. Inserts from this application only become visible at
    /// the next one, which loses nothing: the provenance freshness gate
    /// already makes same-job entries of the current iteration ineligible.
    fn probe_chunk<F>(
        &self,
        kind: FftOpKind,
        d: &Dispatch,
        (loc, input, compute): Task<'_, F>,
        emit: impl FnOnce(Emit<'_>),
    ) -> (ProbeCase, ChunkTrail)
    where
        F: Fn(&[Complex64]) -> Vec<Complex64> + ?Sized,
    {
        let tel_on = d.tel_on;
        let computed = |case| {
            let fft_clock = stage_clock(tel_on);
            let output = compute(input);
            let fft_ns = stage_ns(fft_clock);
            // Only the lane chosen by input and configuration alone keeps
            // its exact bits (see the module docs).
            let round = case != MemoCase::Computed;
            emit(Emit::Computed {
                exact: &output,
                round,
            });
            let insert = (case == MemoCase::FailedMemo).then_some(output);
            ProbeCase::Computed {
                insert,
                fft_ns,
                case,
            }
        };
        let mut chunk = ChunkTrail::default();
        let case = 'lane: {
            if !d.memoize {
                break 'lane computed(MemoCase::Computed);
            }
            // Fingerprint + doorkeeper decision, read-only against the
            // history frozen at the start of the application (notes happen
            // at ordered commit).
            let prefilter_clock = stage_clock(tel_on);
            let fp = ChunkFingerprint::compute(input);
            chunk.fingerprint = Some(fp);
            let admitted = self.store.has_fingerprint_neighbor(kind, loc, &fp);
            chunk.prefilter_ns = stage_ns(prefilter_clock);
            if !admitted {
                break 'lane computed(MemoCase::Prefiltered);
            }
            // The cache is gated on the raw chunk: a hit needs no key.
            let peek_clock = stage_clock(tel_on);
            let tau = self.store.config().tau;
            let (cached, comparisons) = self.cache.read().peek(kind, loc, input, tau, d.iteration);
            chunk.peek_ns = stage_ns(peek_clock);
            chunk.cache_checked = true;
            chunk.cache_comparisons = comparisons;
            if let Some(value) = cached {
                break 'lane ProbeCase::Hit { value, db: None };
            }
            let encode_clock = stage_clock(tel_on);
            chunk.key = self.store.encode(input);
            chunk.encode_ns = stage_ns(encode_clock);
            let probe_clock = stage_clock(tel_on);
            let probe = self
                .store
                .probe_with_key(kind, loc, input, &chunk.key, d.origin);
            chunk.probe_ns = stage_ns(probe_clock);
            match probe {
                ProbeOutcome::Hit {
                    value,
                    raw,
                    entry,
                    origin,
                    ..
                } => ProbeCase::Hit {
                    value,
                    db: Some(DbHit { entry, origin, raw }),
                },
                ProbeOutcome::Miss => computed(MemoCase::FailedMemo),
            }
        };
        (case, chunk)
    }

    /// **Phase 2 (ordered commit):** in chunk-index order, replay every side
    /// effect of the `scratch` a dispatch's phase 1 produced — statistics,
    /// cache updates, store hit/miss bookkeeping (logical ticks!) and
    /// inserts with their eviction enforcement — and hand each hit's stored
    /// value to `emit`. A chunk's ticks and evictions land in commit order,
    /// after the whole batch has probed, so a hit found in phase 1 stays a
    /// hit even if an earlier chunk's insert evicts its entry.
    fn commit<'a, F>(
        &self,
        kind: FftOpKind,
        d: &Dispatch,
        task: &impl Fn(usize) -> Task<'a, F>,
        scratch: Vec<(ProbeCase, ChunkTrail)>,
        mut emit: impl FnMut(usize, Emit<'_>),
    ) where
        F: ?Sized + 'a,
    {
        let (iteration, tel_on, origin) = (d.iteration, d.tel_on, d.origin);
        let n = scratch.len();
        let mut state = self.state.lock();
        // Stage scratch lives on this stack frame (a `Copy` table, zero
        // allocation) and folds into the shared registry once per batch —
        // the same discipline as `MemoStats`, preserving the fig22
        // allocation gate with telemetry enabled.
        let mut stage_scratch = StageTable::new();
        for (i, (case, chunk)) in scratch.into_iter().enumerate() {
            let (loc, input, _) = task(i);
            // Doorkeeper bookkeeping happens in chunk-index order, like
            // every other side effect: every committed chunk's fingerprint
            // is noted, including prefiltered ones — a repeating chunk is
            // admitted (and inserted) on its second sighting.
            if let Some(fp) = chunk.fingerprint {
                self.store.note_fingerprint(kind, loc, fp);
            }
            let cache_hit = matches!(case, ProbeCase::Hit { db: None, .. });
            // A key was encoded iff the chunk missed the cache it checked.
            let encoded = chunk.cache_checked && !cache_hit;
            if encoded {
                state.stats.add_encoded_key(kind);
            }
            if chunk.cache_checked {
                self.cache
                    .write()
                    .note_lookup(cache_hit, chunk.cache_comparisons);
            }
            if tel_on {
                if chunk.fingerprint.is_some() {
                    stage_scratch.record(StageId::Prefilter, chunk.prefilter_ns);
                }
                if chunk.cache_checked {
                    stage_scratch.record(StageId::CachePeek, chunk.peek_ns);
                }
                if encoded {
                    stage_scratch.record(StageId::Encode, chunk.encode_ns);
                    stage_scratch.record(StageId::IvfProbe, chunk.probe_ns);
                }
            }
            match case {
                ProbeCase::Hit { value, db } => {
                    let case = match &db {
                        Some(hit) => {
                            self.store
                                .commit_hit(kind, loc, hit.entry, hit.origin, origin);
                            MemoCase::DbHit
                        }
                        None => MemoCase::CacheHit,
                    };
                    state.stats.record(kind, case);
                    // Zero-copy hit: one widening copy from the shared payload
                    // into the operator's grid window, no intermediate Vec.
                    let copy_clock = stage_clock(tel_on);
                    emit(i, Emit::Stored(&value));
                    if tel_on {
                        stage_scratch.record(StageId::PayloadCopy, stage_ns(copy_clock));
                    }
                    if let Some(hit) = db {
                        // The cache shares the entry's buffers (Arcs): this
                        // location's next chunk is gated against the very
                        // raw input the store just gated this one against.
                        self.cache
                            .write()
                            .insert(kind, loc, hit.raw, value, iteration);
                    }
                }
                ProbeCase::Computed {
                    insert,
                    fft_ns,
                    case,
                } => {
                    state.stats.record(kind, case);
                    if tel_on {
                        stage_scratch.record(StageId::MissFft, fft_ns);
                    }
                    // Only a failed memo has a key to insert under (a
                    // prefiltered chunk inserts on its next sighting), priced
                    // by the analytic cost model: wall-clock timings would
                    // make eviction irreproducible.
                    if let Some(output) = insert {
                        self.store.commit_miss(kind, loc);
                        let cost = recompute_cost_estimate(kind, input.len());
                        let insert_clock = stage_clock(tel_on);
                        self.store
                            .insert(kind, loc, input, chunk.key, output, origin, cost);
                        if tel_on {
                            stage_scratch.record(StageId::Insert, stage_ns(insert_clock));
                        }
                    }
                }
            }
        }
        if tel_on {
            drop(state);
            self.telemetry.fold_stages(&stage_scratch);
            self.telemetry.span(self.job, SpanKind::Operator, n as u64);
        }
    }
}

impl FftExecutor for MemoizedExecutor {
    fn begin_iteration(&self, iteration: usize) {
        MemoizedExecutor::begin_iteration(self, iteration);
    }

    /// The batch path applied to one chunk.
    fn execute(
        &self,
        kind: FftOpKind,
        loc: usize,
        input: &[Complex64],
        compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
    ) -> Vec<Complex64> {
        let d = self.dispatch();
        let task = |_| (loc, input, compute);
        let mut out = Vec::new();
        let mut emit = |v: Emit<'_>| {
            out.resize(v.len(), Complex64::ZERO);
            v.write_into(&mut out)
        };
        let scratch = vec![self.probe_chunk(kind, &d, task(0), &mut emit)];
        self.commit(kind, &d, &task, scratch, |_, v| emit(v));
        out
    }

    /// The two-phase schedule, on the calling thread: phase 1
    /// (`probe_chunk`, which writes every computed chunk's slot) over the
    /// whole batch, then phase 2 (`commit`, which writes the hits') in
    /// chunk-index order.
    fn execute_batch_into(
        &self,
        kind: FftOpKind,
        batch: &[ChunkRequest<'_>],
        outputs: &mut [&mut [Complex64]],
    ) {
        assert_eq!(batch.len(), outputs.len(), "batch/output arity mismatch");
        if batch.is_empty() {
            return;
        }
        let d = self.dispatch();
        let task = |i: usize| (batch[i].loc, batch[i].input, batch[i].compute);
        let scratch = outputs
            .iter_mut()
            .enumerate()
            .map(|(i, out)| self.probe_chunk(kind, &d, task(i), |v| v.write_into(out)))
            .collect();
        self.commit(kind, &d, &task, scratch, |i, v| v.write_into(outputs[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_lamino::DirectExecutor;
    use mlr_math::rng::seeded;
    use rand::Rng;

    /// Default config with warm-up disabled so the protocol is exercised
    /// from the first call.
    fn test_config() -> MemoConfig {
        MemoConfig {
            warmup_iterations: 0,
            ..Default::default()
        }
    }

    fn chunk(seed: u64, n: usize) -> Vec<Complex64> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| Complex64::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    /// A deterministic stand-in FFT: negate and swap components.
    fn fake_fft(input: &[Complex64]) -> Vec<Complex64> {
        input.iter().map(|z| Complex64::new(-z.im, z.re)).collect()
    }

    #[test]
    fn identical_inputs_hit_after_first_miss() {
        let exec = MemoizedExecutor::private(test_config());
        let input = chunk(1, 128);
        // First sighting: the doorkeeper prefilter has no history for the
        // scope, so the chunk goes straight to the exact FFT (no insert).
        exec.begin_iteration(0);
        let first = exec.execute(FftOpKind::Fu2D, 0, &input, &fake_fft);
        // Second sighting: the noted fingerprint admits it — full path,
        // miss, insert.
        exec.begin_iteration(1);
        let second = exec.execute(FftOpKind::Fu2D, 0, &input, &fake_fft);
        // Third sighting: served from memory.
        exec.begin_iteration(2);
        let third = exec.execute(FftOpKind::Fu2D, 0, &input, &fake_fft);
        assert_eq!(first, second);
        assert_eq!(first, third);
        let stats = exec.stats().op(FftOpKind::Fu2D);
        assert_eq!(stats.prefiltered, 1);
        assert_eq!(stats.failed_memo, 1);
        assert_eq!(stats.db_hits + stats.cache_hits, 1);
        assert_eq!(exec.db_len(), 1);
    }

    #[test]
    fn cache_hit_comes_from_compute_node_cache() {
        let exec = MemoizedExecutor::private(test_config());
        let input = chunk(2, 128);
        // Iteration 0 is prefiltered (first sighting), iteration 1 misses
        // and inserts, iteration 2 hits the DB (and fills the cache),
        // subsequent ones hit the cache.
        for it in 0..4 {
            exec.begin_iteration(it);
            let _ = exec.execute(FftOpKind::Fu2D, 5, &input, &fake_fft);
        }
        let stats = exec.stats().op(FftOpKind::Fu2D);
        assert_eq!(stats.prefiltered, 1);
        assert_eq!(stats.failed_memo, 1);
        assert!(stats.cache_hits >= 1, "stats: {stats:?}");
    }

    #[test]
    fn chunks_of_any_length_and_kind_take_the_memo_path() {
        // Lengths and a kind the operators never dispatch used to be
        // computed without a key; now every chunk past warm-up is first
        // prefiltered, then a failed memo, then a hit.
        for (kind, n) in [
            (FftOpKind::Fu1D, 128),
            (FftOpKind::Fu2D, 80),
            (FftOpKind::Fu2DAdj, 1),
        ] {
            let exec = MemoizedExecutor::private(test_config());
            let input = chunk(2, n);
            for it in 0..3 {
                exec.begin_iteration(it);
                let _ = exec.execute(kind, 5, &input, &fake_fft);
            }
            let stats = exec.stats().op(kind);
            let lanes = (stats.computed, stats.prefiltered, stats.failed_memo);
            assert_eq!(lanes, (0, 1, 1), "{kind:?} at {n}");
            assert_eq!(stats.db_hits + stats.cache_hits, 1, "{kind:?} at {n}");
            assert_eq!(exec.db_len(), 1);
        }
    }

    #[test]
    fn disabled_memoization_always_computes() {
        let config = MemoConfig {
            enabled: false,
            ..test_config()
        };
        let exec = MemoizedExecutor::private(config);
        let input = chunk(3, 64);
        for _ in 0..3 {
            let out = exec.execute(FftOpKind::Fu2D, 0, &input, &fake_fft);
            assert_eq!(out, fake_fft(&input));
        }
        let stats = exec.stats().op(FftOpKind::Fu2D);
        assert_eq!(stats.computed, 3);
        assert_eq!(stats.failed_memo + stats.db_hits + stats.cache_hits, 0);
        assert_eq!(exec.db_len(), 0);
    }

    #[test]
    fn results_match_direct_executor_when_inputs_differ() {
        // With completely different inputs every call, memoization never
        // hits, so outputs must equal the exact computation rounded through
        // the stored format. Each chunk is the first sighting in its own
        // location scope, so the norm prefilter routes all of them straight
        // to the exact FFT — no key is computed on this
        // unique-chunk workload.
        let exec = MemoizedExecutor::private(test_config());
        let rounded_direct = |loc: usize, input: &[Complex64]| {
            let exact = DirectExecutor.execute(FftOpKind::Fu2D, loc, input, &fake_fft);
            let mut rounded = vec![Complex64::ZERO; exact.len()];
            assert!(round_into(&exact, &mut rounded) && rounded != exact);
            rounded
        };
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let inputs: Vec<_> = (0..5).map(|i| chunk(100 + i, 96)).collect();
        for (loc, input) in inputs.iter().enumerate() {
            let memo_out = exec.execute(FftOpKind::Fu2D, loc, input, &fake_fft);
            assert_eq!(memo_out, rounded_direct(loc, input));
        }
        let stats = exec.stats().op(FftOpKind::Fu2D);
        assert_eq!(stats.prefiltered, 5);
        assert_eq!(stats.keys_encoded, 0);
        assert_eq!(stats.db_hits + stats.cache_hits, 0);
        assert_eq!(exec.db_len(), 0);

        // The same five chunks again, in the same iteration: their noted
        // fingerprints admit them, so each pays the key and the probe,
        // misses (nothing was inserted on the first sighting), is computed
        // exactly and inserted.
        let mut missed = Vec::new();
        for (loc, input) in inputs.iter().enumerate() {
            missed.push(exec.execute(FftOpKind::Fu2D, loc, input, &fake_fft));
            assert_eq!(missed[loc], rounded_direct(loc, input));
        }
        let stats = exec.stats().op(FftOpKind::Fu2D);
        assert_eq!(stats.prefiltered, 5);
        assert_eq!(stats.failed_memo, 5);
        assert_eq!(stats.keys_encoded, 5);
        assert_eq!(exec.db_len(), 5);

        // Next iteration: every chunk is served from the store, with the
        // very bits the miss that inserted it returned.
        exec.begin_iteration(1);
        for (loc, input) in inputs.iter().enumerate() {
            let hit = exec.execute(FftOpKind::Fu2D, loc, input, &fake_fft);
            assert_eq!(bits(&hit), bits(&missed[loc]));
        }
        assert_eq!(exec.stats().op(FftOpKind::Fu2D).db_hits, 5);
    }

    #[test]
    fn similar_inputs_reuse_stored_value_approximately() {
        let config = MemoConfig {
            tau: 0.90,
            ..test_config()
        };
        let exec = MemoizedExecutor::private(config);
        let base = chunk(6, 256);
        // Iteration 0 primes the doorkeeper (prefiltered, nothing stored);
        // iteration 1 inserts the exact base result.
        exec.begin_iteration(0);
        let _ = exec.execute(FftOpKind::Fu2D, 0, &base, &fake_fft);
        exec.begin_iteration(1);
        let exact_base = exec.execute(FftOpKind::Fu2D, 0, &base, &fake_fft);
        // Slightly perturbed input in the next iteration: similar enough to
        // reuse.
        let perturbed: Vec<Complex64> = base
            .iter()
            .map(|z| *z + Complex64::new(0.01, -0.01))
            .collect();
        exec.begin_iteration(2);
        let reused = exec.execute(FftOpKind::Fu2D, 0, &perturbed, &fake_fft);
        // The reused value is the *stored* result, i.e. an approximation of
        // the exact result for the perturbed input.
        assert_eq!(reused, exact_base);
        let exact_perturbed = fake_fft(&perturbed);
        let err = mlr_math::norms::l2_distance_c(&reused, &exact_perturbed)
            / mlr_math::norms::l2_norm_c(&exact_perturbed);
        assert!(err < 0.05, "approximation error too large: {err}");
        let stats = exec.stats().op(FftOpKind::Fu2D);
        assert_eq!(stats.db_hits + stats.cache_hits, 1);
    }

    #[test]
    fn single_chunk_execute_matches_one_element_batches() {
        // The sequential `execute` path and the batched scheduler are two
        // implementations of the same protocol; driving one executor chunk
        // by chunk and another with one-element batches (identical
        // semantics: a one-element batch has no intra-batch visibility
        // deferral) must produce the same outputs and the same case counts,
        // so the paths cannot silently drift apart.
        let sequential = MemoizedExecutor::private(test_config());
        let batched = MemoizedExecutor::private(test_config());
        for it in 0..4 {
            sequential.begin_iteration(it);
            batched.begin_iteration(it);
            for loc in 0..3usize {
                // Slowly drifting per-location inputs: exercises misses,
                // db hits and cache hits across iterations.
                let input: Vec<Complex64> = chunk(40 + loc as u64, 128)
                    .iter()
                    .map(|z| z.scale(1.0 + 0.001 * it as f64))
                    .collect();
                let a = sequential.execute(FftOpKind::Fu2D, loc, &input, &fake_fft);
                let compute = |x: &[Complex64]| fake_fft(x);
                let requests = [mlr_lamino::ChunkRequest {
                    loc,
                    input: &input,
                    compute: &compute,
                }];
                let mut b = vec![Complex64::ZERO; input.len()];
                batched.execute_batch_into(FftOpKind::Fu2D, &requests, &mut [&mut b[..]]);
                assert_eq!(a, b, "paths diverged at iteration {it}, loc {loc}");
            }
        }
        let sa = sequential.stats().op(FftOpKind::Fu2D);
        let sb = batched.stats().op(FftOpKind::Fu2D);
        assert_eq!(
            (sa.failed_memo, sa.db_hits, sa.cache_hits, sa.keys_encoded),
            (sb.failed_memo, sb.db_hits, sb.cache_hits, sb.keys_encoded)
        );
        assert_eq!(sa.prefiltered, sb.prefiltered);
        assert!(sa.db_hits + sa.cache_hits > 0, "trace never hit — vacuous");
    }

    #[test]
    fn a_batch_probes_the_store_as_it_was_at_dispatch() {
        // One-entry store. Iteration 0 primes both doorkeepers, iteration 1
        // inserts E1 (location 1). In iteration 2, chunk 0's miss inserts
        // E0, which evicts E1 at commit; chunk 1 probed E1 before any chunk
        // committed, so it is still a db hit serving E1's bits, and
        // `commit_hit` skips the refresh of the evicted entry. Probing and
        // committing chunk by chunk would make chunk 1 a failed memo.
        let exec = MemoizedExecutor::private(MemoConfig {
            budget: CapacityBudget::entries(1),
            ..test_config()
        });
        let (x0, x1) = (chunk(300, 128), chunk(301, 128));
        let run = |it: usize, chunks: &[(usize, &[Complex64])], scale: f64| {
            exec.begin_iteration(it);
            let compute = |x: &[Complex64]| -> Vec<Complex64> {
                fake_fft(x).iter().map(|z| z.scale(scale)).collect()
            };
            let batch: Vec<ChunkRequest<'_>> = chunks
                .iter()
                .map(|&(loc, input)| ChunkRequest {
                    loc,
                    input,
                    compute: &compute,
                })
                .collect();
            let mut outputs = vec![vec![Complex64::ZERO; 128]; chunks.len()];
            let mut slots: Vec<&mut [Complex64]> =
                outputs.iter_mut().map(|v| v.as_mut_slice()).collect();
            exec.execute_batch_into(FftOpKind::Fu2D, &batch, &mut slots);
            outputs
        };
        run(0, &[(0, &x0), (1, &x1)], 1.0);
        let e1 = run(1, &[(1, &x1)], 1.0).remove(0);
        let failed = exec.stats().op(FftOpKind::Fu2D).failed_memo;
        assert_eq!((failed, exec.db_len()), (1, 1));
        // A recompute in iteration 2 would emit twice E1's value.
        let third = run(2, &[(0, &x0), (1, &x1)], 2.0);
        assert_eq!(third[1], e1, "chunk 1 did not serve E1's bits");
        let stats = exec.stats().op(FftOpKind::Fu2D);
        assert_eq!(
            (stats.prefiltered, stats.failed_memo, stats.db_hits),
            (2, 2, 1),
            "{stats:?}"
        );
        let store = exec.store().stats();
        assert_eq!((store.evictions, store.entries, store.hits), (1, 1, 1));
    }

    #[test]
    fn repeating_chunks_reach_the_store_on_their_second_sighting() {
        let exec = MemoizedExecutor::private(test_config());
        // Six unique chunks at six locations. First sighting: the doorkeeper sends every
        // one to the exact FFT — no key, no cache lookup, nothing stored.
        for i in 0..6 {
            let _ = exec.execute(FftOpKind::Fu2D, i, &chunk(200 + i as u64, 128), &fake_fft);
        }
        let first = exec.stats().op(FftOpKind::Fu2D);
        assert_eq!((first.prefiltered, first.keys_encoded), (6, 0));
        assert_eq!(exec.db_value_bytes(), 0);
        assert_eq!(exec.cache_stats().lookups, 0);
        // Second sighting: each is encoded, looked up, missed and inserted.
        for i in 0..6 {
            let _ = exec.execute(FftOpKind::Fu2D, i, &chunk(200 + i as u64, 128), &fake_fft);
        }
        let second = exec.stats().op(FftOpKind::Fu2D);
        assert_eq!((second.prefiltered, second.keys_encoded), (6, 6));
        assert_eq!(second.failed_memo, 6);
        assert_eq!(exec.db_len(), 6);
        assert!(exec.db_value_bytes() > 0);
        assert!(exec.cache_stats().lookups >= 6);
    }
}
