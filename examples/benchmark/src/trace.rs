//! Outside-in tracing: spans recorded from the benchmark's own files around
//! the calls into each layer, through the public `FftExecutor` seam only.
//!
//! A traced reconstruction has three span levels. The root covers the whole
//! `AdmmSolver::run_with` call (`mlr-solver` and everything under it); one
//! executor span covers each `execute_batch_into` dispatch (what the chunk
//! executor — `DirectExecutor` or `mlr-memo`'s engine — does with a stage);
//! one kernel span covers each call of a wrapped `ChunkRequest::compute`
//! closure (`mlr-lamino` chunk kernels over `mlr-fft`). Self time is a
//! span's duration minus the part of it its children cover, so the three
//! ledger rows sum back to the root by construction.

use mlr_lamino::{ChunkRequest, FftExecutor, FftOpKind};
use mlr_math::Complex64;
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub recon_id: u32,
}

/// Span names by `FftOpKind::index()`.
const EXECUTOR_SPANS: [&str; 6] = [
    "executor:Fu1D",
    "executor:F*u1D",
    "executor:Fu2D",
    "executor:F*u2D",
    "executor:F2D",
    "executor:F*2D",
];
const KERNEL_SPANS: [&str; 6] = [
    "kernel:Fu1D",
    "kernel:F*u1D",
    "kernel:Fu2D",
    "kernel:F*u2D",
    "kernel:F2D",
    "kernel:F*2D",
];

/// In-memory span store shared by every traced run of the process; written
/// out once, when the benchmark ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a traced kernel panicked while recording a span")
    }

    /// Opens a span now; `close` stamps its end.
    fn open(&self, name: &'static str, parent: Option<u32>, recon_id: u32) -> u32 {
        let now = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            recon_id,
        });
        (spans.len() - 1) as u32
    }

    fn close(&self, id: u32) {
        let now = self.now_ns();
        self.lock()[id as usize].end_ns = now;
    }

    fn record(&self, name: &'static str, start_ns: u64, parent: u32, recon_id: u32) {
        let end_ns = self.now_ns();
        self.lock().push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            recon_id,
        });
    }

    /// Runs `body` under a root span named `name`, handing it an executor
    /// that wraps `inner` and records the two lower span levels. Returns
    /// the body's value and the root span id (the key for [`Tracer::ledger`]).
    pub fn trace_recon<E: FftExecutor, T>(
        &self,
        name: &'static str,
        recon_id: u32,
        inner: &E,
        body: impl FnOnce(&dyn FftExecutor) -> T,
    ) -> (T, u32) {
        let root = self.open(name, None, recon_id);
        let value = body(&TracingExecutor {
            inner,
            tracer: self,
            root,
            recon_id,
        });
        self.close(root);
        (value, root)
    }

    /// The ledger of the reconstruction under `root`.
    pub fn ledger(&self, root: u32) -> Ledger {
        let spans = self.lock();
        let mut ledger = Ledger {
            wall_s: seconds(spans[root as usize].end_ns - spans[root as usize].start_ns),
            ..Ledger::default()
        };
        let mut executor_intervals = Vec::new();
        // Kernel intervals grouped by their executor span.
        let mut kernels: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
        for (id, span) in spans.iter().enumerate() {
            match span.parent {
                Some(p) if p == root => {
                    executor_intervals.push((span.start_ns, span.end_ns));
                    kernels.entry(id as u32).or_default();
                    let kind = EXECUTOR_SPANS
                        .iter()
                        .position(|n| *n == span.name)
                        .expect("children of a root are executor spans");
                    ledger.executor_s[kind] += seconds(span.end_ns - span.start_ns);
                    ledger.batches += 1;
                }
                Some(p) if spans[p as usize].parent == Some(root) => {
                    kernels
                        .entry(p)
                        .or_default()
                        .push((span.start_ns, span.end_ns));
                    ledger.kernel_calls += 1;
                }
                _ => {}
            }
        }
        let executor_total = covered_ns(&mut executor_intervals);
        let kernel_total: u64 = kernels.values_mut().map(|k| covered_ns(k)).sum();
        ledger.solver_self_s = ledger.wall_s - seconds(executor_total);
        ledger.executor_self_s = seconds(executor_total - kernel_total);
        ledger.kernel_s = seconds(kernel_total);
        ledger
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
    /// per span, one process per reconstruction, one track per span level.
    pub fn chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let spans = self.lock();
        let mut out = String::from("{\"traceEvents\":[");
        for (id, span) in spans.iter().enumerate() {
            let depth = match span.parent {
                None => 0,
                Some(p) if spans[p as usize].parent.is_none() => 1,
                Some(_) => 2,
            };
            if id > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.recon_id,
                depth,
                id,
                span.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn seconds(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Length of the union of `intervals` (children may overlap when chunk
/// kernels run on several threads; a parent's self time excludes only the
/// part of it that some child covers).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Where one traced reconstruction's wall time went.
/// `solver_self_s + executor_self_s + kernel_s == wall_s`.
#[derive(Default)]
pub struct Ledger {
    /// The root span: the whole `run_with` call.
    pub wall_s: f64,
    /// Root minus executor spans: CG/TV/dual updates plus the operators'
    /// gather/scatter around each dispatch.
    pub solver_self_s: f64,
    /// Executor spans minus kernel spans: everything the chunk executor adds
    /// around the exact kernels (for `mlr-memo`: encode, probe, copy, commit).
    pub executor_self_s: f64,
    /// Time inside the wrapped `compute` closures.
    pub kernel_s: f64,
    pub kernel_calls: u64,
    pub batches: u64,
    /// Executor-span seconds by `FftOpKind::index()`.
    pub executor_s: [f64; 6],
}

impl Ledger {
    pub fn print(&self, title: &str, executor_layer: &str) {
        let row = |layer: &str, s: f64| {
            println!(
                "  {layer:<34} {s:>10.4} s {:>6.1} %",
                100.0 * s / self.wall_s
            );
        };
        println!("ledger: {title}");
        row("mlr-solver (self)", self.solver_self_s);
        row(&format!("{executor_layer} (self)"), self.executor_self_s);
        row("mlr-lamino + mlr-fft (kernels)", self.kernel_s);
        row("traced wall", self.wall_s);
    }
}

struct TracingExecutor<'a, E> {
    inner: &'a E,
    tracer: &'a Tracer,
    root: u32,
    recon_id: u32,
}

impl<E: FftExecutor> FftExecutor for TracingExecutor<'_, E> {
    fn execute(
        &self,
        kind: FftOpKind,
        loc: usize,
        input: &[Complex64],
        compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
    ) -> Vec<Complex64> {
        let span = self
            .tracer
            .open(EXECUTOR_SPANS[kind.index()], Some(self.root), self.recon_id);
        let timed = |input: &[Complex64]| {
            let start = self.tracer.now_ns();
            let out = compute(input);
            self.tracer
                .record(KERNEL_SPANS[kind.index()], start, span, self.recon_id);
            out
        };
        let out = self.inner.execute(kind, loc, input, &timed);
        self.tracer.close(span);
        out
    }

    fn execute_batch_into(
        &self,
        kind: FftOpKind,
        batch: &[ChunkRequest<'_>],
        outputs: &mut [&mut [Complex64]],
    ) {
        let span = self
            .tracer
            .open(EXECUTOR_SPANS[kind.index()], Some(self.root), self.recon_id);
        let timed: Vec<_> = batch
            .iter()
            .map(|request| {
                let compute = request.compute;
                move |input: &[Complex64]| {
                    let start = self.tracer.now_ns();
                    let out = compute(input);
                    self.tracer
                        .record(KERNEL_SPANS[kind.index()], start, span, self.recon_id);
                    out
                }
            })
            .collect();
        let wrapped: Vec<ChunkRequest<'_>> = batch
            .iter()
            .zip(&timed)
            .map(|(request, compute)| ChunkRequest {
                loc: request.loc,
                input: request.input,
                compute,
            })
            .collect();
        self.inner.execute_batch_into(kind, &wrapped, outputs);
        self.tracer.close(span);
    }

    fn begin_iteration(&self, iteration: usize) {
        self.inner.begin_iteration(iteration);
    }

    fn finish(&self) {
        self.inner.finish();
    }
}
