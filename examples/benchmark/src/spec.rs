//! The benchmark's fixed tables: workloads, problem seeds, and the metric
//! lists that `BENCHMARK.json` mirrors name for name.

use mlr_core::MlrConfig;

/// Which way a metric improves.
#[derive(Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

/// Constructions timed per pass for `setup_s`.
pub const SETUP_SAMPLES: usize = 9;

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported by every workload with `--trace 0`, in this order.
///
/// No metric here is in absolute seconds except `setup_s`: on the shared
/// 2-vCPU host this was sized on, the same reconstruction alternates
/// between two speeds 37 % apart for twenty minutes at a time, so the spread
/// of wall seconds over ten passes (17-34 %) exceeds any bound the contract
/// allows, while memoized ÷ exact seconds of one pass repeats within 4-11 %.
/// The absolute seconds are per-layer `mlr-core.recon_s` / `mlr-core.exact_s`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recon_vs_exact",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recon_accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Reported by every workload with `--trace 1`, in this order: `(name, unit)`.
/// The layer is the crate named before the first dot.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("mlr-core.recon_s", "s"),
    ("mlr-core.exact_s", "s"),
    ("mlr-core.memo_speedup", "ratio"),
    ("mlr-core.trace_overhead", "ratio"),
    ("mlr-core.allocs_per_recon", "count"),
    ("mlr-core.alloc_mib_per_recon", "MiB"),
    ("mlr-solver.self_s", "s"),
    ("mlr-solver.nonlsp_s", "s"),
    ("mlr-solver.final_loss_ratio", "ratio"),
    ("mlr-solver.exact_loss_drop", "ratio"),
    ("mlr-solver.exact_err_vs_truth", "ratio"),
    ("mlr-lamino.kernel_s", "s"),
    ("mlr-lamino.kernel_calls", "count"),
    ("mlr-lamino.exact_kernel_s", "s"),
    ("mlr-lamino.fu1d_s", "s"),
    ("mlr-lamino.fu2d_s", "s"),
    ("mlr-lamino.fu2d_adj_s", "s"),
    ("mlr-lamino.fu1d_adj_s", "s"),
    ("mlr-lamino.forward_s", "s"),
    ("mlr-lamino.adjoint_s", "s"),
    ("mlr-fft.fft1d_ns_per_elem", "ns/elem"),
    ("mlr-fft.usfft1d_fwd_us", "us"),
    ("mlr-fft.usfft1d_adj_us", "us"),
    ("mlr-fft.usfft2d_fwd_us", "us"),
    ("mlr-fft.usfft2d_adj_us", "us"),
    ("mlr-fft.fft2_plane_us", "us"),
    ("mlr-memo.avoided_fraction", "ratio"),
    ("mlr-memo.db_hits", "count"),
    ("mlr-memo.cache_hits", "count"),
    ("mlr-memo.failed_memo", "count"),
    ("mlr-memo.prefiltered", "count"),
    ("mlr-memo.computed", "count"),
    ("mlr-memo.keys_encoded", "count"),
    ("mlr-memo.entries", "count"),
    ("mlr-memo.db_mib", "MiB"),
    ("mlr-memo.self_s", "s"),
    ("mlr-memo.self_us_per_chunk", "us"),
    ("mlr-memo.encode_s", "s"),
    ("mlr-memo.probe_s", "s"),
    ("mlr-memo.cache_peek_s", "s"),
    ("mlr-memo.payload_copy_s", "s"),
    ("mlr-memo.prefilter_s", "s"),
    ("mlr-memo.unattributed_s", "s"),
    ("mlr-memo.intra_job_speedup_2t", "ratio"),
    ("mlr-memo.encode_us", "us"),
    ("mlr-memo.fingerprint_us", "us"),
    ("mlr-memo.store_probe_us", "us"),
    ("mlr-memo.store_insert_us", "us"),
    ("mlr-runtime.jobs_per_s", "1/s"),
    ("mlr-runtime.job_run_s_p50", "s"),
    ("mlr-runtime.queue_wait_s_p50", "s"),
    ("mlr-runtime.utilisation", "ratio"),
    ("mlr-runtime.interference", "ratio"),
    ("mlr-runtime.worker_scaling", "ratio"),
    ("mlr-runtime.hit_rate", "ratio"),
    ("mlr-runtime.cross_job_hit_rate", "ratio"),
    ("mlr-runtime.accuracy_min", "ratio"),
    ("mlr-runtime.rejected", "count"),
    ("mlr-runtime.worker_restarts", "count"),
    ("mlr-telemetry.enabled_overhead", "ratio"),
    ("mlr-sim.projected_speedup_1k", "ratio"),
];

/// The reconstruction every workload runs, as overrides of
/// `MlrConfig::quick(n, angles)`. The step sizes are pinned near `10 / n²`
/// because the exact solver diverges at the `quick` default of 0.05 from
/// 32³ up (the validity gate trips on it; see the README).
#[derive(Clone, Copy)]
pub struct ReconSpec {
    pub n: usize,
    pub angles: usize,
    pub iterations: usize,
    pub tau: f64,
    pub chunk_size: usize,
    pub initial_step: f64,
}

impl ReconSpec {
    /// The program's input: only the generated config, never the seed itself.
    pub fn config(&self, problem_seed: u64) -> MlrConfig {
        let mut config = MlrConfig::quick(self.n, self.angles)
            .with_iterations(self.iterations)
            .with_tau(self.tau);
        config.chunk_size = self.chunk_size;
        config.admm.initial_step = self.initial_step;
        config.problem.seed = problem_seed;
        config
    }
}

/// A closed burst of `families × replicas` jobs (one phantom per family)
/// through `ServeFront` onto `workers` workers over a `shards`-stripe store.
#[derive(Clone, Copy)]
pub struct ServeShape {
    pub families: usize,
    pub replicas: usize,
    pub workers: usize,
    pub shards: usize,
}

#[derive(Clone, Copy)]
pub enum Shape {
    /// One process, one reconstruction at a time: per round, each of
    /// `problems` distinct phantoms is reconstructed once exactly and
    /// `repeats` times memoized.
    Solo {
        problems: usize,
        repeats: usize,
    },
    Serve(ServeShape),
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub recon: ReconSpec,
    pub shape: Shape,
}

const SERVE: Shape = Shape::Serve(ServeShape {
    families: 4,
    replicas: 3,
    workers: 2,
    shards: 16,
});

/// The measured workloads (sized for 2 cores; see the README for why each).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hit-32",
        recon: ReconSpec {
            n: 32,
            angles: 16,
            iterations: 12,
            tau: 0.92,
            chunk_size: 8,
            initial_step: 0.01,
        },
        shape: Shape::Solo {
            problems: 3,
            repeats: 2,
        },
    },
    Workload {
        name: "strict-48",
        recon: ReconSpec {
            n: 48,
            angles: 24,
            iterations: 5,
            tau: 0.99,
            chunk_size: 8,
            initial_step: 0.004,
        },
        shape: Shape::Solo {
            problems: 2,
            repeats: 2,
        },
    },
    Workload {
        name: "smallchunk-24",
        recon: ReconSpec {
            n: 24,
            angles: 12,
            iterations: 16,
            tau: 0.92,
            chunk_size: 1,
            initial_step: 0.02,
        },
        shape: Shape::Solo {
            problems: 3,
            repeats: 2,
        },
    },
    Workload {
        name: "serve-24x12",
        recon: ReconSpec {
            n: 24,
            angles: 12,
            iterations: 8,
            tau: 0.92,
            chunk_size: 8,
            initial_step: 0.02,
        },
        shape: SERVE,
    },
];

/// The same four shapes at 12³–16³ for `--smoke`: seconds in total, and the
/// output is flagged so it can never be read as a measurement.
pub const SMOKE_WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hit-32",
        recon: ReconSpec {
            n: 16,
            angles: 8,
            iterations: 8,
            tau: 0.92,
            chunk_size: 8,
            initial_step: 0.04,
        },
        shape: Shape::Solo {
            problems: 2,
            repeats: 2,
        },
    },
    Workload {
        name: "strict-48",
        recon: ReconSpec {
            n: 16,
            angles: 8,
            iterations: 5,
            tau: 0.99,
            chunk_size: 8,
            initial_step: 0.04,
        },
        shape: Shape::Solo {
            problems: 2,
            repeats: 2,
        },
    },
    Workload {
        name: "smallchunk-24",
        recon: ReconSpec {
            n: 12,
            angles: 8,
            iterations: 8,
            tau: 0.92,
            chunk_size: 1,
            initial_step: 0.07,
        },
        shape: Shape::Solo {
            problems: 2,
            repeats: 2,
        },
    },
    Workload {
        name: "serve-24x12",
        recon: ReconSpec {
            n: 12,
            angles: 8,
            iterations: 6,
            tau: 0.92,
            chunk_size: 8,
            initial_step: 0.07,
        },
        shape: SERVE,
    },
];

pub fn workloads(smoke: bool) -> &'static [Workload; 4] {
    if smoke {
        &SMOKE_WORKLOADS
    } else {
        &WORKLOADS
    }
}

/// `ProblemSpec.seed` of the `index`-th phantom of a run. Problem 0 is the
/// run seed itself; the others are mixed (splitmix64) so that neighbouring
/// run seeds do not share phantoms.
pub fn problem_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
