//! Pipeline configuration.

use mlr_lamino::{PhantomKind, ProjectionNoise};
use mlr_memo::{CacheKind, CapacityBudget, MemoConfig};
use mlr_solver::AdmmConfig;
use serde::{Deserialize, Serialize};

/// Experiment scale selector used by the harness binaries: `Tiny` and
/// `Small` run the real numerics; `Paper` additionally projects performance
/// onto the paper's 1K³–2K³ problems with the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// 16³–24³ problems, seconds to run; used by tests.
    Tiny,
    /// 32³–48³ problems, the default for the harnesses.
    Small,
    /// Cost-model projection at the paper's sizes.
    Paper,
}

impl Scale {
    /// Parses `tiny` / `small` / `paper` (case-insensitive); defaults to
    /// `Small` for unknown strings.
    pub fn parse(s: &str) -> Self {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Scale::Tiny,
            "paper" => Scale::Paper,
            _ => Scale::Small,
        }
    }

    /// The cubic volume size the real numerics run at for this scale.
    pub fn volume_size(&self) -> usize {
        match self {
            Scale::Tiny => 16,
            Scale::Small => 32,
            Scale::Paper => 32,
        }
    }
}

/// The synthetic acquisition this pipeline reconstructs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Cubic volume dimension.
    pub n: usize,
    /// Number of projection angles.
    pub n_angles: usize,
    /// Laminography tilt angle in degrees.
    pub tilt_degrees: f64,
    /// Phantom family.
    pub phantom: PhantomKind,
    /// Detector noise.
    pub noise: ProjectionNoise,
    /// RNG seed for the phantom and noise.
    pub seed: u64,
}

impl ProblemSpec {
    /// A cubic brain-phantom problem.
    pub fn brain(n: usize, n_angles: usize) -> Self {
        Self {
            n,
            n_angles,
            tilt_degrees: 35.0,
            phantom: PhantomKind::Brain,
            noise: ProjectionNoise::None,
            seed: 7,
        }
    }

    /// A cubic IC-phantom problem (the high-contrast inspection use case).
    pub fn ic(n: usize, n_angles: usize) -> Self {
        Self {
            n,
            n_angles,
            tilt_degrees: 30.0,
            phantom: PhantomKind::Ic,
            noise: ProjectionNoise::None,
            seed: 11,
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlrConfig {
    /// The problem being reconstructed.
    pub problem: ProblemSpec,
    /// ADMM solver parameters.
    pub admm: AdmmConfig,
    /// Memoization parameters.
    pub memo: MemoConfig,
    /// Chunk size (slabs per chunk) for the FFT stages.
    pub chunk_size: usize,
}

impl MlrConfig {
    /// A quick configuration: brain phantom of size `n`, `n_angles`
    /// projections, 10 ADMM iterations, memoization on with τ = 0.92.
    pub fn quick(n: usize, n_angles: usize) -> Self {
        Self {
            problem: ProblemSpec::brain(n, n_angles),
            admm: AdmmConfig {
                outer_iterations: 10,
                n_inner: 3,
                alpha: 1e-4,
                rho: 0.5,
                initial_step: 0.05,
            },
            memo: MemoConfig {
                tau: 0.92,
                ..Default::default()
            },
            chunk_size: 8,
        }
    }

    /// Same as [`Self::quick`] but with the paper's default threshold
    /// replaced by `tau`.
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.memo.tau = tau;
        self
    }

    /// Switches the memoization cache organisation.
    pub fn with_cache(mut self, kind: CacheKind) -> Self {
        self.memo.cache_kind = kind;
        self
    }

    /// Sets the number of outer ADMM iterations.
    pub fn with_iterations(mut self, outer: usize) -> Self {
        self.admm.outer_iterations = outer;
        self
    }

    /// Enables or disables memoization entirely.
    pub fn with_memoization(mut self, enabled: bool) -> Self {
        self.memo.enabled = enabled;
        self
    }

    /// Caps the memoization store with `budget`, which `MlrPipeline::new`
    /// keeps (an unbounded one becomes `STORE_ITERATIONS` outer iterations
    /// of chunk traffic): it flows into `run_memoized`'s private store,
    /// `MlrPipeline::build_shared_store` and `RuntimeConfig::matching`.
    pub fn with_memo_budget(mut self, budget: CapacityBudget) -> Self {
        self.memo.budget = budget;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Scale::Tiny);
        assert_eq!(Scale::parse("PAPER"), Scale::Paper);
        assert_eq!(Scale::parse("anything"), Scale::Small);
        assert_eq!(Scale::Tiny.volume_size(), 16);
    }

    #[test]
    fn quick_config_builders() {
        let c = MlrConfig::quick(16, 8)
            .with_tau(0.9)
            .with_iterations(5)
            .with_memoization(false);
        assert_eq!(c.problem.n, 16);
        assert_eq!(c.memo.tau, 0.9);
        assert_eq!(c.admm.outer_iterations, 5);
        assert!(!c.memo.enabled);
        let ic = ProblemSpec::ic(32, 16);
        assert_eq!(ic.phantom, PhantomKind::Ic);
    }

    #[test]
    fn memo_budget_builder_flows_into_memo_config() {
        let c = MlrConfig::quick(16, 8).with_memo_budget(CapacityBudget::bytes(1 << 20));
        assert_eq!(c.memo.budget.max_bytes, Some(1 << 20));
        assert_eq!(c.memo.db_config().budget, c.memo.budget);
        assert!(c.memo.budget.is_bounded());
    }
}
