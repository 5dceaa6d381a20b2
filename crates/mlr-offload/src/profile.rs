//! Variable liveness profiles.
//!
//! ADMM-Offload decides what to move and when from a *profile* of one ADMM
//! iteration: for every offloading candidate, the first and last access in
//! every execution phase ("This requires profiling only a single ADMM-FFT
//! iteration and can be automated", §5.1). Here the profile is derived from
//! the analytic workload model: phase durations come from `mlr-sim`'s cost
//! model and the access pattern follows the roles of ψ, λ, g and g_prev in
//! the ADMM recurrences.

use mlr_sim::workload::{AdmmPhase, AdmmWorkload};
use mlr_sim::{CostModel, Seconds};
use serde::{Deserialize, Serialize};

/// One access window of a variable inside one phase, in absolute seconds
/// from the start of the iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessWindow {
    /// The phase performing the access.
    pub phase: AdmmPhase,
    /// Time of the first access within the iteration.
    pub first: Seconds,
    /// Time of the last access within the iteration.
    pub last: Seconds,
}

/// The liveness profile of one variable across one ADMM iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariableProfile {
    /// Variable name (ψ, λ, g, g_prev).
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Whether the variable is an offloading candidate (no pointer aliases).
    pub offloadable: bool,
    /// Access windows in chronological order.
    pub windows: Vec<AccessWindow>,
}

impl VariableProfile {
    /// The idle gap (in seconds) between consecutive access windows `i` and
    /// `i + 1`; this bounds the offload + residency period and corresponds to
    /// the paper's *maximum prefetch distance* of the later window.
    pub fn gap_after(&self, i: usize) -> Option<Seconds> {
        if i + 1 < self.windows.len() {
            Some(self.windows[i + 1].first - self.windows[i].last)
        } else {
            None
        }
    }
}

/// The profile of a full ADMM iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationProfile {
    /// Phase start/end times in execution order.
    pub phases: Vec<(AdmmPhase, Seconds, Seconds)>,
    /// Per-variable liveness.
    pub variables: Vec<VariableProfile>,
    /// Total iteration duration.
    pub duration: Seconds,
    /// Total working-set bytes (all variables, resident baseline).
    pub total_bytes: u64,
}

impl IterationProfile {
    /// Builds the profile from the analytic workload model.
    pub fn from_workload(workload: &AdmmWorkload, cost: &CostModel) -> Self {
        let phase_times = workload.phase_times(cost);
        let mut phases = Vec::with_capacity(phase_times.len());
        let mut t = 0.0;
        for (phase, dur) in &phase_times {
            phases.push((*phase, t, t + dur));
            t += dur;
        }
        let duration = t;
        #[expect(clippy::expect_used, reason = "phase_times covers every AdmmPhase")]
        let span = |phase: AdmmPhase| -> (Seconds, Seconds) {
            phases
                .iter()
                .find(|(p, _, _)| *p == phase)
                .map(|&(_, s, e)| (s, e))
                .expect("phase present")
        };
        let (lsp_s, lsp_e) = span(AdmmPhase::Lsp);
        let (rsp_s, rsp_e) = span(AdmmPhase::Rsp);
        let (lam_s, lam_e) = span(AdmmPhase::LambdaUpdate);
        let (_pen_s, pen_e) = span(AdmmPhase::PenaltyUpdate);

        let catalog = workload.variables();
        let lookup = |name: &str| -> u64 {
            catalog
                .iter()
                .find(|v| v.name == name)
                .map(|v| v.bytes)
                .unwrap_or(0)
        };

        // Access model (one iteration):
        //   ψ:      read at the start of LSP (forms g = ψ − λ/ρ), rewritten in
        //           RSP, read again in the λ update.
        //   λ:      read at the start of LSP, read+written in the λ update.
        //   g:      written throughout LSP (the CG gradient), read at the
        //           start of the *next* LSP — i.e. idle from the end of LSP
        //           to the end of the iteration.
        //   g_prev: read during LSP only.
        let head = |s: Seconds, e: Seconds| s + 0.05 * (e - s);
        let variables = vec![
            VariableProfile {
                name: "psi".to_string(),
                bytes: lookup("psi"),
                offloadable: true,
                windows: vec![
                    AccessWindow {
                        phase: AdmmPhase::Lsp,
                        first: lsp_s,
                        last: head(lsp_s, lsp_e),
                    },
                    AccessWindow {
                        phase: AdmmPhase::Rsp,
                        first: rsp_s,
                        last: rsp_e,
                    },
                    AccessWindow {
                        phase: AdmmPhase::LambdaUpdate,
                        first: lam_s,
                        last: lam_e,
                    },
                ],
            },
            VariableProfile {
                name: "lambda".to_string(),
                bytes: lookup("lambda"),
                offloadable: true,
                windows: vec![
                    AccessWindow {
                        phase: AdmmPhase::Lsp,
                        first: lsp_s,
                        last: head(lsp_s, lsp_e),
                    },
                    AccessWindow {
                        phase: AdmmPhase::Rsp,
                        first: rsp_s,
                        last: rsp_e,
                    },
                    AccessWindow {
                        phase: AdmmPhase::LambdaUpdate,
                        first: lam_s,
                        last: lam_e,
                    },
                ],
            },
            VariableProfile {
                name: "g".to_string(),
                bytes: lookup("g"),
                offloadable: true,
                windows: vec![
                    AccessWindow {
                        phase: AdmmPhase::Lsp,
                        first: lsp_s,
                        last: lsp_e,
                    },
                    AccessWindow {
                        phase: AdmmPhase::PenaltyUpdate,
                        first: pen_e,
                        last: pen_e,
                    },
                ],
            },
            VariableProfile {
                name: "g_prev".to_string(),
                bytes: lookup("g_prev"),
                offloadable: true,
                windows: vec![AccessWindow {
                    phase: AdmmPhase::Lsp,
                    first: lsp_s,
                    last: lsp_e,
                }],
            },
        ];

        let total_bytes = workload.total_bytes();
        Self {
            phases,
            variables,
            duration,
            total_bytes,
        }
    }

    /// Profile of one named variable.
    pub fn variable(&self, name: &str) -> Option<&VariableProfile> {
        self.variables.iter().find(|v| v.name == name)
    }

    /// Names of all offloadable variables.
    pub fn offloadable_names(&self) -> Vec<String> {
        self.variables
            .iter()
            .filter(|v| v.offloadable)
            .map(|v| v.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_sim::workload::ProblemSize;

    fn profile() -> IterationProfile {
        let workload = AdmmWorkload::new(ProblemSize::paper_1k());
        let cost = CostModel::polaris(1);
        IterationProfile::from_workload(&workload, &cost)
    }

    #[test]
    fn phases_are_ordered_and_cover_duration() {
        let p = profile();
        assert_eq!(p.phases.len(), 4);
        for w in p.phases.windows(2) {
            assert!((w[0].2 - w[1].1).abs() < 1e-12, "phases must be contiguous");
        }
        assert!((p.phases.last().unwrap().2 - p.duration).abs() < 1e-9);
        assert!(p.duration > 0.0);
    }

    #[test]
    fn offloadable_variables_match_paper() {
        let p = profile();
        assert_eq!(p.offloadable_names(), vec!["psi", "lambda", "g", "g_prev"]);
        for name in ["psi", "lambda", "g", "g_prev"] {
            assert!(p.variable(name).unwrap().bytes > 0);
        }
        assert!(p.variable("does_not_exist").is_none());
    }

    #[test]
    fn access_windows_are_chronological_with_gaps() {
        let p = profile();
        let psi = p.variable("psi").unwrap();
        assert_eq!(psi.windows.len(), 3);
        for w in psi.windows.windows(2) {
            assert!(w[1].first >= w[0].last);
        }
        // ψ is idle during most of LSP: the gap after its first window is a
        // large fraction of the LSP phase.
        let gap = psi.gap_after(0).unwrap();
        let (_, lsp_s, lsp_e) = p.phases[0];
        assert!(
            gap > 0.5 * (lsp_e - lsp_s),
            "gap {gap} vs LSP {}",
            lsp_e - lsp_s
        );
        assert!(psi.gap_after(2).is_none());
    }
}
