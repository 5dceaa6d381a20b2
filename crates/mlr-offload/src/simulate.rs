//! Offloading-strategy simulation.
//!
//! Reproduces Figure 13: RSS over time and total execution time for
//! (1) plain ADMM, (2) ADMM with greedy offloading and (3) ADMM-Offload, plus
//! the LRU-style baseline from the §5.1 discussion. Time comes from the
//! analytic workload model plus the exposed data-movement each strategy
//! incurs.

use crate::planner::{OffloadPlan, OffloadPlanner};
use crate::profile::IterationProfile;
use mlr_sim::{CostModel, Seconds};
use serde::{Deserialize, Serialize};

/// The offloading strategy being simulated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OffloadStrategy {
    /// No offloading: everything stays resident in CPU DRAM.
    None,
    /// Greedy: the four largest variables are offloaded as soon as they are
    /// produced and fetched on demand; the fetches are exposed on the
    /// critical path.
    Greedy,
    /// LRU-style: variables are offloaded only under capacity pressure
    /// (given a DRAM budget) and fetched on demand without prefetch.
    Lru {
        /// DRAM budget in bytes.
        dram_limit_bytes: u64,
    },
    /// The planned ADMM-Offload.
    Planned(OffloadPlan),
}

/// Result of simulating one strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadTrace {
    /// Strategy label for reports.
    pub label: String,
    /// CPU-DRAM RSS over time, `(seconds, bytes)`.
    pub rss: Vec<(Seconds, u64)>,
    /// Peak CPU-DRAM residency in bytes.
    pub peak_bytes: u64,
    /// Total execution time over the simulated iterations.
    pub total_seconds: Seconds,
    /// Fractional memory saving relative to the no-offload peak.
    pub memory_saving: f64,
    /// Fractional performance loss relative to the no-offload runtime.
    pub performance_loss: f64,
    /// The MT selection metric (`memory_saving / performance_loss`).
    pub mt: f64,
}

/// Simulates `iterations` ADMM iterations under one strategy.
pub fn simulate_strategy(
    profile: &IterationProfile,
    cost: &CostModel,
    strategy: &OffloadStrategy,
    iterations: usize,
) -> OffloadTrace {
    match strategy {
        OffloadStrategy::None => simulate_none(profile, iterations),
        OffloadStrategy::Greedy => simulate_greedy(profile, cost, iterations),
        OffloadStrategy::Lru { dram_limit_bytes } => {
            simulate_lru(profile, cost, iterations, *dram_limit_bytes)
        }
        OffloadStrategy::Planned(plan) => simulate_planned(profile, cost, plan, iterations),
    }
}

/// Convenience: simulate all three Figure-13 strategies plus LRU and return
/// them in presentation order.
pub fn simulate_all(
    profile: &IterationProfile,
    cost: &CostModel,
    iterations: usize,
) -> Vec<OffloadTrace> {
    let planner = OffloadPlanner::new(profile, cost);
    let (plan, _) = planner.best_plan();
    let lru_budget = (profile.total_bytes as f64 * 0.75) as u64;
    vec![
        simulate_strategy(profile, cost, &OffloadStrategy::None, iterations),
        simulate_strategy(profile, cost, &OffloadStrategy::Greedy, iterations),
        simulate_strategy(
            profile,
            cost,
            &OffloadStrategy::Lru {
                dram_limit_bytes: lru_budget,
            },
            iterations,
        ),
        simulate_strategy(profile, cost, &OffloadStrategy::Planned(plan), iterations),
    ]
}

fn offloadable_bytes(profile: &IterationProfile) -> u64 {
    profile
        .variables
        .iter()
        .filter(|v| v.offloadable)
        .map(|v| v.bytes)
        .sum()
}

fn resident_baseline(profile: &IterationProfile) -> u64 {
    profile.total_bytes
}

fn finish(
    label: &str,
    rss: Vec<(Seconds, u64)>,
    peak: u64,
    total: Seconds,
    baseline_peak: u64,
    baseline_total: Seconds,
) -> OffloadTrace {
    let memory_saving = 1.0 - peak as f64 / baseline_peak as f64;
    let performance_loss = (total - baseline_total) / baseline_total;
    let mt = if performance_loss <= 1e-9 {
        if memory_saving > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        memory_saving / performance_loss
    };
    OffloadTrace {
        label: label.to_string(),
        rss,
        peak_bytes: peak,
        total_seconds: total,
        memory_saving: memory_saving.max(0.0),
        performance_loss: performance_loss.max(0.0),
        mt,
    }
}

fn simulate_none(profile: &IterationProfile, iterations: usize) -> OffloadTrace {
    let baseline = resident_baseline(profile);
    let total = profile.duration * iterations as f64;
    // Flat trace: sample at every phase boundary of every iteration.
    let mut rss = vec![(0.0, baseline)];
    for it in 0..iterations {
        let base_t = it as f64 * profile.duration;
        for &(_, _, end) in &profile.phases {
            rss.push((base_t + end, baseline));
        }
    }
    finish("ADMM", rss, baseline, total, baseline, total)
}

fn simulate_greedy(
    profile: &IterationProfile,
    cost: &CostModel,
    iterations: usize,
) -> OffloadTrace {
    let baseline = resident_baseline(profile);
    let baseline_total = profile.duration * iterations as f64;
    let off_bytes = offloadable_bytes(profile);
    // The greedy strategy keeps the big four on SSD whenever possible, so the
    // resident peak excludes them except while one is being used.
    let largest: u64 = profile
        .variables
        .iter()
        .filter(|v| v.offloadable)
        .map(|v| v.bytes)
        .max()
        .unwrap_or(0);
    let peak = baseline - off_bytes + largest;

    // Every access window of every offloadable variable triggers a demand
    // read and a write-back, fully exposed.
    let mut exposed_per_iter = 0.0;
    for var in profile.variables.iter().filter(|v| v.offloadable) {
        let per_access =
            cost.ssd_read_time(var.bytes as f64) + cost.ssd_write_time(var.bytes as f64);
        exposed_per_iter += per_access * var.windows.len() as f64;
    }
    let iter_time = profile.duration + exposed_per_iter;
    let total = iter_time * iterations as f64;

    let mut rss = Vec::new();
    for it in 0..iterations {
        let base_t = it as f64 * iter_time;
        rss.push((base_t, baseline - off_bytes));
        // While a variable is in use it is resident; approximate with the
        // largest one resident during the LSP phase.
        rss.push((base_t + 0.1 * iter_time, peak));
        rss.push((base_t + 0.9 * iter_time, baseline - off_bytes));
    }
    finish(
        "ADMM greedy offload",
        rss,
        peak,
        total,
        baseline,
        baseline_total,
    )
}

fn simulate_lru(
    profile: &IterationProfile,
    cost: &CostModel,
    iterations: usize,
    dram_limit: u64,
) -> OffloadTrace {
    let baseline = resident_baseline(profile);
    let baseline_total = profile.duration * iterations as f64;
    // Under a DRAM budget, the LRU policy evicts the least-recently-used
    // offloadable variables until the budget is met, then demand-fetches each
    // on its next access (no prefetch → exposed read, plus the eviction
    // write).
    let mut over = baseline.saturating_sub(dram_limit);
    let mut evicted: Vec<&crate::profile::VariableProfile> = Vec::new();
    for var in profile.variables.iter().filter(|v| v.offloadable) {
        if over == 0 {
            break;
        }
        evicted.push(var);
        over = over.saturating_sub(var.bytes);
    }
    let peak = baseline.min(dram_limit.max(baseline - offloadable_bytes(profile)));
    let mut exposed_per_iter = 0.0;
    for var in &evicted {
        // Each access window of an evicted variable demand-fetches it and
        // later evicts it again.
        exposed_per_iter += (cost.ssd_read_time(var.bytes as f64)
            + cost.ssd_write_time(var.bytes as f64))
            * var.windows.len() as f64
            * 0.6; // some accesses find it already resident
    }
    let iter_time = profile.duration + exposed_per_iter;
    let total = iter_time * iterations as f64;
    let mut rss = Vec::new();
    for it in 0..iterations {
        let base_t = it as f64 * iter_time;
        rss.push((base_t, peak));
        rss.push((base_t + iter_time, peak));
    }
    finish(
        "ADMM LRU offload",
        rss,
        peak,
        total,
        baseline,
        baseline_total,
    )
}

fn simulate_planned(
    profile: &IterationProfile,
    cost: &CostModel,
    plan: &OffloadPlan,
    iterations: usize,
) -> OffloadTrace {
    let baseline = resident_baseline(profile);
    let baseline_total = profile.duration * iterations as f64;
    let planner = OffloadPlanner::new(profile, cost);
    let eval = planner.evaluate(plan);
    let iter_time = eval.duration;
    let total = iter_time * iterations as f64;

    // RSS trace: start at the full working set, dip while planned variables
    // sit on SSD, return on prefetch.
    let saved = baseline - eval.peak_bytes;
    let mut rss = Vec::new();
    for it in 0..iterations {
        let base_t = it as f64 * iter_time;
        rss.push((base_t, baseline));
        if let (Some(first), Some(last)) = (
            plan.moves
                .iter()
                .map(|m| m.offload_end)
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.min(x)))
                }),
            plan.moves
                .iter()
                .map(|m| m.prefetch_start)
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.max(x)))
                }),
        ) {
            rss.push((base_t + first, baseline - saved));
            rss.push((base_t + last, baseline));
        }
        rss.push((base_t + iter_time, baseline));
    }
    finish(
        "ADMM offload",
        rss,
        eval.peak_bytes,
        total,
        baseline,
        baseline_total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::IterationProfile;
    use mlr_sim::workload::{AdmmWorkload, ProblemSize};

    fn setup() -> (IterationProfile, CostModel) {
        let workload = AdmmWorkload::new(ProblemSize::paper_1k());
        let cost = CostModel::polaris(1);
        (IterationProfile::from_workload(&workload, &cost), cost)
    }

    #[test]
    fn figure13_shape_holds() {
        // ADMM-Offload saves memory at a far smaller performance cost than
        // greedy offloading; greedy saves more memory but loses much more
        // time (its MT is worse).
        let (profile, cost) = setup();
        let traces = simulate_all(&profile, &cost, 3);
        let none = &traces[0];
        let greedy = &traces[1];
        let lru = &traces[2];
        let planned = &traces[3];

        assert_eq!(none.memory_saving, 0.0);
        assert!(greedy.memory_saving > planned.memory_saving);
        assert!(planned.memory_saving > 0.15);
        assert!(greedy.performance_loss > planned.performance_loss);
        assert!(
            planned.mt > greedy.mt,
            "planned MT {} vs greedy {}",
            planned.mt,
            greedy.mt
        );
        // The §5.1 claim: ADMM-Offload outperforms LRU-based offloading.
        assert!(planned.total_seconds < lru.total_seconds);
        // Peaks are ordered: greedy < planned < none.
        assert!(greedy.peak_bytes < planned.peak_bytes);
        assert!(planned.peak_bytes < none.peak_bytes);
    }

    #[test]
    fn traces_are_time_ordered_and_positive() {
        let (profile, cost) = setup();
        for trace in simulate_all(&profile, &cost, 2) {
            assert!(!trace.rss.is_empty(), "{}", trace.label);
            for w in trace.rss.windows(2) {
                assert!(w[1].0 >= w[0].0, "{} trace not ordered", trace.label);
            }
            assert!(trace.total_seconds > 0.0);
            assert!(trace.peak_bytes > 0);
        }
    }

    #[test]
    fn lru_budget_limits_peak() {
        let (profile, cost) = setup();
        let budget = (profile.total_bytes as f64 * 0.7) as u64;
        let trace = simulate_strategy(
            &profile,
            &cost,
            &OffloadStrategy::Lru {
                dram_limit_bytes: budget,
            },
            2,
        );
        assert!(trace.peak_bytes <= budget);
        assert!(trace.performance_loss > 0.0);
    }
}
