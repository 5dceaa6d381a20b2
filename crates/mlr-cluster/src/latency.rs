//! Memoization-query latency and interconnect utilisation under contention.
//!
//! Figures 15 and 16: with a single memory node, adding compute nodes raises
//! the offered load on the memory node's injection link; utilisation
//! saturates around three nodes (12 GPUs) and the query-latency distribution
//! develops a long tail (at 16 GPUs, 43 % of queries exceed 100 ms in the
//! paper's measurement). The experiment is a synthetic access trace replayed
//! through [`replay_trace`], the same link model a recorded run is priced
//! with.

use crate::replay::{replay_trace, ReplayConfig, ReplayOutcome};
use mlr_math::rng::{exponential, seeded};
use mlr_math::stats::Ecdf;
use mlr_sim::hardware::InterconnectSpec;
use mlr_telemetry::{AccessKind, AccessRecord};
use serde::{Deserialize, Serialize};

/// Simulated seconds per tick of the synthetic trace.
const TICK_SECONDS: f64 = 1e-7;

/// Configuration of the contention experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyExperiment {
    /// Memoization queries each GPU issues per second (driven by how fast it
    /// processes chunks).
    pub queries_per_gpu_per_s: f64,
    /// Encoded-key payload per query in bytes.
    pub query_bytes: f64,
    /// Returned-value payload per (successful) query in bytes.
    pub value_bytes: f64,
    /// Number of queries replayed per configuration.
    pub samples: usize,
    /// RNG seed of the arrival stream.
    pub seed: u64,
}

impl Default for LatencyExperiment {
    fn default() -> Self {
        // Each GPU processes a few chunks per second and a retrieved value is
        // a chunk-sized COMPLEX64 array (tens of MB), so per-GPU demand on
        // the memory node is on the order of 2 GB/s — which is what makes the
        // single shared link saturate at about three nodes (12 GPUs), the
        // knee the paper reports in Figure 15.
        Self {
            queries_per_gpu_per_s: 25.0,
            query_bytes: 4096.0,
            value_bytes: 80.0 * 1024.0 * 1024.0,
            samples: 4000,
            seed: 0x1a7e,
        }
    }
}

impl LatencyExperiment {
    /// Replays `samples` remote hits arriving as a seeded Poisson stream at
    /// `gpus × queries_per_gpu_per_s` through one memory node's link. Every
    /// record names a distinct entry, so none is ever replica-served.
    fn replay(&self, gpus: usize) -> ReplayOutcome {
        let rate = gpus as f64 * self.queries_per_gpu_per_s;
        let mut rng = seeded(self.seed ^ gpus as u64);
        let mut t = 0.0;
        let records: Vec<AccessRecord> = (0..self.samples as u64)
            .map(|entry| {
                t += exponential(&mut rng, rate);
                AccessRecord {
                    entry,
                    op: 0,
                    stripe: 0,
                    kind: AccessKind::Hit,
                    tick: (t / TICK_SECONDS).round() as u64,
                }
            })
            .collect();
        let config = ReplayConfig {
            tick_seconds: TICK_SECONDS,
            key_bytes: self.query_bytes,
            value_bytes: self.value_bytes,
            ..ReplayConfig::new(InterconnectSpec::slingshot11())
        };
        replay_trace(&records, &[0], &config, None)
    }

    /// Interconnect utilisation (0–1) of the memory-node link for a given
    /// number of GPUs (Figure 15's y-axis).
    pub fn utilisation(&self, gpus: usize) -> f64 {
        self.replay(gpus).per_node[0].utilisation
    }

    /// Query latencies (seconds, in arrival order) for a given number of
    /// GPUs.
    pub fn sample_latencies(&self, gpus: usize) -> Vec<f64> {
        self.replay(gpus).query_latencies
    }

    /// The latency CDF for a given number of GPUs (Figure 16's curves).
    pub fn cdf(&self, gpus: usize) -> Ecdf {
        Ecdf::new(&self.sample_latencies(gpus))
    }

    /// Fraction of queries slower than `threshold` seconds.
    pub fn fraction_slower_than(&self, gpus: usize, threshold: f64) -> f64 {
        1.0 - self.cdf(gpus).eval(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilisation_increases_and_saturates() {
        let e = LatencyExperiment::default();
        let u1 = e.utilisation(1);
        let u4 = e.utilisation(4);
        let u12 = e.utilisation(12);
        let u16 = e.utilisation(16);
        assert!(u1 < u4 && u4 < u12);
        assert!(u12 > 0.85, "12 GPUs should approach saturation, got {u12}");
        assert!(u16 >= u12);
        assert!(u16 <= 1.0);
    }

    #[test]
    fn utilisation_below_the_knee_is_offered_over_capacity() {
        // Below saturation the replayed link is busy for the share of time
        // the offered load fills: offered ÷ capacity.
        let e = LatencyExperiment::default();
        let capacity = InterconnectSpec::slingshot11().injection_gb_per_s();
        for gpus in [1, 2, 4, 8] {
            let offered =
                gpus as f64 * e.queries_per_gpu_per_s * (e.query_bytes + e.value_bytes) / 1e9;
            let replayed = e.utilisation(gpus);
            assert!(
                (replayed - offered / capacity).abs() <= 0.01,
                "{gpus} GPUs: replayed {replayed}, offered / capacity {}",
                offered / capacity
            );
        }
    }

    #[test]
    fn latency_distribution_shifts_right_with_gpus() {
        let e = LatencyExperiment {
            samples: 1500,
            ..Default::default()
        };
        let median = |gpus: usize| e.cdf(gpus).quantile(0.5);
        assert!(median(16) > median(1), "{} vs {}", median(16), median(1));
        // Tail: a substantial fraction of queries become very slow at 16 GPUs
        // while almost none are at 1 GPU (the Figure 16 shape).
        let slow_threshold = 20.0 * median(1);
        let tail_1 = e.fraction_slower_than(1, slow_threshold);
        let tail_16 = e.fraction_slower_than(16, slow_threshold);
        assert!(tail_1 < 0.10, "tail at 1 GPU {tail_1}");
        assert!(tail_16 > 0.25, "tail at 16 GPUs {tail_16}");
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let e = LatencyExperiment {
            samples: 500,
            ..Default::default()
        };
        let curve = e.cdf(8).curve();
        assert_eq!(curve.len(), 500);
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let e = LatencyExperiment {
            samples: 100,
            ..Default::default()
        };
        assert_eq!(e.sample_latencies(4), e.sample_latencies(4));
    }
}
