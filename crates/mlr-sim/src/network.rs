//! The memory-node link as a deterministic single-server queue.
//!
//! All compute nodes query the memory node, so its injection link is a
//! shared resource. The paper's Figures 15 and 16 show its utilisation
//! saturating beyond ~12 GPUs (3 nodes) and the query-latency CDF
//! stretching under that contention. Here [`LinkQueue`] is fed a recorded
//! access trace by `mlr_cluster::replay_trace`: as arrivals approach the
//! link's capacity, messages wait for the ones ahead of them; beyond it,
//! the wait grows with every message.

use crate::hardware::InterconnectSpec;
use crate::Seconds;

/// A deterministic FIFO queue over one memory-node link — the charging seam
/// the distributed memo tier and the trace-replay harness account remote
/// store operations through.
///
/// The link is a single server: each message occupies it for
/// `base_latency + bytes / capacity` seconds, a message arriving while an
/// earlier one is still in service waits for it, and the returned latency is
/// wait + service. Fed the same arrival sequence it always produces the same
/// latencies — no randomness, no wall clock — which is what lets a recorded
/// `AccessTrace` replay to the same utilisation and latency distribution
/// every time.
///
/// Arrivals are expected in non-decreasing time order (store-clock ticks
/// mapped to seconds are); an out-of-order arrival is served as if it
/// arrived when the link last went idle.
#[derive(Debug, Clone)]
pub struct LinkQueue {
    /// Link capacity in GB/s.
    capacity_gbps: f64,
    /// Base (unloaded) one-way latency of a message, in seconds.
    base_latency: Seconds,
    /// Simulated time at which the link finishes its last accepted message.
    next_free: Seconds,
    /// Total seconds the link spent in service (busy time).
    busy: Seconds,
    messages: u64,
    bytes: f64,
}

impl LinkQueue {
    /// An idle queue over one Slingshot-11 link, the one interconnect
    /// modeled.
    pub fn slingshot11() -> Self {
        let spec = InterconnectSpec::slingshot11();
        Self {
            capacity_gbps: spec.injection_gb_per_s(),
            base_latency: (spec.latency_us + spec.per_message_us) * 1e-6,
            next_free: 0.0,
            busy: 0.0,
            messages: 0,
            bytes: 0.0,
        }
    }

    /// Charges one message of `bytes` arriving at simulated time `arrival`
    /// and returns its total latency (queue wait + service time).
    pub fn charge(&mut self, arrival: Seconds, bytes: f64) -> Seconds {
        self.charge_degraded(arrival, bytes, 1.0, 0.0)
    }

    /// Charges one message over a *degraded* link: capacity multiplied by
    /// `capacity_factor` (clamped to `(0, 1]`) and `extra_latency` seconds
    /// added to the service time — the fault-injection model of a browned
    /// out link or a stalled stripe. With `(1.0, 0.0)` this is exactly
    /// [`Self::charge`]. Byte accounting records the *payload* bytes, not
    /// the inflated service time, so utilisation reflects the slowdown.
    pub fn charge_degraded(
        &mut self,
        arrival: Seconds,
        bytes: f64,
        capacity_factor: f64,
        extra_latency: Seconds,
    ) -> Seconds {
        let service = self.service_seconds(bytes, capacity_factor, extra_latency);
        let start = arrival.max(self.next_free);
        self.next_free = start + service;
        self.busy += service;
        self.messages += 1;
        self.bytes += bytes.max(0.0);
        self.next_free - arrival
    }

    /// Seconds one message of `bytes` occupies the link under the given
    /// degradation (`(1.0, 0.0)` is the nominal link) — the service half of
    /// [`Self::charge_degraded`], without queueing.
    pub fn service_seconds(
        &self,
        bytes: f64,
        capacity_factor: f64,
        extra_latency: Seconds,
    ) -> Seconds {
        let factor = capacity_factor.clamp(1e-3, 1.0);
        self.base_latency
            + extra_latency.max(0.0)
            + bytes.max(0.0) / (self.capacity_gbps * factor * 1e9)
    }

    /// Messages charged so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Payload bytes charged so far.
    pub fn bytes(&self) -> f64 {
        self.bytes
    }

    /// Seconds the link spent in service.
    pub fn busy_seconds(&self) -> Seconds {
        self.busy
    }

    /// Simulated time at which the link goes idle.
    pub fn next_free(&self) -> Seconds {
        self.next_free
    }

    /// Fraction of the horizon `[0, horizon]` the link was busy, in
    /// `[0, 1]` (0 for an empty horizon).
    pub fn utilisation(&self, horizon: Seconds) -> f64 {
        if horizon <= 0.0 {
            0.0
        } else {
            (self.busy / horizon).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn queue() -> LinkQueue {
        LinkQueue::slingshot11()
    }

    #[test]
    fn utilisation_clamps() {
        let mut q = queue();
        assert_eq!(q.utilisation(1.0), 0.0);
        // Offered at twice the capacity: the busy time outgrows the horizon
        // and the reported utilisation stops at 1.
        let service = q.service_seconds(4096.0, 1.0, 0.0);
        for i in 0..100 {
            q.charge(i as f64 * service / 2.0, 4096.0);
        }
        assert_eq!(q.utilisation(50.0 * service), 1.0);
        assert!(q.utilisation(1.0) < 1.0);
    }

    #[test]
    fn latency_inflates_with_load() {
        // Poisson arrivals at 10 %, 90 % and 150 % of the link's capacity:
        // the mean wait + service grows with the load and stays finite
        // past it.
        let mean_latency = |load: f64| {
            let mut q = queue();
            let rate = load / q.service_seconds(4096.0, 1.0, 0.0);
            let mut rng = seeded(3);
            let mut t = 0.0;
            let total: f64 = (0..2000)
                .map(|_| {
                    // Exponential inter-arrival gap of mean 1 / rate.
                    t += -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() / rate;
                    q.charge(t, 4096.0)
                })
                .sum();
            total / 2000.0
        };
        let idle = mean_latency(0.1);
        let busy = mean_latency(0.9);
        let saturated = mean_latency(1.5);
        assert!(busy > 3.0 * idle, "idle {idle} busy {busy}");
        assert!(saturated > busy);
        assert!(saturated.is_finite());
    }

    #[test]
    fn link_queue_charges_wait_plus_service() {
        let mut q = queue();
        let spec = InterconnectSpec::slingshot11();
        let service = (spec.latency_us + spec.per_message_us) * 1e-6
            + 4096.0 / (spec.injection_gb_per_s() * 1e9);
        assert!((q.service_seconds(4096.0, 1.0, 0.0) - service).abs() < 1e-15);
        // An uncontended message pays exactly the service time.
        let first = q.charge(0.0, 4096.0);
        assert!((first - service).abs() < 1e-12);
        // A message arriving while the first is in service waits for it.
        let second = q.charge(0.0, 4096.0);
        assert!((second - 2.0 * service).abs() < 1e-12);
        // A message arriving after the link went idle pays no wait.
        let third = q.charge(1.0, 4096.0);
        assert!((third - service).abs() < 1e-12);
        assert_eq!(q.messages(), 3);
        assert!((q.bytes() - 3.0 * 4096.0).abs() < 1e-9);
        assert!((q.busy_seconds() - 3.0 * service).abs() < 1e-12);
        let horizon = q.next_free();
        assert!(q.utilisation(horizon) > 0.0);
        assert!(q.utilisation(horizon) <= 1.0);
        assert_eq!(q.utilisation(0.0), 0.0);
    }

    #[test]
    fn degraded_charge_slows_service_not_bytes() {
        let mut q = queue();
        let nominal = q.charge(0.0, 4096.0);
        let mut d = queue();
        let degraded = d.charge_degraded(0.0, 4096.0, 0.25, 5.0e-6);
        // Quarter capacity + 5 µs extra latency must cost strictly more.
        assert!(degraded > nominal + 5.0e-6 - 1e-12);
        // Byte accounting records payload bytes, not inflated service.
        assert!((d.bytes() - 4096.0).abs() < 1e-9);
        // The nominal parameters reduce to the plain charge.
        let mut e = queue();
        assert_eq!(e.charge_degraded(0.0, 4096.0, 1.0, 0.0), nominal);
    }

    #[test]
    fn link_queue_is_deterministic() {
        let arrivals: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 * 1e-6, 1024.0 + (i % 7) as f64 * 512.0))
            .collect();
        let run = || -> Vec<f64> {
            let mut q = queue();
            arrivals.iter().map(|&(t, b)| q.charge(t, b)).collect()
        };
        assert_eq!(run(), run());
    }
}
