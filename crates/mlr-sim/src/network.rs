//! Shared-link contention model.
//!
//! All compute nodes query the single memory node, so its injection link is a
//! shared resource. Figure 15 of the paper shows interconnect utilisation
//! approaching saturation beyond ~12 GPUs (3 nodes), and Figure 16 shows the
//! query-latency CDF stretching by orders of magnitude under that contention.
//! The model here is a standard M/M/1-style latency inflation on top of the
//! base cost model: as offered load approaches capacity, queueing delay
//! diverges; beyond capacity, the excess is explicitly queued.

use crate::hardware::InterconnectSpec;
use crate::Seconds;
use mlr_math::rng::exponential;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A contended, shared link (the memory node's injection port).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedLink {
    /// Link capacity in GB/s.
    pub capacity_gbps: f64,
    /// Base (unloaded) one-way latency in seconds.
    pub base_latency: Seconds,
}

impl SharedLink {
    /// Builds the shared link from an interconnect spec.
    pub fn from_interconnect(spec: &InterconnectSpec) -> Self {
        Self {
            capacity_gbps: spec.injection_gb_per_s(),
            base_latency: (spec.latency_us + spec.per_message_us) * 1e-6,
        }
    }

    /// Utilisation in `[0, 1]` given an aggregate offered load in GB/s.
    pub fn utilisation(&self, offered_gbps: f64) -> f64 {
        if self.capacity_gbps <= 0.0 {
            return 1.0;
        }
        (offered_gbps / self.capacity_gbps).clamp(0.0, 1.0)
    }

    /// Effective per-client bandwidth (GB/s) when `clients` clients each
    /// offer `per_client_gbps` of load: fair sharing of the capacity.
    pub fn per_client_bandwidth(&self, clients: usize, per_client_gbps: f64) -> f64 {
        if clients == 0 {
            return self.capacity_gbps;
        }
        let offered = clients as f64 * per_client_gbps;
        if offered <= self.capacity_gbps {
            per_client_gbps
        } else {
            self.capacity_gbps / clients as f64
        }
    }

    /// Mean queueing-inflated latency for a message of `bytes`, given link
    /// utilisation `rho` (M/M/1-style `1/(1-ρ)` inflation, capped so the
    /// model stays finite at saturation).
    pub fn loaded_latency(&self, bytes: f64, rho: f64) -> Seconds {
        let service = self.base_latency + bytes / (self.capacity_gbps * 1e9);
        let rho = rho.clamp(0.0, 0.995);
        service / (1.0 - rho)
    }

    /// Draws a randomised latency sample for one query under load `rho`,
    /// combining the deterministic loaded latency with an exponential
    /// queueing tail. This produces the spread seen in the latency CDF of
    /// Figure 16: at low load the distribution is tight around the base
    /// latency; near saturation a long tail appears.
    pub fn sample_latency<R: Rng + ?Sized>(&self, rng: &mut R, bytes: f64, rho: f64) -> Seconds {
        let mean = self.loaded_latency(bytes, rho);
        let rho = rho.clamp(0.0, 0.995);
        // Tail weight grows with utilisation: at rho→1 most of the latency is
        // queueing delay, which is approximately exponential.
        let queue_fraction = rho;
        let deterministic = mean * (1.0 - queue_fraction);
        let tail = exponential(rng, 1.0 / (mean * queue_fraction).max(1e-12));
        deterministic + tail
    }
}

/// A deterministic FIFO queue over one [`SharedLink`] — the charging seam
/// the distributed memo tier and the trace-replay harness account remote
/// store operations through.
///
/// Where [`SharedLink::loaded_latency`] answers "what is the *mean* latency
/// at utilisation ρ" analytically, `LinkQueue` simulates the link as a
/// single server: each message occupies the link for
/// `base_latency + bytes / capacity` seconds, a message arriving while an
/// earlier one is still in service waits for it, and the returned latency is
/// wait + service. Fed the same arrival sequence it always produces the same
/// latencies — no randomness, no wall clock — which is what lets a recorded
/// `AccessTrace` reproduce the Figure 15/16 utilisation and latency-CDF
/// curves deterministically.
///
/// Arrivals are expected in non-decreasing time order (store-clock ticks
/// mapped to seconds are); an out-of-order arrival is served as if it
/// arrived when the link last went idle.
#[derive(Debug, Clone)]
pub struct LinkQueue {
    link: SharedLink,
    /// Simulated time at which the link finishes its last accepted message.
    next_free: Seconds,
    /// Total seconds the link spent in service (busy time).
    busy: Seconds,
    messages: u64,
    bytes: f64,
}

impl LinkQueue {
    /// An idle queue over `link`.
    pub fn new(link: SharedLink) -> Self {
        Self {
            link,
            next_free: 0.0,
            busy: 0.0,
            messages: 0,
            bytes: 0.0,
        }
    }

    /// The underlying link.
    pub fn link(&self) -> &SharedLink {
        &self.link
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
        self.link.base_latency
            + extra_latency.max(0.0)
            + bytes.max(0.0) / (self.link.capacity_gbps * factor * 1e9)
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

/// Aggregate offered load on the memory-node link for a given number of
/// GPUs, each issuing `queries_per_s` memoization queries of `query_bytes`
/// and receiving values of `value_bytes`.
pub fn offered_load_gbps(
    gpus: usize,
    queries_per_s: f64,
    query_bytes: f64,
    value_bytes: f64,
) -> f64 {
    gpus as f64 * queries_per_s * (query_bytes + value_bytes) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::InterconnectSpec;
    use mlr_math::rng::seeded;

    fn link() -> SharedLink {
        SharedLink::from_interconnect(&InterconnectSpec::slingshot11())
    }

    #[test]
    fn utilisation_clamps() {
        let l = link();
        assert_eq!(l.utilisation(0.0), 0.0);
        assert!(l.utilisation(12.0) < 1.0);
        assert_eq!(l.utilisation(1e6), 1.0);
    }

    #[test]
    fn fair_sharing_beyond_capacity() {
        let l = link();
        let per = l.per_client_bandwidth(16, 5.0);
        assert!(per < 5.0);
        assert!((per - l.capacity_gbps / 16.0).abs() < 1e-9);
        let under = l.per_client_bandwidth(2, 5.0);
        assert_eq!(under, 5.0);
        assert_eq!(l.per_client_bandwidth(0, 5.0), l.capacity_gbps);
    }

    #[test]
    fn latency_inflates_with_load() {
        let l = link();
        let bytes = 4096.0;
        let idle = l.loaded_latency(bytes, 0.0);
        let busy = l.loaded_latency(bytes, 0.9);
        let saturated = l.loaded_latency(bytes, 1.0);
        assert!(busy > 5.0 * idle);
        assert!(saturated > busy);
        assert!(saturated.is_finite());
    }

    #[test]
    fn sampled_latency_tail_grows_with_load() {
        let l = link();
        let mut rng = seeded(3);
        let bytes = 4096.0;
        let sample = |rng: &mut _, rho: f64| -> Vec<f64> {
            (0..2000)
                .map(|_| l.sample_latency(rng, bytes, rho))
                .collect()
        };
        let low = sample(&mut rng, 0.1);
        let high = sample(&mut rng, 0.95);
        let p99 = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[(v.len() as f64 * 0.99) as usize]
        };
        let mut low = low;
        let mut high = high;
        assert!(p99(&mut high) > 10.0 * p99(&mut low));
    }

    #[test]
    fn link_queue_charges_wait_plus_service() {
        let mut q = LinkQueue::new(link());
        let service = q.link().base_latency + 4096.0 / (q.link().capacity_gbps * 1e9);
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
        let mut q = LinkQueue::new(link());
        let nominal = q.charge(0.0, 4096.0);
        let mut d = LinkQueue::new(link());
        let degraded = d.charge_degraded(0.0, 4096.0, 0.25, 5.0e-6);
        // Quarter capacity + 5 µs extra latency must cost strictly more.
        assert!(degraded > nominal + 5.0e-6 - 1e-12);
        // Byte accounting records payload bytes, not inflated service.
        assert!((d.bytes() - 4096.0).abs() < 1e-9);
        // The nominal parameters reduce to the plain charge.
        let mut e = LinkQueue::new(link());
        assert_eq!(e.charge_degraded(0.0, 4096.0, 1.0, 0.0), nominal);
    }

    #[test]
    fn link_queue_is_deterministic() {
        let arrivals: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64 * 1e-6, 1024.0 + (i % 7) as f64 * 512.0))
            .collect();
        let run = || -> Vec<f64> {
            let mut q = LinkQueue::new(link());
            arrivals.iter().map(|&(t, b)| q.charge(t, b)).collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn offered_load_scales_with_gpus() {
        let one = offered_load_gbps(1, 100.0, 1024.0, (1u64 << 20) as f64);
        let sixteen = offered_load_gbps(16, 100.0, 1024.0, (1u64 << 20) as f64);
        assert!((sixteen / one - 16.0).abs() < 1e-9);
    }
}
