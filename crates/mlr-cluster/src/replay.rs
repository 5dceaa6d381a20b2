//! Trace replay: the one model of the memory-node network.
//!
//! This module replays an [`AccessRecord`] stream — what `mlr-telemetry`'s
//! access trace captured from a real multi-job run — through one
//! deterministic [`LinkQueue`] per simulated memory node. Each record's
//! stripe is mapped to its owning node by a placement map (see
//! [`crate::placement`]), its store-clock tick becomes a simulated arrival
//! time, and the queue charges it wait + service over a Slingshot-11 link.
//! The outcome is per-node utilisation and a query-latency distribution,
//! both from *actual store behaviour* under the modeled contention. The
//! live distributed tier charges nothing itself; every simulated second it
//! is ever quoted with comes from here.
//!
//! Replica membership is read off the trace: the distributed tier records
//! each promotion and demotion (`AccessKind::Promote` / `Demote`), and an
//! entry's `Evict` / `Lost` ends its replica. The replay holds
//! no promotion policy of its own, so its local/remote hit split is the
//! live tier's.
//!
//! A run's [`FaultPlan`] replays with it: link degradations and stripe
//! stalls inflate the charge of the messages they cover, messages toward a
//! down node are counted but never charged (there is no link to carry
//! them), and the [`FaultFootprint`] says how much of the trace the plan
//! touched.

use crate::placement::stripes_per_node;
use mlr_sim::faults::{FaultPlan, LinkState};
use mlr_sim::hardware::InterconnectSpec;
use mlr_sim::network::LinkQueue;
use mlr_sim::Seconds;
use mlr_telemetry::{AccessKind, AccessRecord};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Simulated seconds per store-clock tick (arrival spacing).
const TICK_SECONDS: f64 = 1e-6;
/// Modeled query payload (a coalesced key batch), bytes.
const KEY_BYTES: f64 = 1024.0;
/// Modeled value payload returned by a hit or shipped by an insert, bytes
/// (access records carry no sizes, so replay uses one representative value
/// size).
const VALUE_BYTES: f64 = 64.0 * 1024.0;
/// Modeled control-message payload of an eviction, bytes.
const CONTROL_BYTES: f64 = 64.0;
/// Cost of a hit served from a local replica (no link trip): a DRAM-ish
/// 400 ns. Public so a caller can tell local hits' latencies from the rest.
pub const LOCAL_LATENCY: Seconds = 0.4e-6;

/// One memory node's share of a replayed trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeUtilisation {
    /// Node index.
    pub node: usize,
    /// Lock stripes the placement map assigned to the node.
    pub stripes: usize,
    /// Messages charged through the node's link.
    pub messages: u64,
    /// Payload bytes charged through the node's link.
    pub bytes: f64,
    /// Seconds the node's link spent in service.
    pub busy_seconds: Seconds,
    /// Busy fraction of the replay horizon, in `[0, 1]`.
    pub utilisation: f64,
}

/// How much of a replayed trace the run's [`FaultPlan`] touched. All zero
/// without a plan — and for a plan whose windows miss the run, which is
/// what a gate on these fields catches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultFootprint {
    /// Messages charged over a degraded link or toward a stalled stripe.
    pub degraded_messages: u64,
    /// Service seconds those messages paid on top of their nominal charge.
    pub added_seconds: Seconds,
    /// Messages owned by a node that was down at their tick: counted here,
    /// charged nowhere.
    pub down_messages: u64,
}

/// Everything a replay run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Per-node link accounting, indexed by node.
    pub per_node: Vec<NodeUtilisation>,
    /// Latency of every replayed *query* (hit or miss) that was answered,
    /// in replay order; a query toward a down node has no sample.
    pub query_latencies: Vec<Seconds>,
    /// Replayed hits served from the local replica set.
    pub local_hits: u64,
    /// Replayed hits that crossed a node link.
    pub remote_hits: u64,
    /// Promotions recorded in the trace.
    pub promotions: u64,
    /// Simulated end of the replay (last arrival or last link departure).
    pub horizon: Seconds,
    /// What the fault plan did to the traffic.
    pub footprint: FaultFootprint,
}

impl ReplayOutcome {
    /// Nodes whose link saw at least one message.
    pub fn active_nodes(&self) -> usize {
        self.per_node.iter().filter(|n| n.messages > 0).count()
    }
}

/// The per-node queues plus the plan that degrades them.
struct Links<'a> {
    queues: Vec<LinkQueue>,
    plan: Option<&'a FaultPlan>,
    footprint: FaultFootprint,
}

impl Links<'_> {
    /// Charges one message of `bytes` for `stripe` (owned by `node`) sent
    /// at store tick `tick`, arriving at simulated time `arrival`. `None`
    /// when the owner is down.
    fn send(
        &mut self,
        node: usize,
        stripe: usize,
        tick: u64,
        arrival: Seconds,
        bytes: f64,
    ) -> Option<Seconds> {
        let (link, stall) = match self.plan {
            Some(plan) if plan.node_down_at(node, tick) => {
                self.footprint.down_messages += 1;
                return None;
            }
            Some(plan) => (
                plan.link_state_at(node, tick),
                plan.stripe_stall_at(stripe, tick),
            ),
            None => (LinkState::NOMINAL, 0.0),
        };
        let extra = link.extra_latency + stall;
        let queue = &mut self.queues[node];
        if !link.is_nominal() || stall > 0.0 {
            self.footprint.degraded_messages += 1;
            self.footprint.added_seconds +=
                queue.service_seconds(bytes, link.capacity_factor, extra)
                    - queue.service_seconds(bytes, 1.0, 0.0);
        }
        Some(queue.charge_degraded(arrival, bytes, link.capacity_factor, extra))
    }
}

/// Replays `records` through one [`LinkQueue`] per node of `placement`
/// (a stripe→node map; stripes beyond its length wrap around), under the
/// `plan` the run was faulted with (`None` for a perfect cluster). The plan
/// is consulted at each record's own store tick — the tick the run's fault
/// windows were placed on. Fully deterministic: same records, placement
/// and plan → same outcome.
///
/// # Panics
/// Panics when `placement` is empty.
pub fn replay_trace(
    records: &[AccessRecord],
    placement: &[usize],
    plan: Option<&FaultPlan>,
) -> ReplayOutcome {
    assert!(!placement.is_empty(), "replay needs a placement map");
    let nodes = placement.iter().copied().max().unwrap_or(0) + 1;
    let mut links = Links {
        queues: (0..nodes)
            .map(|_| LinkQueue::new(&InterconnectSpec::slingshot11()))
            .collect(),
        plan,
        footprint: FaultFootprint::default(),
    };
    let mut query_latencies = Vec::with_capacity(records.len());
    let mut replicas: HashSet<u64> = HashSet::new();
    let (mut local_hits, mut remote_hits, mut promotions) = (0u64, 0u64, 0u64);
    let first_tick = records.first().map(|r| r.tick).unwrap_or(0);
    let mut last_arrival: Seconds = 0.0;

    for record in records {
        let arrival = record.tick.saturating_sub(first_tick) as f64 * TICK_SECONDS;
        last_arrival = last_arrival.max(arrival);
        let stripe = record.stripe as usize;
        let node = placement[stripe % placement.len()];
        let mut send = |bytes: f64| links.send(node, stripe, record.tick, arrival, bytes);
        match record.kind {
            AccessKind::Hit if replicas.contains(&record.entry) => {
                local_hits += 1;
                query_latencies.push(LOCAL_LATENCY);
            }
            AccessKind::Hit => {
                remote_hits += 1;
                query_latencies.extend(send(KEY_BYTES + VALUE_BYTES));
            }
            AccessKind::Miss => query_latencies.extend(send(KEY_BYTES)),
            AccessKind::Insert => {
                let _ = send(KEY_BYTES + VALUE_BYTES);
            }
            AccessKind::Evict => {
                let _ = send(CONTROL_BYTES);
                replicas.remove(&record.entry);
            }
            // Replica changes are compute-side bookkeeping, and an entry
            // lost with its crashed node has no node to talk to: none of
            // the three puts anything on a link.
            AccessKind::Lost | AccessKind::Demote => {
                replicas.remove(&record.entry);
            }
            AccessKind::Promote => {
                replicas.insert(record.entry);
                promotions += 1;
            }
        }
    }

    let horizon = links
        .queues
        .iter()
        .map(|q| q.next_free())
        .fold(last_arrival, f64::max);
    let stripes = stripes_per_node(placement, nodes);
    let per_node = links
        .queues
        .iter()
        .enumerate()
        .map(|(node, q)| NodeUtilisation {
            node,
            stripes: stripes[node],
            messages: q.messages(),
            bytes: q.bytes(),
            busy_seconds: q.busy_seconds(),
            utilisation: q.utilisation(horizon),
        })
        .collect();
    ReplayOutcome {
        per_node,
        query_latencies,
        local_hits,
        remote_hits,
        promotions,
        horizon,
        footprint: links.footprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::place_stripes;

    fn record(entry: u64, stripe: u32, kind: AccessKind, tick: u64) -> AccessRecord {
        AccessRecord {
            entry,
            op: 0,
            stripe,
            kind,
            tick,
        }
    }

    /// Eight entries inserted, then hit for five rounds; the tier promotes
    /// each on its second hit.
    fn sample_trace() -> Vec<AccessRecord> {
        let mut records = Vec::new();
        let mut tick = 0u64;
        for round in 0..6u64 {
            for stripe in 0..8u32 {
                let entry = u64::from(stripe) + 1;
                let kind = if round == 0 {
                    AccessKind::Insert
                } else {
                    AccessKind::Hit
                };
                records.push(record(entry, stripe, kind, tick));
                if round == 2 {
                    records.push(record(entry, stripe, AccessKind::Promote, tick));
                }
                tick += 1;
            }
        }
        records.push(record(0, 3, AccessKind::Miss, tick));
        records
    }

    #[test]
    fn replay_spreads_load_and_is_deterministic() {
        let placement = place_stripes(8, &[1.0; 4]);
        let outcome = replay_trace(&sample_trace(), &placement, None);
        assert!(outcome.active_nodes() >= 2, "load stuck on one node");
        assert_eq!(outcome.per_node.len(), 4);
        assert_eq!(outcome.footprint, FaultFootprint::default());
        let again = replay_trace(&sample_trace(), &placement, None);
        assert_eq!(outcome, again);
    }

    #[test]
    fn replicated_hits_cost_less_than_remote_ones() {
        let placement = place_stripes(8, &[1.0; 2]);
        let outcome = replay_trace(&sample_trace(), &placement, None);
        // Rounds 1–2 precede the promotions, rounds 3–5 follow them.
        assert_eq!((outcome.remote_hits, outcome.local_hits), (16, 24));
        assert_eq!(outcome.promotions, 8);
        let min_remote = outcome
            .query_latencies
            .iter()
            .copied()
            .filter(|&l| l > LOCAL_LATENCY)
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_remote > LOCAL_LATENCY,
            "remote probes must cost strictly more than local ones"
        );
        assert!(outcome.query_latencies.contains(&LOCAL_LATENCY));
    }

    #[test]
    fn replica_budget_is_bounded() {
        // What a 4-entry live budget writes for 100 hot entries: from the
        // fifth promotion on, each one demotes the oldest replica. The
        // replay follows the records, so a demoted entry pays the link
        // again and only the four survivors are still local at the end.
        let mut records = Vec::new();
        for e in 1..=100u64 {
            let tick = 2 * e;
            records.push(record(e, (e % 8) as u32, AccessKind::Hit, tick));
            if e > 4 {
                records.push(record(e - 4, (e % 8) as u32, AccessKind::Demote, tick));
            }
            records.push(record(e, (e % 8) as u32, AccessKind::Promote, tick));
        }
        for e in 1..=100u64 {
            records.push(record(e, (e % 8) as u32, AccessKind::Hit, 300 + e));
        }
        let placement = place_stripes(8, &[1.0; 2]);
        let outcome = replay_trace(&records, &placement, None);
        assert_eq!(outcome.promotions, 100);
        assert_eq!(outcome.local_hits, 4);
        assert_eq!(outcome.remote_hits, 196);
    }

    /// One miss every 100 ticks on each of `stripes`, far enough apart that
    /// no message ever waits for another.
    fn spaced_misses(stripes: &[u32], count: u64) -> Vec<AccessRecord> {
        (0..count)
            .flat_map(|i| {
                stripes
                    .iter()
                    .map(move |&s| record(0, s, AccessKind::Miss, 100 * i))
            })
            .collect()
    }

    #[test]
    fn degrade_window_inflates_exactly_the_messages_it_covers() {
        // Stripe 0 → node 0, stripe 1 → node 1; node 0's link browns out
        // over ticks [1000, 2000): its misses 10..20.
        let placement = [0usize, 1];
        let records = spaced_misses(&[0, 1], 30);
        let plan = FaultPlan::new(1).degrade_window(0, 1000, 2000, 0.25, 5.0e-6);
        let outcome = replay_trace(&records, &placement, Some(&plan));
        let (mut inside, mut outside) = (Vec::new(), Vec::new());
        for (r, &latency) in records.iter().zip(&outcome.query_latencies) {
            if r.stripe == 0 && (1000..2000).contains(&r.tick) {
                inside.push(latency);
            } else {
                outside.push(latency);
            }
        }
        let worst_outside = outside.iter().copied().fold(0.0, f64::max);
        assert!(inside.iter().all(|&l| l > worst_outside + 5.0e-6 - 1e-12));
        assert_eq!(outcome.footprint.degraded_messages, 10);
        assert_eq!(inside.len(), 10);
        assert!(outcome.footprint.added_seconds > 10.0 * 5.0e-6);
        assert_eq!(outcome.footprint.down_messages, 0);
    }

    #[test]
    fn stall_window_touches_only_its_stripe() {
        // Both stripes live on node 0; only stripe 1 stalls.
        let placement = [0usize, 0];
        let records = spaced_misses(&[0, 1], 20);
        let plan = FaultPlan::new(2).stall_window(1, 500, 1500, 2.0e-6);
        let outcome = replay_trace(&records, &placement, Some(&plan));
        let nominal = replay_trace(&records, &placement, None);
        for ((r, &with), &without) in records
            .iter()
            .zip(&outcome.query_latencies)
            .zip(&nominal.query_latencies)
        {
            if r.stripe == 1 && (500..1500).contains(&r.tick) {
                assert!(
                    with > without,
                    "stalled access at tick {} not slower",
                    r.tick
                );
            } else {
                assert_eq!(with, without, "tick {} stripe {}", r.tick, r.stripe);
            }
        }
        assert_eq!(outcome.footprint.degraded_messages, 10);
        assert!((outcome.footprint.added_seconds - 10.0 * 2.0e-6).abs() < 1e-12);
    }

    #[test]
    fn crash_window_charges_nothing_to_the_down_node() {
        let placement = [0usize, 1];
        let records = spaced_misses(&[0, 1], 10);
        let plan = FaultPlan::new(3).crash_window(1, 0, 10_000);
        let outcome = replay_trace(&records, &placement, Some(&plan));
        assert_eq!(outcome.per_node[1].messages, 0);
        assert_eq!(outcome.per_node[1].busy_seconds, 0.0);
        assert_eq!(outcome.per_node[0].messages, 10);
        assert_eq!(outcome.footprint.down_messages, 10);
        assert_eq!(outcome.query_latencies.len(), 10);
        assert_eq!(outcome.footprint.degraded_messages, 0);
    }

    #[test]
    fn empty_plan_replays_bit_equal_to_none() {
        let placement = place_stripes(8, &[1.0; 4]);
        let plan = FaultPlan::new(0);
        assert_eq!(
            replay_trace(&sample_trace(), &placement, Some(&plan)),
            replay_trace(&sample_trace(), &placement, None)
        );
    }
}
