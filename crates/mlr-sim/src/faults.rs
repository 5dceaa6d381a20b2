//! Deterministic fault injection for the distributed memo tier.
//!
//! Beamline-scale deployments lose memory nodes, see links brown out, and
//! watch individual stripes stall. mLR's core property — memoization is
//! *only* an acceleration — means every such fault has a provably correct
//! degradation path: recompute the FFT. This module provides the schedule
//! that exercises those paths reproducibly.
//!
//! A [`FaultPlan`] is a seeded, logical-tick-ordered list of [`FaultEvent`]s.
//! Every query about the plan (`node_down_at`, `link_state_at`,
//! `stripe_stall_at`) is a pure function of `(plan, tick)` — there is no
//! wall clock anywhere in a fault decision, so a run under a plan is exactly
//! replayable: same plan, same workload, same outcome. Ticks are the memo
//! store's logical [`StoreClock`] ticks, the same unit the distributed tier
//! already maps to simulated seconds.
//!
//! [`StoreClock`]: https://docs.rs/ (mlr-memo::clock::StoreClock)

use crate::Seconds;
use mlr_math::rng::seeded_stream;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One injectable fault (or its recovery), applied at a logical tick.
///
/// An event takes effect at its tick and stays in effect until a matching
/// recovery event (restart / restore / recover) for the same target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Memory node `node` crashes: accesses owned by it degrade to misses
    /// and, on restart, its stripes' resident entries are lost.
    NodeCrash {
        /// Crashing node index.
        node: usize,
    },
    /// Memory node `node` comes back empty (warm-up from scratch).
    NodeRestart {
        /// Restarting node index.
        node: usize,
    },
    /// The link to `node` degrades: capacity is multiplied by
    /// `capacity_factor` (in `(0, 1]`) and every message pays
    /// `extra_latency` seconds on top of its base latency.
    LinkDegrade {
        /// Affected node index.
        node: usize,
        /// Multiplier on link capacity, clamped to `(0, 1]`.
        capacity_factor: f64,
        /// Additional per-message latency in seconds.
        extra_latency: Seconds,
    },
    /// The link to `node` returns to nominal capacity and latency.
    LinkRestore {
        /// Recovering node index.
        node: usize,
    },
    /// Stripe `stripe` stalls: every access it serves pays an extra
    /// `stall_seconds` of modeled latency (a slow SSD / hot lock shard).
    StripeStall {
        /// Affected stripe index.
        stripe: usize,
        /// Extra seconds per access while stalled.
        stall_seconds: Seconds,
    },
    /// Stripe `stripe` recovers to nominal speed.
    StripeRecover {
        /// Recovering stripe index.
        stripe: usize,
    },
}

/// A [`FaultEvent`] bound to the logical tick at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedFault {
    /// Logical store-clock tick at which the event takes effect.
    pub tick: u64,
    /// The event itself.
    pub event: FaultEvent,
}

/// Effective state of the link to one node: `(capacity_factor, extra_latency)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkState {
    /// Multiplier on link capacity in `(0, 1]`; `1.0` when healthy.
    pub capacity_factor: f64,
    /// Additional per-message latency in seconds; `0.0` when healthy.
    pub extra_latency: Seconds,
}

impl LinkState {
    /// A healthy link: full capacity, no extra latency.
    pub const NOMINAL: LinkState = LinkState {
        capacity_factor: 1.0,
        extra_latency: 0.0,
    };

    /// True when the link is at nominal capacity and latency.
    pub fn is_nominal(&self) -> bool {
        self.capacity_factor >= 1.0 && self.extra_latency <= 0.0
    }
}

/// A seeded, tick-ordered schedule of injectable faults.
///
/// Construction is either explicit (`push` / the `*_window` helpers) or
/// generated from a seed ([`FaultPlan::seeded`]). Queries are pure functions
/// of `(plan, tick)`: the plan never consults a wall clock, so any component
/// driving decisions from it inherits replayability for free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<TimedFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) tagged with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// The seed this plan was built from (identifies it in stats/records).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The schedule, sorted by tick (stable for equal ticks).
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Adds one event at `tick`, keeping the schedule tick-sorted (stable).
    pub fn push(&mut self, tick: u64, event: FaultEvent) -> &mut Self {
        self.events.push(TimedFault { tick, event });
        self.events.sort_by_key(|e| e.tick);
        self
    }

    /// Schedules a crash of `node` at `from` and its restart at `until`.
    pub fn crash_window(mut self, node: usize, from: u64, until: u64) -> Self {
        self.push(from, FaultEvent::NodeCrash { node });
        self.push(until.max(from), FaultEvent::NodeRestart { node });
        self
    }

    /// Schedules a link degradation on `node` over `[from, until)`.
    pub fn degrade_window(
        mut self,
        node: usize,
        from: u64,
        until: u64,
        capacity_factor: f64,
        extra_latency: Seconds,
    ) -> Self {
        self.push(
            from,
            FaultEvent::LinkDegrade {
                node,
                capacity_factor: capacity_factor.clamp(1e-3, 1.0),
                extra_latency: extra_latency.max(0.0),
            },
        );
        self.push(until.max(from), FaultEvent::LinkRestore { node });
        self
    }

    /// Schedules a slow-stripe stall on `stripe` over `[from, until)`.
    pub fn stall_window(
        mut self,
        stripe: usize,
        from: u64,
        until: u64,
        stall_seconds: Seconds,
    ) -> Self {
        self.push(
            from,
            FaultEvent::StripeStall {
                stripe,
                stall_seconds: stall_seconds.max(0.0),
            },
        );
        self.push(until.max(from), FaultEvent::StripeRecover { stripe });
        self
    }

    /// Generates a plan from a seed: one crash window, one link-degrade
    /// window, and one slow-stripe window, all placed deterministically
    /// inside `[horizon/8, horizon)` ticks over `nodes` nodes and `stripes`
    /// stripes. Same arguments ⇒ same plan, bit for bit.
    pub fn seeded(seed: u64, nodes: usize, stripes: usize, horizon: u64) -> Self {
        let mut rng = seeded_stream(seed, 0xFA11);
        let nodes = nodes.max(1);
        let stripes = stripes.max(1);
        let horizon = horizon.max(16);
        let lo = horizon / 8;
        fn window<R: Rng>(rng: &mut R, lo: u64, horizon: u64) -> (u64, u64) {
            let a = rng.gen_range(lo..horizon);
            let b = rng.gen_range(lo..horizon);
            (a.min(b), a.max(b).max(a.min(b) + horizon / 16))
        }
        let crash_node = rng.gen_range(0..nodes);
        let (c_from, c_until) = window(&mut rng, lo, horizon);
        let degrade_node = rng.gen_range(0..nodes);
        let (d_from, d_until) = window(&mut rng, lo, horizon);
        let factor = 0.05 + rng.gen_range(0.0..0.45);
        let extra = rng.gen_range(1.0e-6..20.0e-6);
        let stall_stripe = rng.gen_range(0..stripes);
        let (s_from, s_until) = window(&mut rng, lo, horizon);
        let stall = rng.gen_range(0.5e-6..10.0e-6);
        FaultPlan::new(seed)
            .crash_window(crash_node, c_from, c_until)
            .degrade_window(degrade_node, d_from, d_until, factor, extra)
            .stall_window(stall_stripe, s_from, s_until, stall)
    }

    /// True when `node` is down (crashed and not yet restarted) at `tick`.
    ///
    /// Pure in `(self, tick)` — the replayability anchor for every consumer.
    pub fn node_down_at(&self, node: usize, tick: u64) -> bool {
        let mut down = false;
        for e in &self.events {
            if e.tick > tick {
                break;
            }
            match e.event {
                FaultEvent::NodeCrash { node: n } if n == node => down = true,
                FaultEvent::NodeRestart { node: n } if n == node => down = false,
                _ => {}
            }
        }
        down
    }

    /// Effective link state toward `node` at `tick`.
    pub fn link_state_at(&self, node: usize, tick: u64) -> LinkState {
        let mut state = LinkState::NOMINAL;
        for e in &self.events {
            if e.tick > tick {
                break;
            }
            match e.event {
                FaultEvent::LinkDegrade {
                    node: n,
                    capacity_factor,
                    extra_latency,
                } if n == node => {
                    state = LinkState {
                        capacity_factor: capacity_factor.clamp(1e-3, 1.0),
                        extra_latency: extra_latency.max(0.0),
                    };
                }
                FaultEvent::LinkRestore { node: n } if n == node => state = LinkState::NOMINAL,
                _ => {}
            }
        }
        state
    }

    /// Extra per-access stall (seconds) on `stripe` at `tick`; `0.0` when
    /// the stripe is healthy.
    pub fn stripe_stall_at(&self, stripe: usize, tick: u64) -> Seconds {
        let mut stall = 0.0;
        for e in &self.events {
            if e.tick > tick {
                break;
            }
            match e.event {
                FaultEvent::StripeStall {
                    stripe: s,
                    stall_seconds,
                } if s == stripe => stall = stall_seconds.max(0.0),
                FaultEvent::StripeRecover { stripe: s } if s == stripe => stall = 0.0,
                _ => {}
            }
        }
        stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_queries_are_pure_and_windowed() {
        let plan = FaultPlan::new(7)
            .crash_window(1, 10, 20)
            .degrade_window(2, 5, 15, 0.25, 4.0e-6)
            .stall_window(3, 8, 12, 2.0e-6);
        assert!(!plan.node_down_at(1, 9));
        assert!(plan.node_down_at(1, 10));
        assert!(plan.node_down_at(1, 19));
        assert!(!plan.node_down_at(1, 20));
        assert!(!plan.node_down_at(0, 15));
        let s = plan.link_state_at(2, 10);
        assert!((s.capacity_factor - 0.25).abs() < 1e-12);
        assert!((s.extra_latency - 4.0e-6).abs() < 1e-15);
        assert!(plan.link_state_at(2, 15).is_nominal());
        assert!(plan.link_state_at(1, 10).is_nominal());
        assert!(plan.stripe_stall_at(3, 8) > 0.0);
        assert_eq!(plan.stripe_stall_at(3, 12), 0.0);
        assert_eq!(plan.stripe_stall_at(0, 9), 0.0);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_vary_by_seed() {
        let a = FaultPlan::seeded(42, 4, 64, 1 << 14);
        let b = FaultPlan::seeded(42, 4, 64, 1 << 14);
        let c = FaultPlan::seeded(43, 4, 64, 1 << 14);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 6);
        // Windowed pairs: every crash has a restart after it.
        let restarts: Vec<(usize, u64)> = (a.events().iter())
            .filter_map(|e| match e.event {
                FaultEvent::NodeRestart { node } => Some((node, e.tick)),
                _ => None,
            })
            .collect();
        assert_eq!(restarts.len(), 1);
        let (node, restart) = restarts[0];
        assert!(a.node_down_at(node, restart - 1));
        assert!(!a.node_down_at(node, restart));
    }

    #[test]
    fn events_stay_tick_sorted() {
        let mut plan = FaultPlan::new(1);
        plan.push(30, FaultEvent::NodeRestart { node: 0 });
        plan.push(10, FaultEvent::NodeCrash { node: 0 });
        plan.push(20, FaultEvent::LinkRestore { node: 1 });
        let ticks: Vec<u64> = plan.events().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![10, 20, 30]);
    }
}
