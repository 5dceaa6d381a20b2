//! The distributed memo tier: one logical store spread over N simulated
//! memory nodes.
//!
//! The paper's deployment (Figure 6, §5) keeps the memoization database on
//! dedicated memory nodes behind Slingshot links; [`DistributedMemoDb`] is
//! that deployment's *outcome* model. It wraps a [`ShardedMemoDb`], spreads
//! the store's lock stripes over `N` simulated nodes with a deterministic
//! placement (see `mlr_cluster::placement`), and keeps exactly the state
//! that can change what a caller observes: which node owns a stripe, which
//! nodes the armed [`FaultPlan`] has down, and which hot entries are
//! replicated on the compute side. What an access *costs* in simulated
//! network time is priced offline, from the store's `AccessTrace`, by
//! `mlr_cluster::replay_trace` — the one link model.
//!
//! # Bit-identity contract
//!
//! Store *semantics* — which probes hit, which entries are resident, what
//! the counters say — are delegated 1:1 to the wrapped [`ShardedMemoDb`].
//! Without a fault plan the tier returns bit-identical hits to the plain
//! sharded store, for any node count and any placement. The
//! `tests/distributed.rs` suite pins this.
//!
//! # Hot-entry replication
//!
//! Entries that keep getting hit are promoted into a bounded replica set —
//! the model of the paper's compute-side caching of hot values. Promotion
//! is driven by the cost-aware eviction metadata already on
//! [`EntryMeta`](crate::eviction::EntryMeta): once an entry has served
//! [`NodeTopology::promote_hits`] hits it is replicated, ranked by
//! [`CostAwarePolicy::benefit_density`], and when the replica budget is
//! full the lowest-density replica (ties on the smaller entry id) is
//! demoted. A hit on a replicated entry is *local*: it survives a crash of
//! the owning node, and the replay charges it no link trip. Every promotion
//! and demotion is written into the store's access trace
//! (`AccessKind::Promote` / `Demote`, right after the `Hit` that caused
//! it); the replay follows those records and holds no policy of its own,
//! so its `local_hits` / `remote_hits` equal [`DistributedStats`]'.
//!
//! # Fault injection
//!
//! Armed with a [`FaultPlan`] (see [`DistributedMemoDb::with_faults`]), the
//! tier consumes a seeded, tick-ordered schedule of node crashes, link
//! degradations, and slow-stripe stalls:
//!
//! * An access owned by a *down* node resolves as a deterministic miss
//!   (the caller recomputes the FFT — mLR's always-correct degradation
//!   path) **unless** the serving entry sits in the local replica set, in
//!   which case the hit survives (a *replica-saved* hit).
//! * When a crashed node restarts, its stripes' resident entries are
//!   purged wholesale — warm-up starts from scratch. Placement is never
//!   recomputed; liveness is read off the plan ([`FaultPlan::node_down_at`]).
//! * Link degradations and stripe stalls never change which probes hit, so
//!   the live tier ignores them; hand the same plan to
//!   `mlr_cluster::replay_trace` to see what they cost.
//!
//! Every fault decision is a pure function of the plan and the store's
//! logical tick — frozen for the whole parallel probe phase, advanced only
//! on ordered commits — so a faulted run is bit-replayable across thread
//! counts, and its [`FaultStats`] are identical too. No wall clock is
//! consulted anywhere on a fault path.

use crate::db::MemoDbConfig;
use crate::eviction::CostAwarePolicy;
use crate::sharded::ShardedMemoDb;
use crate::store::{MemoStore, ProbeOutcome, Provenance, StoreStats};
use mlr_cluster::placement::{place_stripes, stripes_per_node};
use mlr_lamino::FftOpKind;
use mlr_math::Complex64;
use mlr_sim::faults::{FaultEvent, FaultPlan};
use mlr_telemetry::AccessKind;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Topology of the simulated memory-node cluster. `Copy`, so it can ride
/// in `RuntimeConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTopology {
    /// Number of simulated memory nodes the stripes are spread over.
    pub nodes: usize,
    /// Maximum number of hot entries kept in the replica set.
    pub replica_budget: usize,
    /// Hits after which an entry is promoted into the replica set
    /// (`0` disables replication).
    pub promote_hits: u64,
}

impl Default for NodeTopology {
    /// Four memory nodes, promotion after 2 hits into a 64-entry replica
    /// set.
    fn default() -> Self {
        Self {
            nodes: 4,
            replica_budget: 64,
            promote_hits: 2,
        }
    }
}

impl NodeTopology {
    /// A topology with `nodes` memory nodes and the default replica policy.
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            nodes,
            ..Self::default()
        }
    }
}

/// One memory node's share of the distributed store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeStats {
    /// Node index.
    pub node: usize,
    /// Lock stripes placed on the node.
    pub stripes: usize,
    /// Entries resident on the node's stripes.
    pub entries: usize,
}

/// Aggregate view of the distributed tier: what each node holds plus the
/// replica set's effect. Link traffic, utilisation and latencies come from
/// replaying the run's access trace (`mlr_cluster::replay_trace`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistributedStats {
    /// Per-node residency, indexed by node.
    pub nodes: Vec<NodeStats>,
    /// Hits served from the local replica set (no link trip).
    pub local_hits: u64,
    /// Hits that crossed a node link.
    pub remote_hits: u64,
    /// Entries promoted into the replica set so far.
    pub promotions: u64,
    /// Replicas dropped to respect the replica budget.
    pub replica_evictions: u64,
    /// Entries currently replicated.
    pub replicas: usize,
    /// Fault-injection accounting; `None` when no [`FaultPlan`] is armed.
    pub faults: Option<FaultStats>,
}

impl DistributedStats {
    /// Fraction of hits served from the replica set.
    pub fn local_hit_fraction(&self) -> f64 {
        crate::stats::ratio(self.local_hits, self.local_hits + self.remote_hits)
    }
}

/// What the fault layer observed: how much the injected schedule actually
/// degraded the store, and how fast it came back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Seed of the active [`FaultPlan`].
    pub plan_seed: u64,
    /// Scheduled events in the plan.
    pub plan_events: usize,
    /// Node crashes applied so far.
    pub crashes: u64,
    /// Node restarts applied so far.
    pub restarts: u64,
    /// Entries purged because their node restarted after a crash.
    pub lost_entries: u64,
    /// Hits on a down node that survived via the local replica set.
    pub replica_saved_hits: u64,
    /// Accesses forced down the recompute path by a down node (would-be
    /// hits degraded to plain misses).
    pub degraded_accesses: u64,
    /// Logical ticks from the most recent restart until the post-restart
    /// hit rate (over at least 8 accesses) reached half the pre-crash hit
    /// rate; `None` while not yet recovered (or before any restart).
    pub recovery_ticks_to_half_hit_rate: Option<u64>,
}

/// Sequential fault bookkeeping, mutated only on ordered-commit paths.
#[derive(Default)]
struct FaultSeq {
    /// Cursor into the plan's events: everything before it is applied.
    next_event: usize,
    crashes: u64,
    restarts: u64,
    lost_entries: u64,
    /// Store-wide hit rate snapshotted when the last crash applied.
    pre_crash_hit_rate: f64,
    /// Tick of the most recent restart, once one applied.
    restart_tick: Option<u64>,
    /// Accesses and hits observed since the most recent restart.
    post_hits: u64,
    post_queries: u64,
    /// Ticks from restart to half the pre-crash hit rate, once reached.
    recovery_ticks: Option<u64>,
}

/// Fault-injection state. The two counters the parallel probe path touches
/// are atomics; everything else lives in [`FaultSeq`] behind its own mutex,
/// taken only on ordered-commit paths.
struct FaultState {
    plan: FaultPlan,
    degraded_accesses: AtomicU64,
    replica_saved_hits: AtomicU64,
    seq: Mutex<FaultSeq>,
}

/// The replica set and its counters. Read by probes toward a down node,
/// written only on the ordered-commit paths.
#[derive(Default)]
struct ReplicaSet {
    /// entry id → benefit density at promotion/refresh time.
    members: HashMap<u64, f64>,
    local_hits: u64,
    remote_hits: u64,
    promotions: u64,
    evictions: u64,
}

/// A [`MemoStore`] spread over N simulated memory nodes: semantics
/// delegated to a [`ShardedMemoDb`] (bit-identical hits), hot entries
/// replicated by benefit density, node crashes injected from a
/// [`FaultPlan`]. See the module docs for the full picture.
///
/// ```
/// use mlr_memo::{DistributedMemoDb, MemoDbConfig, MemoStore, NodeTopology, ShardedMemoDb};
/// use std::sync::Arc;
///
/// let inner = Arc::new(ShardedMemoDb::with_shards(MemoDbConfig::default(), 16));
/// let store = DistributedMemoDb::new(inner, NodeTopology::with_nodes(4));
/// // 16 stripes spread evenly over 4 equal-capacity nodes...
/// assert_eq!(store.placement().len(), 16);
/// let stats = store.distributed_stats();
/// assert_eq!(stats.nodes.len(), 4);
/// assert!(stats.nodes.iter().all(|n| n.stripes == 4));
/// // ...and the store serves `MemoStore` callers like any other.
/// assert!(store.is_empty());
/// ```
pub struct DistributedMemoDb {
    inner: Arc<ShardedMemoDb>,
    topology: NodeTopology,
    /// stripe → owning node, fixed at construction.
    placement: Vec<usize>,
    replicas: RwLock<ReplicaSet>,
    /// Fault-injection layer; `None` (the default) is a perfect cluster.
    fault: Option<FaultState>,
}

impl DistributedMemoDb {
    /// Spreads `inner`'s stripes over `topology.nodes` equal-capacity
    /// nodes.
    ///
    /// # Panics
    /// Panics when `topology.nodes` is zero.
    pub fn new(inner: Arc<ShardedMemoDb>, topology: NodeTopology) -> Self {
        Self::with_capacities(inner, topology, &vec![1.0; topology.nodes])
    }

    /// Spreads `inner`'s stripes over nodes with explicit per-node link
    /// capacities (the network-cost-aware placement assigns faster links
    /// proportionally more stripes).
    ///
    /// # Panics
    /// Panics when `capacities.len() != topology.nodes` or is empty.
    pub fn with_capacities(
        inner: Arc<ShardedMemoDb>,
        topology: NodeTopology,
        capacities: &[f64],
    ) -> Self {
        assert_eq!(
            capacities.len(),
            topology.nodes,
            "one capacity per memory node"
        );
        let placement = place_stripes(inner.shard_count(), capacities);
        Self {
            inner,
            topology,
            placement,
            replicas: RwLock::new(ReplicaSet::default()),
            fault: None,
        }
    }

    /// Arms the tier with a fault-injection plan: equal-capacity placement
    /// plus the deterministic crash/degrade/stall schedule described in the
    /// module docs. An empty plan behaves exactly like [`Self::new`].
    ///
    /// # Panics
    /// Panics when `topology.nodes` is zero.
    pub fn with_faults(inner: Arc<ShardedMemoDb>, topology: NodeTopology, plan: FaultPlan) -> Self {
        let mut db = Self::new(inner, topology);
        db.fault = Some(FaultState {
            plan,
            degraded_accesses: AtomicU64::new(0),
            replica_saved_hits: AtomicU64::new(0),
            seq: Mutex::new(FaultSeq::default()),
        });
        db
    }

    /// Fault accounting so far; `None` when no plan is armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        let fault = self.fault.as_ref()?;
        let seq = fault.seq.lock();
        Some(FaultStats {
            plan_seed: fault.plan.seed(),
            plan_events: fault.plan.len(),
            crashes: seq.crashes,
            restarts: seq.restarts,
            lost_entries: seq.lost_entries,
            replica_saved_hits: fault.replica_saved_hits.load(Ordering::Relaxed),
            degraded_accesses: fault.degraded_accesses.load(Ordering::Relaxed),
            recovery_ticks_to_half_hit_rate: seq.recovery_ticks,
        })
    }

    /// True when the fault plan marks the owner of `(op, loc)` down at the
    /// store's current tick — a pure read, safe on the probe path.
    fn owner_down(&self, op: FftOpKind, loc: usize) -> Option<&FaultState> {
        let fault = self.fault.as_ref()?;
        let node = self.placement[self.inner.stripe_of(op, loc)];
        fault
            .plan
            .node_down_at(node, self.inner.current_tick())
            .then_some(fault)
    }

    /// Applies every scheduled fault event up to the store's current tick
    /// (ordered-commit paths only). A restart purges the node's stripes —
    /// the crash itself is pure bookkeeping, since down-ness is answered
    /// directly from the plan — and optionally folds one access into the
    /// recovery curve.
    fn fault_tick(&self, access_hit: Option<bool>) {
        let Some(fault) = &self.fault else { return };
        let tick = self.inner.current_tick();
        let mut seq = fault.seq.lock();
        while seq.next_event < fault.plan.events().len() {
            let timed = fault.plan.events()[seq.next_event];
            if timed.tick > tick {
                break;
            }
            seq.next_event += 1;
            match timed.event {
                FaultEvent::NodeCrash { .. } => {
                    seq.crashes += 1;
                    seq.pre_crash_hit_rate = self.inner.stats().hit_rate();
                    seq.restart_tick = None;
                    seq.recovery_ticks = None;
                }
                FaultEvent::NodeRestart { node } => {
                    seq.restarts += 1;
                    let mut replicas = self.replicas.write();
                    for (stripe, &owner) in self.placement.iter().enumerate() {
                        if owner == node {
                            let purged = self.inner.purge_stripe(stripe);
                            seq.lost_entries += purged.len() as u64;
                            for id in &purged {
                                replicas.members.remove(id);
                            }
                        }
                    }
                    drop(replicas);
                    seq.restart_tick = Some(timed.tick);
                    seq.post_hits = 0;
                    seq.post_queries = 0;
                }
                // Link and stripe events change no outcome; the trace
                // replay prices them from the same plan.
                FaultEvent::LinkDegrade { .. }
                | FaultEvent::LinkRestore { .. }
                | FaultEvent::StripeStall { .. }
                | FaultEvent::StripeRecover { .. } => {}
            }
        }
        if let Some(hit) = access_hit {
            if seq.restart_tick.is_some() && seq.recovery_ticks.is_none() {
                seq.post_queries += 1;
                seq.post_hits += u64::from(hit);
                let rate = seq.post_hits as f64 / seq.post_queries as f64;
                if seq.post_queries >= 8 && rate >= seq.pre_crash_hit_rate / 2.0 {
                    seq.recovery_ticks = Some(tick.saturating_sub(seq.restart_tick.unwrap_or(0)));
                }
            }
        }
    }

    /// The wrapped sharded store.
    pub fn inner(&self) -> &Arc<ShardedMemoDb> {
        &self.inner
    }

    /// The stripe→node placement map.
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// A snapshot of the per-node residency and replica-set state.
    pub fn distributed_stats(&self) -> DistributedStats {
        let faults = self.fault_stats();
        let shard_sizes = self.inner.shard_sizes();
        let nodes = self.topology.nodes;
        let mut entries = vec![0usize; nodes];
        for (stripe, &node) in self.placement.iter().enumerate() {
            entries[node] += shard_sizes.get(stripe).copied().unwrap_or(0);
        }
        let stripes = stripes_per_node(&self.placement, nodes);
        let replicas = self.replicas.read();
        DistributedStats {
            faults,
            nodes: (0..nodes)
                .map(|node| NodeStats {
                    node,
                    stripes: stripes[node],
                    entries: entries[node],
                })
                .collect(),
            local_hits: replicas.local_hits,
            remote_hits: replicas.remote_hits,
            promotions: replicas.promotions,
            replica_evictions: replicas.evictions,
            replicas: replicas.members.len(),
        }
    }
}

impl MemoStore for DistributedMemoDb {
    fn config(&self) -> MemoDbConfig {
        self.inner.config()
    }

    fn encode(&self, input: &[Complex64]) -> Vec<f64> {
        self.inner.encode(input)
    }

    // Fingerprint consultation happens on the compute node before any
    // encode/probe traffic, so it never depends on a memory node's health.
    fn has_fingerprint_neighbor(
        &self,
        op: FftOpKind,
        loc: usize,
        fp: &crate::fingerprint::ChunkFingerprint,
    ) -> bool {
        self.inner.has_fingerprint_neighbor(op, loc, fp)
    }

    fn note_fingerprint(
        &self,
        op: FftOpKind,
        loc: usize,
        fp: crate::fingerprint::ChunkFingerprint,
    ) {
        self.inner.note_fingerprint(op, loc, fp);
    }

    fn probe_with_key(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: &[f64],
        origin: Provenance,
    ) -> ProbeOutcome {
        // Pure read, concurrent with other probes.
        let outcome = self.inner.probe_with_key(op, loc, input, key, origin);
        let Some(fault) = self.owner_down(op, loc) else {
            return outcome;
        };
        // The owner is down at the (frozen) probe tick. Stat counters here
        // are atomics over an interleaving-independent access set, so the
        // totals do not depend on how concurrent jobs' probes interleave.
        match outcome {
            ProbeOutcome::Hit { entry, .. }
                if self.replicas.read().members.contains_key(&entry) =>
            {
                fault.replica_saved_hits.fetch_add(1, Ordering::Relaxed);
                outcome
            }
            ProbeOutcome::Hit { .. } => {
                // A would-be hit degrades to the recompute path.
                fault.degraded_accesses.fetch_add(1, Ordering::Relaxed);
                ProbeOutcome::Miss
            }
            ProbeOutcome::Miss => ProbeOutcome::Miss,
        }
    }

    fn commit_hit(
        &self,
        op: FftOpKind,
        loc: usize,
        entry: u64,
        entry_origin: Provenance,
        origin: Provenance,
    ) {
        self.fault_tick(Some(true));
        // Held across the inner commit: the trace's `Hit` and the replica
        // records it causes land in the order the set changed, which is
        // what lets the replay reproduce the local/remote split.
        let mut replicas = self.replicas.write();
        self.inner.commit_hit(op, loc, entry, entry_origin, origin);
        // An entry evicted between probe and commit has no metadata left:
        // its value crossed the link, and there is nothing to replicate.
        let Some(meta) = self.inner.entry_meta(op, loc, entry) else {
            replicas.remote_hits += 1;
            return;
        };
        let density = CostAwarePolicy::benefit_density(&meta);
        if let Some(ranked) = replicas.members.get_mut(&entry) {
            *ranked = density;
            replicas.local_hits += 1;
            return;
        }
        replicas.remote_hits += 1;
        // Promotion is a compute-side action on a value that already
        // arrived, so it applies even when the owner just went down.
        let topology = self.topology;
        if topology.promote_hits == 0
            || meta.hits < topology.promote_hits
            || topology.replica_budget == 0
        {
            return;
        }
        let stripe = self.inner.stripe_of(op, loc);
        if replicas.members.len() >= topology.replica_budget {
            // Lowest density goes, ties on the smaller entry id.
            let victim = replicas
                .members
                .iter()
                .min_by(|(ae, ad), (be, bd)| ad.total_cmp(bd).then(ae.cmp(be)))
                .map(|(&id, _)| id);
            if let Some(victim) = victim {
                replicas.members.remove(&victim);
                replicas.evictions += 1;
                self.inner
                    .trace_access(op as u8, stripe, victim, AccessKind::Demote);
            }
        }
        replicas.members.insert(entry, density);
        replicas.promotions += 1;
        self.inner
            .trace_access(op as u8, stripe, entry, AccessKind::Promote);
    }

    fn commit_miss(&self, op: FftOpKind, loc: usize) {
        self.fault_tick(Some(false));
        self.inner.commit_miss(op, loc);
    }

    fn insert(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: Vec<f64>,
        output: Vec<Complex64>,
        origin: Provenance,
        recompute_cost: f64,
    ) -> u64 {
        // An insert toward a down node lands in the wrapped store
        // regardless and is purged with the rest of the stripe when the
        // node restarts.
        self.fault_tick(None);
        self.inner
            .insert(op, loc, input, key, output, origin, recompute_cost)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn value_bytes(&self) -> u64 {
        self.inner.value_bytes()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn pressure(&self) -> f64 {
        self.inner.pressure()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{chunk, lookup_or_insert, store};

    fn sharded(shards: usize) -> Arc<ShardedMemoDb> {
        let config = MemoDbConfig {
            tau: 0.9,
            ..Default::default()
        };
        Arc::new(store(config, shards))
    }

    /// Drives `rounds` rounds of lookup-or-insert over 8 locations and
    /// returns the hit/miss sequence.
    fn run_schedule(store: &dyn MemoStore, rounds: usize) -> Vec<bool> {
        run_rounds(store, 0..rounds)
    }

    /// Like [`run_schedule`] but with explicit round numbers, so a schedule
    /// can continue where an earlier warm-up left off (the freshness gate
    /// refuses same-job same-iteration reuse).
    fn run_rounds(store: &dyn MemoStore, rounds: std::ops::Range<usize>) -> Vec<bool> {
        let mut outcomes = Vec::new();
        for round in rounds {
            for loc in 0..8usize {
                let input = chunk(1.0 + loc as f64, 0.1 * loc as f64, 128);
                let origin = Provenance::solo(round + 1);
                let output = chunk(2.0, 0.5, 32);
                outcomes.push(lookup_or_insert(
                    store,
                    FftOpKind::Fu2D,
                    loc,
                    &input,
                    output,
                    origin,
                ));
            }
        }
        outcomes
    }

    #[test]
    fn hits_match_the_wrapped_store_bit_for_bit() {
        let plain = sharded(16);
        let reference = run_schedule(plain.as_ref(), 4);
        assert!(reference.iter().any(|&h| h), "schedule never hits");
        for nodes in [1, 2, 4, 7] {
            let distributed = DistributedMemoDb::new(sharded(16), NodeTopology::with_nodes(nodes));
            assert_eq!(
                run_schedule(&distributed, 4),
                reference,
                "{nodes} nodes diverged from the plain sharded store"
            );
            assert_eq!(distributed.len(), plain.len());
            assert_eq!(distributed.stats().hits, plain.stats().hits);
        }
    }

    #[test]
    fn traffic_spreads_over_nodes_and_replicas_go_local() {
        let distributed = DistributedMemoDb::new(sharded(16), NodeTopology::with_nodes(4));
        let outcomes = run_schedule(&distributed, 6);
        let stats = distributed.distributed_stats();
        assert!(
            stats.nodes.iter().filter(|n| n.entries > 0).count() >= 2,
            "all entries on one node: {stats:?}"
        );
        assert!(stats.remote_hits > 0, "no hit crossed a link");
        assert!(
            stats.local_hits > 0,
            "promotion never produced a local hit: {stats:?}"
        );
        assert!(stats.promotions > 0);
        assert!(stats.local_hit_fraction() > 0.0);
        // Every served hit is exactly one of the two.
        assert_eq!(
            stats.local_hits + stats.remote_hits,
            outcomes.iter().filter(|&&h| h).count() as u64
        );
        let total_entries: usize = stats.nodes.iter().map(|n| n.entries).sum();
        assert_eq!(total_entries, distributed.len());
        assert_eq!(
            stats.nodes.iter().map(|n| n.stripes).sum::<usize>(),
            distributed.inner().shard_count()
        );
    }

    #[test]
    fn placement_is_deterministic_and_capacity_weighted() {
        let a = DistributedMemoDb::new(sharded(16), NodeTopology::with_nodes(4));
        let b = DistributedMemoDb::new(sharded(16), NodeTopology::with_nodes(4));
        assert_eq!(a.placement(), b.placement());
        // A node with a 3× link takes 3× the stripes.
        let skewed = DistributedMemoDb::with_capacities(
            sharded(16),
            NodeTopology::with_nodes(2),
            &[3.0, 1.0],
        );
        let counts = stripes_per_node(skewed.placement(), 2);
        assert_eq!(counts, vec![12, 4]);
    }

    #[test]
    fn down_node_degrades_to_miss_and_restart_purges() {
        let inner = sharded(16);
        // Warm through the bare inner store: round 0 inserts, round 1 hits.
        let warm = run_rounds(inner.as_ref() as &dyn MemoStore, 0..2);
        assert!(warm[8..].iter().all(|&h| h), "warm-up must end hitting");
        let resident_before = inner.len();
        assert!(resident_before > 0);
        // One node owns everything; crash it for the whole next round. A
        // degraded miss costs two ticks (commit + insert), so the restart at
        // t + 15 is applied by the round's last insert — after its last
        // probe, which therefore still sees the node down.
        let t = inner.current_tick();
        let plan = FaultPlan::new(3).crash_window(0, t, t + 15);
        assert!(plan.node_down_at(0, t), "crash window must be open");
        let store = DistributedMemoDb::with_faults(inner, NodeTopology::with_nodes(1), plan);
        let during = run_rounds(&store, 2..3);
        assert!(
            during.iter().all(|&h| !h),
            "a down node with no replicas must force misses: {during:?}"
        );
        let faults = store.fault_stats().expect("plan armed");
        assert_eq!(faults.crashes, 1);
        assert_eq!(faults.restarts, 1);
        assert!(faults.degraded_accesses > 0, "{faults:?}");
        assert!(
            faults.lost_entries as usize >= resident_before,
            "restart must lose at least the warm entries: {faults:?}"
        );
        assert_eq!(faults.replica_saved_hits, 0);
        // Post-restart rounds rebuild the store and the hit rate recovers.
        let after = run_rounds(&store, 3..6);
        assert!(
            after[8..].iter().filter(|&&h| h).count() > 0,
            "recovery never produced a hit: {after:?}"
        );
        let faults = store.fault_stats().expect("plan armed");
        assert!(
            faults.recovery_ticks_to_half_hit_rate.is_some(),
            "recovery curve never reached half the pre-crash hit rate: {faults:?}"
        );
        let stats = store.distributed_stats();
        assert_eq!(stats.faults.as_ref().map(|f| f.crashes), Some(1));
    }

    #[test]
    fn replicated_entries_survive_a_crash() {
        // Promote after the first hit so the whole working set is
        // replicated before the crash window opens.
        let topology = NodeTopology {
            promote_hits: 1,
            ..NodeTopology::with_nodes(1)
        };
        // Rounds 0..2 run before the crash (insert, then hit-and-promote);
        // the miss round costs 16 ticks and the hit round 8, so the crash
        // at tick 24 covers round 2 exactly.
        let plan = FaultPlan::new(9).crash_window(0, 24, 100_000);
        let store = DistributedMemoDb::with_faults(sharded(16), topology, plan.clone());
        let outcomes = run_rounds(&store, 0..3);
        assert!(
            outcomes[16..].iter().all(|&h| h),
            "replica set must keep serving through the crash: {outcomes:?}"
        );
        let faults = store.fault_stats().expect("plan armed");
        assert_eq!(faults.replica_saved_hits, 8, "{faults:?}");
        assert_eq!(faults.degraded_accesses, 0, "{faults:?}");
        let stats = store.distributed_stats();
        // Round 1 hits are remote (promotion follows the hit); all of
        // round 2 is served from the replica set.
        assert_eq!(stats.local_hits, 8, "replica hits are local: {stats:?}");
        assert!(plan.node_down_at(0, store.inner().current_tick()));
    }

    #[test]
    fn faulted_runs_replay_bit_identically() {
        let plan = FaultPlan::seeded(0xC0FFEE, 2, 16, 64);
        let run = || {
            let store = DistributedMemoDb::with_faults(
                sharded(16),
                NodeTopology::with_nodes(2),
                plan.clone(),
            );
            let outcomes = run_rounds(&store, 0..5);
            (outcomes, store.fault_stats().expect("plan armed"))
        };
        let (a_out, a_faults) = run();
        let (b_out, b_faults) = run();
        assert_eq!(a_out, b_out);
        assert_eq!(a_faults, b_faults);
        assert!(
            a_faults.crashes > 0,
            "seeded plan never crashed inside the schedule: {a_faults:?}"
        );
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let reference = {
            let store = DistributedMemoDb::new(sharded(16), NodeTopology::with_nodes(4));
            run_schedule(&store, 4)
        };
        let store = DistributedMemoDb::with_faults(
            sharded(16),
            NodeTopology::with_nodes(4),
            FaultPlan::new(0),
        );
        assert_eq!(run_schedule(&store, 4), reference);
        let faults = store.fault_stats().expect("plan armed");
        assert_eq!(faults.degraded_accesses, 0);
        assert_eq!(faults.lost_entries, 0);
        assert_eq!(faults.crashes, 0);
    }

    #[test]
    fn replica_budget_stays_bounded() {
        let topology = NodeTopology {
            replica_budget: 2,
            promote_hits: 1,
            ..NodeTopology::with_nodes(2)
        };
        let distributed = DistributedMemoDb::new(sharded(8), topology);
        let _ = run_schedule(&distributed, 5);
        let stats = distributed.distributed_stats();
        assert!(stats.replicas <= 2, "replica budget violated: {stats:?}");
        assert!(
            stats.replica_evictions > 0,
            "8 hot entries through a 2-replica budget must evict"
        );
    }
}
