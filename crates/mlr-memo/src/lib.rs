//! # mlr-memo
//!
//! The distributed memoization system that is mLR's core contribution:
//! replace expensive unequally-spaced FFT operations with values computed in
//! earlier ADMM iterations whenever the operation's input chunk is
//! sufficiently similar (cosine similarity above a threshold `τ`) to a chunk
//! seen before.
//!
//! The crate mirrors the paper's architecture piece by piece:
//!
//! * [`encoder`] — the key (§4.3.1's role): [`sketch`], the chunk's real
//!   and imaginary parts block-averaged onto an 8 × 8 grid, 128 numbers, a
//!   pure function. The key only picks the nearest-neighbour candidate;
//!   every reuse decision is the τ gate on the raw chunks (the paper's
//!   trained INT8 CNN is a cost-model row here, not live code).
//! * [`fingerprint`] — the norm prefilter's O(n) chunk fingerprints and the
//!   per-scope doorkeeper table: chunks with no fingerprint neighbor inside
//!   the τ-derived band skip cache, key and probe entirely and go straight
//!   to the exact FFT.
//! * [`ann`] — the index database (§4.3.2's role): one flat key list per
//!   `(operation, location)` scope, scanned in full — O(entries in the
//!   scope), tens here, bounded by the [`CapacityBudget`] — where the paper
//!   needs Faiss-IVF for millions.
//! * [`db`] — the database configuration ([`MemoDbConfig`]), the one τ gate
//!   ([`tau_gate`]: Eq. 3 on the raw chunks) and the crate-private lock
//!   stripe: index database + value database (entries hold single-precision
//!   `Arc<[Complex32]>` payloads, as Redis would) behind the τ-thresholded
//!   probe/insert protocol.
//! * [`cache`] — the compute-node memoization cache (§4.4): a one-entry FIFO
//!   cache *private to each chunk location*, compared against a global
//!   cache; an entry is the database entry that last hit there, gated by
//!   the same [`tau_gate`] before any key is computed.
//! * [`engine`] — the [`MemoizedExecutor`], an implementation of
//!   `mlr_lamino::FftExecutor` that the ADMM solver can use in place of the
//!   direct executor for the `F_u2D` / `F*_u2D` chunks; it records the
//!   per-case statistics behind Figures 10–12. Every chunk past warm-up
//!   takes the memo path. A batch runs in two phases on the calling thread:
//!   every chunk probes the store, cache and doorkeeper state frozen at
//!   dispatch, then the commit replays ticks, inserts and evictions in chunk-index order.
//!   Key coalescing (§4.3.3) is not live code: a coalesced 1 KiB key batch
//!   is the query size `mlr_cluster::replay_trace` charges a recorded
//!   trace's probes.
//! * [`eviction`] — capacity governance: one [`CapacityBudget`] (bytes /
//!   entries over the whole store) enforced after every insert by one rule,
//!   [`CostAwarePolicy`] (aged benefit density, cross-job servers last), on
//!   a logical clock shared by every stripe: deterministic given the
//!   schedule, independent of the shard layout.
//! * [`store`] — the [`MemoStore`] seam: the thread-safe interface the
//!   executor talks to, with one access protocol — a read-only probe, then
//!   an ordered commit (`commit_hit`, or `commit_miss` and `insert`).
//! * [`sharded`] — the [`ShardedMemoDb`], *the* store: lock-striped, with
//!   one stripe when private to a standalone executor and sixteen when
//!   serving several reconstruction jobs at once (the in-process analogue
//!   of the paper's memory node under multi-job traffic).
//! * [`distributed`] — the [`DistributedMemoDb`] memory-node tier wrapped
//!   around a `ShardedMemoDb`: stripe→node placement, replica promotion and
//!   node-crash injection — the state that decides outcomes. What the
//!   network costs is priced offline from the access trace by
//!   `mlr_cluster::replay_trace`.

#![warn(missing_docs)]

pub mod ann;
pub mod cache;
pub mod db;
pub mod distributed;
pub mod encoder;
pub mod engine;
pub mod eviction;
pub mod fingerprint;
pub mod sharded;
pub mod stats;
pub mod store;
#[cfg(test)]
mod testutil;

pub use cache::{CacheKind, MemoCache};
pub use db::{tau_gate, MemoDbConfig};
pub use distributed::{DistributedMemoDb, DistributedStats, FaultStats, NodeStats, NodeTopology};
pub use encoder::{sketch, CnnEncoder, EncoderConfig, EncoderScratch};
pub use engine::{MemoConfig, MemoizedExecutor};
pub use eviction::{
    recompute_cost_estimate, CapacityBudget, CostAwarePolicy, EntryMeta, StoreClock,
};
pub use fingerprint::{ChunkFingerprint, FingerprintTable, FINGERPRINT_HISTORY};
pub use sharded::{ShardedMemoDb, ACCESS_OP_UNKNOWN, DEFAULT_SHARDS};
pub use stats::{MemoCase, MemoStats, OpStats};
pub use store::{JobId, MemoStore, ProbeOutcome, Provenance, StoreStats};
