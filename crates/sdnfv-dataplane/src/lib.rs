//! The SDNFV NF Manager: the per-host data plane runtime (paper §4).
//!
//! There is one packet path, driven two ways:
//!
//! * [`runtime::ThreadedHost`] — the multi-threaded, **sharded** runtime
//!   mirroring the paper's implementation: packets are steered by 5-tuple
//!   flow hash into independent pipeline shards (RSS-style), each running a
//!   poll-mode dispatch/egress worker plus per-NF "VM" threads fed through
//!   lock-free SPSC rings. Every admitted packet holds a credit of its
//!   shard's gate, so overload throttles the injector instead of dropping
//!   packets. The module is split into the host side, the shard worker
//!   engine and the NF replica engine.
//! * [`sim`] — the same shard and NF engines registered as step-callable
//!   actors under a virtual clock, for the deterministic-simulation harness.
//!   [`manager::NfManager`] is a synchronous facade over a one-shard host
//!   driven this way: `process_packet`/`process_burst` step the engines on
//!   the calling thread until the packets are out. The simulators, the
//!   paper-figure benches and most tests use it.
//!
//! Building blocks:
//!
//! * [`loadbalance`] — round-robin, shortest-queue and flow-hash balancing
//!   policies (the §5.1 load-balancing micro-measurement; the shard engine
//!   spreads replicas with [`ReplicaDispatch`]),
//! * [`conflict`] — resolution of conflicting verdicts from NFs processing
//!   one packet in parallel (§4.2),
//! * [`cache`] — per-thread caching of flow-table lookups (§4.2),
//! * [`messages`] — application of NF cross-layer messages (SkipMe,
//!   RequestMe, ChangeDefault) to the host flow table (§3.4), through the
//!   one entry point [`messages::apply_nf_message_tracked_with`],
//! * [`stats`] — counters describing everything the host did.

#![warn(missing_docs)]

pub mod cache;
pub mod conflict;
pub mod loadbalance;
pub mod manager;
pub mod messages;
pub mod rehome;
pub mod runtime;
pub mod scratch;
pub mod sim;
pub mod stats;
pub mod wire;

pub use cache::LookupCache;
pub use conflict::resolve_parallel_verdicts;
pub use loadbalance::LoadBalancePolicy;
pub use manager::{NfManager, PacketOutcome};
pub use messages::{AppliedChange, NfManagerMessage};
pub use rehome::{BucketHandout, RehomeEvent, RehomeReport, RehomeStep};
pub use runtime::{
    shard_for_flow, BurstInjection, HostOutput, InjectResult, RehomeOrdering, ReplicaDispatch,
    ThreadedHost, ThreadedHostConfig, STEER_BUCKETS,
};
pub use sim::{SimActorInfo, SimActorKind, SimHandle};
pub use stats::{HostStats, HostStatsSnapshot, ShardStats};
pub use wire::{HostLink, LoopbackWire, WireFrame};
