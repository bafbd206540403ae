//! The multi-threaded, sharded NF Manager runtime (paper §4.1–4.2).
//!
//! The host is split into [`ThreadedHostConfig::num_shards`] independent
//! packet pipelines. Injection steers every packet by its 5-tuple flow hash
//! (the NIC-RSS analog), so **all packets of one flow traverse one shard**
//! and per-flow state — flow-table interactions, NF state keyed by flow —
//! never needs cross-shard synchronization:
//!
//! ```text
//!             ┌─ shard 0 ───────────────────────────────────────────┐
//!             │ ingress ─► worker (RX dispatch + TX egress) ─► egress│──┐
//! inject ──►──┤              │ NF rings        ▲ done rings          │  ├─► poll_egress
//!  (flow      │              ▼                 │                     │  │
//!   hash,     │           NF threads (one per NF "VM")               │  │
//!   credit    └─────────────────────────────────────────────────────┘  │
//!   gate)     ┌─ shard N−1: same pipeline ───────────────────────────┐ │
//!             └─────────────────────────────────────────────────────-┘─┘
//! ```
//!
//! Per shard, one **worker thread** runs both ends of the pipeline:
//!
//! * its *RX role* pops the shard's ingress ring a burst at a time, performs
//!   the first flow-table lookup through the worker's lookup cache, and
//!   stages packet descriptors per NF ring (several rings at once for
//!   parallel rules), flushing each ring with one batched push;
//! * each **NF thread** models one network-function VM pinned to the shard:
//!   it polls its input ring for a burst, runs the NF's batch entry point,
//!   applies cross-layer messages to the shared flow table *before*
//!   completed packets are handed onward, and pushes completions to its
//!   done ring in one burst;
//! * the worker's *TX role* drains the done rings in bursts, resolves
//!   conflicting verdicts, performs the next flow-table lookup (through the
//!   worker's lookup cache), and either re-arms the descriptor for the next
//!   NF, stages the packet for egress, or drops it.
//!
//! Because one thread plays both roles, every ring in a shard has exactly
//! one producer and one consumer — including the egress ring, which needs no
//! lock at all.
//!
//! **Ingress backpressure**: every admitted packet holds a credit. Each
//! shard holds a [`CreditGate`](sdnfv_ring::CreditGate) of
//! `shard_credits` packet slots. [`ThreadedHost::inject`] acquires one
//! credit per packet and returns [`InjectResult::Throttled`] — handing the
//! packet back — when the shard is saturated; the worker releases the
//! credit when the packet reaches a terminal state (egress, drop verdict,
//! punt). Credits are clamped to the smallest internal ring, so overload is
//! surfaced to the injector instead of overflowing a ring inside the
//! pipeline.
//!
//! Packets are never copied between threads. Each admitted packet gets one
//! [`SharedPacket`] descriptor, allocated at its first dispatch and re-armed
//! for every later hop; the NFs hand their verdicts back in the descriptor's
//! verdict words, and at egress the frame is moved out of it. The flow's
//! 5-tuple hash is computed once, at injection, and carried with the packet
//! for steering, bucket tracking, trace sampling, the lookup cache and the
//! sticky replica pick.
//!
//! **Per-shard flow tables**: the table handed to `start_sharded` is the
//! *template*; each shard works against its own
//! [`FlowTablePartitions`](sdnfv_flowtable::FlowTablePartitions) partition
//! (a fork of the template), so shard lookups and NF cross-layer messages
//! never contend on a lock another shard touches. Control-plane rules installed mid-run go through
//! [`ThreadedHost::install_rule`], which broadcasts to every partition.
//!
//! **Telemetry and elastic control** (paper §3.5): every shard's worker
//! periodically publishes a
//! [`TelemetrySnapshot`](sdnfv_telemetry::TelemetrySnapshot) — queue-depth
//! gauges for all its rings, credit occupancy, per-NF service-time EWMAs
//! and the shard's cumulative counters — over a lock-free SPSC ring drained
//! by [`ThreadedHost::poll_telemetry`]. In the other direction each shard
//! has a **control ring** of commands the worker applies between bursts, with
//! no stop-the-world: [`ThreadedHost::add_nf_replica`] spawns one more NF
//! thread for a service, [`ThreadedHost::remove_nf_replica`] retires one
//! (the replica drains its queue before its thread exits, so no packet is
//! lost), and [`ThreadedHost::resize_credits`] re-budgets the shard's
//! credit gate. [`ThreadedHost::set_steering_weights`] rebalances the
//! flow-hash → shard bucket table on the injection side.
//!
//! **Elastic shard count**: the pipeline count itself can change while
//! traffic flows. [`ThreadedHost::spawn_shard`] brings up a complete new
//! pipeline — worker thread, NF replica set, all rings, credit gate and a
//! flow-table partition forked from the template — and re-homes a fair
//! share of steering buckets onto it; [`ThreadedHost::retire_shard`] drains
//! the highest shard's buckets back onto the survivors and tears its
//! pipeline down (threads joined, rings reclaimed). Every bucket move —
//! scale-out, scale-in or a plain
//! [`set_steering_weights`](ThreadedHost::set_steering_weights) rebalance —
//! goes through the **state-complete quiesce-then-move handshake** in
//! [`crate::rehome`]: new arrivals for the bucket are parked in a small
//! pen, the old shard drains the bucket's in-flight packets, the bucket's
//! NF-internal per-flow state is collected from the old shard's replicas
//! (via [`NetworkFunction::export_flow_state`]), its shard-local exact-flow
//! rules *and* the wildcard mutations attributed to it are exported into
//! the new owner's partition, the steering entry flips, the NF state is
//! imported into the new shard's replicas, and only then is the pen
//! released — so neither packets, flow-table state, wildcard-rule
//! mutations nor NF flow state are lost. The
//! [`RehomeOrdering`] knob additionally offers strict per-flow egress
//! ordering across the move. Completed transitions are published as
//! [`ShardLifecycleEvent`](sdnfv_telemetry::ShardLifecycleEvent)s via
//! [`ThreadedHost::take_shard_events`].
//!
//! ## Layout
//!
//! * this module — the public configuration and result types, the steering
//!   function, and the descriptors the three parts below exchange
//!   (ingress frames, work and done items, shard commands, latency
//!   recorders, task handles);
//! * `host` — [`ThreadedHost`], the management-thread side: injection,
//!   egress polling, control, the re-home handshake, and shard launch;
//! * `engine` — the shard worker (`ShardEngine`): RX dispatch, TX egress,
//!   replica lifecycle, state exchange, rule sweeps and telemetry;
//! * `nf` — one NF replica (`NfEngine`), its state-migration mailbox and
//!   the replica spawners.

mod engine;
mod host;
mod nf;
#[cfg(test)]
mod tests;

pub(crate) use engine::ShardEngine;
pub(crate) use host::PipelineRuntime;
pub use host::ThreadedHost;
pub(crate) use nf::{NfEngine, NfProbe, ReplicaSpawner};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use sdnfv_flowtable::ServiceId;
use sdnfv_nf::{NetworkFunction, NfFlowState};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::Port;
use sdnfv_proto::Packet;
use sdnfv_ring::SharedPacket;
use sdnfv_telemetry::{LatencyHistogram, LatencyReport};

/// When a moving bucket may be released to its new shard, relative to its
/// packets' progress through the old shard — the per-flow egress-ordering
/// knob of the re-home handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RehomeOrdering {
    /// A bucket's in-flight count drops when each packet reaches *egress
    /// staging* (past which it can no longer touch flow state). Short
    /// re-home pauses, but a flow's last old-shard packets may still sit in
    /// the old shard's egress ring while its first new-shard packets come
    /// out — per-flow egress order can briefly interleave across the move.
    #[default]
    Relaxed,
    /// A bucket's in-flight count drops only when each packet *fully
    /// egresses* (is polled out of the host). Strict per-flow egress
    /// ordering across the move, at the cost of a longer bucket pause (the
    /// drain now waits on the host's egress polling) and a flow-key parse
    /// per polled packet.
    Strict,
}

/// How a shard worker distributes packets among multiple replicas of one
/// service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaDispatch {
    /// Flow-sticky (the default): a flow's stable 5-tuple hash picks one
    /// replica, so **every packet of the flow — including packets of the
    /// same burst — visits the same replica** and per-flow NF state stays
    /// exact. Keyless packets fall back to the least-loaded replica.
    /// Replica churn (add/remove) remaps a fraction of flows; the re-home
    /// import path merges any state the old replica exported.
    #[default]
    Sticky,
    /// Least-loaded: each packet goes to the replica with the shortest
    /// input queue. Best instantaneous balance, but one flow's burst can be
    /// split across replicas, leaving per-flow NF state (counters,
    /// detection windows) fragmented. Kept for stateless service chains.
    LeastLoaded,
}

/// Configuration of a [`ThreadedHost`].
#[derive(Debug, Clone)]
pub struct ThreadedHostConfig {
    /// Capacity of each NF input ring (per shard).
    pub nf_ring_capacity: usize,
    /// Capacity of each shard's ingress ring.
    pub ingress_capacity: usize,
    /// Capacity of each shard's egress ring.
    pub egress_capacity: usize,
    /// Maximum number of packets moved per ring operation — the batch size
    /// of the whole pipeline and the host's primary throughput knob. Larger
    /// bursts amortize atomic ring updates, flow-table lookups and NF
    /// dispatch over more packets at a small cost in per-packet latency.
    pub burst_size: usize,
    /// Number of independent pipeline shards. Packets are steered to shards
    /// by 5-tuple flow hash, so all packets of one flow stay on one shard.
    /// The default of 1 preserves the single-pipeline topology.
    pub num_shards: usize,
    /// Per-shard credit budget: the maximum number of packets one shard
    /// holds in flight. Clamped to the smallest internal ring capacity.
    pub shard_credits: usize,
    /// Whether the worker threads cache flow-table lookups (§4.2).
    pub enable_lookup_cache: bool,
    /// How often each shard's worker publishes a
    /// [`TelemetrySnapshot`](sdnfv_telemetry::TelemetrySnapshot)
    /// (nanoseconds). `0` disables the exporter.
    pub telemetry_interval_ns: u64,
    /// Whether a re-homed bucket is released at egress *staging* (fast,
    /// default) or only at *full egress* (strict per-flow ordering across
    /// the move) — see [`RehomeOrdering`].
    pub rehome_ordering: RehomeOrdering,
    /// How often each shard sweeps its flow-table partition for expired
    /// rules, in nanoseconds of the host clock (identical under the
    /// simulated runtime). `0` disables the amortized sweeper — rules then
    /// expire only lazily, when a lookup touches them.
    pub rule_sweep_interval_ns: u64,
    /// OpenFlow-style idle timeout stamped onto exact per-flow rules
    /// installed by NF `ChangeDefault` pins: the pin is evicted once this
    /// many nanoseconds pass without its flow sending a packet. `None`
    /// (the default) keeps pins forever, the pre-lifecycle behavior.
    pub pin_idle_timeout_ns: Option<u64>,
    /// Flow-trace sampling: one of every `trace_sample_every` flows (by
    /// stable flow hash) emits per-stage
    /// [`TraceSpan`](sdnfv_telemetry::TraceSpan)s. `0` (the default) turns
    /// hash sampling off; flows pinned by an
    /// [`Action::Trace`](sdnfv_flowtable::Action) rule are always traced.
    /// Adjustable at run time via [`ThreadedHost::set_trace_sampling`].
    pub trace_sample_every: u64,
    /// Capacity of each shard's lossy trace-span ring. A full ring drops
    /// the span (counted in `spans_dropped`) — tracing never blocks the
    /// packet path.
    pub trace_ring_capacity: usize,
    /// How packets are distributed among multiple replicas of one service
    /// (see [`ReplicaDispatch`]). Defaults to flow-sticky.
    pub replica_dispatch: ReplicaDispatch,
}

impl Default for ThreadedHostConfig {
    fn default() -> Self {
        ThreadedHostConfig {
            nf_ring_capacity: 1024,
            ingress_capacity: 8192,
            egress_capacity: 8192,
            burst_size: 32,
            num_shards: 1,
            shard_credits: 1024,
            enable_lookup_cache: true,
            telemetry_interval_ns: 1_000_000,
            rehome_ordering: RehomeOrdering::Relaxed,
            rule_sweep_interval_ns: 1_000_000,
            pin_idle_timeout_ns: None,
            trace_sample_every: 0,
            trace_ring_capacity: 1024,
            replica_dispatch: ReplicaDispatch::Sticky,
        }
    }
}

/// A packet that left the host: the egress port, the frame, and the flow
/// key parsed at ingress.
///
/// Carrying the ingress-time key through egress means the
/// [`RehomeOrdering::Strict`] release path never re-parses the frame — and
/// never *mis*-parses it: an NF that rewrites the 5-tuple mid-chain (NAT)
/// no longer breaks the bucket-drain accounting, because the key that was
/// admitted is the key that is released.
#[derive(Debug, Clone)]
pub struct HostOutput {
    /// The NIC port the packet left on.
    pub port: Port,
    /// The transmitted frame.
    pub packet: Packet,
    /// The packet's flow key as parsed at ingress (keyless packets are
    /// dropped at RX and never reach egress).
    pub key: FlowKey,
}

/// Number of hash buckets in the flow-steering table: a flow's stable
/// 5-tuple hash picks a bucket, the bucket maps to a shard. Rebalancing
/// ([`ThreadedHost::set_steering_weights`]) remaps buckets, so only the
/// flows of moved buckets change shard.
pub const STEER_BUCKETS: usize = 1024;

/// The shard a flow is steered to **by the default (uniform) bucket
/// table**: its stable 5-tuple hash picks one of [`STEER_BUCKETS`] buckets,
/// and bucket `b` maps to shard `b % num_shards`. Exposed so tests and
/// benches can predict (and assert) steering of hosts that have not been
/// rebalanced.
pub fn shard_for_flow(key: &FlowKey, num_shards: usize) -> usize {
    if num_shards <= 1 {
        return 0;
    }
    if num_shards >= STEER_BUCKETS {
        return (key.stable_hash() % num_shards as u64) as usize;
    }
    (key.stable_hash() % STEER_BUCKETS as u64) as usize % num_shards
}

/// The outcome of injecting one packet (see [`ThreadedHost::inject`]).
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a throttled injection hands the packet back for retry"]
pub enum InjectResult {
    /// The packet was admitted into its shard's pipeline.
    Admitted,
    /// Backpressure: the shard is saturated. The packet is handed back so
    /// the caller can retry after draining egress.
    Throttled(Packet),
}

impl InjectResult {
    /// Whether the packet entered the pipeline.
    pub fn is_admitted(&self) -> bool {
        matches!(self, InjectResult::Admitted)
    }

    /// The packet handed back by a throttled injection, if any.
    pub fn into_throttled(self) -> Option<Packet> {
        match self {
            InjectResult::Throttled(packet) => Some(packet),
            InjectResult::Admitted => None,
        }
    }
}

/// The outcome of a burst injection (see [`ThreadedHost::inject_burst`]).
#[derive(Debug, Default)]
pub struct BurstInjection {
    /// Packets admitted into the pipelines.
    pub admitted: usize,
    /// Packets rejected by backpressure, handed back for retry.
    pub throttled: Vec<Packet>,
}

/// A command a shard's worker applies between bursts (the runtime half of a
/// [`ControlAction`](sdnfv_telemetry::ControlAction)).
enum ShardCommand {
    /// Spawn one more replica (NF thread) of `service` on this shard.
    AddNf {
        service: ServiceId,
        nf: Box<dyn NetworkFunction>,
    },
    /// Retire one replica of `service`: stop steering packets to it, let it
    /// drain its queue, then join its thread. The last replica of a service
    /// is never retired.
    RemoveNf { service: ServiceId },
    /// Re-budget the shard's credit gate (clamped to the internal ring
    /// capacities).
    ResizeCredits { credits: usize },
    /// Collect NF-internal per-flow state for the given (quiesced) steering
    /// buckets from every NF replica on this shard; reply with a
    /// [`BucketStateExport`] tagged `id` on the shard's export ring.
    /// `exact_keys` enumerates the buckets' flows discoverable from the
    /// shard partition's exact-rule index; replicas add their own key sets.
    ExportBucketState {
        id: u64,
        buckets: Vec<usize>,
        exact_keys: Vec<FlowKey>,
    },
    /// Deliver re-homed NF flow state to this (destination) shard's
    /// replicas; set `done` once every replica has absorbed its share —
    /// the host releases the covered buckets' pens only after that, so no
    /// packet can reach an NF before its flow's state does.
    ImportBucketState {
        states: Vec<(ServiceId, FlowKey, NfFlowState)>,
        done: Arc<AtomicBool>,
    },
}

/// A shard worker's reply to [`ShardCommand::ExportBucketState`]: every
/// `(service, flow, state)` its NF replicas detached for the request's
/// buckets.
struct BucketStateExport {
    /// Echo of the request id.
    id: u64,
    /// The exported state triples (possibly several per flow, one per
    /// replica that held state — the importer merges).
    states: Vec<(ServiceId, FlowKey, NfFlowState)>,
}

/// A packet on its way from injection to a shard worker, with its flow key
/// parsed and hashed once at admission.
pub(crate) struct IngressFrame {
    packet: Packet,
    key: Option<FlowKey>,
    /// `key`'s [`FlowKey::stable_hash`] (0 for keyless packets): the one
    /// hash of the packet's life, reused by steering, bucket tracking,
    /// trace sampling, the lookup cache and the sticky replica pick.
    hash: u64,
}

/// One NF's share of a dispatch round, on the NF's input ring: a handle on
/// the packet's descriptor plus what the worker needs back when the round
/// completes. Every NF of a round gets its own item over the same
/// descriptor, each with its own dispatch `position`.
struct WorkItem {
    shared: SharedPacket,
    key: FlowKey,
    /// `key`'s stable hash, carried from injection.
    hash: u64,
    /// The step used for the lookup after this dispatch completes (the last
    /// service in the dispatched action list).
    exit_service: ServiceId,
    /// Where this NF stores its verdict word in the descriptor
    /// ([`SharedPacket::complete_with`]); the worker merges the round's
    /// words in position order.
    position: u32,
    /// Whether the packet is trace-sampled (hash-sampled or rule-pinned):
    /// the NF replica stamps its burst window onto the [`DoneItem`] and the
    /// worker emits spans at each stage.
    traced: bool,
    /// Dispatch rounds the packet has taken on this shard, this one
    /// included (bounded by [`MAX_CHAIN_HOPS`]; sits in padding).
    hops: u8,
}

/// A completed dispatch round on its way back to the worker: pushed by the
/// round's final completer, whose descriptor handle now carries every
/// position's verdict word.
struct DoneItem {
    shared: SharedPacket,
    key: FlowKey,
    hash: u64,
    exit_service: ServiceId,
    traced: bool,
    hops: u8,
    /// Host-clock window of the NF burst that completed the packet (the
    /// last replica, for parallel dispatch). Stamped by the NF thread so
    /// the worker — the trace ring's single producer — can emit the NF
    /// span without touching the replica's clock.
    nf_started_ns: u64,
    nf_ended_ns: u64,
}

/// Upper bound on the NF dispatch rounds one packet may take inside a
/// shard. A rule cycle (a service whose rule sends packets back to itself,
/// directly or around a loop) would otherwise hold the packet, and its
/// credit, forever; the round that would exceed the bound drops it instead.
pub(crate) const MAX_CHAIN_HOPS: u8 = 64;

/// Per-shard latency recorders: lock-free log-linear histograms shared by
/// the shard's worker (end-to-end, ingress wait, egress wait), its NF
/// threads (service time) and the host (re-home pen dwell). Snapshots ride
/// each [`TelemetrySnapshot`](sdnfv_telemetry::TelemetrySnapshot) as a
/// [`LatencyReport`]; the host can also read them live via
/// [`ThreadedHost::latency_report`].
#[derive(Debug, Default)]
pub(crate) struct ShardLatency {
    /// Ingress admission stamp → egress-ring push.
    end_to_end: LatencyHistogram,
    /// Ingress admission stamp → shard worker pop (includes pen dwell for
    /// re-homed packets).
    ingress_wait: LatencyHistogram,
    /// Per-packet NF burst service time (burst wall time / burst length).
    nf_service: LatencyHistogram,
    /// Egress staging → egress-ring push.
    egress_wait: LatencyHistogram,
    /// Time parked in a re-home pen (host-side, destination shard).
    pen_dwell: LatencyHistogram,
}

impl ShardLatency {
    fn report(&self) -> LatencyReport {
        LatencyReport {
            end_to_end: self.end_to_end.snapshot(),
            ingress_wait: self.ingress_wait.snapshot(),
            nf_service: self.nf_service.snapshot(),
            egress_wait: self.egress_wait.snapshot(),
            pen_dwell: self.pen_dwell.snapshot(),
        }
    }
}

/// A handle to one engine's execution: a real OS thread in the threaded
/// runtime, or a finished-flag the simulation registry flips when the
/// engine's step function reports completion. Everything that used to ask
/// `JoinHandle::is_finished` asks this instead, so the shipping lifecycle
/// code (drain-exit detection, retirement finalize) is identical under
/// both drivers.
pub(crate) enum TaskHandle {
    /// A spawned OS thread.
    Thread(JoinHandle<()>),
    /// A sim-registered engine; the registry sets the flag when the
    /// engine finishes (there is no thread to join).
    Sim(Arc<AtomicBool>),
}

impl TaskHandle {
    fn is_finished(&self) -> bool {
        match self {
            TaskHandle::Thread(handle) => handle.is_finished(),
            TaskHandle::Sim(finished) => finished.load(Ordering::Acquire),
        }
    }

    fn join(self) {
        if let TaskHandle::Thread(handle) = self {
            let _ = handle.join();
        }
    }
}
