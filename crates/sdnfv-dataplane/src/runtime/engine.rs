//! The shard worker: [`ShardEngine`], the step-callable state machine that
//! plays both ends of one shard's pipeline (RX dispatch and TX egress),
//! owns the shard's NF replica set and serves its control ring — with its
//! staging buffers, descriptor verdict words and dispatch helpers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sdnfv_flowtable::{
    Action, Decision, EvictReason, EvictedRule, MutationLog, RulePort, ServiceId, SharedFlowTable,
};
use sdnfv_nf::{NetworkFunction, NfFlowState, Verdict};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::Port;
use sdnfv_proto::Packet;
use sdnfv_ring::{spsc_ring, Consumer, CreditGate, Producer, PushError, SharedPacket};
use sdnfv_telemetry::{
    HostClock, NfTelemetry, SpanVerdict, TelemetrySnapshot, TraceSpan, TraceStage,
};

use super::nf::{
    idle_backoff, NfEngine, NfProbe, NfStateChannel, NfStateRequest, ReplicaSpawner, StateResponse,
};
use super::{
    BucketStateExport, DoneItem, HostOutput, IngressFrame, RehomeOrdering, ReplicaDispatch,
    ShardCommand, ShardLatency, TaskHandle, WorkItem, MAX_CHAIN_HOPS,
};
use crate::cache::{cached_lookup_hashed, LookupCache};
use crate::conflict::resolve_parallel_verdicts;
use crate::messages::{NfMessageQueue, PinTimeouts};
use crate::rehome::BucketTracker;
use crate::stats::ShardStats;

/// An export in progress on a shard worker: which replica requests (slot,
/// token) still owe a response, and what has been gathered so far.
pub(super) struct PendingCollect {
    id: u64,
    outstanding: Vec<(usize, u64)>,
    gathered: Vec<(ServiceId, FlowKey, NfFlowState)>,
}

/// An import in progress on a shard worker: which replica requests (slot,
/// token) still owe an acknowledgement before `done` may be set.
pub(super) struct PendingImport {
    outstanding: Vec<(usize, u64)>,
    done: Arc<AtomicBool>,
}

/// A scale-down state handoff in progress on a shard worker: the draining
/// replica `(slot, token)` owes its full state export, which is then
/// re-imported into a surviving replica of `service`.
pub(super) struct PendingHandoff {
    slot: usize,
    token: u64,
    service: ServiceId,
}

/// Lifecycle of one NF replica slot on a shard. Slot indices are stable
/// between lifecycle events; retired slots are reused by prompt scale-ups
/// and reclaimed (rings freed, indices compacted) once they have stayed
/// retired past [`SLOT_COMPACTION_GRACE_NS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SlotState {
    /// Receiving and processing packets.
    Active,
    /// Scale-down in progress: no new packets are staged for the replica;
    /// its thread exits once the input ring is empty.
    Draining,
    /// Thread joined, rings empty; the slot may be reused or compacted.
    Retired,
}

/// How long a retired NF slot keeps its (empty) rings available for reuse
/// before the compaction pass reclaims them. A scale-up inside the grace
/// window reuses the slot; a host that scales down and stays down gets its
/// ring memory back. Measured on the host clock (virtual under simulation).
const SLOT_COMPACTION_GRACE_NS: u64 = 1_000_000;

/// One NF replica on a shard: its rings, its thread, and its telemetry
/// probe.
pub(super) struct NfSlot {
    pub(super) service: ServiceId,
    pub(super) ring: Producer<WorkItem>,
    pub(super) done: Consumer<DoneItem>,
    pub(super) probe: Arc<NfProbe>,
    pub(super) stop: Arc<AtomicBool>,
    pub(super) handle: Option<TaskHandle>,
    pub(super) state: SlotState,
    /// When the slot entered [`SlotState::Retired`] (compaction timer),
    /// nanoseconds on the host clock.
    pub(super) retired_at: Option<u64>,
    /// State-migration mailbox shared with the replica's thread.
    pub(super) channel: Arc<NfStateChannel>,
}

/// Per-thread staging buffers: descriptors dispatched during a burst are
/// collected here and flushed to each NF ring (and the egress ring) with a
/// single batched push at burst end.
pub(super) struct BurstStaging {
    pub(super) per_ring: Vec<Vec<WorkItem>>,
    egress: Vec<HostOutput>,
    /// Latency/trace metadata for each staged egress packet, index-aligned
    /// with `egress` (a batched `push_n` admits a prefix of `egress`; the
    /// same-length prefix of `egress_meta` describes exactly those
    /// packets).
    egress_meta: Vec<EgressMeta>,
}

/// Timing metadata of one staged egress packet, captured at staging time
/// because the [`HostOutput`] itself is moved into the egress ring before
/// the latency is known.
#[derive(Debug, Clone, Copy)]
struct EgressMeta {
    /// The packet's ingress admission stamp (end-to-end latency start).
    ingress_ns: u64,
    /// When the packet entered `staging.egress` (egress-wait start).
    staged_ns: u64,
    /// Whether the packet is trace-sampled (an egress span is emitted).
    traced: bool,
    /// The packet's carried flow hash (bucket release under strict
    /// ordering; span correlation when traced).
    flow_hash: u64,
}

impl BurstStaging {
    pub(super) fn new(rings: usize, burst_size: usize) -> Self {
        BurstStaging {
            per_ring: (0..rings).map(|_| Vec::with_capacity(burst_size)).collect(),
            egress: Vec::with_capacity(burst_size),
            egress_meta: Vec::with_capacity(burst_size),
        }
    }

    /// Returns `true` if `extra` more items can be staged for slot `ring`
    /// without exceeding its free space at flush time. Exact for the
    /// staging thread: it is the ring's only producer and the consumer only
    /// drains.
    fn has_room(&self, slots: &[NfSlot], ring: usize, extra: usize) -> bool {
        slots[ring].ring.len() + self.per_ring[ring].len() + extra <= slots[ring].ring.capacity()
    }
}

/// Decisions each shard worker's lookup cache holds.
pub(super) const LOOKUP_CACHE_ENTRIES: usize = 4096;

/// Eviction budget of one timeout sweep: at most this many rules are
/// evicted per pass, bounding the work injected between bursts.
const MAX_EVICTIONS_PER_SWEEP: usize = 256;

/// Why a packet could not be staged to the NFs its rule names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unstaged {
    /// The action list names no service.
    NoTarget,
    /// A named service has no active replica on this shard.
    NoReplica,
    /// A target ring has no room for the packet. Credits are clamped to
    /// the smallest ring, so this takes a (hand-installed) parallel rule
    /// that names one service more than once.
    RingFull,
}

/// Encodes an NF's verdict as a descriptor verdict word (see
/// [`SharedPacket::complete_with`]): the variant in the low byte, its
/// operand above it. `0` is [`Verdict::Default`].
pub(super) fn verdict_word(verdict: Verdict) -> u64 {
    match verdict {
        Verdict::Default => 0,
        Verdict::Discard => 1,
        Verdict::ToService(service) => 2 | u64::from(service.value()) << 8,
        Verdict::ToPort(port) => 3 | u64::from(port) << 8,
    }
}

/// Decodes a word written by [`verdict_word`].
pub(super) fn word_verdict(word: u64) -> Verdict {
    match word & 0xff {
        1 => Verdict::Discard,
        2 => Verdict::ToService(ServiceId::new((word >> 8) as u32)),
        3 => Verdict::ToPort((word >> 8) as Port),
        _ => Verdict::Default,
    }
}

/// Where a [`ShardEngine`] is in its lifecycle. The engine is a
/// step-callable state machine: the threaded runtime calls
/// [`ShardEngine::step`] in a spin loop, the deterministic simulator calls
/// it once per scheduled turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum EnginePhase {
    /// Normal operation: dispatching, draining done rings, serving control.
    Running,
    /// Per-shard retirement: replicas told to drain-and-exit; the engine
    /// keeps serving done rings until the pipeline is empty.
    TearingDown,
    /// Terminal: nothing left to do; `step` is a no-op.
    Finished,
}

/// One shard's worker: the RX dispatch role and the TX egress role of the
/// shard's pipeline, driven by a single caller so every ring it touches
/// keeps a single producer and a single consumer. The worker also owns the
/// shard's NF replica set — it spawns the NF replicas (initially and on
/// scale-up), retires them on scale-down, and is the single consumer of the
/// shard's control ring and the single producer of its telemetry ring.
///
/// The engine is deliberately a *state machine*, not a loop: all protocol
/// work happens inside [`ShardEngine::step`], which both the threaded
/// runtime (via [`ShardEngine::run`]) and the deterministic simulation
/// harness (which interleaves `step` calls under a seeded schedule) drive.
/// The code under simulation is therefore the shipping code.
pub(crate) struct ShardEngine {
    pub(super) shard: usize,
    /// The replica set `start_sharded` was configured with; spawned on the
    /// first [`ShardEngine::step`].
    pub(super) initial_nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    /// Whether the initial replica set has been spawned yet.
    pub(super) started: bool,
    pub(super) phase: EnginePhase,
    pub(super) slots: Vec<NfSlot>,
    pub(super) service_instances: HashMap<ServiceId, Vec<usize>>,
    /// How packets are spread over multiple replicas of one service (see
    /// [`ReplicaDispatch`]).
    pub(super) replica_dispatch: ReplicaDispatch,
    pub(super) egress: Producer<HostOutput>,
    pub(super) gate: Arc<CreditGate>,
    /// This shard's flow-table partition.
    pub(super) table: SharedFlowTable,
    /// The partition's wildcard-mutation provenance log (shared with the
    /// shard's NF threads, which record into it).
    pub(super) mutation_log: Arc<MutationLog>,
    pub(super) stats: ShardStats,
    pub(super) running: Arc<AtomicBool>,
    /// Per-shard retirement signal (the shard is drained and being torn
    /// down; the host-wide `running` flag stays up).
    pub(super) stop: Arc<AtomicBool>,
    /// Per-bucket in-flight counts: decremented at each packet's last
    /// possible flow-state touch (egress staging, drop, punt) — the drain
    /// condition of the bucket re-home handshake.
    pub(super) tracker: Arc<BucketTracker>,
    pub(super) enable_cache: bool,
    pub(super) burst_size: usize,
    pub(super) nf_ring_capacity: usize,
    /// Upper bound for credit resizes: the smallest internal ring capacity.
    pub(super) credit_clamp: usize,
    /// When bucket in-flight counts drop (egress staging vs full egress).
    pub(super) ordering: RehomeOrdering,
    /// Host clock (real or virtual); the epoch for every timestamp the
    /// engine publishes or compares.
    pub(super) clock: HostClock,
    /// How NF replicas are launched: OS threads in production, registered
    /// simulation actors under the deterministic harness.
    pub(super) spawner: Box<dyn ReplicaSpawner>,
    /// Flow-table decisions by `(flow, step)`, keyed by the carried flow
    /// hash. Taken out of the engine for the length of an RX or TX round
    /// (`None` meanwhile), so a hit is used in place while the round
    /// stages packets.
    pub(super) cache: Option<LookupCache>,
    pub(super) staging: BurstStaging,
    /// Reused dispatch scratch: the slot of each target NF of the packet
    /// being staged, in dispatch-position order.
    pub(super) targets: Vec<usize>,
    /// Reused merge scratch: the verdicts of a completed parallel round,
    /// in dispatch-position order.
    pub(super) verdicts: Vec<Verdict>,
    /// Reused RX burst buffer (popped ingress frames).
    pub(super) rx_burst: Vec<IngressFrame>,
    /// Reused TX burst buffer (popped done items).
    pub(super) done_burst: Vec<DoneItem>,
    pub(super) control: Consumer<ShardCommand>,
    pub(super) telemetry: Producer<TelemetrySnapshot>,
    /// Replies to [`ShardCommand::ExportBucketState`], drained by the host.
    pub(super) exports: Producer<BucketStateExport>,
    /// Completed exports the export ring had no room for (retried).
    pub(super) export_backlog: std::collections::VecDeque<BucketStateExport>,
    /// NF-state exports awaiting replica responses.
    pub(super) pending_collects: Vec<PendingCollect>,
    /// NF-state imports awaiting replica acknowledgements.
    pub(super) pending_imports: Vec<PendingImport>,
    /// Per-flow NF state handoffs from draining replicas awaiting the
    /// replica's drain-exit response (scale-down state preservation).
    pub(super) pending_handoffs: Vec<PendingHandoff>,
    /// Token generator for replica state-migration requests.
    pub(super) state_token: u64,
    pub(super) telemetry_interval_ns: u64,
    /// Host-clock instant of the last published snapshot.
    pub(super) last_telemetry_ns: u64,
    /// Loop-iteration countdown between clock checks, so the idle spin
    /// path does not read the clock every iteration.
    pub(super) telemetry_check: u32,
    pub(super) telemetry_seq: u64,
    /// How often the worker sweeps the flow table for rules whose
    /// idle/hard timeout elapsed (0 disables the sweep).
    pub(super) rule_sweep_interval_ns: u64,
    /// Host-clock instant of the last timeout sweep.
    pub(super) last_sweep_ns: u64,
    /// Loop-iteration countdown between sweep clock checks (same pattern
    /// as `telemetry_check`).
    pub(super) sweep_check: u32,
    /// Latest clock reading taken by the sweep path or an RX/TX round;
    /// `flush` stamps the spans of packets that die at a full NF ring with
    /// it instead of reading the clock again.
    pub(super) approx_now_ns: u64,
    /// TTL for lookup-cache entries, forcing periodic table fall-through
    /// so idle timers refresh under cached traffic (0 = no TTL).
    pub(super) cache_ttl_ns: u64,
    /// Idle/hard timeouts stamped onto NF-requested exact-pin rules.
    pub(super) pin_timeouts: PinTimeouts,
    pub(super) applied_commands: u64,
    /// Number of slots currently in [`SlotState::Draining`].
    pub(super) draining: usize,
    /// Number of slots currently in [`SlotState::Retired`] (compaction
    /// candidates).
    pub(super) retired_slots: usize,
    /// The shard's latency histograms (shared with its NF threads and the
    /// host).
    pub(super) latency: Arc<ShardLatency>,
    /// Producer side of the shard's lossy trace-span ring. The worker is
    /// the ring's **only** producer — NF threads report their burst windows
    /// through [`DoneItem`] instead of pushing spans themselves.
    pub(super) traces: Producer<TraceSpan>,
    /// Host-wide sampling knob (one of every N flows by stable hash).
    pub(super) trace_sampling: Arc<AtomicU64>,
    /// The shard's queue of applied NF messages, handed to every replica.
    pub(super) messages: Arc<NfMessageQueue>,
}

impl ShardEngine {
    /// Threaded driver: spins [`ShardEngine::step`] until the engine
    /// reaches [`EnginePhase::Finished`], then collects the NF threads so
    /// none outlives the shard.
    pub(super) fn run(mut self, ingress: Consumer<IngressFrame>) {
        let mut idle: u32 = 0;
        while self.phase != EnginePhase::Finished {
            if self.step(&ingress) {
                idle = 0;
            } else {
                idle_backoff(&mut idle);
            }
        }
        for slot in &mut self.slots {
            if let Some(handle) = slot.handle.take() {
                handle.join();
            }
        }
    }

    /// One turn of the shard worker's state machine. Returns whether any
    /// work was done (the threaded driver uses this for idle backoff; the
    /// simulator for quiescence detection).
    ///
    /// Never blocks: a full egress ring leaves staged packets parked in
    /// `staging.egress` to be retried next step (bounded by the credit
    /// clamp), instead of spinning in place as the old thread loop did.
    pub(crate) fn step(&mut self, ingress: &Consumer<IngressFrame>) -> bool {
        if !self.started {
            self.started = true;
            for (service, nf) in std::mem::take(&mut self.initial_nfs) {
                self.spawn_nf(service, nf);
            }
        }
        match self.phase {
            EnginePhase::Finished => false,
            EnginePhase::Running => {
                if !self.running.load(Ordering::Acquire) {
                    // Host shutdown: account whatever is still staged.
                    self.abort_staged_egress();
                    self.phase = EnginePhase::Finished;
                    return true;
                }
                if self.stop.load(Ordering::Acquire) {
                    // Per-shard retirement (not host shutdown): the shard's
                    // buckets have been re-homed and drained, so wind the
                    // replicas down gracefully — every remaining completion
                    // is processed and no packet or credit is lost.
                    for slot in &self.slots {
                        if slot.state != SlotState::Retired {
                            slot.stop.store(true, Ordering::Release);
                        }
                    }
                    self.phase = EnginePhase::TearingDown;
                    return true;
                }
                let mut did_work = self.flush_staged_egress();
                while let Some(command) = self.control.pop() {
                    did_work = true;
                    self.apply_command(command);
                }
                let mut rx_burst = std::mem::take(&mut self.rx_burst);
                rx_burst.clear();
                if ingress.pop_n(&mut rx_burst, self.burst_size) > 0 {
                    did_work = true;
                    self.rx_round(&mut rx_burst);
                }
                self.rx_burst = rx_burst;
                did_work |= self.drain_done_rings();
                if self.draining > 0 {
                    self.retire_drained();
                }
                if self.retired_slots > 0 {
                    self.compact_retired_slots();
                }
                if !self.pending_collects.is_empty()
                    || !self.pending_imports.is_empty()
                    || !self.pending_handoffs.is_empty()
                    || !self.export_backlog.is_empty()
                {
                    did_work |= self.poll_state_exchanges();
                }
                did_work |= self.maybe_sweep_rules();
                self.maybe_publish_telemetry(ingress);
                did_work
            }
            EnginePhase::TearingDown => {
                if !self.running.load(Ordering::Acquire) {
                    // Host shutdown overrides the graceful wind-down.
                    self.abort_staged_egress();
                    self.phase = EnginePhase::Finished;
                    return true;
                }
                let mut busy = self.drain_done_rings();
                busy |= self.flush_staged_egress();
                if self.draining > 0 {
                    self.retire_drained();
                }
                let threads_done = self
                    .slots
                    .iter()
                    .all(|slot| slot.handle.as_ref().is_none_or(TaskHandle::is_finished));
                let rings_empty = self.slots.iter().all(|slot| slot.done.is_empty());
                if !busy && threads_done && rings_empty && self.staging.egress.is_empty() {
                    // Stragglers in the ingress ring have no pipeline left;
                    // account them as overflow drops and give their credits
                    // and bucket counts back so nothing upstream waits
                    // forever (can't happen when the re-home handshake
                    // preceded the stop — kept for defense in depth).
                    let sample_every = self.trace_sampling.load(Ordering::Relaxed);
                    let now_ns = self.clock.now_ns();
                    while let Some(frame) = ingress.pop() {
                        self.stats.add_overflow_drops(1);
                        self.gate.release(1);
                        if frame.key.is_some() {
                            self.tracker.finish_hash(frame.hash);
                            // Straggler drops still terminate the traces of
                            // hash-sampled flows, so span conservation holds
                            // across a teardown.
                            if sample_every != 0 && frame.hash % sample_every == 0 {
                                self.emit_span(
                                    TraceStage::Rx,
                                    0,
                                    frame.hash,
                                    frame.packet.timestamp_ns,
                                    now_ns,
                                    SpanVerdict::Dropped,
                                );
                            }
                        }
                    }
                    self.phase = EnginePhase::Finished;
                    return true;
                }
                busy
            }
        }
    }

    /// Pops and serves every non-retired replica's done ring once.
    fn drain_done_rings(&mut self) -> bool {
        let mut did_work = false;
        let mut done_burst = std::mem::take(&mut self.done_burst);
        for nf_index in 0..self.slots.len() {
            if self.slots[nf_index].state == SlotState::Retired {
                continue;
            }
            done_burst.clear();
            if self.slots[nf_index]
                .done
                .pop_n(&mut done_burst, self.burst_size)
                == 0
            {
                continue;
            }
            did_work = true;
            self.tx_round(&mut done_burst);
        }
        self.done_burst = done_burst;
        did_work
    }

    /// Whether the engine reached its terminal phase (simulation driver).
    pub(crate) fn finished(&self) -> bool {
        self.phase == EnginePhase::Finished
    }

    /// The shard this engine serves (simulation-registry labeling).
    pub(crate) fn shard_index(&self) -> usize {
        self.shard
    }

    /// Settles every in-flight state-exchange entry pointing at slot
    /// `index` before the slot is reclaimed (compaction) or reused for a
    /// new replica: responses the old replica already queued are absorbed,
    /// and anything still outstanding resolves empty — the replica is gone
    /// and its channel is about to be replaced, so waiting on it would
    /// stall the covering bucket move forever.
    fn settle_slot_state_entries(&mut self, index: usize) {
        // Final-look drain: the slot is going away, so anything still
        // queued in its mailbox must be absorbed now — a regular drain
        // could come up empty under the DST ack holdback (or the
        // push→flag window in `respond`) while exported state sits queued.
        let mut responses: HashMap<u64, StateResponse> = self.slots[index]
            .channel
            .drain_responses_final()
            .into_iter()
            .collect();
        let service = self.slots[index].service;
        for collect in &mut self.pending_collects {
            collect.outstanding.retain(|&(slot, token)| {
                if slot != index {
                    return true;
                }
                if let Some(response) = responses.remove(&token) {
                    collect.gathered.extend(
                        response
                            .into_iter()
                            .map(|(key, state)| (service, key, state)),
                    );
                }
                false
            });
        }
        for import in &mut self.pending_imports {
            import.outstanding.retain(|&(slot, _)| slot != index);
        }
        // Scale-down handoffs aimed at this slot: absorb any response the
        // replica already queued; anything else is gone with the replica.
        let mut absorbed: Vec<(ServiceId, StateResponse)> = Vec::new();
        self.pending_handoffs.retain(|handoff| {
            if handoff.slot != index {
                return true;
            }
            if let Some(response) = responses.remove(&handoff.token) {
                absorbed.push((handoff.service, response));
            }
            false
        });
        for (service, states) in absorbed {
            self.absorb_handoff(service, states);
        }
    }

    /// Reclaims NF slots that have stayed [`SlotState::Retired`] past the
    /// compaction grace: their rings are freed and the slot indices above
    /// them shift down (the dispatch tables — and any in-flight
    /// state-exchange bookkeeping — are rebuilt to match). Hosts that
    /// scale down and stay down return to their baseline ring count.
    fn compact_retired_slots(&mut self) {
        let now_ns = self.clock.now_ns();
        let expired = |slot: &NfSlot| {
            slot.state == SlotState::Retired
                && slot
                    .retired_at
                    .is_none_or(|at| now_ns.saturating_sub(at) >= SLOT_COMPACTION_GRACE_NS)
        };
        if !self.slots.iter().any(expired) {
            return;
        }
        // Settle state-exchange entries referencing the slots about to go,
        // so no pending list is left holding a soon-to-be-dangling index.
        let going: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| expired(slot))
            .map(|(index, _)| index)
            .collect();
        for index in going {
            self.settle_slot_state_entries(index);
        }
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.slots.len());
        let mut kept: Vec<NfSlot> = Vec::with_capacity(self.slots.len());
        let mut kept_staging: Vec<Vec<WorkItem>> = Vec::with_capacity(self.slots.len());
        for (index, slot) in self.slots.drain(..).enumerate() {
            if expired(&slot) {
                debug_assert!(self.staging.per_ring[index].is_empty());
                remap.push(None);
                self.retired_slots -= 1;
                continue;
            }
            remap.push(Some(kept.len()));
            kept.push(slot);
            kept_staging.push(std::mem::take(&mut self.staging.per_ring[index]));
        }
        self.slots = kept;
        self.staging.per_ring = kept_staging;
        for indices in self.service_instances.values_mut() {
            indices.retain_mut(|index| match remap[*index] {
                Some(new_index) => {
                    *index = new_index;
                    true
                }
                None => false,
            });
        }
        // Shift surviving state-exchange entries to the slots' new indices
        // (entries for removed slots were settled above).
        let remap_entry = |(slot, token): &mut (usize, u64)| match remap[*slot] {
            Some(new_index) => {
                *slot = new_index;
                true
            }
            None => {
                debug_assert!(false, "entry for a compacted slot survived settling");
                let _ = token;
                false
            }
        };
        for collect in &mut self.pending_collects {
            collect.outstanding.retain_mut(&remap_entry);
        }
        for import in &mut self.pending_imports {
            import.outstanding.retain_mut(&remap_entry);
        }
        self.pending_handoffs
            .retain_mut(|handoff| match remap[handoff.slot] {
                Some(new_index) => {
                    handoff.slot = new_index;
                    true
                }
                None => {
                    debug_assert!(false, "handoff for a compacted slot survived settling");
                    false
                }
            });
    }

    /// Builds one NF replica, hands it to the spawner and registers its
    /// slot (reusing a retired slot if one exists).
    fn spawn_nf(&mut self, service: ServiceId, nf: Box<dyn NetworkFunction>) {
        let (ring, input) = spsc_ring::<WorkItem>(self.nf_ring_capacity);
        let (done_tx, done) = spsc_ring::<DoneItem>(self.nf_ring_capacity);
        let mut slot = NfSlot {
            service,
            ring,
            done,
            probe: Arc::new(NfProbe::default()),
            stop: Arc::new(AtomicBool::new(false)),
            handle: None,
            state: SlotState::Active,
            retired_at: None,
            channel: Arc::new(NfStateChannel::default()),
        };
        let engine = NfEngine::new(self, &slot, nf, input, done_tx);
        slot.handle = Some(self.spawner.spawn_replica(engine));
        let index = match self
            .slots
            .iter()
            .position(|s| s.state == SlotState::Retired)
        {
            Some(index) => {
                // The reused slot gets a fresh state channel: settle any
                // state-exchange entry still pointing at the old one, or it
                // would wait forever on a channel the dead replica never saw.
                self.settle_slot_state_entries(index);
                self.slots[index] = slot;
                self.retired_slots -= 1;
                index
            }
            None => {
                self.slots.push(slot);
                self.staging
                    .per_ring
                    .push(Vec::with_capacity(self.burst_size));
                self.slots.len() - 1
            }
        };
        self.service_instances
            .entry(service)
            .or_default()
            .push(index);
    }

    /// Begins retiring the most recently added replica of `service`:
    /// removes it from dispatch and tells its thread to exit once its input
    /// ring is drained. The last replica of a service is never retired.
    ///
    /// The replica's per-flow NF state is not abandoned: a
    /// [`NfStateRequest::HandoffAll`] is posted, which the replica answers
    /// at drain-exit (when its state is final) with everything it holds;
    /// [`ShardEngine::poll_state_exchanges`] re-imports the answer into a
    /// surviving replica of the same service.
    fn begin_remove_nf(&mut self, service: ServiceId) {
        let Some(instances) = self.service_instances.get_mut(&service) else {
            return;
        };
        if instances.len() <= 1 {
            return;
        }
        let index = instances.pop().expect("length checked");
        let token = self.next_state_token();
        let slot = &mut self.slots[index];
        slot.state = SlotState::Draining;
        slot.channel.post(token, NfStateRequest::HandoffAll);
        slot.stop.store(true, Ordering::Release);
        self.draining += 1;
        self.pending_handoffs.push(PendingHandoff {
            slot: index,
            token,
            service,
        });
    }

    /// Moves fully drained replicas from [`SlotState::Draining`] to
    /// [`SlotState::Retired`], joining their threads. Retired slots stay
    /// available for reuse for [`SLOT_COMPACTION_GRACE_NS`], then the
    /// compaction pass reclaims their rings.
    fn retire_drained(&mut self) {
        let now_ns = self.clock.now_ns();
        for slot in &mut self.slots {
            if slot.state != SlotState::Draining {
                continue;
            }
            let finished = slot.handle.as_ref().is_none_or(TaskHandle::is_finished);
            if finished && slot.done.is_empty() {
                if let Some(handle) = slot.handle.take() {
                    handle.join();
                }
                slot.state = SlotState::Retired;
                slot.retired_at = Some(now_ns);
                self.draining -= 1;
                self.retired_slots += 1;
            }
        }
    }

    /// Applies one control command between bursts.
    fn apply_command(&mut self, command: ShardCommand) {
        match command {
            ShardCommand::AddNf { service, nf } => self.spawn_nf(service, nf),
            ShardCommand::RemoveNf { service } => self.begin_remove_nf(service),
            ShardCommand::ResizeCredits { credits } => {
                self.gate.resize(credits.clamp(1, self.credit_clamp));
            }
            ShardCommand::ExportBucketState {
                id,
                buckets,
                exact_keys,
            } => self.begin_export(id, buckets, exact_keys),
            ShardCommand::ImportBucketState { states, done } => self.begin_import(states, done),
        }
        self.applied_commands += 1;
    }

    /// A fresh token for one replica state-migration request.
    fn next_state_token(&mut self) -> u64 {
        self.state_token += 1;
        self.state_token
    }

    /// Fans an NF-state export request out to every live replica; the
    /// gathered responses are assembled by [`ShardEngine::poll_state_exchanges`].
    fn begin_export(&mut self, id: u64, buckets: Vec<usize>, exact_keys: Vec<FlowKey>) {
        let eligible: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| {
                // A retired (or exited-while-draining) replica answered
                // every request it ever saw; it holds no reachable state.
                slot.state != SlotState::Retired
                    && slot.handle.as_ref().is_some_and(|h| !h.is_finished())
            })
            .map(|(index, _)| index)
            .collect();
        let mut outstanding = Vec::new();
        for index in eligible {
            let token = self.next_state_token();
            self.slots[index].channel.post(
                token,
                NfStateRequest::Export {
                    buckets: buckets.clone(),
                    keys: exact_keys.clone(),
                },
            );
            outstanding.push((index, token));
        }
        self.pending_collects.push(PendingCollect {
            id,
            outstanding,
            gathered: Vec::new(),
        });
        // Resolve immediately when there is nothing to wait for (a shard
        // with no NFs exports an empty state set).
        self.poll_state_exchanges();
    }

    /// Routes imported NF flow state to one live replica per service; the
    /// shared `done` flag flips once every routed replica acknowledged.
    ///
    /// State for a service with several replicas is imported into the first
    /// active one — consistent with how per-flow NF state already behaves
    /// across replicas (dispatch balances per packet, so a flow's state was
    /// an approximate, per-replica notion before the move too).
    fn begin_import(
        &mut self,
        states: Vec<(ServiceId, FlowKey, NfFlowState)>,
        done: Arc<AtomicBool>,
    ) {
        // Grouped into a Vec (not a HashMap) so token assignment follows
        // the arrival order of the states — iteration order must be
        // deterministic for the simulation harness's replay guarantee.
        let mut per_slot: Vec<(usize, Vec<(FlowKey, NfFlowState)>)> = Vec::new();
        for (service, key, state) in states {
            let Some(&slot) = self
                .service_instances
                .get(&service)
                .and_then(|indices| indices.first())
            else {
                // No replica of the service on this shard: the migrated
                // state cannot be absorbed. Count the loss — this is the
                // one gap in the zero-NF-state-loss contract, and it must
                // be visible rather than silent.
                self.stats.add_nf_state_import_drops(1);
                continue;
            };
            match per_slot.iter_mut().find(|(index, _)| *index == slot) {
                Some((_, group)) => group.push((key, state)),
                None => per_slot.push((slot, vec![(key, state)])),
            }
        }
        let mut outstanding = Vec::new();
        for (slot, states) in per_slot {
            let token = self.next_state_token();
            self.slots[slot]
                .channel
                .post(token, NfStateRequest::Import { states });
            outstanding.push((slot, token));
        }
        self.pending_imports
            .push(PendingImport { outstanding, done });
        self.poll_state_exchanges();
    }

    /// Re-imports the per-flow state a retiring replica handed off at
    /// drain-exit into the first surviving replica of the same service.
    /// With no survivor left on the shard the state is unrecoverable and
    /// the loss is counted (`nf_state_import_drops`) rather than silent.
    fn absorb_handoff(&mut self, service: ServiceId, states: StateResponse) {
        if states.is_empty() {
            return;
        }
        let Some(&slot) = self
            .service_instances
            .get(&service)
            .and_then(|indices| indices.first())
        else {
            self.stats.add_nf_state_import_drops(states.len() as u64);
            return;
        };
        self.stats.add_nf_state_handoffs(states.len() as u64);
        let token = self.next_state_token();
        self.slots[slot]
            .channel
            .post(token, NfStateRequest::Import { states });
        self.pending_imports.push(PendingImport {
            outstanding: vec![(slot, token)],
            done: Arc::new(AtomicBool::new(false)),
        });
    }

    /// Advances every in-flight state exchange: gathers export responses
    /// (publishing completed exports on the export ring), collects import
    /// acknowledgements (setting their `done` flags), absorbs scale-down
    /// state handoffs, and retries exports the ring had no room for.
    /// Returns whether anything progressed.
    fn poll_state_exchanges(&mut self) -> bool {
        let mut progressed = false;
        let slots = &self.slots;
        // Drain every slot's arrived responses once, keyed (slot, token).
        // The map is consumed by key lookups only (never iterated), so its
        // internal ordering cannot leak into observable behavior.
        let mut responses: HashMap<(usize, u64), StateResponse> = HashMap::new();
        for (index, slot) in slots.iter().enumerate() {
            for (token, response) in slot.channel.drain_responses() {
                responses.insert((index, token), response);
            }
        }
        for collect in &mut self.pending_collects {
            collect.outstanding.retain(|&(index, token)| {
                let slot = &slots[index];
                if let Some(response) = take_response(&mut responses, slot, index, token) {
                    collect.gathered.extend(
                        response
                            .into_iter()
                            .map(|(key, state)| (slot.service, key, state)),
                    );
                    progressed = true;
                    return false;
                }
                // Final look came up empty too: the replica really never
                // answered, so the entry resolves empty.
                if slot.handle.as_ref().is_none_or(TaskHandle::is_finished) {
                    progressed = true;
                    return false;
                }
                true
            });
        }
        let mut finished: Vec<BucketStateExport> = Vec::new();
        self.pending_collects.retain_mut(|collect| {
            if !collect.outstanding.is_empty() {
                return true;
            }
            finished.push(BucketStateExport {
                id: collect.id,
                states: std::mem::take(&mut collect.gathered),
            });
            false
        });
        self.export_backlog.extend(finished);
        while let Some(export) = self.export_backlog.pop_front() {
            if let Err(PushError(export)) = self.exports.push(export) {
                self.export_backlog.push_front(export);
                break;
            }
            progressed = true;
        }
        // Scale-down handoffs: a retiring replica answers at drain-exit
        // with all the per-flow state it still holds; re-import it into a
        // surviving replica of the same service so no state is dropped.
        let mut absorbed: Vec<(ServiceId, StateResponse)> = Vec::new();
        self.pending_handoffs.retain(|handoff| {
            let slot = &slots[handoff.slot];
            if let Some(response) = take_response(&mut responses, slot, handoff.slot, handoff.token)
            {
                absorbed.push((handoff.service, response));
                progressed = true;
                return false;
            }
            if slot.handle.as_ref().is_none_or(TaskHandle::is_finished) {
                // Exited without answering: only possible under host
                // shutdown, where the state dies with the host anyway.
                progressed = true;
                return false;
            }
            true
        });
        for (service, states) in absorbed {
            self.absorb_handoff(service, states);
        }
        let slots = &self.slots;
        self.pending_imports.retain_mut(|import| {
            import.outstanding.retain(|&(index, token)| {
                if responses.remove(&(index, token)).is_some() {
                    return false;
                }
                if slots[index]
                    .handle
                    .as_ref()
                    .is_none_or(TaskHandle::is_finished)
                {
                    // Replica gone mid-import: its share of the state is
                    // unrecoverable, but the move must not hang.
                    return false;
                }
                true
            });
            if import.outstanding.is_empty() {
                import.done.store(true, Ordering::Release);
                progressed = true;
                return false;
            }
            true
        });
        progressed
    }

    /// Runs one bounded pass of the flow table's timeout sweep if the
    /// sweep interval has elapsed, then fans the evicted flows' keys out to
    /// the shard's NF replicas as fire-and-forget scrub requests so their
    /// per-flow state is reclaimed with the rule.
    ///
    /// Exact rules of a bucket that is mid-re-home are protected from the
    /// sweep: their state is being exported, and evicting underneath the
    /// handshake could resurrect a just-evicted rule on the destination
    /// shard (or double-scrub its NF state).
    fn maybe_sweep_rules(&mut self) -> bool {
        if self.rule_sweep_interval_ns == 0 {
            return false;
        }
        if self.sweep_check > 0 {
            self.sweep_check -= 1;
            return false;
        }
        self.sweep_check = 32;
        let now_ns = self.clock.now_ns();
        self.approx_now_ns = now_ns;
        if now_ns.saturating_sub(self.last_sweep_ns) < self.rule_sweep_interval_ns {
            return false;
        }
        self.last_sweep_ns = now_ns;
        let tracker = Arc::clone(&self.tracker);
        let evicted = self
            .table
            .sweep_expired(now_ns, MAX_EVICTIONS_PER_SWEEP, |(_, key)| {
                tracker.is_parked(tracker.bucket_of(key))
            });
        if evicted.is_empty() {
            return false;
        }
        self.note_evictions(evicted);
        true
    }

    /// Counts a sweep's evictions into the shard's stats and posts the
    /// evicted exact flows' keys to every live replica for NF-state scrub.
    /// Scrubs are fire-and-forget: replicas post no response, so the
    /// request needs no entry in the state-exchange bookkeeping.
    fn note_evictions(&mut self, evicted: Vec<EvictedRule>) {
        let mut idle = 0u64;
        let mut hard = 0u64;
        let mut keys: Vec<FlowKey> = Vec::new();
        for eviction in evicted {
            match eviction.reason {
                EvictReason::Idle => idle += 1,
                EvictReason::Hard => hard += 1,
            }
            if let Some((_, key)) = eviction.exact {
                keys.push(key);
            }
        }
        if idle > 0 {
            self.stats.add_rules_evicted_idle(idle);
        }
        if hard > 0 {
            self.stats.add_rules_evicted_hard(hard);
        }
        if keys.is_empty() {
            return;
        }
        let live: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| {
                slot.state != SlotState::Retired
                    && slot.handle.as_ref().is_some_and(|h| !h.is_finished())
            })
            .map(|(index, _)| index)
            .collect();
        for index in live {
            let token = self.next_state_token();
            self.slots[index]
                .channel
                .post(token, NfStateRequest::Scrub { keys: keys.clone() });
        }
    }

    /// Publishes a [`TelemetrySnapshot`] if the export interval has
    /// elapsed. A full telemetry ring skips the publish — counters are
    /// cumulative, so a lagging consumer loses freshness, never events.
    fn maybe_publish_telemetry(&mut self, ingress: &Consumer<IngressFrame>) {
        if self.telemetry_interval_ns == 0 {
            return;
        }
        if self.telemetry_check > 0 {
            self.telemetry_check -= 1;
            return;
        }
        self.telemetry_check = 32;
        let now_ns = self.clock.now_ns();
        if now_ns.saturating_sub(self.last_telemetry_ns) < self.telemetry_interval_ns {
            return;
        }
        self.last_telemetry_ns = now_ns;
        self.telemetry_seq += 1;
        let nfs = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.state != SlotState::Retired)
            .map(|(slot_index, slot)| NfTelemetry {
                service: slot.service,
                slot: slot_index,
                input_depth: slot.ring.len(),
                input_capacity: slot.ring.capacity(),
                service_time_ewma_ns: slot.probe.service_time_ewma_ns.load(Ordering::Relaxed),
                processed: slot.probe.processed.load(Ordering::Relaxed),
                draining: slot.state == SlotState::Draining,
            })
            .collect();
        let snapshot = TelemetrySnapshot {
            shard: self.shard,
            seq: self.telemetry_seq,
            at_ns: now_ns,
            ingress_depth: ingress.len(),
            ingress_capacity: ingress.capacity(),
            egress_depth: self.egress.len(),
            egress_capacity: self.egress.capacity(),
            credits_in_flight: self.gate.in_flight(),
            credit_capacity: self.gate.capacity(),
            nfs,
            nf_slots_allocated: self.slots.len(),
            received: self.stats.received(),
            transmitted: self.stats.transmitted(),
            dropped: self.stats.dropped(),
            controller_punts: self.stats.controller_punts(),
            throttled: self.stats.throttled(),
            applied_commands: self.applied_commands,
            // The pens live host-side; ThreadedHost::poll_telemetry stamps
            // these two before handing the snapshot to the consumer.
            rehome_pen_depth: 0,
            rehome_pen_max_age_ns: 0,
            rules_evicted_idle: self.stats.rules_evicted_idle(),
            rules_evicted_hard: self.stats.rules_evicted_hard(),
            nf_state_scrubbed: self.stats.nf_state_scrubbed(),
            nf_state_handoffs: self.stats.nf_state_handoffs(),
            nf_state_import_drops: self.stats.nf_state_import_drops(),
            spans_dropped: self.stats.spans_dropped(),
            latency: self.latency.report(),
        };
        let _ = self.telemetry.push(snapshot);
    }

    /// Emits one trace span onto the shard's lossy trace ring; a full ring
    /// counts the span as dropped instead of blocking the packet path.
    fn emit_span(
        &mut self,
        stage: TraceStage,
        service: u32,
        flow_hash: u64,
        t_start_ns: u64,
        t_end_ns: u64,
        verdict: SpanVerdict,
    ) {
        let span = TraceSpan {
            shard: self.shard,
            stage,
            service,
            flow_hash,
            t_start_ns,
            t_end_ns,
            verdict,
        };
        if self.traces.push(span).is_err() {
            self.stats.add_spans_dropped(1);
        }
    }

    /// Stages a packet for egress together with its latency/trace metadata
    /// (kept index-aligned with `staging.egress` — see [`EgressMeta`]).
    fn stage_egress(&mut self, out: HostOutput, hash: u64, staged_ns: u64, traced: bool) {
        self.staging.egress_meta.push(EgressMeta {
            ingress_ns: out.packet.timestamp_ns,
            staged_ns,
            traced,
            flow_hash: hash,
        });
        self.staging.egress.push(out);
    }

    /// The bucket-count release point for packets bound for egress: under
    /// the default [`RehomeOrdering::Relaxed`] the count drops here (egress
    /// staging — the packet can no longer touch flow state); under
    /// [`RehomeOrdering::Strict`] it drops only when the host polls the
    /// packet out, so a moving bucket's release waits for full egress and
    /// per-flow egress order is preserved across the move.
    fn finish_at_egress_staging(&self, hash: u64) {
        if matches!(self.ordering, RehomeOrdering::Relaxed) {
            self.tracker.finish_hash(hash);
        }
    }

    /// Ends a packet that reached a terminal state inside the worker
    /// without egress: counts it as a controller punt or a drop, returns
    /// its credit and closes its bucket count.
    fn terminate(&self, hash: u64, punted: bool) {
        if punted {
            self.stats.add_controller_punts(1);
        } else {
            self.stats.add_dropped(1);
        }
        self.gate.release(1);
        self.tracker.finish_hash(hash);
    }

    /// Ends a packet whose targets could not be staged. A missing target or
    /// replica is a drop; only a full ring counts as an overflow drop.
    fn drop_unstaged(&self, hash: u64, why: Unstaged) {
        if why == Unstaged::RingFull {
            self.stats.add_overflow_drops(1);
            self.gate.release(1);
            self.tracker.finish_hash(hash);
        } else {
            self.terminate(hash, false);
        }
    }

    /// Accounts staged egress at engine shutdown: the host is gone, so the
    /// packets' credits are released and the packets are counted as
    /// overflow drops. Under [`RehomeOrdering::Strict`], where their bucket
    /// counts are still held, those counts are released here too.
    fn abort_staged_egress(&mut self) {
        let leftover = self.staging.egress.len();
        if leftover == 0 {
            return;
        }
        self.gate.release(leftover);
        self.stats.add_overflow_drops(leftover as u64);
        if matches!(self.ordering, RehomeOrdering::Strict) {
            for meta in &self.staging.egress_meta {
                self.tracker.finish_hash(meta.flow_hash);
            }
        }
        self.staging.egress.clear();
        if self.staging.egress_meta.iter().any(|m| m.traced) {
            let now_ns = self.clock.now_ns();
            for index in 0..self.staging.egress_meta.len() {
                let meta = self.staging.egress_meta[index];
                if meta.traced {
                    self.emit_span(
                        TraceStage::Egress,
                        0,
                        meta.flow_hash,
                        meta.staged_ns,
                        now_ns,
                        SpanVerdict::Dropped,
                    );
                }
            }
        }
        self.staging.egress_meta.clear();
    }

    /// RX role: one cached lookup per packet, then dispatch into NF rings.
    fn rx_round(&mut self, burst: &mut Vec<IngressFrame>) {
        self.stats.add_received(burst.len() as u64);
        // One clock read per burst covers the ingress-wait records, the
        // trace-span stamps and the lookup-cache TTL.
        let now_ns = self.clock.now_ns();
        self.approx_now_ns = now_ns;
        let sample_every = self.trace_sampling.load(Ordering::Relaxed);
        let mut cache = self
            .cache
            .take()
            .expect("lookup cache is back between rounds");
        for IngressFrame { packet, key, hash } in burst.drain(..) {
            self.latency
                .ingress_wait
                .record(now_ns.saturating_sub(packet.timestamp_ns));
            let Some(key) = key else {
                self.stats.add_dropped(1);
                self.gate.release(1);
                continue;
            };
            let sampled = sample_every != 0 && hash % sample_every == 0;
            let step = RulePort::Nic(packet.ingress_port);
            let Some(decision) = cached_lookup_hashed(
                &self.table,
                &mut cache,
                self.enable_cache,
                step,
                &key,
                hash,
                now_ns,
                self.cache_ttl_ns,
            ) else {
                // No controller thread is attached in the threaded runtime;
                // a miss is counted and the packet is dropped.
                self.terminate(hash, true);
                if sampled {
                    self.emit_span(
                        TraceStage::Rx,
                        0,
                        hash,
                        packet.timestamp_ns,
                        now_ns,
                        SpanVerdict::Punted,
                    );
                }
                continue;
            };
            let traced = sampled || decision.trace;
            self.dispatch(
                packet,
                key,
                hash,
                &decision.actions,
                decision.parallel,
                traced,
                now_ns,
            );
        }
        self.cache = Some(cache);
        self.flush();
    }

    /// Picks one active replica of every service in `services` into
    /// `self.targets`, in order, and returns the last service (the step of
    /// the lookup after the round completes).
    fn pick_targets(
        &mut self,
        services: impl Iterator<Item = ServiceId>,
        hash: u64,
    ) -> Result<ServiceId, Unstaged> {
        self.targets.clear();
        let mut exit_service = Err(Unstaged::NoTarget);
        for service in services {
            let index = pick_instance(
                &self.service_instances,
                &self.slots,
                &self.staging,
                service,
                self.replica_dispatch,
                hash,
            )
            .ok_or(Unstaged::NoReplica)?;
            self.targets.push(index);
            exit_service = Ok(service);
        }
        exit_service
    }

    /// Stages one work item per picked target over `shared`, which must be
    /// armed for `self.targets.len()` readers. The last target takes the
    /// handle itself, so a one-NF round moves the descriptor without
    /// touching its reference count.
    fn stage_round(
        &mut self,
        shared: SharedPacket,
        key: FlowKey,
        hash: u64,
        exit_service: ServiceId,
        traced: bool,
        hops: u8,
    ) {
        let last = self.targets.len() - 1;
        let item = |shared: SharedPacket, position: usize| WorkItem {
            shared,
            key,
            hash,
            exit_service,
            position: position as u32,
            traced,
            hops,
        };
        for (position, &index) in self.targets[..last].iter().enumerate() {
            self.staging.per_ring[index].push(item(shared.clone(), position));
        }
        self.staging.per_ring[self.targets[last]].push(item(shared, last));
    }

    /// Stages a packet according to an action list (first dispatch),
    /// emitting the packet's RX span if it is traced: `Forwarded` when the
    /// packet continues toward an NF or egress, terminal otherwise.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        packet: Packet,
        key: FlowKey,
        hash: u64,
        actions: &[Action],
        parallel: bool,
        traced: bool,
        now_ns: u64,
    ) {
        let ingress_ns = packet.timestamp_ns;
        let rx_span = |engine: &mut Self, verdict: SpanVerdict| {
            if traced {
                engine.emit_span(TraceStage::Rx, 0, hash, ingress_ns, now_ns, verdict);
            }
        };
        let picked = if parallel {
            self.pick_targets(actions.iter().filter_map(Action::service), hash)
                .and_then(|exit_service| {
                    // All-or-nothing: a parallel packet must reach *every*
                    // target NF or none — partial delivery would let a
                    // packet bypass e.g. a firewall whose ring happened to
                    // be full and still be forwarded on the other NFs'
                    // verdicts alone.
                    if parallel_fits(&self.staging, &self.slots, &self.targets) {
                        self.stats.add_parallel_dispatches(1);
                        Ok(exit_service)
                    } else {
                        Err(Unstaged::RingFull)
                    }
                })
        } else {
            match actions.first().copied() {
                Some(Action::ToService(service)) => {
                    self.pick_targets(std::iter::once(service), hash)
                }
                Some(Action::ToPort(port)) => {
                    // Transmitted accounting (and credit release) happens
                    // at flush, when the egress push lands; the packet's
                    // flow-state work is already over, so its bucket count
                    // drops here (or at full egress under strict ordering).
                    self.finish_at_egress_staging(hash);
                    self.stage_egress(HostOutput { port, packet, key }, hash, now_ns, traced);
                    rx_span(self, SpanVerdict::Forwarded);
                    return;
                }
                Some(Action::ToController) => {
                    self.terminate(hash, true);
                    rx_span(self, SpanVerdict::Punted);
                    return;
                }
                Some(Action::Drop) | Some(Action::Trace) | None => Err(Unstaged::NoTarget),
            }
        };
        match picked {
            Ok(exit_service) => {
                let shared = SharedPacket::new(packet, self.targets.len() as u32);
                self.stage_round(shared, key, hash, exit_service, traced, 1);
                rx_span(self, SpanVerdict::Forwarded);
            }
            Err(why) => {
                self.drop_unstaged(hash, why);
                rx_span(self, SpanVerdict::Dropped);
            }
        }
    }

    /// The merged verdict of a completed round, read from the descriptor's
    /// verdict words in dispatch-position order.
    fn merged_verdict(&mut self, shared: &SharedPacket) -> Verdict {
        let readers = shared.readers() as usize;
        if readers == 1 {
            return word_verdict(shared.verdict_word(0));
        }
        self.verdicts.clear();
        self.verdicts
            .extend((0..readers).map(|position| word_verdict(shared.verdict_word(position))));
        resolve_parallel_verdicts(&self.verdicts)
    }

    /// TX role: resolve verdicts of a done burst, look up next hops, and
    /// either re-stage, stage for egress, or drop.
    fn tx_round(&mut self, burst: &mut Vec<DoneItem>) {
        let now_ns = self.clock.now_ns();
        self.approx_now_ns = now_ns;
        let mut cache = self
            .cache
            .take()
            .expect("lookup cache is back between rounds");
        for item in burst.drain(..) {
            if item.traced {
                // The NF span covers the burst window the NF thread stamped;
                // the worker emits it because it is the trace ring's single
                // producer.
                self.emit_span(
                    TraceStage::Nf,
                    item.exit_service.value(),
                    item.hash,
                    item.nf_started_ns,
                    item.nf_ended_ns,
                    SpanVerdict::Forwarded,
                );
            }
            let resolved = self.merged_verdict(&item.shared);
            if resolved == Verdict::Discard {
                self.forward_decision(item, &[Action::Drop], false, now_ns);
                continue;
            }
            let decision = cached_lookup_hashed(
                &self.table,
                &mut cache,
                self.enable_cache,
                RulePort::Service(item.exit_service),
                &item.key,
                item.hash,
                now_ns,
                self.cache_ttl_ns,
            );
            match (resolved.as_action(), decision) {
                // Follow the decision (it may itself be a parallel rule).
                (None, Some(decision)) => {
                    self.forward_decision(item, &decision.actions, decision.parallel, now_ns)
                }
                (None, None) => self.forward_decision(item, &[Action::ToController], false, now_ns),
                (Some(requested), decision) => {
                    let action = validate_requested(decision.as_deref(), requested);
                    self.forward_decision(item, &[action], false, now_ns);
                }
            }
        }
        self.cache = Some(cache);
        self.flush();
    }

    /// Forwards a completed packet according to an action list by re-arming
    /// its descriptor and staging it again (or staging it for egress /
    /// dropping it). A sequential list is followed by its default (first)
    /// action only, exactly as at RX; a parallel list reaches every
    /// service it names.
    fn forward_decision(
        &mut self,
        item: DoneItem,
        actions: &[Action],
        parallel: bool,
        now_ns: u64,
    ) {
        let DoneItem {
            shared,
            key,
            hash,
            exit_service: done_service,
            traced,
            hops,
            nf_ended_ns,
            ..
        } = item;
        let tx_span = |engine: &mut Self, verdict: SpanVerdict| {
            if traced {
                engine.emit_span(
                    TraceStage::Tx,
                    done_service.value(),
                    hash,
                    nf_ended_ns,
                    now_ns,
                    verdict,
                );
            }
        };
        // Fast paths that do not need to re-dispatch the descriptor.
        if !parallel {
            match actions.first().copied() {
                Some(Action::ToPort(port)) => {
                    self.finish_at_egress_staging(hash);
                    let packet = shared.into_packet();
                    self.stage_egress(HostOutput { port, packet, key }, hash, now_ns, traced);
                    return;
                }
                Some(Action::Drop) | Some(Action::Trace) | None => {
                    self.terminate(hash, false);
                    tx_span(self, SpanVerdict::Dropped);
                    return;
                }
                Some(Action::ToController) => {
                    self.terminate(hash, true);
                    tx_span(self, SpanVerdict::Punted);
                    return;
                }
                Some(Action::ToService(_)) => {}
            }
        }
        if hops >= MAX_CHAIN_HOPS {
            // A rule cycle: the packet has used up its hop budget.
            self.terminate(hash, false);
            tx_span(self, SpanVerdict::Dropped);
            return;
        }
        // Re-dispatch to one or more NFs. All-or-nothing for a parallel
        // re-dispatch: partial delivery would let the packet's fate be
        // decided by a subset of the NFs it was meant to visit. See the
        // matching check in `dispatch`.
        let services = if parallel { actions } else { &actions[..1] };
        let picked = self
            .pick_targets(services.iter().filter_map(Action::service), hash)
            .and_then(|exit_service| {
                if parallel_fits(&self.staging, &self.slots, &self.targets) {
                    Ok(exit_service)
                } else {
                    Err(Unstaged::RingFull)
                }
            });
        let exit_service = match picked {
            Ok(exit_service) => exit_service,
            Err(why) => {
                self.drop_unstaged(hash, why);
                tx_span(self, SpanVerdict::Dropped);
                return;
            }
        };
        if parallel {
            self.stats.add_parallel_dispatches(1);
        }
        // Every reader of the previous round has completed, so the same
        // descriptor is re-armed — unless the new round is wider than its
        // verdict words, which takes a fresh descriptor.
        let readers = self.targets.len() as u32;
        let shared = if self.targets.len() <= shared.verdict_capacity() {
            shared.re_arm(readers);
            shared
        } else {
            SharedPacket::new(shared.into_packet(), readers)
        };
        self.stage_round(shared, key, hash, exit_service, traced, hops + 1);
        tx_span(self, SpanVerdict::Forwarded);
    }

    /// Flushes every staged descriptor with one batched push per ring.
    ///
    /// A full egress ring parks the remainder in `staging.egress` — retried
    /// at the top of every subsequent [`ShardEngine::step`] until the host
    /// drains the ring (this is exactly the backpressure the credits
    /// propagate to `inject`, and it keeps `step` non-blocking so a
    /// simulator can interleave the host's drain with the worker's retry).
    fn flush(&mut self) {
        for ring_index in 0..self.staging.per_ring.len() {
            if self.staging.per_ring[ring_index].is_empty() {
                continue;
            }
            self.slots[ring_index]
                .ring
                .push_n(&mut self.staging.per_ring[ring_index]);
            if self.staging.per_ring[ring_index].is_empty() {
                continue;
            }
            // Leftovers mean the ring was full at flush time. Credits are
            // clamped below every ring capacity, so this takes a parallel
            // rule that stages more than one copy per packet onto one ring
            // (a hand-installed rule naming a service twice). The packets
            // are dropped and counted, never lost silently.
            let mut leftovers = std::mem::take(&mut self.staging.per_ring[ring_index]);
            self.stats.add_overflow_drops(leftovers.len() as u64);
            // Terminal span for traced packets that died at a full NF ring:
            // the packet never reached the NF, so the Tx span is zero-width
            // at the drop instant.
            let now_ns = self.approx_now_ns;
            for item in leftovers.drain(..) {
                if item.shared.complete_one() {
                    self.gate.release(1);
                    self.tracker.finish_hash(item.hash);
                    if item.traced {
                        self.emit_span(
                            TraceStage::Tx,
                            0,
                            item.hash,
                            now_ns,
                            now_ns,
                            SpanVerdict::Dropped,
                        );
                    }
                }
            }
            self.staging.per_ring[ring_index] = leftovers;
        }
        self.flush_staged_egress();
    }

    /// Pushes staged egress packets to the host's egress ring (batched).
    /// Whatever does not fit stays staged (retried next step; bounded by
    /// the credit clamp). Returns whether any packet was transmitted.
    fn flush_staged_egress(&mut self) -> bool {
        if self.staging.egress.is_empty() {
            return false;
        }
        let pushed = self.egress.push_n(&mut self.staging.egress);
        self.stats.add_transmitted(pushed as u64);
        self.gate.release(pushed);
        if pushed > 0 {
            // One clock read covers the whole egress batch: record
            // end-to-end and egress-wait latency for every pushed packet
            // and emit the terminal egress span for the traced ones.
            let now_ns = self.clock.now_ns();
            for index in 0..pushed {
                let meta = self.staging.egress_meta[index];
                self.latency
                    .end_to_end
                    .record(now_ns.saturating_sub(meta.ingress_ns));
                self.latency
                    .egress_wait
                    .record(now_ns.saturating_sub(meta.staged_ns));
                if meta.traced {
                    self.emit_span(
                        TraceStage::Egress,
                        0,
                        meta.flow_hash,
                        meta.staged_ns,
                        now_ns,
                        SpanVerdict::Egressed,
                    );
                }
            }
            self.staging.egress_meta.drain(..pushed);
        }
        pushed > 0
    }
}

/// Takes slot `index`'s response to `token`: from this poll's drain, or —
/// once the replica has exited (drain completed) — from a final look at its
/// mailbox. An exited replica served every queued request before leaving
/// its loop, but its last responses can still sit undelivered (the DST
/// holdback fault, or the push→flag window in `respond`); treating "no
/// response" as "never sent" without that look would lose the exported
/// state permanently (caught by the DST state-mailbox-delay fault's census
/// oracle).
fn take_response(
    responses: &mut HashMap<(usize, u64), StateResponse>,
    slot: &NfSlot,
    index: usize,
    token: u64,
) -> Option<StateResponse> {
    responses.remove(&(index, token)).or_else(|| {
        if !slot.handle.as_ref().is_none_or(TaskHandle::is_finished) {
            return None;
        }
        for (tok, late) in slot.channel.drain_responses_final() {
            responses.insert((index, tok), late);
        }
        responses.remove(&(index, token))
    })
}

/// Validates an NF's explicit steering request against the rule at its
/// step: an allowed next hop is obeyed, a disallowed one falls back to the
/// rule's default action (or a drop if it has none). With no rule at the
/// step a drop is honoured and any other request goes to the controller.
fn validate_requested(decision: Option<&Decision>, requested: Action) -> Action {
    match decision {
        Some(decision) if decision.allows(requested) => requested,
        Some(decision) => decision.default_action().unwrap_or(Action::Drop),
        None if requested == Action::Drop => Action::Drop,
        None => Action::ToController,
    }
}

/// Checks that every target ring of a parallel dispatch can take its staged
/// copies (counting duplicate targets with multiplicity).
pub(super) fn parallel_fits(staging: &BurstStaging, slots: &[NfSlot], indices: &[usize]) -> bool {
    indices.iter().enumerate().all(|(position, &ring)| {
        let copies_for_ring = indices[..=position].iter().filter(|i| **i == ring).count();
        staging.has_room(slots, ring, copies_for_ring)
    })
}

/// Picks the replica of a service that serves this packet.
///
/// Under [`ReplicaDispatch::Sticky`] the flow's stable `hash` indexes the
/// (insertion-ordered) replica list, so every packet of a flow reaches the
/// same replica and per-flow NF state never splinters across instances. The
/// credit clamp (budget ≤ smallest internal ring) keeps the pinned ring
/// from overflowing even when the hash distribution is unlucky.
///
/// Under [`ReplicaDispatch::LeastLoaded`] the replica with the fewest
/// queued-plus-staged items wins, counting both the ring's occupancy and
/// the items already staged for it this burst (staged items are invisible
/// to `len()` until flush, so ignoring them would send a whole burst to the
/// instance that merely looked emptiest at burst start).
///
/// Only [`SlotState::Active`] slots appear in `service_instances`, so
/// draining replicas receive no new work. Replica churn (scale up/down)
/// changes the sticky mapping — the NF state-handoff machinery covers the
/// flows a drained replica was serving.
fn pick_instance(
    service_instances: &HashMap<ServiceId, Vec<usize>>,
    slots: &[NfSlot],
    staging: &BurstStaging,
    service: ServiceId,
    dispatch: ReplicaDispatch,
    hash: u64,
) -> Option<usize> {
    let candidates = service_instances.get(&service)?;
    if candidates.is_empty() {
        return None;
    }
    match dispatch {
        ReplicaDispatch::Sticky => Some(candidates[(hash % candidates.len() as u64) as usize]),
        ReplicaDispatch::LeastLoaded => candidates
            .iter()
            .copied()
            .min_by_key(|index| slots[*index].ring.len() + staging.per_ring[*index].len()),
    }
}
