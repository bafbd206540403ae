//! The NF replicas: [`NfEngine`], the step-callable state machine that runs
//! one network-function instance over its input ring, with its
//! state-migration mailbox ([`NfStateChannel`]), telemetry probe, burst
//! scratch and the spawners that start replicas as threads.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sdnfv_flowtable::{MutationLog, ServiceId, SharedFlowTable};
use sdnfv_nf::{
    NetworkFunction, NfContext, NfFlowState, PacketBatch, PacketBatchMut, VerdictSlice,
};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::Packet;
use sdnfv_ring::{Consumer, CreditGate, Producer};
use sdnfv_telemetry::{Ewma, HostClock};

use super::engine::{verdict_word, NfSlot, ShardEngine};
use super::{DoneItem, ShardLatency, TaskHandle, WorkItem};
use crate::messages::{
    apply_nf_message_tracked_with, NfManagerMessage, NfMessageQueue, PinTimeouts,
};
use crate::rehome::BucketTracker;
use crate::scratch::recycle;
use crate::stats::ShardStats;

/// Lock-free measurements one NF thread shares with its shard's worker: the
/// worker reads them when composing a
/// [`TelemetrySnapshot`](sdnfv_telemetry::TelemetrySnapshot).
#[derive(Debug, Default)]
pub(crate) struct NfProbe {
    /// EWMA of per-packet service time, nanoseconds.
    pub(super) service_time_ewma_ns: AtomicU64,
    /// Total packets processed.
    pub(crate) processed: AtomicU64,
}

/// A state-migration request posted by the shard worker into one NF
/// replica's mailbox (served by the NF thread between bursts).
pub(super) enum NfStateRequest {
    /// Detach state for the given buckets' flows: the listed keys plus any
    /// key of the NF's own set whose bucket is in `buckets`.
    Export {
        buckets: Vec<usize>,
        keys: Vec<FlowKey>,
    },
    /// Absorb state exported on the flow's old shard.
    Import { states: Vec<(FlowKey, NfFlowState)> },
    /// Scale-down handoff: detach *every* flow's state. Served only at the
    /// replica's drain-exit — after its last packet — so the exported
    /// counters are final; the worker re-imports them into a surviving
    /// replica of the same service.
    HandoffAll,
    /// Discard per-flow state for flows whose rules were evicted by the
    /// timeout lifecycle — per-flow NF state dies with its rule. Fire and
    /// forget: the NF thread serves it without posting a response.
    Scrub { keys: Vec<FlowKey> },
}

/// A queued mailbox between a shard worker and one NF thread, carrying
/// state-migration requests in and responses (exported state, or an empty
/// import acknowledgement) out. Several requests can be in flight at once —
/// overlapping bucket-move batches post new exports before earlier ones
/// resolve, and a shard can import and export concurrently — so each
/// request carries a worker-assigned token its response echoes. Requests
/// are rare (one per bucket-move batch), so mutex-guarded queues polled via
/// atomic flags are plenty — no ring needed.
#[derive(Default)]
pub(super) struct NfStateChannel {
    requests: Mutex<std::collections::VecDeque<(u64, NfStateRequest)>>,
    responses: Mutex<std::collections::VecDeque<(u64, StateResponse)>>,
    /// Fault-injection hook (DST): while positive, `drain_responses`
    /// returns nothing — export acks sit queued in the mailbox — and every
    /// drain attempt decrements the counter, so a holdback of `n` delays
    /// the acks by `n` worker polls. Zero (the default) is a no-op on the
    /// fast path beyond one relaxed load.
    ack_holdback: AtomicU32,
    has_requests: AtomicBool,
    has_responses: AtomicBool,
}

/// A replica's response payload: the `(flow, state)` pairs it exported
/// (empty for an import acknowledgement).
pub(super) type StateResponse = Vec<(FlowKey, NfFlowState)>;

impl NfStateChannel {
    /// Worker side: queues a request under `token`.
    pub(super) fn post(&self, token: u64, request: NfStateRequest) {
        self.requests.lock().push_back((token, request));
        self.has_requests.store(true, Ordering::Release);
    }

    /// NF side: drains every pending request, in posting order.
    fn take_requests(&self) -> Vec<(u64, NfStateRequest)> {
        if !self.has_requests.swap(false, Ordering::AcqRel) {
            return Vec::new();
        }
        self.requests.lock().drain(..).collect()
    }

    /// NF side: publishes the response to request `token`.
    fn respond(&self, token: u64, response: StateResponse) {
        self.responses.lock().push_back((token, response));
        self.has_responses.store(true, Ordering::Release);
    }

    /// Worker side: drains every response that has arrived.
    pub(super) fn drain_responses(&self) -> Vec<(u64, StateResponse)> {
        // DST fault hook: a positive holdback keeps acks in the mailbox
        // for that many polls. Only this shard's worker drains, so the
        // load/sub pair cannot race itself.
        if self.ack_holdback.load(Ordering::Relaxed) > 0 {
            self.ack_holdback.fetch_sub(1, Ordering::Relaxed);
            return Vec::new();
        }
        if !self.has_responses.swap(false, Ordering::AcqRel) {
            return Vec::new();
        }
        self.responses.lock().drain(..).collect()
    }

    /// Fault injection (DST): delay delivery of queued and future export
    /// acks by `polls` drain attempts.
    fn delay_acks(&self, polls: u32) {
        self.ack_holdback.store(polls, Ordering::Relaxed);
    }

    /// Worker side, final-look drain: bypasses the ack holdback *and* the
    /// `has_responses` fast-path flag, draining whatever is physically
    /// queued. Used where "no response" is about to be treated as "never
    /// sent" — settling a reclaimed slot, or resolving entries for a
    /// finished replica. A response can be queued yet undelivered (the DST
    /// holdback fault, or the push→flag window in `respond` racing a
    /// regular drain), and resolving the entry empty at that moment would
    /// lose the exported state permanently.
    pub(super) fn drain_responses_final(&self) -> Vec<(u64, StateResponse)> {
        // ORDER: Relaxed — teardown reset of the fault counter; nothing
        // reads it concurrently with meaning.
        self.ack_holdback.store(0, Ordering::Relaxed);
        // ORDER: AcqRel — same edge as the regular drain; the queue lock
        // below synchronizes the payload either way.
        self.has_responses.swap(false, Ordering::AcqRel);
        self.responses.lock().drain(..).collect()
    }
}

/// Where a shard's NF replicas execute: real threads (production) or
/// step-actors registered with a simulation registry. The worker calls
/// this for every `spawn_nf`, initial and elastic alike, so scale-ups
/// under simulation create steppable actors instead of threads.
pub(crate) trait ReplicaSpawner: Send {
    /// Takes ownership of a built replica engine and starts (or registers)
    /// it, returning the handle its lifecycle is tracked by.
    fn spawn_replica(&mut self, engine: NfEngine) -> TaskHandle;
}

/// The production spawner: one OS thread per replica.
pub(super) struct ThreadSpawner;

impl ReplicaSpawner for ThreadSpawner {
    fn spawn_replica(&mut self, engine: NfEngine) -> TaskHandle {
        TaskHandle::Thread(std::thread::spawn(move || engine.run()))
    }
}

/// Length of the longest prefix of `items` in which no two work items share
/// a packet buffer (always ≥ 1 for a non-empty slice). Used to split bursts
/// that would otherwise write-lock the same buffer twice.
pub(super) fn distinct_buffer_prefix(items: &[WorkItem]) -> usize {
    if items.is_empty() {
        return 0;
    }
    let mut end = 1;
    'grow: while end < items.len() {
        for earlier in &items[..end] {
            if earlier.shared.same_buffer(&items[end].shared) {
                break 'grow;
            }
        }
        end += 1;
    }
    end
}

/// Per-chunk guard and reference scratch vectors for NF burst processing.
/// Their element types borrow from the burst's items for one chunk only, so
/// the vectors are parked here empty (at the `'static` type) and re-typed
/// to the chunk lifetime via `recycle` — no allocation per burst. They live
/// in a thread-local (not on [`NfEngine`]) because lock guards are not
/// `Send` and the engine must be, for the simulation registry.
struct GuardScratch {
    read_guards: Vec<std::sync::RwLockReadGuard<'static, Packet>>,
    read_refs: Vec<&'static Packet>,
    write_guards: Vec<std::sync::RwLockWriteGuard<'static, Packet>>,
    write_refs: Vec<&'static mut Packet>,
}

thread_local! {
    static GUARD_SCRATCH: std::cell::RefCell<GuardScratch> = const {
        std::cell::RefCell::new(GuardScratch {
            read_guards: Vec::new(),
            read_refs: Vec::new(),
            write_guards: Vec::new(),
            write_refs: Vec::new(),
        })
    };
}

/// One NF replica as a step-callable state machine. The threaded runtime
/// spins it on the replica's own thread ([`NfEngine::run`]); the
/// deterministic simulation harness steps it as a registered actor. Both
/// build it the same way, on the shard worker, in
/// [`ShardEngine::spawn_nf`].
pub(crate) struct NfEngine {
    service: ServiceId,
    nf: Box<dyn NetworkFunction>,
    input: Consumer<WorkItem>,
    done: Producer<DoneItem>,
    running: Arc<AtomicBool>,
    /// Scale-down signal: exit once the input ring is empty.
    stop: Arc<AtomicBool>,
    stats: ShardStats,
    gate: Arc<CreditGate>,
    /// Per-bucket in-flight counts, for the done-ring overflow path where
    /// this replica terminates a packet itself, and for attributing
    /// wildcard mutations to the mutating flow's bucket.
    tracker: Arc<BucketTracker>,
    /// The owning shard's flow-table partition.
    table: SharedFlowTable,
    /// The partition's wildcard-mutation provenance log.
    mutation_log: Arc<MutationLog>,
    /// State-migration mailbox (export/import requests from the worker).
    channel: Arc<NfStateChannel>,
    probe: Arc<NfProbe>,
    /// Whether to measure service times into the probe (off when the
    /// host's telemetry exporter is disabled — nothing would read them).
    /// The processed count is kept either way.
    measure: bool,
    /// The shard's queue of applied NF messages for the control plane.
    messages: Arc<NfMessageQueue>,
    clock: HostClock,
    burst_size: usize,
    /// Idle/hard timeouts stamped onto the exact-pin rules this replica's
    /// NF requests via cross-layer messages.
    pin_timeouts: PinTimeouts,
    /// The owning shard's latency histograms (NF service time lands here).
    latency: Arc<ShardLatency>,
    ctx: NfContext,
    read_only: bool,
    items: Vec<WorkItem>,
    verdicts: VerdictSlice,
    done_staging: Vec<DoneItem>,
    service_time: Ewma,
    /// Tokens of [`NfStateRequest::HandoffAll`] requests, answered only at
    /// drain-exit when the replica's state is final.
    deferred_handoffs: Vec<u64>,
    /// Terminal: the replica exited its loop (drain complete or shutdown).
    pub(crate) finished: bool,
}

impl NfEngine {
    /// Builds the replica that serves `slot` on `worker`'s shard: it pops
    /// `input`, completes into `done`, shares the slot's stop flag, probe
    /// and mailbox and the worker's table, counters, clock and histograms.
    /// Runs the NF's `on_start` hook and applies the messages it sends.
    pub(super) fn new(
        worker: &ShardEngine,
        slot: &NfSlot,
        nf: Box<dyn NetworkFunction>,
        input: Consumer<WorkItem>,
        done: Producer<DoneItem>,
    ) -> Self {
        let burst_size = worker.burst_size;
        let read_only = nf.read_only();
        let mut engine = NfEngine {
            service: slot.service,
            nf,
            input,
            done,
            running: Arc::clone(&worker.running),
            stop: Arc::clone(&slot.stop),
            stats: worker.stats.clone(),
            gate: Arc::clone(&worker.gate),
            tracker: Arc::clone(&worker.tracker),
            table: worker.table.clone(),
            mutation_log: Arc::clone(&worker.mutation_log),
            channel: Arc::clone(&slot.channel),
            probe: Arc::clone(&slot.probe),
            measure: worker.telemetry_interval_ns != 0,
            messages: Arc::clone(&worker.messages),
            clock: worker.clock.clone(),
            burst_size,
            pin_timeouts: worker.pin_timeouts,
            latency: Arc::clone(&worker.latency),
            ctx: NfContext::for_shard(worker.shard, worker.clock.now_ns()),
            read_only,
            items: Vec::with_capacity(burst_size),
            verdicts: VerdictSlice::with_capacity(burst_size),
            done_staging: Vec::with_capacity(burst_size),
            service_time: Ewma::default(),
            deferred_handoffs: Vec::new(),
            finished: false,
        };
        engine.nf.on_start(&mut engine.ctx);
        engine.apply_messages();
        engine
    }

    /// Threaded driver: spins [`NfEngine::step`] until the engine finishes
    /// (host shutdown or scale-down drain complete).
    fn run(mut self) {
        let mut idle: u32 = 0;
        while !self.finished {
            if self.step() {
                idle = 0;
            } else {
                idle_backoff(&mut idle);
            }
        }
    }

    /// Display label for the replica's simulation-registry entry.
    pub(crate) fn sim_label(&self) -> String {
        format!("shard{}/nf{}", self.ctx.shard(), self.service)
    }

    /// The replica's service and its probe, for the simulation registry's
    /// actor listing.
    pub(crate) fn probe(&self) -> (ServiceId, Arc<NfProbe>) {
        (self.service, Arc::clone(&self.probe))
    }

    /// Applies the context's queued cross-layer messages to the shard
    /// partition and queues each for the control plane. Every wildcard
    /// mutation is recorded in the partition's provenance log, keyed by the
    /// mutating flow's steering bucket (unattributed messages are logged
    /// bucket-less and travel with every departing bucket).
    fn apply_messages(&mut self) {
        for attributed in self.ctx.take_attributed_messages() {
            self.stats.add_nf_messages(1);
            let (_, wildcard) = self.table.with_write(|t| {
                apply_nf_message_tracked_with(
                    t,
                    self.service,
                    &attributed.message,
                    false,
                    self.pin_timeouts,
                )
            });
            if let Some(mutation) = wildcard {
                let bucket = attributed
                    .flow
                    .as_ref()
                    .map(|key| self.tracker.bucket_of(key));
                self.mutation_log.record(bucket, mutation);
            }
            let queued = self.messages.push(NfManagerMessage {
                from: self.service,
                message: attributed.message,
            });
            if !queued {
                self.stats.add_nf_messages_dropped(1);
            }
        }
    }

    /// Serves every pending state-migration request from the worker, in
    /// posting order: detaches the requested buckets' flow state (export),
    /// absorbs migrated state (import, acknowledged with an empty
    /// response), or — for a scale-down [`NfStateRequest::HandoffAll`] —
    /// defers until drain-exit, when the replica's state is final.
    fn serve_state_requests(&mut self, at_exit: bool) {
        for (token, request) in self.channel.take_requests() {
            match request {
                NfStateRequest::Export { buckets, keys } => {
                    let mut exported = Vec::new();
                    for key in &keys {
                        if let Some(state) = self.nf.export_flow_state(key) {
                            exported.push((*key, state));
                        }
                    }
                    // The NF's own key set covers flows that hold state
                    // without an exact rule; export is a move, so keys
                    // already detached above simply return None here — no
                    // dedup needed.
                    for key in self.nf.flow_state_keys() {
                        if buckets.contains(&self.tracker.bucket_of(&key)) {
                            if let Some(state) = self.nf.export_flow_state(&key) {
                                exported.push((key, state));
                            }
                        }
                    }
                    self.channel.respond(token, exported);
                }
                NfStateRequest::Import { states } => {
                    for (key, state) in states {
                        self.nf.import_flow_state(&key, state);
                    }
                    self.channel.respond(token, Vec::new());
                }
                NfStateRequest::HandoffAll => self.deferred_handoffs.push(token),
                NfStateRequest::Scrub { keys } => {
                    // Fire-and-forget: the worker tracks no entry for scrub
                    // tokens, so no response is posted. Scrub is a move —
                    // a key another replica already scrubbed (or that this
                    // replica never held state for) just returns None.
                    let mut scrubbed = 0u64;
                    for key in &keys {
                        if self.nf.scrub_flow_state(key).is_some() {
                            scrubbed += 1;
                        }
                    }
                    if scrubbed > 0 {
                        self.stats.add_nf_state_scrubbed(scrubbed);
                    }
                }
            }
        }
        if at_exit {
            // Drain-exit: everything the replica still holds moves out.
            // Bucket exports queued alongside were served above (in posting
            // order), so the handoff is exactly the remainder. Export is a
            // move, so a second deferred token gets what the first left.
            for token in std::mem::take(&mut self.deferred_handoffs) {
                let mut exported = Vec::new();
                for key in self.nf.flow_state_keys() {
                    if let Some(state) = self.nf.export_flow_state(&key) {
                        exported.push((key, state));
                    }
                }
                self.channel.respond(token, exported);
            }
        }
    }

    /// Fault injection (DST): holds this replica's export acks in the
    /// mailbox for `polls` worker drain attempts. See
    /// [`NfStateChannel::delay_acks`].
    pub(crate) fn delay_state_mailbox(&self, polls: u32) {
        self.channel.delay_acks(polls);
    }

    /// One turn of the replica's state machine: serve state-migration
    /// requests, then pop and process at most one burst. Returns whether
    /// any work was done. Sets `finished` when the replica's loop is over
    /// (host shutdown, or scale-down drain complete).
    pub(crate) fn step(&mut self) -> bool {
        if self.finished {
            return false;
        }
        if !self.running.load(Ordering::Acquire) {
            self.finished = true;
            return false;
        }
        // Serve state-migration requests *before* popping packets: an
        // imported flow's state must land before the flow's first re-homed
        // packet (the host only releases the bucket's pen after the import
        // acknowledgement, so checking here closes the ordering).
        self.serve_state_requests(false);
        self.items.clear();
        let mut items = std::mem::take(&mut self.items);
        if self.input.pop_n(&mut items, self.burst_size) == 0 {
            self.items = items;
            // Scale-down: with the input ring drained and every completion
            // already pushed, this replica's work is finished.
            if self.stop.load(Ordering::Acquire) && self.input.is_empty() {
                // One last look at the mailbox so a request racing the
                // drain-exit is answered, not stranded — and the deferred
                // state handoff goes out now that the state is final.
                self.serve_state_requests(true);
                self.finished = true;
                return true;
            }
            return false;
        }
        // One clock read opens the burst window: it feeds the NF context,
        // the service-time histogram, and (when traced) the NF span stamps.
        let burst_started_ns = self.clock.now_ns();
        self.ctx.set_now_ns(burst_started_ns);
        let slots = self.verdicts.reset(items.len());
        if self.read_only {
            // Lock the whole burst for reading and hand the NF one batch.
            // Parallel NFs on other threads can hold read guards on the same
            // descriptors simultaneously. Bursts are still split on repeated
            // buffers: two read guards on one lock from this thread could
            // deadlock against a queued writer (std's RwLock is
            // writer-preferring), and a repeated buffer is possible with
            // hand-installed action lists naming one service twice.
            GUARD_SCRATCH.with(|scratch| {
                let scratch = &mut *scratch.borrow_mut();
                let mut start = 0;
                while start < items.len() {
                    let end = start + distinct_buffer_prefix(&items[start..]);
                    let chunk = &items[start..end];
                    let mut guards = recycle(std::mem::take(&mut scratch.read_guards));
                    guards.extend(chunk.iter().map(|item| item.shared.read_guard()));
                    let mut refs: Vec<&Packet> = recycle(std::mem::take(&mut scratch.read_refs));
                    refs.extend(guards.iter().map(|guard| &**guard));
                    self.nf.process_batch(
                        &PacketBatch::new(&refs),
                        &mut slots[start..end],
                        &mut self.ctx,
                    );
                    refs.clear();
                    scratch.read_refs = recycle(refs);
                    guards.clear();
                    scratch.read_guards = recycle(guards);
                    start = end;
                }
            });
        } else {
            // A mutating NF is the sole owner of every descriptor it is
            // handed (never scheduled in parallel with other NFs), so the
            // write locks are uncontended — except when a (hand-installed)
            // action list names the same service twice, which puts two
            // WorkItems over one buffer into the same burst. Write-locking
            // those together would self-deadlock, so the burst is split into
            // chunks with no repeated buffer.
            GUARD_SCRATCH.with(|scratch| {
                let scratch = &mut *scratch.borrow_mut();
                let mut start = 0;
                while start < items.len() {
                    let end = start + distinct_buffer_prefix(&items[start..]);
                    let chunk = &items[start..end];
                    let mut guards = recycle(std::mem::take(&mut scratch.write_guards));
                    guards.extend(chunk.iter().map(|item| item.shared.write_guard()));
                    let mut refs: Vec<&mut Packet> =
                        recycle(std::mem::take(&mut scratch.write_refs));
                    refs.extend(guards.iter_mut().map(|guard| &mut **guard));
                    let mut batch = PacketBatchMut::new(&mut refs);
                    self.nf
                        .process_batch_mut(&mut batch, &mut slots[start..end], &mut self.ctx);
                    refs.clear();
                    scratch.write_refs = recycle(refs);
                    guards.clear();
                    scratch.write_guards = recycle(guards);
                    start = end;
                }
            });
        }
        let burst_ended_ns = self.clock.now_ns();
        let per_packet_ns = burst_ended_ns.saturating_sub(burst_started_ns) / items.len() as u64;
        self.latency
            .nf_service
            .record_n(per_packet_ns, items.len() as u64);
        if self.measure {
            self.probe.service_time_ewma_ns.store(
                self.service_time.update(per_packet_ns as f64) as u64,
                Ordering::Relaxed,
            );
        }
        self.probe
            .processed
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        self.stats.add_nf_invocations(items.len() as u64);
        // Cross-layer messages emitted anywhere inside the burst are applied
        // to the shared table *before* completed descriptors are handed to
        // the worker's TX role, so the next burst's lookups (on every
        // thread) already see them. Wildcard mutations land in the
        // partition's provenance log, attributed to the mutating flow's
        // bucket, so future bucket re-homes replay them.
        self.apply_messages();
        // Each verdict goes into the item's position of its descriptor
        // before the item's completion decrement publishes it; the round's
        // final completer hands the descriptor back to the worker.
        for (index, item) in items.drain(..).enumerate() {
            let word = verdict_word(self.verdicts.as_slice()[index]);
            if item.shared.complete_with(item.position as usize, word) {
                self.done_staging.push(DoneItem {
                    shared: item.shared,
                    key: item.key,
                    hash: item.hash,
                    exit_service: item.exit_service,
                    traced: item.traced,
                    hops: item.hops,
                    nf_started_ns: burst_started_ns,
                    nf_ended_ns: burst_ended_ns,
                });
            }
        }
        self.items = items;
        self.done.push_n(&mut self.done_staging);
        // Whatever did not fit the done ring is dropped and counted. Each
        // packet completes into one done ring once and credits are clamped
        // below the ring's capacity, so this is a safety net, not a path
        // traffic takes.
        if !self.done_staging.is_empty() {
            let leftover = self.done_staging.len();
            self.stats.add_overflow_drops(leftover as u64);
            // Each DoneItem is the sole owner of its packet.
            self.gate.release(leftover);
            for item in self.done_staging.drain(..) {
                self.tracker.finish_hash(item.hash);
                // This thread is not the trace ring's producer, so a traced
                // packet dying here cannot emit its terminal span — account
                // it as a dropped span so conservation checks stay honest.
                if item.traced {
                    self.stats.add_spans_dropped(1);
                }
            }
        }
        true
    }
}

pub(super) fn idle_backoff(idle: &mut u32) {
    *idle += 1;
    if *idle < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}
