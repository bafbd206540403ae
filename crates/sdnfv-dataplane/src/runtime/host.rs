//! The host side of the runtime: [`ThreadedHost`], the handle a single
//! management thread uses to inject traffic, poll egress and telemetry,
//! and drive the control plane — shard and replica lifecycle, steering and
//! the bucket re-home handshake — plus [`launch_pipeline`], which wires
//! one shard's rings, credit gate and worker.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sdnfv_flowtable::{
    FlowRule, FlowTablePartitions, MutationLog, RuleId, ServiceId, SharedFlowTable,
};
use sdnfv_nf::{NetworkFunction, NfFlowState};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::Packet;
use sdnfv_ring::{spsc_ring, Consumer, CreditGate, Producer, PushError};
use sdnfv_telemetry::{
    HostClock, LatencyReport, ShardLifecycleEvent, TelemetrySnapshot, TelemetrySource, TraceSpan,
};

use super::engine::{BurstStaging, EnginePhase, ShardEngine, LOOKUP_CACHE_ENTRIES};
use super::nf::{ReplicaSpawner, ThreadSpawner};
use super::{
    BucketStateExport, BurstInjection, HostOutput, IngressFrame, InjectResult, RehomeOrdering,
    ShardCommand, ShardLatency, TaskHandle, ThreadedHostConfig, STEER_BUCKETS,
};
use crate::cache::LookupCache;
use crate::messages::{NfManagerMessage, NfMessageQueue, PinTimeouts};
use crate::rehome::{
    BucketHandout, BucketTracker, HandoutPhase, ImportDelivery, MovePhase, RehomeEvent,
    RehomeReport, RehomeState, RehomeStep, RetiringShard,
};
use crate::stats::{HostStats, ShardStats};

/// How a host's pipelines execute: spawned OS threads, or engines
/// registered with the crate's simulation registry
/// ([`crate::sim::SimRegistry`]) and stepped explicitly by a scheduler.
#[derive(Clone)]
pub(crate) enum PipelineRuntime {
    /// Production: one worker thread per shard, one thread per NF replica.
    Threads,
    /// Deterministic simulation: engines are registered as step-actors.
    Sim(Arc<Mutex<crate::sim::SimRegistry>>),
}

/// The host-side ports of one shard.
struct ShardPorts {
    ingress: Producer<IngressFrame>,
    egress: Consumer<HostOutput>,
    gate: Arc<CreditGate>,
    control: Producer<ShardCommand>,
    telemetry: Consumer<TelemetrySnapshot>,
    /// NF-state exports flowing back from the worker (replies to
    /// [`ShardCommand::ExportBucketState`]).
    exports: Consumer<BucketStateExport>,
    /// The shard's counters (shared with its threads), kept at hand so the
    /// injection paths bump them without taking the stats registry lock.
    stats: ShardStats,
    /// Per-shard stop flag: set when the shard is retired so its worker
    /// (and, transitively, its NF threads) wind down without touching the
    /// host-wide `running` flag.
    stop: Arc<AtomicBool>,
    /// Trace spans emitted by the shard's worker (lossy; drained by
    /// [`ThreadedHost::poll_traces`]).
    traces: Consumer<TraceSpan>,
    /// The shard's latency histograms (shared with its threads; the host
    /// records pen dwell here and merges reports on demand).
    latency: Arc<ShardLatency>,
    /// Applied NF messages awaiting [`ThreadedHost::take_nf_messages`].
    messages: Arc<NfMessageQueue>,
    /// Tombstone: `true` once the slot's shard has been fully retired (its
    /// worker joined, its buckets re-homed away). A tombstoned slot keeps
    /// its index — steering entries and stats stay valid — until either a
    /// later [`ThreadedHost::spawn_shard`] reuses it or it becomes the
    /// trailing slot and is reaped.
    retired: Cell<bool>,
}

impl ShardPorts {
    /// Admits one frame into the shard: takes a credit and pushes the frame
    /// onto the ingress ring. A saturated gate or a full ring hands the
    /// frame back, holding no credit.
    fn admit(&self, frame: IngressFrame) -> Result<(), IngressFrame> {
        if !self.gate.try_acquire(1) {
            return Err(frame);
        }
        self.ingress.push(frame).map_err(|PushError(frame)| {
            self.gate.release(1);
            frame
        })
    }
}

/// Capacity of the per-bucket pen that holds arrivals while a steering
/// bucket is mid-re-home (quiesced). A full pen surfaces as ordinary
/// backpressure.
pub(super) const REHOME_PEN: usize = 32;

/// Capacity of each shard's control-command ring (commands the worker
/// applies between bursts).
const CONTROL_RING_CAPACITY: usize = 16;

/// A handle to a running multi-threaded NF host.
///
/// The host handle is intended for a single management thread (it is not
/// `Sync`): that thread injects traffic, polls egress and telemetry, and
/// drives control — including the elastic shard lifecycle
/// ([`ThreadedHost::spawn_shard`] / [`ThreadedHost::retire_shard`]) and the
/// bucket re-home handshake, which advances opportunistically inside
/// injection and polling calls.
pub struct ThreadedHost {
    shards: RefCell<Vec<ShardPorts>>,
    stats: HostStats,
    tables: FlowTablePartitions,
    running: Arc<AtomicBool>,
    /// Worker handles, indexed like `shards`; `None` marks a tombstoned
    /// slot (its handle was joined at retirement).
    handles: RefCell<Vec<Option<TaskHandle>>>,
    clock: HostClock,
    /// How pipelines execute (threads vs simulation registry); retained so
    /// shards spawned mid-run join the same driver.
    runtime: PipelineRuntime,
    credit_capacity: usize,
    /// The (normalized) configuration, retained so shards spawned mid-run
    /// get identical pipelines.
    config: ThreadedHostConfig,
    /// Round-robin start shard for egress polling, so no shard starves.
    egress_cursor: Cell<usize>,
    /// Flow-steering bucket table (empty for single-shard hosts — which
    /// steer everything to shard 0 — and for shard counts ≥
    /// [`STEER_BUCKETS`], which fall back to plain modulo). Built lazily on
    /// the first [`ThreadedHost::spawn_shard`] of a single-shard host.
    steering: RefCell<Vec<usize>>,
    /// Per-bucket in-flight packet counts (shared with every shard worker):
    /// the drain condition of the re-home handshake.
    tracker: Arc<BucketTracker>,
    /// In-progress bucket moves and shard retirement.
    rehome: RefCell<RehomeState>,
    /// Completed shard lifecycle transitions awaiting
    /// [`ThreadedHost::take_shard_events`].
    events: RefCell<Vec<ShardLifecycleEvent>>,
    /// Host-wide flow-trace sampling knob (one of every N flows by stable
    /// hash; 0 = off), shared with every shard worker.
    trace_sampling: Arc<AtomicU64>,
}

impl std::fmt::Debug for ThreadedHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedHost")
            .field("shards", &self.shards.borrow().len())
            .field("threads", &self.handles.borrow().iter().flatten().count())
            .field("rules", &self.tables.template().len())
            .finish()
    }
}

impl ThreadedHost {
    /// Starts a **single-shard** host with one set of NF instances.
    ///
    /// `table` holds the (already configured) flow rules; `nfs` lists the NF
    /// instances to run, one thread each, keyed by the service they provide.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_shards > 1`: every shard needs its own NF
    /// instances, so multi-shard hosts are started with
    /// [`ThreadedHost::start_sharded`] and a per-shard NF factory.
    pub fn start(
        table: SharedFlowTable,
        nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)>,
        config: ThreadedHostConfig,
    ) -> Self {
        assert!(
            config.num_shards <= 1,
            "ThreadedHost::start wires one NF set (one shard); \
             use ThreadedHost::start_sharded with a per-shard NF factory"
        );
        let mut nfs = Some(nfs);
        ThreadedHost::start_sharded(
            table,
            move |_shard| nfs.take().expect("start spawns exactly one shard"),
            config,
        )
    }

    /// Starts a sharded host: `nfs_for_shard(shard)` is called once per
    /// shard (0 .. `config.num_shards`) and must return that shard's own NF
    /// instances — flow-hash steering guarantees each instance only ever
    /// sees its shard's flows.
    pub fn start_sharded<F>(
        table: SharedFlowTable,
        nfs_for_shard: F,
        config: ThreadedHostConfig,
    ) -> Self
    where
        F: FnMut(usize) -> Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    {
        ThreadedHost::start_with_runtime(
            table,
            nfs_for_shard,
            config,
            HostClock::real(),
            PipelineRuntime::Threads,
        )
    }

    /// The shared constructor behind [`ThreadedHost::start_sharded`]
    /// (threads, real clock) and [`crate::sim`]'s simulation entry point
    /// (step-actors, virtual clock) — one body, so the code under
    /// simulation is the code that ships.
    pub(crate) fn start_with_runtime<F>(
        table: SharedFlowTable,
        mut nfs_for_shard: F,
        config: ThreadedHostConfig,
        clock: HostClock,
        runtime: PipelineRuntime,
    ) -> Self
    where
        F: FnMut(usize) -> Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    {
        let mut config = config;
        let num_shards = config.num_shards.max(1);
        config.num_shards = num_shards;
        config.burst_size = config.burst_size.max(1);
        config.nf_ring_capacity = config.nf_ring_capacity.max(1);
        config.ingress_capacity = config.ingress_capacity.max(1);
        config.egress_capacity = config.egress_capacity.max(1);
        config.trace_ring_capacity = config.trace_ring_capacity.max(1);
        // Clamping the credit budget to the smallest internal ring makes
        // in-pipeline overflow impossible: a shard never holds more packets
        // in flight than any one ring could absorb.
        let credit_capacity = config
            .shard_credits
            .max(1)
            .min(config.nf_ring_capacity)
            .min(config.ingress_capacity);

        let stats = HostStats::with_shards(num_shards);
        let running = Arc::new(AtomicBool::new(true));
        let tables = FlowTablePartitions::new(&table, num_shards);
        let tracker = Arc::new(BucketTracker::new(STEER_BUCKETS));
        let trace_sampling = Arc::new(AtomicU64::new(config.trace_sample_every));
        let mut handles = Vec::new();
        let mut shards = Vec::with_capacity(num_shards);

        for shard in 0..num_shards {
            let (ports, handle) = launch_pipeline(
                shard,
                nfs_for_shard(shard),
                tables.shard(shard),
                tables.mutation_log(shard),
                stats.shard(shard),
                &running,
                &tracker,
                clock.clone(),
                &config,
                credit_capacity,
                &runtime,
                &trace_sampling,
            );
            handles.push(Some(handle));
            shards.push(ports);
        }

        let steering = if num_shards > 1 && num_shards < STEER_BUCKETS {
            (0..STEER_BUCKETS).map(|b| b % num_shards).collect()
        } else {
            Vec::new()
        };

        ThreadedHost {
            shards: RefCell::new(shards),
            stats,
            tables,
            running,
            handles: RefCell::new(handles),
            clock,
            runtime,
            credit_capacity,
            config,
            egress_cursor: Cell::new(0),
            steering: RefCell::new(steering),
            tracker,
            rehome: RefCell::new(RehomeState::default()),
            events: RefCell::new(Vec::new()),
            trace_sampling,
        }
    }

    /// Number of pipeline shard **slots**, tombstones included (a retiring
    /// shard counts until its teardown completes; a middle-slot tombstone
    /// counts until the slot is reused or reaped). Use
    /// [`ThreadedHost::num_live_shards`] for the number of shards actually
    /// serving traffic.
    pub fn num_shards(&self) -> usize {
        self.shards.borrow().len()
    }

    /// Number of shards currently serving traffic (slots minus tombstones).
    pub fn num_live_shards(&self) -> usize {
        self.shards
            .borrow()
            .iter()
            .filter(|p| !p.retired.get())
            .count()
    }

    /// Whether slot `shard` currently holds a live (non-tombstoned) shard.
    /// Out-of-range slots are not live.
    pub fn is_live_shard(&self, shard: usize) -> bool {
        self.shards
            .borrow()
            .get(shard)
            .is_some_and(|p| !p.retired.get())
    }

    /// The lowest-index live shard — where keyless packets (which cannot be
    /// flow-steered) are injected.
    fn first_live_shard(&self) -> usize {
        self.shards
            .borrow()
            .iter()
            .position(|p| !p.retired.get())
            .unwrap_or(0)
    }

    /// The effective per-shard credit budget.
    pub fn credit_capacity(&self) -> usize {
        self.credit_capacity
    }

    /// Credits currently available on `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn available_credits(&self, shard: usize) -> usize {
        self.shards.borrow()[shard].gate.available()
    }

    /// The current credit budget of `shard` (it may differ from
    /// [`ThreadedHost::credit_capacity`] after a
    /// [`resize_credits`](ThreadedHost::resize_credits)).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn credit_budget(&self, shard: usize) -> usize {
        self.shards.borrow()[shard].gate.capacity()
    }

    /// The shard a flow hash steers to under the current bucket table.
    fn steer_hash(&self, hash: u64) -> usize {
        let num_shards = self.shards.borrow().len();
        if num_shards <= 1 {
            return 0;
        }
        let steering = self.steering.borrow();
        if steering.is_empty() {
            return (hash % num_shards as u64) as usize;
        }
        steering[(hash % steering.len() as u64) as usize]
    }

    /// The shard a packet would be steered to.
    pub fn shard_of(&self, packet: &Packet) -> usize {
        packet
            .flow_key()
            .map(|key| self.steer_hash(key.stable_hash()))
            .unwrap_or(0)
    }

    /// Injects a packet into the host, stamping its receive timestamp, and
    /// reports the admission outcome. Under backpressure a rejected packet
    /// is handed back inside [`InjectResult::Throttled`] for retry.
    ///
    /// Packets of a steering bucket that is mid-re-home are parked in the
    /// bucket's pen (still [`InjectResult::Admitted`] — they are released
    /// into the bucket's new shard once the move completes); a full pen
    /// surfaces as ordinary backpressure.
    pub fn inject(&self, mut packet: Packet) -> InjectResult {
        self.advance_rehoming();
        packet.timestamp_ns = self.now_ns();
        let key = packet.flow_key();
        let hash = key.as_ref().map_or(0, FlowKey::stable_hash);
        let (shard, tracked) = match &key {
            Some(k) => {
                let bucket = (hash % STEER_BUCKETS as u64) as usize;
                if self.rehome.borrow().is_parked(bucket) {
                    return self.park(bucket, packet, *k);
                }
                (self.steer_hash(hash), Some(bucket))
            }
            None => (self.first_live_shard(), None),
        };
        let shards = self.shards.borrow();
        let ports = &shards[shard];
        match ports.admit(IngressFrame { packet, key, hash }) {
            Ok(()) => {
                if let Some(bucket) = tracked {
                    self.tracker.admit(bucket);
                }
                InjectResult::Admitted
            }
            Err(frame) => {
                ports.stats.add_throttled(1);
                InjectResult::Throttled(frame.packet)
            }
        }
    }

    /// Parks a packet whose bucket is mid-re-home (locally, or handing out
    /// to another host) in the bucket's pen.
    fn park(&self, bucket: usize, packet: Packet, key: FlowKey) -> InjectResult {
        let mut state = self.rehome.borrow_mut();
        // A full pen throttles, counted on the shard the bucket moves to
        // (or, for a handout, the shard it leaves).
        let (pen, shard) = if state.moves.iter().any(|m| m.bucket == bucket) {
            let mv = state
                .move_for_bucket_mut(bucket)
                .expect("a parked bucket has an active move");
            (&mut mv.pen, mv.to)
        } else {
            let handout = state
                .outbound_for_bucket_mut(bucket)
                .expect("a parked bucket has an active move or handout");
            (&mut handout.pen, handout.from)
        };
        if pen.len() < REHOME_PEN {
            pen.push_back((packet, key));
            state.report.packets_penned += 1;
            return InjectResult::Admitted;
        }
        state.report.pen_throttled += 1;
        self.shards.borrow()[shard].stats.add_throttled(1);
        InjectResult::Throttled(packet)
    }

    /// Injects a burst of packets — grouped per shard, one ring operation
    /// per shard — stamping their receive timestamps. The returned
    /// [`BurstInjection`] hands every throttled packet back for retry.
    /// Packets of mid-re-home buckets are parked exactly as in
    /// [`ThreadedHost::inject`] (parked packets count as admitted).
    pub fn inject_burst(&self, packets: Vec<Packet>) -> BurstInjection {
        self.advance_rehoming();
        let now = self.now_ns();
        let mut result = BurstInjection::default();
        let rehoming = {
            let state = self.rehome.borrow();
            !state.moves.is_empty() || !state.outbound.is_empty()
        };
        let shards = self.shards.borrow();
        let num_shards = shards.len();
        if num_shards == 1 && !rehoming {
            // Single shard with no bucket mid-move and no outbound handout
            // (a single-shard host can still hand a bucket to another
            // host): frame the admitted packets in one pass and push them
            // directly, skipping the per-shard grouping.
            let ports = &shards[0];
            let mut frames: Vec<IngressFrame> = Vec::with_capacity(packets.len());
            for mut packet in packets {
                packet.timestamp_ns = now;
                if !ports.gate.try_acquire(1) {
                    ports.stats.add_throttled(1);
                    result.throttled.push(packet);
                    continue;
                }
                let key = packet.flow_key();
                let hash = key.as_ref().map_or(0, FlowKey::stable_hash);
                frames.push(IngressFrame { packet, key, hash });
            }
            drop(shards);
            self.push_shard_frames(0, frames, &mut result);
            return result;
        }
        let keyless_shard = self.first_live_shard();
        let mut staged: Vec<Vec<IngressFrame>> = (0..num_shards).map(|_| Vec::new()).collect();
        for mut packet in packets {
            packet.timestamp_ns = now;
            let key = packet.flow_key();
            let hash = key.as_ref().map_or(0, FlowKey::stable_hash);
            let shard = match &key {
                Some(k) => {
                    if rehoming {
                        let bucket = (hash % STEER_BUCKETS as u64) as usize;
                        if self.rehome.borrow().is_parked(bucket) {
                            match self.park(bucket, packet, *k) {
                                InjectResult::Admitted => result.admitted += 1,
                                InjectResult::Throttled(p) => result.throttled.push(p),
                            }
                            continue;
                        }
                    }
                    self.steer_hash(hash)
                }
                None => keyless_shard,
            };
            if !shards[shard].gate.try_acquire(1) {
                shards[shard].stats.add_throttled(1);
                result.throttled.push(packet);
                continue;
            }
            staged[shard].push(IngressFrame { packet, key, hash });
        }
        drop(shards);
        for (shard, frames) in staged.into_iter().enumerate() {
            self.push_shard_frames(shard, frames, &mut result);
        }
        result
    }

    /// Pushes a shard's framed (credit-holding) packets with one ring
    /// operation, folding the outcome into `result`: leftovers that did not
    /// fit the ring give their credits back and are throttled back.
    fn push_shard_frames(
        &self,
        shard: usize,
        mut frames: Vec<IngressFrame>,
        result: &mut BurstInjection,
    ) {
        if frames.is_empty() {
            return;
        }
        let shards = self.shards.borrow();
        let ports = &shards[shard];
        // `push_n` drains the admitted prefix out of the vec, so bucket
        // in-flight counts are recorded up front and rolled back for the
        // leftovers the ring rejected (same management thread: the
        // transient is never observed by a drain check).
        for frame in &frames {
            if frame.key.is_some() {
                self.tracker.admit(self.tracker.bucket_of_hash(frame.hash));
            }
        }
        result.admitted += ports.ingress.push_n(&mut frames);
        if frames.is_empty() {
            return;
        }
        let leftover = frames.len();
        for frame in &frames {
            if frame.key.is_some() {
                self.tracker.finish_hash(frame.hash);
            }
        }
        ports.gate.release(leftover);
        ports.stats.add_throttled(leftover as u64);
        result
            .throttled
            .extend(frames.into_iter().map(|f| f.packet));
    }

    /// Nanoseconds since the host started (the clock used for packet
    /// timestamps). Under simulation this is the virtual clock's current
    /// instant.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Under [`RehomeOrdering::Strict`] a packet's bucket in-flight count
    /// is released only here, when it fully leaves the host (no-op under
    /// the default [`RehomeOrdering::Relaxed`], where the shard worker
    /// released it at egress staging). The key carried from ingress is
    /// released — not a re-parse of the (possibly NF-rewritten) frame.
    fn finish_on_full_egress(&self, out: &HostOutput) {
        if matches!(self.config.rehome_ordering, RehomeOrdering::Strict) {
            self.tracker.finish(&out.key);
        }
    }

    /// Retrieves one transmitted packet, if any, polling shards round-robin.
    pub fn poll_egress(&self) -> Option<HostOutput> {
        self.advance_rehoming();
        let polled = {
            let shards = self.shards.borrow();
            let n = shards.len();
            let start = self.egress_cursor.get();
            let mut polled = None;
            for offset in 0..n {
                let shard = (start + offset) % n;
                if let Some(out) = shards[shard].egress.pop() {
                    self.egress_cursor.set((shard + 1) % n);
                    polled = Some(out);
                    break;
                }
            }
            polled
        };
        if let Some(out) = &polled {
            self.finish_on_full_egress(out);
        }
        polled
    }

    /// Retrieves up to `max` transmitted packets, draining shards
    /// round-robin with one ring operation each.
    pub fn poll_egress_burst(&self, max: usize) -> Vec<HostOutput> {
        self.advance_rehoming();
        let mut out = Vec::new();
        {
            let shards = self.shards.borrow();
            let n = shards.len();
            let start = self.egress_cursor.get();
            for offset in 0..n {
                if out.len() >= max {
                    break;
                }
                let shard = (start + offset) % n;
                let room = max - out.len();
                shards[shard].egress.pop_n(&mut out, room);
            }
            self.egress_cursor.set((start + 1) % n);
        }
        if matches!(self.config.rehome_ordering, RehomeOrdering::Strict) {
            for polled in &out {
                self.finish_on_full_egress(polled);
            }
        }
        out
    }

    /// Host statistics (merged snapshot via [`HostStats::snapshot`],
    /// per-shard via [`HostStats::shard_snapshot`]).
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// The host's **template** flow table — the control-plane view. For a
    /// single-shard host this is the live table; multi-shard hosts serve
    /// packets from per-shard partitions (see
    /// [`ThreadedHost::shard_table`]), and mid-run rule installs must go
    /// through [`ThreadedHost::install_rule`] to reach them.
    pub fn flow_table(&self) -> &SharedFlowTable {
        self.tables.template()
    }

    /// The flow-table partition serving `shard` (on a host started with a
    /// single shard, shard 0's partition is the template itself).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_table(&self, shard: usize) -> SharedFlowTable {
        self.tables.shard(shard)
    }

    /// Installs a rule at the template layer and broadcasts it to every
    /// shard partition (the control-plane write path). Returns the rule's
    /// template id.
    pub fn install_rule(&self, rule: FlowRule) -> RuleId {
        self.tables.install(rule)
    }

    /// Drains every shard's telemetry ring, returning the published
    /// [`TelemetrySnapshot`]s in shard order (oldest first within a shard).
    /// Feed them to a
    /// [`TelemetryHub`](sdnfv_telemetry::TelemetryHub) to keep a merged
    /// latest-per-shard view.
    pub fn poll_telemetry(&self) -> Vec<TelemetrySnapshot> {
        self.advance_rehoming();
        let mut out = Vec::new();
        for ports in self.shards.borrow().iter() {
            while let Some(snapshot) = ports.telemetry.pop() {
                out.push(snapshot);
            }
        }
        // The re-home pens live on the host side (the injection path), so
        // their gauges are stamped here rather than by the shard workers:
        // each snapshot reports the pens destined for its shard, making a
        // pathological flood onto a mid-move bucket visible instead of
        // silent backpressure.
        if !out.is_empty() {
            let now_ns = self.now_ns();
            let state = self.rehome.borrow();
            for snapshot in &mut out {
                let (depth, oldest) = state.pen_gauges_for_shard(snapshot.shard);
                snapshot.rehome_pen_depth = depth;
                snapshot.rehome_pen_max_age_ns =
                    oldest.map_or(0, |arrived| now_ns.saturating_sub(arrived));
            }
        }
        out
    }

    /// Drains the ages (nanoseconds parked) of packets released from
    /// re-home pens since the last call — the percentile feed of the
    /// `shard_rehome` bench artifact. Samples are capped at
    /// [`crate::rehome::PEN_AGE_SAMPLE_CAP`] between drains.
    pub fn take_rehome_pen_ages_ns(&self) -> Vec<u64> {
        self.rehome.borrow_mut().take_pen_ages_ns()
    }

    /// Sets the flow-trace sampling rate: one in `every` flows (by stable
    /// flow hash) is traced end to end; `0` disables hash sampling. Flows
    /// pinned by a rule carrying
    /// [`Action::Trace`](sdnfv_flowtable::Action::Trace) are traced
    /// regardless. Takes effect on the next RX burst of every shard.
    pub fn set_trace_sampling(&self, every: u64) {
        self.trace_sampling.store(every, Ordering::Relaxed);
    }

    /// The current flow-trace sampling rate (`0` = hash sampling off).
    pub fn trace_sampling(&self) -> u64 {
        self.trace_sampling.load(Ordering::Relaxed)
    }

    /// Drains every shard's trace ring (in shard order) and returns the
    /// collected spans. The rings are lossy: spans that did not fit are
    /// counted in the `spans_dropped` statistic rather than blocking the
    /// packet path.
    pub fn poll_traces(&self) -> Vec<TraceSpan> {
        let mut out = Vec::new();
        for ports in self.shards.borrow().iter() {
            while let Some(span) = ports.traces.pop() {
                out.push(span);
            }
        }
        out
    }

    /// Merged latency histograms across every shard (live and retired):
    /// end-to-end plus the per-stage breakdown. Snapshotting is lock-free
    /// and sound while the workers keep recording.
    pub fn latency_report(&self) -> LatencyReport {
        let mut merged = LatencyReport::default();
        for ports in self.shards.borrow().iter() {
            merged.merge(&ports.latency.report());
        }
        merged
    }

    /// Drains the cross-layer messages NF replicas have applied since the
    /// last call, in shard order (oldest first within a shard) — the feed
    /// of the SDNFV Application / SDN controller connection. Each shard
    /// holds at most 1024 undrained messages; later ones are still applied
    /// to the flow table but only counted in `nf_messages_dropped`.
    pub fn take_nf_messages(&self) -> Vec<NfManagerMessage> {
        let mut out = Vec::new();
        for ports in self.shards.borrow().iter() {
            out.append(&mut ports.messages.take());
        }
        out
    }

    /// Drains the bucket re-home steps ([`RehomeEvent`]) journaled since
    /// the last call, oldest first — the feed a control-plane flight
    /// recorder replays to reconstruct when each bucket left its old shard
    /// and resumed on the new one.
    pub fn take_rehome_events(&self) -> Vec<RehomeEvent> {
        self.advance_rehoming();
        self.rehome.borrow_mut().take_events()
    }

    /// Drains the shard lifecycle transitions ([`ShardLifecycleEvent`])
    /// that completed since the last call — the feed telemetry consumers
    /// use to grow or prune their per-shard state.
    pub fn take_shard_events(&self) -> Vec<ShardLifecycleEvent> {
        self.advance_rehoming();
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Asks `shard`'s worker to spawn one more replica of `service` running
    /// `nf` (applied between bursts; no stop-the-world). If the shard's
    /// control ring is momentarily full the NF instance is handed back in
    /// `Err` so the caller can retry without re-instantiating it.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn add_nf_replica(
        &self,
        shard: usize,
        service: ServiceId,
        nf: Box<dyn NetworkFunction>,
    ) -> Result<(), Box<dyn NetworkFunction>> {
        if self.shards.borrow()[shard].retired.get() {
            return Err(nf); // tombstoned slot: no worker to apply it
        }
        self.shards.borrow()[shard]
            .control
            .push(ShardCommand::AddNf { service, nf })
            .map_err(|PushError(command)| match command {
                ShardCommand::AddNf { nf, .. } => nf,
                _ => unreachable!("the rejected command is the one we pushed"),
            })
    }

    /// Asks `shard`'s worker to retire one replica of `service`. The
    /// replica stops receiving new packets immediately, drains its queue,
    /// and its thread exits — no packet is lost. The worker refuses to
    /// retire the last replica of a service. Returns `false` if the shard's
    /// control ring is full.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn remove_nf_replica(&self, shard: usize, service: ServiceId) -> bool {
        let shards = self.shards.borrow();
        if shards[shard].retired.get() {
            return false;
        }
        shards[shard]
            .control
            .push(ShardCommand::RemoveNf { service })
            .is_ok()
    }

    /// Asks `shard`'s worker to re-budget its credit gate to `credits`
    /// (clamped to the internal ring capacities). Returns `false` if the
    /// shard is tombstoned or its control ring is full.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn resize_credits(&self, shard: usize, credits: usize) -> bool {
        let shards = self.shards.borrow();
        if shards[shard].retired.get() {
            return false;
        }
        shards[shard]
            .control
            .push(ShardCommand::ResizeCredits { credits })
            .is_ok()
    }

    /// Rebalances flow steering: shard `s` is assigned a share of the
    /// [`STEER_BUCKETS`] hash buckets proportional to `weights[s]`,
    /// moving as few buckets as possible from the current assignment.
    ///
    /// Every moved bucket goes through the state-safe re-home handshake:
    /// the bucket is quiesced (arrivals parked), the old shard drains its
    /// in-flight packets, the bucket's shard-local exact-flow rules are
    /// exported into the new owner's flow-table partition, and only then
    /// does the steering entry flip — no packet and no flow-table state is
    /// lost. Idle buckets complete the handshake immediately; busy ones
    /// finish over subsequent injection/polling calls. Buckets already
    /// mid-re-home are left to finish their current move.
    ///
    /// Returns `false` for single-shard hosts, a weight-count mismatch, an
    /// all-zero weight vector, or while a shard retirement is in progress.
    pub fn set_steering_weights(&self, weights: &[u32]) -> bool {
        self.advance_rehoming();
        let num_shards = self.shards.borrow().len();
        if num_shards <= 1 || weights.len() != num_shards || self.steering.borrow().is_empty() {
            return false;
        }
        if self.rehome.borrow().retiring.is_some() {
            return false;
        }
        // Tombstoned slots can never receive buckets, whatever the caller
        // asked for (an all-tombstone-weighted request degenerates to
        // all-zero and is rejected below).
        let weights: Vec<u32> = {
            let shards = self.shards.borrow();
            weights
                .iter()
                .enumerate()
                .map(|(s, &w)| if shards[s].retired.get() { 0 } else { w })
                .collect()
        };
        let buckets = self.steering.borrow().len();
        let Some(target) = apportion_targets(&weights, buckets) else {
            return false;
        };
        self.rebalance_to_targets(&target);
        true
    }

    /// Moves buckets (via the re-home handshake) until each shard owns
    /// `target[shard]` buckets, taking as few buckets as possible from
    /// over-quota shards. Buckets already mid-move are skipped; their
    /// destination counts toward its shard's quota.
    fn rebalance_to_targets(&self, target: &[usize]) {
        let steering = self.steering.borrow();
        let mut state = self.rehome.borrow_mut();
        state.ensure_parked_table(steering.len());
        let buckets = steering.len();
        // Effective ownership: a mid-move bucket already belongs to its
        // destination.
        let mut current = vec![0usize; target.len()];
        for (bucket, &owner) in steering.iter().enumerate() {
            let effective = state
                .moves
                .iter()
                .find(|m| m.bucket == bucket)
                .map(|m| m.to)
                .unwrap_or(owner);
            current[effective] += 1;
        }
        // Over-quota shards give up their highest-index (non-moving)
        // buckets, under-quota shards absorb them in order.
        let mut freed: Vec<usize> = Vec::new();
        for bucket in (0..buckets).rev() {
            if state.is_parked(bucket) {
                continue;
            }
            let owner = steering[bucket];
            if current[owner] > target[owner] {
                current[owner] -= 1;
                freed.push(bucket);
            }
        }
        let mut receiver = 0usize;
        for bucket in freed {
            while current[receiver] >= target[receiver] {
                receiver += 1;
            }
            current[receiver] += 1;
            let from = steering[bucket];
            if from == receiver {
                continue;
            }
            // Every move — even of an already-idle bucket — goes through
            // the phased handshake: the old shard's NFs may hold per-flow
            // state for the bucket's (idle) flows, and collecting it needs
            // a round trip through the shard's worker and NF threads.
            state.begin_move(bucket, from, receiver, self.clock.now_ns());
            // Mirror the parked bit into the shard-visible tracker so shard
            // workers stop timing out the bucket's exact rules while its
            // state is mid-export (an evicted-then-reimported rule would
            // resurrect with a stale timeout clock).
            self.tracker.park(bucket);
        }
    }

    /// Advances every in-progress re-home through the state-complete
    /// handshake (drain → collect NF state → move rules + wildcard
    /// mutations + flip → import NF state → release pen) and finalizes a
    /// shard retirement once its pipeline is empty. Called opportunistically
    /// from injection and polling, so the handshake needs no dedicated
    /// thread.
    fn advance_rehoming(&self) {
        if self.rehome.borrow().is_idle() {
            return;
        }
        let now_ns = self.now_ns();
        let mut state = self.rehome.borrow_mut();
        let mut steering = self.steering.borrow_mut();

        // Phase 1 → 2: batch every freshly quiesced bucket into one
        // NF-state export request per source shard (the control ring is
        // shallow; per-bucket commands would not scale to a rebalance
        // moving hundreds of buckets).
        self.request_exports(&mut state);

        // Phase 2 → 4/5: absorb completed exports — move the flow-table
        // state, flip the steering entries, and queue the NF state for
        // delivery to each destination shard.
        self.absorb_exports(&mut state, &mut steering);

        // Flush queued NF-state deliveries into destination control rings.
        self.flush_import_outbox(&mut state);

        // Phase 5 → 6 → done: release pens whose import was acknowledged.
        let RehomeState {
            moves,
            parked,
            report,
            ..
        } = &mut *state;
        let mut released_ages: Vec<u64> = Vec::new();
        let mut completed: Vec<(usize, usize, usize)> = Vec::new();
        moves.retain_mut(|mv| {
            match &mv.phase {
                MovePhase::Draining | MovePhase::Collecting { .. } => return true,
                MovePhase::Importing { done } => {
                    if !done.load(Ordering::Acquire) {
                        return true;
                    }
                    mv.phase = MovePhase::Releasing;
                }
                MovePhase::Releasing => {}
            }
            // Release the pen into the new shard (in arrival order).
            let shards = self.shards.borrow();
            let ports = &shards[mv.to];
            while let Some((packet, key)) = mv.pen.pop_front() {
                let age_ns = now_ns.saturating_sub(packet.timestamp_ns);
                let frame = IngressFrame {
                    packet,
                    key: Some(key),
                    hash: key.stable_hash(),
                };
                if let Err(frame) = ports.admit(frame) {
                    mv.pen.push_front((frame.packet, key));
                    return true;
                }
                self.tracker.admit(mv.bucket);
                released_ages.push(age_ns);
                // Pen dwell lands in the destination shard's histograms:
                // that is where the packet resumes.
                ports.latency.pen_dwell.record(age_ns);
            }
            parked[mv.bucket] = false;
            self.tracker.unpark(mv.bucket);
            report.buckets_rehomed += 1;
            completed.push((mv.bucket, mv.from, mv.to));
            false
        });
        for age_ns in released_ages {
            state.record_pen_age(age_ns);
        }
        for (bucket, from, to) in completed {
            state.record_event(RehomeEvent {
                at_ns: now_ns,
                bucket,
                from,
                to,
                step: RehomeStep::Completed,
            });
        }
        let retiring_involved = |state: &RehomeState, s: usize| {
            state.moves.iter().any(|m| m.from == s || m.to == s)
                || state.outbound.iter().any(|h| h.from == s)
                || state.outbox.iter().any(|d| d.to == s)
        };
        let still_involved = state
            .retiring
            .as_ref()
            .map(|r| retiring_involved(&state, r.shard));
        if let Some(RetiringShard { shard, stop_sent }) = &mut state.retiring {
            let s = *shard;
            if !*stop_sent && still_involved == Some(false) && !steering.contains(&s) {
                // Every bucket has left the shard and drained: nothing can
                // reach its pipeline any more (its gate may transiently
                // hold credits for egress-staged packets, which the worker
                // releases as it flushes). Stop its worker (which retires
                // the shard's NF threads in turn).
                self.shards.borrow()[s].stop.store(true, Ordering::Release);
                *stop_sent = true;
            }
            if *stop_sent {
                let finished = self.handles.borrow()[s]
                    .as_ref()
                    .is_some_and(TaskHandle::is_finished);
                let egress_empty = self.shards.borrow()[s].egress.is_empty();
                if finished && egress_empty {
                    if let Some(handle) = self.handles.borrow_mut()[s].take() {
                        handle.join();
                    }
                    self.shards.borrow()[s].retired.set(true);
                    // Reap trailing tombstones: a tail retirement (and any
                    // middle tombstones it uncovers) fully releases its
                    // slots, partitions included. Middle tombstones keep
                    // their slot — indices stay stable — until reuse.
                    loop {
                        let trailing_retired = {
                            let shards = self.shards.borrow();
                            shards.len() > 1 && shards.last().is_some_and(|p| p.retired.get())
                        };
                        if !trailing_retired {
                            break;
                        }
                        self.shards.borrow_mut().pop();
                        self.handles.borrow_mut().pop();
                        self.tables.remove_last_partition();
                    }
                    self.events.borrow_mut().push(ShardLifecycleEvent::Retired {
                        shard: s,
                        at_ns: self.clock.now_ns(),
                    });
                    state.retiring = None;
                }
            }
        }
    }

    /// Batches every quiesced [`MovePhase::Draining`] bucket into one
    /// NF-state export command per source shard and advances those moves to
    /// [`MovePhase::Collecting`]. A full control ring simply leaves the
    /// moves in `Draining` for the next advance tick.
    fn request_exports(&self, state: &mut RehomeState) {
        let mut by_source: Vec<(usize, Vec<usize>)> = Vec::new();
        for mv in &state.moves {
            if !matches!(mv.phase, MovePhase::Draining) {
                continue;
            }
            if self.tracker.in_flight(mv.bucket) > 0 {
                continue;
            }
            match by_source.iter_mut().find(|(from, _)| *from == mv.from) {
                Some((_, buckets)) => buckets.push(mv.bucket),
                None => by_source.push((mv.from, vec![mv.bucket])),
            }
        }
        for (from, buckets) in by_source {
            // The buckets' flows discoverable from the partition: its exact
            // entries. NF replicas add their own key sets on top.
            let exact_keys: Vec<FlowKey> = self.tables.shard(from).with_read(|table| {
                table
                    .exact_rules()
                    .map(|(_, (_, key), _)| key)
                    .filter(|key| buckets.contains(&self.tracker.bucket_of(key)))
                    .collect()
            });
            let id = state.allocate_export_id();
            let pushed = self.shards.borrow()[from]
                .control
                .push(ShardCommand::ExportBucketState {
                    id,
                    buckets: buckets.clone(),
                    exact_keys,
                })
                .is_ok();
            if !pushed {
                continue; // retry next tick; the moves stay Draining
            }
            for mv in state.moves.iter_mut() {
                if buckets.contains(&mv.bucket) {
                    mv.phase = MovePhase::Collecting { id };
                }
            }
        }
        // Cross-host handouts: one export request per quiesced bucket (its
        // state is *extracted* into a portable bundle at absorb time, not
        // moved to a sibling partition, so handouts never share an export
        // id with local moves).
        let quiesced: Vec<(usize, usize)> = state
            .outbound
            .iter()
            .filter(|h| matches!(h.phase, HandoutPhase::Draining))
            .filter(|h| self.tracker.in_flight(h.bucket) == 0)
            .map(|h| (h.from, h.bucket))
            .collect();
        for (from, bucket) in quiesced {
            let exact_keys: Vec<FlowKey> = self.tables.shard(from).with_read(|table| {
                table
                    .exact_rules()
                    .map(|(_, (_, key), _)| key)
                    .filter(|key| self.tracker.bucket_of(key) == bucket)
                    .collect()
            });
            let id = state.allocate_export_id();
            let pushed = self.shards.borrow()[from]
                .control
                .push(ShardCommand::ExportBucketState {
                    id,
                    buckets: vec![bucket],
                    exact_keys,
                })
                .is_ok();
            if !pushed {
                continue; // retry next tick; the handout stays Draining
            }
            if let Some(handout) = state.outbound_for_bucket_mut(bucket) {
                handout.phase = HandoutPhase::Collecting { id };
            }
        }
    }

    /// Drains every shard's export ring. For each completed export: moves
    /// the covered buckets' flow-table state (exact rules + wildcard
    /// mutations), flips their steering entries, and queues their NF flow
    /// state for delivery to the destination shards (one
    /// [`ImportDelivery`] per destination, its `done` flag shared with the
    /// covered moves' [`MovePhase::Importing`] phases).
    fn absorb_exports(&self, state: &mut RehomeState, steering: &mut [usize]) {
        let mut exports: Vec<BucketStateExport> = Vec::new();
        {
            let shards = self.shards.borrow();
            for ports in shards.iter() {
                while let Some(export) = ports.exports.pop() {
                    exports.push(export);
                }
            }
        }
        let RehomeState {
            moves,
            outbound,
            outbox,
            report,
            ..
        } = state;
        for export in exports {
            let BucketStateExport { id, states } = export;
            // A cross-host handout's export covers exactly its bucket:
            // extract the bucket's flow-table state out of the source
            // partition, bundle it with the collected NF flow state, and
            // mark the handout ready for the federation to collect. The
            // bucket stays parked (pen absorbing arrivals) until the
            // federation confirms the destination host's import.
            if let Some(handout) = outbound
                .iter_mut()
                .find(|h| matches!(h.phase, HandoutPhase::Collecting { id: got } if got == id))
            {
                let table_state =
                    self.tables
                        .extract_bucket_state(handout.from, handout.bucket, |key| {
                            self.tracker.bucket_of(key) == handout.bucket
                        });
                report.wildcard_conflicts += table_state.conflicts_at_source as u64;
                let nf_states: Vec<(ServiceId, FlowKey, NfFlowState)> = states
                    .iter()
                    .filter(|(_, key, _)| self.tracker.bucket_of(key) == handout.bucket)
                    .cloned()
                    .collect();
                handout.bundle = Some(BucketHandout {
                    bucket: handout.bucket,
                    table_state,
                    nf_states,
                });
                handout.phase = HandoutPhase::Ready;
                continue;
            }
            // The moves this export covers, grouped by destination shard.
            let mut destinations: Vec<(usize, Vec<usize>)> = Vec::new();
            for mv in moves
                .iter_mut()
                .filter(|mv| matches!(mv.phase, MovePhase::Collecting { id: got } if got == id))
            {
                let moved = self
                    .tables
                    .move_bucket_state(mv.from, mv.to, mv.bucket, |key| {
                        self.tracker.bucket_of(key) == mv.bucket
                    });
                report.rules_rehomed += moved.exact_rules as u64;
                report.wildcard_mutations_rehomed += moved.wildcard_mutations as u64;
                report.wildcard_conflicts += moved.wildcard_conflicts as u64;
                steering[mv.bucket] = mv.to;
                match destinations.iter_mut().find(|(to, _)| *to == mv.to) {
                    Some((_, buckets)) => buckets.push(mv.bucket),
                    None => destinations.push((mv.to, vec![mv.bucket])),
                }
            }
            for (to, buckets) in destinations {
                let bucket_states: Vec<(ServiceId, FlowKey, NfFlowState)> = states
                    .iter()
                    .filter(|(_, key, _)| buckets.contains(&self.tracker.bucket_of(key)))
                    .cloned()
                    .collect();
                let done = Arc::new(AtomicBool::new(bucket_states.is_empty()));
                if !bucket_states.is_empty() {
                    report.nf_flow_states_rehomed += bucket_states.len() as u64;
                    outbox.push(ImportDelivery {
                        to,
                        states: bucket_states,
                        done: Arc::clone(&done),
                    });
                }
                for mv in moves.iter_mut().filter(|mv| {
                    buckets.contains(&mv.bucket)
                        && matches!(mv.phase, MovePhase::Collecting { id: got } if got == id)
                }) {
                    mv.phase = MovePhase::Importing {
                        done: Arc::clone(&done),
                    };
                }
            }
        }
    }

    /// Pushes queued NF-state deliveries into their destination shards'
    /// control rings (a full ring leaves the delivery queued for the next
    /// tick; its moves wait in [`MovePhase::Importing`] meanwhile).
    fn flush_import_outbox(&self, state: &mut RehomeState) {
        let shards = self.shards.borrow();
        state.outbox.retain_mut(|delivery| {
            let command = ShardCommand::ImportBucketState {
                states: std::mem::take(&mut delivery.states),
                done: Arc::clone(&delivery.done),
            };
            match shards[delivery.to].control.push(command) {
                Ok(()) => false,
                Err(PushError(ShardCommand::ImportBucketState { states, .. })) => {
                    delivery.states = states;
                    true
                }
                Err(PushError(_)) => unreachable!("the rejected command is the one we pushed"),
            }
        });
    }

    /// Spawns a complete new pipeline shard — worker thread, the given NF
    /// replica set, ingress/egress/control/telemetry rings, a credit gate
    /// and a flow-table partition forked from the template — while traffic
    /// flows, then re-homes a fair (uniform) share of steering buckets onto
    /// it through the state-safe drain handshake. Returns the new shard's
    /// index.
    ///
    /// Fails (handing the NF set back) while a shard retirement is in
    /// progress, or if the host steers by plain modulo (≥
    /// [`STEER_BUCKETS`] shards), where bucket re-homing is unavailable.
    #[allow(clippy::type_complexity)]
    pub fn spawn_shard(
        &self,
        nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    ) -> Result<usize, Vec<(ServiceId, Box<dyn NetworkFunction>)>> {
        self.advance_rehoming();
        if self.rehome.borrow().retiring.is_some() {
            return Err(nfs);
        }
        // Reuse the lowest tombstoned slot left by a middle-shard
        // retirement, if any (its flow-table partition is re-forked from
        // the template; the slot's cumulative stats counters carry over);
        // otherwise append a new slot.
        let reused = self
            .shards
            .borrow()
            .iter()
            .position(|ports| ports.retired.get());
        let shard = match reused {
            Some(slot) => slot,
            None => self.shards.borrow().len(),
        };
        if reused.is_none() && shard + 1 >= STEER_BUCKETS {
            return Err(nfs);
        }
        {
            // A host started single-shard has no steering table yet; build
            // the identity assignment (everything on shard 0) so the
            // rebalance below can carve out the new shard's share.
            let mut steering = self.steering.borrow_mut();
            if steering.is_empty() {
                debug_assert_eq!(shard, 1, "only single-shard hosts lack a table");
                *steering = vec![0; STEER_BUCKETS];
            }
        }
        match reused {
            Some(slot) => self.tables.reset_partition(slot),
            None => {
                let partition = self.tables.add_partition();
                debug_assert_eq!(partition, shard, "partitions track shards");
            }
        }
        let (ports, handle) = launch_pipeline(
            shard,
            nfs,
            self.tables.shard(shard),
            self.tables.mutation_log(shard),
            self.stats.ensure_shard(shard),
            &self.running,
            &self.tracker,
            self.clock.clone(),
            &self.config,
            self.credit_capacity,
            &self.runtime,
            &self.trace_sampling,
        );
        match reused {
            Some(slot) => {
                self.shards.borrow_mut()[slot] = ports;
                self.handles.borrow_mut()[slot] = Some(handle);
            }
            None => {
                self.shards.borrow_mut().push(ports);
                self.handles.borrow_mut().push(Some(handle));
            }
        }
        self.events.borrow_mut().push(ShardLifecycleEvent::Spawned {
            shard,
            at_ns: self.clock.now_ns(),
        });
        // Give every live shard (including the new one) a uniform bucket
        // share; tombstoned slots get none.
        let weights: Vec<u32> = {
            let shards = self.shards.borrow();
            shards.iter().map(|p| u32::from(!p.retired.get())).collect()
        };
        let buckets = self.steering.borrow().len();
        if let Some(target) = apportion_targets(&weights, buckets) {
            self.rebalance_to_targets(&target);
        }
        self.advance_rehoming();
        Ok(shard)
    }

    /// Begins retiring the highest-index **live** shard: every steering
    /// bucket it owns is re-homed onto the remaining shards through the
    /// drain handshake (shard-local exact-flow rules travel along), then
    /// the shard's worker and NF threads are stopped and joined and its
    /// rings reclaimed. The retirement completes asynchronously over
    /// subsequent injection/polling calls; [`ThreadedHost::num_shards`]
    /// drops and a [`ShardLifecycleEvent::Retired`] is published when it
    /// does. Equivalent to [`ThreadedHost::retire_shard_at`] on that shard.
    ///
    /// Returns `false` for single-shard hosts, while another retirement or
    /// a move involving the shard is still in progress, or on hosts that
    /// steer by plain modulo.
    pub fn retire_shard(&self) -> bool {
        let highest_live = self.shards.borrow().iter().rposition(|p| !p.retired.get());
        match highest_live {
            Some(shard) => self.retire_shard_at(shard),
            None => false,
        }
    }

    /// Begins retiring **any** live shard, not just the highest-index one:
    /// every steering bucket it owns is re-homed onto the remaining live
    /// shards through the drain handshake, then its worker and NF threads
    /// are stopped and joined. A retired middle slot becomes a tombstone —
    /// it keeps its index so steering entries, per-slot stats and telemetry
    /// attribution stay valid — and is reused by the next
    /// [`ThreadedHost::spawn_shard`] (or reaped once it becomes the
    /// trailing slot). The retirement completes asynchronously over
    /// subsequent injection/polling calls;
    /// [`ThreadedHost::num_live_shards`] drops and a
    /// [`ShardLifecycleEvent::Retired`] is published when it does.
    ///
    /// Returns `false` if `shard` is out of range or already tombstoned, if
    /// it is the only live shard, while another retirement or a move
    /// involving the shard is in progress, or on hosts that steer by plain
    /// modulo.
    pub fn retire_shard_at(&self, shard: usize) -> bool {
        self.advance_rehoming();
        if !self.is_live_shard(shard) || self.num_live_shards() <= 1 {
            return false;
        }
        if self.steering.borrow().is_empty() {
            return false;
        }
        {
            let state = self.rehome.borrow();
            if state.retiring.is_some() || state.shard_has_moves(shard) {
                return false;
            }
        }
        // Spread the retiring shard's buckets uniformly over the surviving
        // live shards; tombstoned slots get none.
        let weights: Vec<u32> = {
            let shards = self.shards.borrow();
            shards
                .iter()
                .enumerate()
                .map(|(s, p)| u32::from(s != shard && !p.retired.get()))
                .collect()
        };
        let buckets = self.steering.borrow().len();
        let Some(target) = apportion_targets(&weights, buckets) else {
            return false;
        };
        self.rebalance_to_targets(&target);
        self.rehome.borrow_mut().retiring = Some(RetiringShard {
            shard,
            stop_sent: false,
        });
        self.advance_rehoming();
        true
    }

    /// The shard that owns `bucket` under the current steering table
    /// (shard 0 on hosts without a table: single shard, or plain-modulo
    /// steering).
    pub fn shard_of_bucket(&self, bucket: usize) -> usize {
        let steering = self.steering.borrow();
        if steering.is_empty() {
            0
        } else {
            steering[bucket % steering.len()]
        }
    }

    /// Begins handing `bucket`'s entire serving state out of this host —
    /// the source half of a **cross-host** re-home. The bucket is parked
    /// (arrivals pen, exactly as for a local move), its owning shard
    /// drains, and once quiesced the bucket's exact-flow rules, attributed
    /// wildcard mutations and NF per-flow state are extracted into a
    /// portable [`BucketHandout`]. The federation collects the bundle with
    /// [`ThreadedHost::take_ready_handouts`], delivers it to the adopting
    /// host's [`ThreadedHost::absorb_bucket_handout`], and — once the
    /// import is acknowledged — calls
    /// [`ThreadedHost::finish_bucket_handout`] here to reclaim the pen.
    ///
    /// Returns `false` if the bucket is already mid-move or mid-handout.
    pub fn begin_bucket_handout(&self, bucket: usize) -> bool {
        self.advance_rehoming();
        let from = self.shard_of_bucket(bucket);
        {
            let buckets = {
                let steering = self.steering.borrow();
                if steering.is_empty() {
                    STEER_BUCKETS
                } else {
                    steering.len()
                }
            };
            let mut state = self.rehome.borrow_mut();
            state.ensure_parked_table(buckets);
            if state.is_parked(bucket) {
                return false;
            }
            state.begin_handout(bucket, from, self.clock.now_ns());
        }
        self.tracker.park(bucket);
        self.advance_rehoming();
        true
    }

    /// Collects every handout whose bundle is assembled (drain complete,
    /// state extracted). Each returned [`BucketHandout`] is on its way to
    /// another host; its bucket stays parked here — pen absorbing stray
    /// arrivals — until [`ThreadedHost::finish_bucket_handout`].
    pub fn take_ready_handouts(&self) -> Vec<BucketHandout> {
        self.advance_rehoming();
        let mut state = self.rehome.borrow_mut();
        let mut ready = Vec::new();
        for handout in state.outbound.iter_mut() {
            if matches!(handout.phase, HandoutPhase::Ready) {
                if let Some(bundle) = handout.bundle.take() {
                    handout.phase = HandoutPhase::AwaitingRelease;
                    ready.push(bundle);
                }
            }
        }
        ready
    }

    /// Completes a cross-host handout after the destination host
    /// acknowledged its import: unparks the bucket and returns the pen —
    /// every packet that arrived mid-handout, with its parsed key, in
    /// arrival order — for the federation to forward to the bucket's new
    /// host. Returns an empty pen if no handout of `bucket` is awaiting
    /// release.
    pub fn finish_bucket_handout(&self, bucket: usize) -> Vec<(Packet, FlowKey)> {
        let now_ns = self.now_ns();
        let mut state = self.rehome.borrow_mut();
        let Some(position) = state
            .outbound
            .iter()
            .position(|h| h.bucket == bucket && matches!(h.phase, HandoutPhase::AwaitingRelease))
        else {
            return Vec::new();
        };
        let handout = state.outbound.swap_remove(position);
        state.parked[bucket] = false;
        self.tracker.unpark(bucket);
        state.report.buckets_handed_off += 1;
        for (packet, _) in &handout.pen {
            state.record_pen_age(now_ns.saturating_sub(packet.timestamp_ns));
        }
        state.record_event(RehomeEvent {
            at_ns: now_ns,
            bucket,
            from: handout.from,
            to: handout.from,
            step: RehomeStep::Completed,
        });
        handout.pen.into_iter().collect()
    }

    /// Adopts a bucket handed out by another host — the destination half of
    /// a cross-host re-home. The bundle's exact rules and wildcard-mutation
    /// records are absorbed into the partition of the shard that owns the
    /// bucket here (replay skips records this host already superseded:
    /// last-writer-wins by mutation sequence), and its NF flow state is
    /// queued for import into that shard's replicas. Returns the import
    /// acknowledgement flag: once it reads `true`, every replica holds its
    /// share of the state and the federation may release the source host's
    /// pen into this host.
    pub fn absorb_bucket_handout(&self, handout: &BucketHandout) -> Arc<AtomicBool> {
        let to = self.shard_of_bucket(handout.bucket);
        let moved = self.tables.absorb_bucket_state(to, &handout.table_state);
        let done = {
            let mut state = self.rehome.borrow_mut();
            state.report.rules_rehomed += moved.exact_rules as u64;
            state.report.wildcard_mutations_rehomed += moved.wildcard_mutations as u64;
            state.report.wildcard_conflicts += moved.wildcard_conflicts as u64;
            state.report.buckets_adopted += 1;
            let done = Arc::new(AtomicBool::new(handout.nf_states.is_empty()));
            if !handout.nf_states.is_empty() {
                state.report.nf_flow_states_rehomed += handout.nf_states.len() as u64;
                state.outbox.push(ImportDelivery {
                    to,
                    states: handout.nf_states.clone(),
                    done: Arc::clone(&done),
                });
            }
            done
        };
        self.advance_rehoming();
        done
    }

    /// Raises the floor of this host's wildcard-mutation sequence counter.
    /// A federation assigns each host a disjoint sequence range (host index
    /// in the high bits) so that mutation records carried across hosts by
    /// bucket handouts never collide, and local mutations made *after* an
    /// adoption always supersede the carried ones.
    pub fn raise_mutation_seq_floor(&self, floor: u64) {
        self.tables.raise_seq_floor(floor);
    }

    /// Whether a shard retirement is still in progress.
    pub fn is_retiring(&self) -> bool {
        self.rehome.borrow().retiring.is_some()
    }

    /// Number of steering buckets currently mid-re-home (local moves plus
    /// outbound cross-host handouts).
    pub fn pending_rehomes(&self) -> usize {
        let state = self.rehome.borrow();
        state.moves.len() + state.outbound.len()
    }

    /// Cumulative re-home activity (buckets and rules moved, packets
    /// penned) — the observability hook the `shard_rehome` bench asserts
    /// on.
    pub fn rehome_report(&self) -> RehomeReport {
        self.rehome.borrow().report
    }

    /// The current bucket → shard steering assignment (empty when the host
    /// steers by plain modulo: single shard, or ≥ [`STEER_BUCKETS`]
    /// shards).
    pub fn steering_table(&self) -> Vec<usize> {
        self.steering.borrow().clone()
    }

    /// Stops all threads and waits for them to exit.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ThreadedHost {
    fn drop(&mut self) {
        self.running.store(false, Ordering::Release);
        for handle in self.handles.borrow_mut().drain(..).flatten() {
            handle.join();
        }
    }
}

/// The host's own telemetry feed — the pristine [`TelemetrySource`] the
/// elastic control loop observes in production. The deterministic
/// simulation harness wraps this same host in a fault-injecting source
/// instead; the control loop cannot tell the difference.
impl TelemetrySource for &ThreadedHost {
    fn take_shard_events(&mut self) -> Vec<ShardLifecycleEvent> {
        ThreadedHost::take_shard_events(self)
    }

    fn poll_snapshots(&mut self) -> Vec<TelemetrySnapshot> {
        self.poll_telemetry()
    }
}

/// Largest-remainder apportionment of `buckets` bucket slots over weighted
/// shards; `None` if the weights sum to zero.
pub(super) fn apportion_targets(weights: &[u32], buckets: usize) -> Option<Vec<usize>> {
    let total: u64 = weights.iter().map(|w| u64::from(*w)).sum();
    if total == 0 {
        return None;
    }
    let num_shards = weights.len();
    let mut target = vec![0usize; num_shards];
    let mut remainder = vec![0u64; num_shards];
    let mut assigned = 0usize;
    for shard in 0..num_shards {
        let exact = buckets as u64 * u64::from(weights[shard]);
        target[shard] = (exact / total) as usize;
        remainder[shard] = exact % total;
        assigned += target[shard];
    }
    let mut order: Vec<usize> = (0..num_shards).collect();
    order.sort_by(|a, b| remainder[*b].cmp(&remainder[*a]).then(a.cmp(b)));
    for shard in order.iter().take(buckets - assigned) {
        target[*shard] += 1;
    }
    Some(target)
}

/// Builds and starts one shard's full pipeline: its rings, credit gate and
/// worker thread (which spawns the shard's NF threads). Shared by
/// `start_sharded` and mid-run [`ThreadedHost::spawn_shard`].
#[allow(clippy::too_many_arguments)]
fn launch_pipeline(
    shard: usize,
    initial_nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    table: SharedFlowTable,
    mutation_log: Arc<MutationLog>,
    stats: ShardStats,
    running: &Arc<AtomicBool>,
    tracker: &Arc<BucketTracker>,
    clock: HostClock,
    config: &ThreadedHostConfig,
    credit_capacity: usize,
    runtime: &PipelineRuntime,
    trace_sampling: &Arc<AtomicU64>,
) -> (ShardPorts, TaskHandle) {
    let gate = Arc::new(CreditGate::new(credit_capacity));
    let stop = Arc::new(AtomicBool::new(false));
    let latency = Arc::new(ShardLatency::default());
    let messages = Arc::new(NfMessageQueue::default());

    let (ingress_tx, ingress_rx) = spsc_ring::<IngressFrame>(config.ingress_capacity);
    let (egress_tx, egress_rx) = spsc_ring::<HostOutput>(config.egress_capacity);
    let (control_tx, control_rx) = spsc_ring::<ShardCommand>(CONTROL_RING_CAPACITY);
    let (telemetry_tx, telemetry_rx) = spsc_ring::<TelemetrySnapshot>(16);
    let (exports_tx, exports_rx) = spsc_ring::<BucketStateExport>(16);
    let (traces_tx, traces_rx) = spsc_ring::<TraceSpan>(config.trace_ring_capacity);

    let spawner: Box<dyn ReplicaSpawner> = match runtime {
        PipelineRuntime::Threads => Box::new(ThreadSpawner),
        PipelineRuntime::Sim(registry) => Box::new(crate::sim::SimSpawner::new(registry)),
    };
    let engine = ShardEngine {
        shard,
        initial_nfs,
        started: false,
        phase: EnginePhase::Running,
        slots: Vec::new(),
        service_instances: HashMap::new(),
        replica_dispatch: config.replica_dispatch,
        egress: egress_tx,
        gate: Arc::clone(&gate),
        table,
        mutation_log,
        stats: stats.clone(),
        running: Arc::clone(running),
        stop: Arc::clone(&stop),
        tracker: Arc::clone(tracker),
        enable_cache: config.enable_lookup_cache,
        burst_size: config.burst_size,
        nf_ring_capacity: config.nf_ring_capacity,
        credit_clamp: config.nf_ring_capacity.min(config.ingress_capacity),
        ordering: config.rehome_ordering,
        clock,
        spawner,
        cache: Some(LookupCache::new(LOOKUP_CACHE_ENTRIES)),
        staging: BurstStaging::new(0, config.burst_size),
        targets: Vec::new(),
        verdicts: Vec::new(),
        rx_burst: Vec::with_capacity(config.burst_size),
        done_burst: Vec::with_capacity(config.burst_size),
        control: control_rx,
        telemetry: telemetry_tx,
        exports: exports_tx,
        export_backlog: std::collections::VecDeque::new(),
        pending_collects: Vec::new(),
        pending_imports: Vec::new(),
        pending_handoffs: Vec::new(),
        state_token: 0,
        telemetry_interval_ns: config.telemetry_interval_ns,
        last_telemetry_ns: 0,
        telemetry_check: 0,
        telemetry_seq: 0,
        rule_sweep_interval_ns: config.rule_sweep_interval_ns,
        last_sweep_ns: 0,
        sweep_check: 0,
        approx_now_ns: 0,
        // Half the sweep period: a cached decision survives at most one
        // sweep interval before the table is consulted again, so idle
        // timers keep refreshing under cache-hit traffic.
        cache_ttl_ns: config.rule_sweep_interval_ns / 2,
        pin_timeouts: PinTimeouts {
            idle_ns: config.pin_idle_timeout_ns,
            hard_ns: None,
        },
        applied_commands: 0,
        draining: 0,
        retired_slots: 0,
        latency: Arc::clone(&latency),
        traces: traces_tx,
        trace_sampling: Arc::clone(trace_sampling),
        messages: Arc::clone(&messages),
    };
    let handle = match runtime {
        PipelineRuntime::Threads => {
            TaskHandle::Thread(std::thread::spawn(move || engine.run(ingress_rx)))
        }
        PipelineRuntime::Sim(registry) => {
            TaskHandle::Sim(crate::sim::register_worker(registry, engine, ingress_rx))
        }
    };

    (
        ShardPorts {
            ingress: ingress_tx,
            egress: egress_rx,
            gate,
            control: control_tx,
            telemetry: telemetry_rx,
            exports: exports_rx,
            stats,
            stop,
            traces: traces_rx,
            latency,
            messages,
            retired: Cell::new(false),
        },
        handle,
    )
}
