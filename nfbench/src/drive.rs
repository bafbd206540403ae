//! The generator: one thread that offers a workload's packets to a
//! threaded host through its public inject/egress API and checks every
//! packet that comes back.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use sdnfv_dataplane::{SimActorKind, SimHandle, ThreadedHost};
use sdnfv_proto::Packet;

use crate::check::Ledger;
use crate::spans::{SpanToken, Tracer};
use crate::workload::{Generator, Kind, Workload, FLAP_EVERY_PACKETS, FLAP_WEIGHTS};

/// Packets per `inject_burst` call (the host's burst size).
pub const BURST: usize = 32;
/// Most packets asked of `poll_egress_burst` per pass.
const POLL: usize = 256;
/// Most generated-but-unadmitted packets the open loop holds; later due
/// packets are generated when room frees up and keep their due time.
const MAX_BACKLOG: usize = 4096;
/// How often a traced run samples telemetry and table sizes.
const SAMPLE_EVERY_NS: u64 = 1_000_000;
/// How long the drain at the end of a phase may take before the packets
/// still outstanding count as lost.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// What a traced run samples from the host between passes.
#[derive(Default)]
pub struct Samples {
    /// Telemetry snapshots seen.
    pub snapshots: u64,
    /// Sum of their ingress-ring depths.
    pub ingress_depth_sum: u64,
    /// NF entries across those snapshots.
    pub nf_entries: u64,
    /// Sum of their NF input-ring depths.
    pub nf_input_depth_sum: u64,
    /// Largest flow-table size seen on any shard.
    pub rules_live_peak: usize,
    next_at_ns: u64,
}

/// Time spent in `SimHandle::step`, by actor kind, on a step-driven host.
#[derive(Default)]
pub struct EngineTimes {
    /// Summed step time of shard-worker actors.
    pub worker_ns: u64,
    /// Summed step time of NF-replica actors.
    pub nf_ns: u64,
    /// Steps taken.
    pub steps: u64,
    /// Steps that did no work.
    pub idle_steps: u64,
}

/// The generator state for one host.
pub struct Driver<'a> {
    host: &'a ThreadedHost,
    generator: &'a Generator,
    workload: Workload,
    /// The exactly-once ledger.
    pub ledger: Ledger,
    epoch: Instant,
    next_seq: u64,
    pending: VecDeque<Packet>,
    passes: u64,
    /// Latency samples (due time → egress), ns, of the packets offered
    /// by recording open-loop phases.
    pub latencies_ns: Vec<u64>,
    /// Generator lateness (generation − due time), ns, of the same
    /// packets.
    pub lags_ns: Vec<u64>,
    /// Correct deliveries so far.
    pub delivered: u64,
    next_flip_seq: u64,
    /// Steering-weight flips made (`rehome_flap`).
    pub flips: u64,
    /// Spans, when the run is traced.
    pub tracer: Option<Tracer>,
    /// Host samples, when the run is traced.
    pub samples: Samples,
    /// The step handle, when the host is step-driven: every pass then
    /// steps each actor once.
    sim: Option<&'a SimHandle>,
    actors: Vec<(u64, SimActorKind)>,
    /// Step times, when the host is step-driven.
    pub engine: EngineTimes,
}

impl<'a> Driver<'a> {
    /// A driver for `host`, with an empty ledger.
    pub fn new(host: &'a ThreadedHost, generator: &'a Generator, workload: Workload) -> Self {
        Driver {
            host,
            generator,
            workload,
            ledger: Ledger::new(),
            epoch: Instant::now(),
            next_seq: 0,
            pending: VecDeque::new(),
            passes: 0,
            latencies_ns: Vec::new(),
            lags_ns: Vec::new(),
            delivered: 0,
            next_flip_seq: FLAP_EVERY_PACKETS,
            flips: 0,
            tracer: None,
            samples: Samples::default(),
            sim: None,
            actors: Vec::new(),
            engine: EngineTimes::default(),
        }
    }

    /// Drives a host started with `ThreadedHost::start_sim_sharded`: each
    /// pass steps every actor once, timing the step and advancing the
    /// virtual clock by the wall time it took, so timers fire at real
    /// rates.
    pub fn step_with(&mut self, sim: &'a SimHandle) {
        self.sim = Some(sim);
    }

    /// Steps every actor once; returns whether any did work.
    fn step_actors(&mut self, sim: &SimHandle) -> bool {
        // The first worker steps spawn the NF replicas; re-list now and
        // then in case the actor set changed.
        if self.passes < 4 || self.passes.is_multiple_of(1024) {
            self.actors = sim
                .actors()
                .into_iter()
                .filter(|a| !a.finished)
                .map(|a| (a.id, a.kind))
                .collect();
        }
        let mut worked = false;
        for &(id, kind) in &self.actors {
            let start = Instant::now();
            let did_work = sim.step(id);
            let elapsed = start.elapsed().as_nanos() as u64;
            sim.advance_clock_ns(elapsed);
            match kind {
                SimActorKind::Worker => self.engine.worker_ns += elapsed,
                SimActorKind::Nf => self.engine.nf_ns += elapsed,
            }
            self.engine.steps += 1;
            self.engine.idle_steps += u64::from(!did_work);
            worked |= did_work;
        }
        worked
    }

    /// Wall time since the driver was created: phase lengths and
    /// throughput windows.
    fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The host's time: due times and latencies. The
    /// wall clock for a threaded host, the virtual clock for a step-driven
    /// one.
    fn clock_ns(&self) -> u64 {
        match self.sim {
            Some(sim) => sim.now_ns(),
            None => self.wall_ns(),
        }
    }

    fn enter(&mut self, name: &'static str) -> Option<SpanToken> {
        let burst = self.passes;
        self.tracer.as_mut().map(|t| t.enter(name, burst))
    }

    fn exit(&mut self, token: Option<SpanToken>, count: u64) {
        if let (Some(tracer), Some(token)) = (self.tracer.as_mut(), token) {
            tracer.exit(token, count);
        }
    }

    /// Generates packet `next_seq`, due at `due_ns`, into the backlog.
    fn offer_next(&mut self, due_ns: u64, now_ns: u64, timed: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ledger.offer(seq, due_ns, timed);
        if timed {
            self.lags_ns.push(now_ns.saturating_sub(due_ns));
        }
        self.pending.push_back(self.generator.packet(seq));
    }

    /// One generator pass: offer up to a burst, poll egress, check what
    /// came out. Returns whether anything moved.
    fn pass(&mut self) -> bool {
        self.passes += 1;
        let pass = self.enter("gen.pass");
        let mut moved = false;
        if !self.pending.is_empty() {
            let take = self.pending.len().min(BURST);
            let burst: Vec<Packet> = self.pending.drain(..take).collect();
            let span = self.enter("host.inject_burst");
            let outcome = self.host.inject_burst(burst);
            self.exit(span, outcome.admitted as u64);
            moved |= outcome.admitted > 0;
            for packet in outcome.throttled.into_iter().rev() {
                self.pending.push_front(packet);
            }
        }
        if let Some(sim) = self.sim {
            moved |= self.step_actors(sim);
        }
        let span = self.enter("host.poll_egress_burst");
        let outputs = self.host.poll_egress_burst(POLL);
        self.exit(span, outputs.len() as u64);
        moved |= !outputs.is_empty();
        let now_ns = self.clock_ns();
        let span = self.enter("gen.check");
        for out in &outputs {
            if let Some((due_ns, timed)) = self.ledger.deliver(self.generator, out) {
                self.delivered += 1;
                if timed {
                    self.latencies_ns.push(now_ns.saturating_sub(due_ns));
                }
            }
        }
        self.exit(span, outputs.len() as u64);
        if self.workload.kind == Kind::Flap && self.next_seq >= self.next_flip_seq {
            let weights = FLAP_WEIGHTS[(self.flips % 2) as usize];
            if self.host.set_steering_weights(&weights) {
                self.flips += 1;
            }
            self.next_flip_seq += FLAP_EVERY_PACKETS;
        }
        if self.tracer.is_some() && now_ns >= self.samples.next_at_ns {
            self.sample(now_ns);
        }
        self.exit(pass, outputs.len() as u64);
        if !moved && self.sim.is_none() {
            std::thread::yield_now();
        }
        moved
    }

    fn sample(&mut self, now_ns: u64) {
        let samples = &mut self.samples;
        samples.next_at_ns = now_ns + SAMPLE_EVERY_NS;
        for snapshot in self.host.poll_telemetry() {
            samples.snapshots += 1;
            samples.ingress_depth_sum += snapshot.ingress_depth as u64;
            for nf in &snapshot.nfs {
                samples.nf_entries += 1;
                samples.nf_input_depth_sum += nf.input_depth as u64;
            }
        }
        for shard in 0..self.host.num_shards() {
            if self.host.is_live_shard(shard) {
                let rules = self.host.shard_table(shard).len();
                samples.rules_live_peak = samples.rules_live_peak.max(rules);
            }
        }
    }

    /// Offers packet `next_seq` alone and waits for it to egress — the
    /// set-up probe. Returns whether it came back correct.
    pub fn probe(&mut self) -> bool {
        let now_ns = self.clock_ns();
        self.offer_next(now_ns, now_ns, false);
        let before = self.delivered;
        self.drain(DRAIN_TIMEOUT);
        self.delivered == before + 1
    }

    /// Open loop at `rate_pps` for `duration` of wall time: packet `k` of
    /// the phase is due `k / rate` after the phase starts on the host's
    /// clock, whatever the host does. A step-driven host that has gone
    /// idle skips its virtual clock ahead to the next due time. When
    /// `record`, every packet of the phase gives a latency and a lag
    /// sample. Ends once the phase's packets have drained.
    pub fn open_loop(&mut self, rate_pps: f64, duration: Duration, record: bool) {
        let end_ns = self.wall_ns() + duration.as_nanos() as u64;
        let start_ns = self.clock_ns();
        let first = self.next_seq;
        let due = |k: u64| start_ns + (k as f64 * 1e9 / rate_pps) as u64;
        while self.wall_ns() < end_ns {
            let now_ns = self.clock_ns();
            while due(self.next_seq - first) <= now_ns && self.pending.len() < MAX_BACKLOG {
                let due_ns = due(self.next_seq - first);
                self.offer_next(due_ns, now_ns, record);
            }
            let moved = self.pass();
            if let Some(sim) = self.sim {
                let next_due = due(self.next_seq - first);
                let now_ns = sim.now_ns();
                if !moved && self.pending.is_empty() && next_due > now_ns {
                    sim.advance_clock_ns(next_due - now_ns);
                }
            }
        }
        self.drain(DRAIN_TIMEOUT);
    }

    /// Closed loop on credits for `duration`: the backlog always holds a
    /// burst, so every shard's credit budget stays full. Returns the rate
    /// of correct deliveries in each `window`. Ends once the phase's
    /// packets have drained.
    pub fn saturate(&mut self, duration: Duration, window: Duration) -> Vec<f64> {
        let start_ns = self.wall_ns();
        let end_ns = start_ns + duration.as_nanos() as u64;
        let window_ns = window.as_nanos() as u64;
        let mut rates = Vec::new();
        let mut window_end = start_ns + window_ns;
        let mut window_base = self.delivered;
        loop {
            let now_ns = self.wall_ns();
            if now_ns >= window_end {
                let elapsed = (now_ns - (window_end - window_ns)) as f64 / 1e9;
                rates.push((self.delivered - window_base) as f64 / elapsed);
                window_base = self.delivered;
                window_end = now_ns + window_ns;
            }
            if now_ns >= end_ns {
                break;
            }
            let span = self.enter("gen.make");
            let mut made = 0;
            let clock_ns = self.clock_ns();
            while self.pending.len() < BURST {
                self.offer_next(clock_ns, clock_ns, false);
                made += 1;
            }
            self.exit(span, made);
            self.pass();
        }
        self.drain(DRAIN_TIMEOUT);
        rates
    }

    /// Stops offering, flushes the backlog and polls until nothing is
    /// outstanding or `timeout` passes.
    pub fn drain(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while (self.ledger.outstanding() > 0 || !self.pending.is_empty())
            && Instant::now() < deadline
        {
            self.pass();
        }
    }

    /// Waits (polling) until no bucket is mid-re-home and every shard's
    /// credits are back, or `timeout` passes.
    pub fn settle(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let settled = |host: &ThreadedHost| {
            host.pending_rehomes() == 0
                && (0..host.num_shards()).all(|s| {
                    !host.is_live_shard(s) || host.available_credits(s) == host.credit_budget(s)
                })
        };
        while !settled(self.host) && Instant::now() < deadline {
            self.pass();
        }
    }
}
