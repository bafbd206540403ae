use std::collections::HashMap;

use parking_lot::Mutex;

use sdnfv_flowtable::{Action, RulePort, SharedFlowTable};
use sdnfv_nf::{NfContext, Verdict};
use sdnfv_ring::{spsc_ring, Consumer, Producer};
use sdnfv_telemetry::ShardLifecycleEvent;

use super::engine::{parallel_fits, verdict_word, word_verdict, BurstStaging, NfSlot, SlotState};
use super::host::{apportion_targets, REHOME_PEN};
use super::nf::{distinct_buffer_prefix, NfProbe, NfStateChannel};
use super::*;
use sdnfv_flowtable::{FlowMatch, FlowRule};
use sdnfv_graph::{catalog, CompileOptions};
use sdnfv_nf::nfs::{ComputeNf, NoOpNf};
use sdnfv_nf::NfMessage;
use sdnfv_proto::packet::PacketBuilder;
use std::time::{Duration, Instant};

fn packet(src_port: u16) -> Packet {
    PacketBuilder::udp()
        .src_ip([10, 0, 0, 1])
        .dst_ip([10, 0, 0, 2])
        .src_port(src_port)
        .dst_port(80)
        .ingress_port(0)
        .total_size(256)
        .build()
}

fn collect_outputs(host: &ThreadedHost, expected: usize) -> Vec<HostOutput> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut out = Vec::new();
    while out.len() < expected && Instant::now() < deadline {
        let burst = host.poll_egress_burst(64);
        if burst.is_empty() {
            std::thread::yield_now();
        } else {
            out.extend(burst);
        }
    }
    out
}

fn forward_table() -> SharedFlowTable {
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToPort(1)],
    ));
    table
}

/// Drains trace spans until `expected` have arrived (or a 5s deadline
/// passes — workers may still be flushing when the packets egress).
fn collect_spans(host: &ThreadedHost, expected: usize) -> Vec<sdnfv_telemetry::TraceSpan> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut spans = Vec::new();
    while spans.len() < expected && Instant::now() < deadline {
        let batch = host.poll_traces();
        if batch.is_empty() {
            std::thread::yield_now();
        } else {
            spans.extend(batch);
        }
    }
    spans
}

#[test]
fn shard_for_flow_is_stable_and_in_range() {
    let keys: Vec<FlowKey> = (0..64)
        .map(|i| packet(i).flow_key().expect("udp packet"))
        .collect();
    for key in &keys {
        assert_eq!(shard_for_flow(key, 1), 0);
        for shards in [2usize, 3, 4, 8] {
            let shard = shard_for_flow(key, shards);
            assert!(shard < shards);
            assert_eq!(shard, shard_for_flow(key, shards), "deterministic");
        }
    }
    // The hash actually spreads flows: 64 flows over 4 shards should
    // hit more than one shard.
    let distinct: std::collections::HashSet<usize> =
        keys.iter().map(|k| shard_for_flow(k, 4)).collect();
    assert!(distinct.len() > 1, "flows spread over shards");
}

#[test]
fn distinct_buffer_prefix_splits_on_repeated_buffers() {
    let item = |shared: &SharedPacket| WorkItem {
        shared: shared.clone(),
        key: packet(1).flow_key().unwrap(),
        hash: 0,
        exit_service: ServiceId::new(1),
        position: 0,
        traced: false,
        hops: 1,
    };
    let a = SharedPacket::new(packet(1), 2);
    let b = SharedPacket::new(packet(2), 1);
    assert_eq!(distinct_buffer_prefix(&[]), 0);
    assert_eq!(distinct_buffer_prefix(&[item(&a)]), 1);
    // a, b, a: the second `a` must start a new chunk.
    assert_eq!(distinct_buffer_prefix(&[item(&a), item(&b), item(&a)]), 2);
    // a, a: even adjacent repeats split.
    assert_eq!(distinct_buffer_prefix(&[item(&a), item(&a)]), 1);
}

/// Builds an inert NF slot (no thread) plus the handles that keep its
/// rings alive, for testing the staging arithmetic.
fn test_slot(capacity: usize) -> (NfSlot, Consumer<WorkItem>, Producer<DoneItem>) {
    let (ring, input) = spsc_ring::<WorkItem>(capacity);
    let (done_tx, done) = spsc_ring::<DoneItem>(capacity);
    let slot = NfSlot {
        service: ServiceId::new(1),
        ring,
        done,
        probe: Arc::new(NfProbe::default()),
        stop: Arc::new(AtomicBool::new(false)),
        handle: None,
        state: SlotState::Active,
        retired_at: None,
        channel: Arc::new(NfStateChannel::default()),
    };
    (slot, input, done_tx)
}

#[test]
fn parallel_fits_accounts_for_staged_items_and_multiplicity() {
    let (slot_a, _keep_a, _keep_da) = test_slot(2);
    let (slot_b, _keep_b, _keep_db) = test_slot(2);
    let slots = vec![slot_a, slot_b];
    let mut staging = BurstStaging::new(2, 4);
    // Empty staging: both rings take up to two copies.
    assert!(parallel_fits(&staging, &slots, &[0, 1]));
    assert!(parallel_fits(&staging, &slots, &[0, 0]));
    assert!(!parallel_fits(&staging, &slots, &[0, 0, 0]));
    // One item already staged for ring 0 leaves room for one more copy.
    let shared = SharedPacket::new(packet(9), 1);
    staging.per_ring[0].push(WorkItem {
        shared: shared.clone(),
        key: packet(9).flow_key().unwrap(),
        hash: 0,
        exit_service: ServiceId::new(1),
        position: 0,
        traced: false,
        hops: 1,
    });
    assert!(parallel_fits(&staging, &slots, &[0]));
    assert!(!parallel_fits(&staging, &slots, &[0, 0]));
    assert!(parallel_fits(&staging, &slots, &[0, 1]));
}

#[test]
fn verdict_words_round_trip() {
    for verdict in [
        Verdict::Default,
        Verdict::Discard,
        Verdict::ToService(ServiceId::new(0)),
        Verdict::ToService(ServiceId::new(u32::MAX)),
        Verdict::ToPort(0),
        Verdict::ToPort(Port::MAX),
    ] {
        assert_eq!(word_verdict(verdict_word(verdict)), verdict);
    }
    // A descriptor position nobody wrote reads as the default path.
    assert_eq!(word_verdict(0), Verdict::Default);
}

/// A rule naming a service with no active replica on the shard drops
/// the packet as `dropped` (no ring was full) on the sequential first
/// hop, the parallel first hop and a re-dispatch alike. The worker
/// never retires a service's last replica, so `remove_nf_replica`
/// cannot empty a service; a service the shard never started is the
/// same state.
#[test]
fn missing_replica_is_a_drop_on_every_hop() {
    let present = ServiceId::new(1);
    let missing = ServiceId::new(9);
    let nic = RulePort::Nic(0);
    let table = SharedFlowTable::new();
    let on = |step: RulePort, port: u16| FlowMatch::at_step(step).with_src_port(port);
    // Flow 1: sequential first hop to the missing service.
    table.insert(FlowRule::new(on(nic, 1), vec![Action::ToService(missing)]));
    // Flow 2: parallel first hop naming both services.
    table.insert(FlowRule::parallel(
        on(nic, 2),
        vec![Action::ToService(present), Action::ToService(missing)],
    ));
    // Flow 3: reaches the present service, then is re-dispatched to
    // the missing one.
    table.insert(FlowRule::new(on(nic, 3), vec![Action::ToService(present)]));
    table.insert(FlowRule::new(
        on(RulePort::Service(present), 3),
        vec![Action::ToService(missing)],
    ));
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_| vec![(present, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>)],
        ThreadedHostConfig::default(),
    );
    for port in 1..=3 {
        assert!(host.inject(packet(port)).is_admitted());
    }
    while sim.step_all() > 0 {}
    let snap = host.stats().snapshot();
    assert_eq!(snap.received, 3);
    assert_eq!(
        snap.dropped, 3,
        "every hop counts a missing replica as a drop"
    );
    assert_eq!(snap.overflow_drops, 0, "no ring was full");
    assert_eq!(snap.nf_invocations, 1, "only flow 3 reached an NF");
    assert_eq!(host.available_credits(0), host.credit_capacity());
    assert!(host.poll_egress().is_none());
}

#[test]
#[cfg(target_pointer_width = "64")]
fn hop_count_rides_in_padding() {
    assert_eq!(std::mem::size_of::<WorkItem>(), 40);
    assert_eq!(std::mem::size_of::<DoneItem>(), 56);
}

#[test]
fn rule_cycle_drops_at_the_hop_bound() {
    let service = ServiceId::new(1);
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(service)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Service(service)),
        vec![Action::ToService(service)],
    ));
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_| vec![(service, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>)],
        ThreadedHostConfig::default(),
    );
    assert!(host.inject(packet(1)).is_admitted());
    while sim.step_all() > 0 {}
    let snap = host.stats().snapshot();
    assert_eq!(snap.dropped, 1);
    assert_eq!(snap.nf_invocations, u64::from(MAX_CHAIN_HOPS));
    assert_eq!(host.available_credits(0), host.credit_capacity());
    assert!(host.poll_egress().is_none());
}

/// Asks for a fixed next hop on every packet.
struct Steer(Verdict);

impl NetworkFunction for Steer {
    fn name(&self) -> &str {
        "steer"
    }

    fn process(&mut self, _packet: &Packet, _ctx: &mut NfContext) -> Verdict {
        self.0
    }
}

#[test]
fn steering_request_without_a_rule_goes_to_the_controller() {
    let service = ServiceId::new(1);
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(service)],
    ));
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_| {
            vec![(
                service,
                Box::new(Steer(Verdict::ToPort(7))) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig::default(),
    );
    assert!(host.inject(packet(1)).is_admitted());
    while sim.step_all() > 0 {}
    assert!(host.poll_egress().is_none(), "no rule allows port 7");
    let snap = host.stats().snapshot();
    assert_eq!(snap.controller_punts, 1);
    assert_eq!(host.available_credits(0), host.credit_capacity());
}

/// Sends `on_start` custom messages at start-up and one per packet.
struct Chatty {
    on_start: usize,
}

impl NetworkFunction for Chatty {
    fn name(&self) -> &str {
        "chatty"
    }

    fn on_start(&mut self, ctx: &mut NfContext) {
        for i in 0..self.on_start {
            ctx.send(NfMessage::custom("start", i.to_string()));
        }
    }

    fn process(&mut self, _packet: &Packet, ctx: &mut NfContext) -> Verdict {
        ctx.send(NfMessage::custom("packet", "seen"));
        Verdict::Default
    }
}

#[test]
fn take_nf_messages_drains_what_the_replicas_applied() {
    let service = ServiceId::new(1);
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(service)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Service(service)),
        vec![Action::ToPort(1)],
    ));
    let host = ThreadedHost::start(
        table,
        vec![(service, Box::new(Chatty { on_start: 0 }))],
        ThreadedHostConfig::default(),
    );
    for port in 0..3 {
        assert!(host.inject(packet(port)).is_admitted());
    }
    assert_eq!(collect_outputs(&host, 3).len(), 3);
    // A replica queues its messages before handing the packets back.
    let messages = host.take_nf_messages();
    assert_eq!(messages.len(), 3);
    assert!(messages.iter().all(|m| m.from == service));
    assert!(host.take_nf_messages().is_empty());
    assert_eq!(host.stats().snapshot().nf_messages, 3);
    host.shutdown();
}

#[test]
fn nf_message_queue_is_bounded_and_counts_overflow() {
    let service = ServiceId::new(1);
    let (host, sim) = ThreadedHost::start_sim_sharded(
        SharedFlowTable::new(),
        |_| {
            vec![(
                service,
                Box::new(Chatty {
                    on_start: crate::messages::NF_MESSAGE_QUEUE_CAP + 2,
                }) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig::default(),
    );
    while sim.step_all() > 0 {}
    let snap = host.stats().snapshot();
    assert_eq!(
        snap.nf_messages,
        crate::messages::NF_MESSAGE_QUEUE_CAP as u64 + 2
    );
    assert_eq!(snap.nf_messages_dropped, 2);
    assert_eq!(
        host.take_nf_messages().len(),
        crate::messages::NF_MESSAGE_QUEUE_CAP
    );
}

/// Discards the packets of one source port and sends the rest down the
/// default path.
struct DiscardSrcPort(u16);

impl NetworkFunction for DiscardSrcPort {
    fn name(&self) -> &str {
        "discard-src-port"
    }

    fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
        match packet.flow_key() {
            Some(key) if key.src_port == self.0 => Verdict::Discard,
            _ => Verdict::Default,
        }
    }
}

/// A parallel round wider than a descriptor's inline verdict words:
/// on the first hop the descriptor is built with spilled words; on a
/// re-dispatch the one-reader descriptor is replaced by a wider one.
/// The spilled position's verdict (a discard by the fifth NF) decides.
#[test]
fn fan_out_wider_than_the_inline_verdicts() {
    let first = ServiceId::new(1);
    let wide: Vec<ServiceId> = (2..=6).map(ServiceId::new).collect();
    assert!(wide.len() > sdnfv_ring::shared::INLINE_VERDICTS);
    let last = *wide.last().unwrap();
    let to_wide: Vec<Action> = wide.iter().copied().map(Action::ToService).collect();
    let nic = |port: u16| FlowMatch::at_step(RulePort::Nic(0)).with_src_port(port);
    let table = SharedFlowTable::new();
    // Flow 1 reaches the wide round on a re-dispatch, flows 2 and 3 on
    // their first hop; the last wide NF discards flow 3.
    table.insert(FlowRule::new(nic(1), vec![Action::ToService(first)]));
    table.insert(FlowRule::parallel(nic(2), to_wide.clone()));
    table.insert(FlowRule::parallel(nic(3), to_wide.clone()));
    table.insert(FlowRule::parallel(
        FlowMatch::at_step(RulePort::Service(first)),
        to_wide,
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Service(last)),
        vec![Action::ToPort(1)],
    ));
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_| {
            let mut nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> =
                vec![(first, Box::new(NoOpNf::new()))];
            for &service in &wide {
                let nf: Box<dyn NetworkFunction> = if service == last {
                    Box::new(DiscardSrcPort(3))
                } else {
                    Box::new(NoOpNf::new())
                };
                nfs.push((service, nf));
            }
            nfs
        },
        ThreadedHostConfig::default(),
    );
    let sent: Vec<Packet> = (1..=3).map(packet).collect();
    for p in &sent {
        assert!(host.inject(p.clone()).is_admitted());
    }
    while sim.step_all() > 0 {}
    let mut out: Vec<HostOutput> = host.poll_egress_burst(8);
    out.sort_by_key(|o| o.key.src_port);
    let ports: Vec<(u16, Port)> = out.iter().map(|o| (o.key.src_port, o.port)).collect();
    assert_eq!(ports, [(1, 1), (2, 1)], "flow 3 is discarded");
    for (o, p) in out.iter().zip(&sent) {
        assert_eq!(o.packet.data(), p.data(), "egress bytes intact");
    }
    let snap = host.stats().snapshot();
    assert_eq!(snap.dropped, 1);
    assert_eq!(snap.parallel_dispatches, 3);
    assert_eq!(snap.nf_invocations, 1 + 3 * wide.len() as u64);
}

#[test]
fn zero_nf_forwarding() {
    let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
    for i in 0..50 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 50);
    assert_eq!(outputs.len(), 50);
    assert!(outputs.iter().all(|out| out.port == 1));
    let snap = host.stats().snapshot();
    assert_eq!(snap.received, 50);
    assert_eq!(snap.transmitted, 50);
    host.shutdown();
}

#[test]
fn burst_injection_round_trips() {
    let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
    let burst: Vec<Packet> = (0..64).map(packet).collect();
    let outcome = host.inject_burst(burst);
    assert_eq!(outcome.admitted, 64);
    assert!(outcome.throttled.is_empty());
    let outputs = collect_outputs(&host, 64);
    assert_eq!(outputs.len(), 64);
    host.shutdown();
}

#[test]
fn sequential_chain_through_threads() {
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true), ("c", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = ids
        .iter()
        .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
        .collect();
    let host = ThreadedHost::start(table, nfs, ThreadedHostConfig::default());
    for i in 0..100 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 100);
    assert_eq!(outputs.len(), 100);
    let snap = host.stats().snapshot();
    assert_eq!(snap.nf_invocations, 300);
    assert_eq!(snap.transmitted, 100);
    assert_eq!(snap.dropped, 0);
    host.shutdown();
}

#[test]
fn sequential_chain_with_burst_size_one_still_works() {
    // burst_size == 1 degrades to the per-packet runtime.
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = ids
        .iter()
        .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
        .collect();
    let host = ThreadedHost::start(
        table,
        nfs,
        ThreadedHostConfig {
            burst_size: 1,
            ..ThreadedHostConfig::default()
        },
    );
    for i in 0..40 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 40);
    assert_eq!(outputs.len(), 40);
    let snap = host.stats().snapshot();
    assert_eq!(snap.nf_invocations, 80);
    host.shutdown();
}

#[test]
fn parallel_chain_through_threads() {
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions {
        enable_parallel: true,
        ..CompileOptions::default()
    }) {
        table.insert(rule);
    }
    let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = ids
        .iter()
        .map(|id| {
            (
                *id,
                Box::new(ComputeNf::new(10)) as Box<dyn NetworkFunction>,
            )
        })
        .collect();
    let host = ThreadedHost::start(table, nfs, ThreadedHostConfig::default());
    for i in 0..50 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 50);
    assert_eq!(outputs.len(), 50);
    let snap = host.stats().snapshot();
    assert_eq!(snap.parallel_dispatches, 50);
    assert_eq!(snap.nf_invocations, 100);
    host.shutdown();
}

#[test]
fn table_miss_counts_punt() {
    let host = ThreadedHost::start(
        SharedFlowTable::new(),
        vec![],
        ThreadedHostConfig::default(),
    );
    assert!(host.inject(packet(1)).is_admitted());
    let deadline = Instant::now() + Duration::from_secs(2);
    while host.stats().snapshot().controller_punts == 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(host.stats().snapshot().controller_punts, 1);
    host.shutdown();
}

#[test]
fn timestamps_allow_latency_measurement() {
    let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
    assert!(host.inject(packet(1)).is_admitted());
    let outputs = collect_outputs(&host, 1);
    let pkt = &outputs[0].packet;
    let latency = host.now_ns().saturating_sub(pkt.timestamp_ns);
    assert!(latency > 0);
    assert!(latency < 5_000_000_000, "latency should be far below 5s");
    host.shutdown();
}

#[test]
fn sharded_forwarding_spreads_and_preserves_packets() {
    let host = ThreadedHost::start_sharded(
        forward_table(),
        |_shard| vec![],
        ThreadedHostConfig {
            num_shards: 4,
            ..ThreadedHostConfig::default()
        },
    );
    assert_eq!(host.num_shards(), 4);
    let total = 200u16;
    for i in 0..total {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, total as usize);
    assert_eq!(outputs.len(), total as usize);
    // Per-shard received counters sum to the injected total, and the
    // traffic actually spread over more than one shard.
    let per_shard: Vec<u64> = host
        .stats()
        .shard_snapshots()
        .iter()
        .map(|s| s.received)
        .collect();
    assert_eq!(per_shard.iter().sum::<u64>(), u64::from(total));
    assert!(per_shard.iter().filter(|r| **r > 0).count() > 1);
    // Every shard's received count matches the steering function.
    let mut expected = vec![0u64; 4];
    for i in 0..total {
        let key = packet(i).flow_key().unwrap();
        expected[shard_for_flow(&key, 4)] += 1;
    }
    assert_eq!(per_shard, expected);
    host.shutdown();
}

#[test]
fn sharded_chain_runs_one_nf_set_per_shard() {
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| {
            ids.iter()
                .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
                .collect()
        },
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    for i in 0..100 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 100);
    assert_eq!(outputs.len(), 100);
    let snap = host.stats().snapshot();
    assert_eq!(snap.nf_invocations, 200);
    assert_eq!(snap.transmitted, 100);
    host.shutdown();
}

#[test]
fn backpressure_throttles_instead_of_dropping() {
    // A tiny egress ring and credit budget, and nobody draining egress:
    // injection must throttle (handing packets back) instead of
    // silently dropping anywhere in the pipeline.
    let host = ThreadedHost::start(
        forward_table(),
        vec![],
        ThreadedHostConfig {
            egress_capacity: 16,
            shard_credits: 16,
            ..ThreadedHostConfig::default()
        },
    );
    assert_eq!(host.credit_capacity(), 16);
    let mut admitted = 0u64;
    let mut throttled = 0u64;
    for i in 0..200u16 {
        match host.inject(packet(i)) {
            InjectResult::Admitted => admitted += 1,
            InjectResult::Throttled(_) => throttled += 1,
        }
    }
    assert!(throttled > 0, "flood without draining must throttle");
    // Drain everything; every admitted packet comes out.
    let outputs = collect_outputs(&host, admitted as usize);
    assert_eq!(outputs.len() as u64, admitted);
    let snap = host.stats().snapshot();
    assert_eq!(snap.overflow_drops, 0, "no silent drops");
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.transmitted, admitted);
    assert_eq!(snap.throttled, throttled);
    // After the drain every credit is back.
    let deadline = Instant::now() + Duration::from_secs(2);
    while host.available_credits(0) != 16 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(host.available_credits(0), 16);
    host.shutdown();
}

#[test]
fn telemetry_snapshots_flow_without_traffic() {
    let host = ThreadedHost::start(
        forward_table(),
        vec![(
            ServiceId::new(1),
            Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>,
        )],
        ThreadedHostConfig {
            nf_ring_capacity: 64,
            shard_credits: 32,
            telemetry_interval_ns: 100_000,
            ..ThreadedHostConfig::default()
        },
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut snapshots = Vec::new();
    while snapshots.len() < 3 && Instant::now() < deadline {
        snapshots.extend(host.poll_telemetry());
        std::thread::yield_now();
    }
    assert!(snapshots.len() >= 3, "idle host still exports gauges");
    let last = snapshots.last().unwrap();
    assert_eq!(last.shard, 0);
    assert_eq!(last.nfs.len(), 1);
    assert_eq!(last.nfs[0].service, ServiceId::new(1));
    assert_eq!(last.nfs[0].input_capacity, 64);
    assert!(!last.nfs[0].draining);
    assert_eq!(last.credit_capacity, 32);
    assert_eq!(last.credits_in_flight, 0);
    // Sequence numbers are strictly increasing.
    for pair in snapshots.windows(2) {
        assert!(pair[1].seq > pair[0].seq);
    }
    host.shutdown();
}

#[test]
fn telemetry_can_be_disabled() {
    let host = ThreadedHost::start(
        forward_table(),
        vec![],
        ThreadedHostConfig {
            telemetry_interval_ns: 0,
            ..ThreadedHostConfig::default()
        },
    );
    assert!(host.inject(packet(1)).is_admitted());
    let _ = collect_outputs(&host, 1);
    std::thread::sleep(Duration::from_millis(20));
    assert!(host.poll_telemetry().is_empty(), "exporter disabled");
    host.shutdown();
}

#[test]
fn apportion_targets_is_exact_and_weighted() {
    assert_eq!(apportion_targets(&[0, 0], 8), None);
    let uniform = apportion_targets(&[1, 1, 1, 1], 1024).unwrap();
    assert_eq!(uniform, vec![256; 4]);
    let skewed = apportion_targets(&[3, 1], 8).unwrap();
    assert_eq!(skewed.iter().sum::<usize>(), 8);
    assert_eq!(skewed, vec![6, 2]);
    // Remainders are assigned, so the sum always matches.
    let odd = apportion_targets(&[1, 1, 1], 1024).unwrap();
    assert_eq!(odd.iter().sum::<usize>(), 1024);
}

#[test]
fn spawn_shard_grows_single_shard_host_and_spreads_traffic() {
    let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
    assert_eq!(host.num_shards(), 1);
    assert!(host.steering_table().is_empty(), "modulo steering at start");
    let shard = host
        .spawn_shard(vec![])
        .map_err(|_| "spawn refused")
        .expect("spawn on an idle host");
    assert_eq!(shard, 1);
    assert_eq!(host.num_shards(), 2);
    // Even idle buckets go through the phased handshake (their NF state
    // must be collected from the old shard's worker), so the re-home
    // completes over a few advance ticks rather than synchronously.
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.pending_rehomes() > 0 && Instant::now() < deadline {
        let _ = host.poll_egress();
        std::thread::yield_now();
    }
    assert_eq!(host.pending_rehomes(), 0, "idle buckets re-home promptly");
    // The steering table was built and the new shard got a fair share.
    let steering = host.steering_table();
    assert_eq!(steering.len(), STEER_BUCKETS);
    let moved = steering.iter().filter(|owner| **owner == 1).count();
    assert_eq!(moved, STEER_BUCKETS / 2, "uniform share re-homed");
    // Traffic spreads and nothing is lost.
    for i in 0..100 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 100);
    assert_eq!(outputs.len(), 100);
    assert!(host.stats().shard_snapshot(1).received > 0);
    // A lifecycle event announced the spawn.
    let events = host.take_shard_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, ShardLifecycleEvent::Spawned { shard: 1, .. })));
    host.shutdown();
}

#[test]
fn retire_shard_completes_on_idle_host() {
    let host = ThreadedHost::start_sharded(
        forward_table(),
        |_shard| vec![],
        ThreadedHostConfig {
            num_shards: 3,
            ..ThreadedHostConfig::default()
        },
    );
    assert!(host.retire_shard());
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.is_retiring() && Instant::now() < deadline {
        let _ = host.poll_egress();
        std::thread::yield_now();
    }
    assert!(!host.is_retiring());
    assert_eq!(host.num_shards(), 2);
    assert!(
        !host.steering_table().contains(&2),
        "no bucket points at it"
    );
    // Retiring the last shard is refused.
    assert!(host.retire_shard());
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.is_retiring() && Instant::now() < deadline {
        let _ = host.poll_egress();
        std::thread::yield_now();
    }
    assert_eq!(host.num_shards(), 1);
    assert!(!host.retire_shard(), "a single-shard host cannot shrink");
    host.shutdown();
}

#[test]
fn parked_bucket_pens_arrivals_and_bounds_the_pen() {
    let service = ServiceId::new(1);
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(service)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(service),
        vec![Action::ToPort(1)],
    ));
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_| vec![(service, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>)],
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    // Nothing is stepped until the pen is full, so the flow's bucket
    // holds in-flight packets when the rebalance hits it and cannot
    // finish draining.
    let mut admitted = 0;
    for _ in 0..4 {
        assert!(host.inject(packet(7)).is_admitted());
        admitted += 1;
    }
    let victim = host.shard_of(&packet(7));
    let weights: Vec<u32> = (0..2).map(|s| u32::from(s != victim)).collect();
    assert!(host.set_steering_weights(&weights));
    assert!(host.pending_rehomes() > 0, "the busy bucket is mid-move");
    for _ in 0..REHOME_PEN {
        assert!(host.inject(packet(7)).is_admitted(), "the pen accepts");
        admitted += 1;
    }
    assert!(
        host.inject(packet(7)).into_throttled().is_some(),
        "a full pen surfaces as backpressure"
    );
    let report = host.rehome_report();
    assert_eq!(report.packets_penned, REHOME_PEN as u64);
    assert_eq!(report.pen_throttled, 1);
    // Every admitted packet (parked ones included) comes back out.
    let mut egressed = 0;
    for _ in 0..1000 {
        sim.step_all();
        egressed += host.poll_egress_burst(64).len();
        if egressed == admitted && host.pending_rehomes() == 0 {
            break;
        }
    }
    assert_eq!(egressed, admitted);
    assert_eq!(host.pending_rehomes(), 0);
    assert_eq!(host.stats().snapshot().overflow_drops, 0);
}

#[test]
#[should_panic(expected = "per-shard NF factory")]
fn start_rejects_multi_shard_configs() {
    let _ = ThreadedHost::start(
        SharedFlowTable::new(),
        vec![],
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
}

/// A minimal stateful NF for eviction tests: one per-flow packet
/// counter, with a scrub override that logs which keys were reclaimed.
struct FlowStateNf {
    states: HashMap<FlowKey, u64>,
    scrubbed: Arc<Mutex<Vec<FlowKey>>>,
}

impl NetworkFunction for FlowStateNf {
    fn name(&self) -> &str {
        "flow-state"
    }

    fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
        if let Some(key) = packet.flow_key() {
            *self.states.entry(key).or_insert(0) += 1;
        }
        Verdict::Default
    }

    fn export_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
        self.states
            .remove(key)
            .map(|count| NfFlowState::with_counter("packets", count))
    }

    fn scrub_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
        let state = self.export_flow_state(key)?;
        self.scrubbed.lock().push(*key);
        Some(state)
    }

    fn import_flow_state(&mut self, key: &FlowKey, state: NfFlowState) {
        *self.states.entry(*key).or_insert(0) += state.counter("packets").unwrap_or(0);
    }

    fn flow_state_keys(&self) -> Vec<FlowKey> {
        self.states.keys().copied().collect()
    }
}

#[test]
fn idle_eviction_scrubs_nf_state_and_reaches_telemetry() {
    let service = ServiceId::new(1);
    let table = SharedFlowTable::new();
    // Wildcard fallback so the flow keeps forwarding after eviction.
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(service)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(service),
        vec![Action::ToPort(1)],
    ));
    let flow = packet(7).flow_key().unwrap();
    table.insert(
        FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &flow),
            vec![Action::ToService(service)],
        )
        .with_idle_timeout_ns(Some(2_000_000)),
    );
    let scrubbed = Arc::new(Mutex::new(Vec::new()));
    let scrub_log = Arc::clone(&scrubbed);
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        move |_shard| {
            vec![(
                service,
                Box::new(FlowStateNf {
                    states: HashMap::new(),
                    scrubbed: Arc::clone(&scrub_log),
                }) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            rule_sweep_interval_ns: 100_000,
            telemetry_interval_ns: 100_000,
            ..ThreadedHostConfig::default()
        },
    );
    // Phase 1: traffic every 0.5 ms refreshes the 2 ms idle timer —
    // the rule survives 10 ms of such traffic even though most lookups
    // are served by the per-thread cache (its TTL forces periodic
    // table fall-through).
    for _ in 0..20 {
        sim.advance_clock_ns(500_000);
        assert!(host.inject(packet(7)).is_admitted());
        for _ in 0..40 {
            sim.step_all();
        }
        let _ = host.poll_egress_burst(16);
    }
    let snap = host.stats().snapshot();
    assert_eq!(
        snap.rules_evicted_idle + snap.rules_evicted_hard,
        0,
        "traffic refreshes the idle timer"
    );
    // Phase 2: go quiet past the idle timeout. The sweep evicts the
    // rule and the NF's per-flow state for the evicted key is
    // scrubbed.
    sim.advance_clock_ns(5_000_000);
    for _ in 0..200 {
        sim.step_all();
    }
    let snap = host.stats().snapshot();
    assert_eq!(snap.rules_evicted_idle, 1);
    assert_eq!(snap.rules_evicted_hard, 0);
    assert_eq!(snap.nf_state_scrubbed, 1);
    assert_eq!(scrubbed.lock().clone(), vec![flow]);
    // The eviction surfaces on the telemetry bus, where the control
    // plane's hub reads it. Drain the (bounded) telemetry ring of
    // pre-eviction snapshots first, then let a fresh one publish.
    let mut hub = sdnfv_telemetry::TelemetryHub::new();
    hub.absorb(host.poll_telemetry());
    sim.advance_clock_ns(200_000);
    for _ in 0..80 {
        sim.step_all();
    }
    hub.absorb(host.poll_telemetry());
    assert_eq!(hub.total_rules_evicted(), 1);
    assert_eq!(hub.total_nf_state_scrubbed(), 1);
    // The flow still forwards via the wildcard rule — no punt.
    assert!(host.inject(packet(7)).is_admitted());
    for _ in 0..40 {
        sim.step_all();
    }
    assert_eq!(host.poll_egress_burst(16).len(), 1);
    assert_eq!(host.stats().snapshot().controller_punts, 0);
    host.shutdown();
}

#[test]
fn hard_timeout_evicts_under_sustained_traffic() {
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToPort(1)],
    ));
    let flow = packet(9).flow_key().unwrap();
    table.insert(
        FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &flow),
            vec![Action::ToPort(2)],
        )
        .with_hard_timeout_ns(Some(2_000_000)),
    );
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_shard| vec![],
        ThreadedHostConfig {
            rule_sweep_interval_ns: 100_000,
            ..ThreadedHostConfig::default()
        },
    );
    let mut ports = Vec::new();
    for _ in 0..10 {
        sim.advance_clock_ns(500_000);
        assert!(host.inject(packet(9)).is_admitted());
        for _ in 0..40 {
            sim.step_all();
        }
        for out in host.poll_egress_burst(16) {
            ports.push(out.port);
        }
    }
    assert_eq!(ports.len(), 10);
    assert_eq!(ports[0], 2, "exact rule forwarded before the hard cutoff");
    assert_eq!(
        *ports.last().unwrap(),
        1,
        "hard timeout fired despite continuous traffic"
    );
    let snap = host.stats().snapshot();
    assert_eq!(snap.rules_evicted_hard, 1);
    assert_eq!(snap.rules_evicted_idle, 0);
    host.shutdown();
}

#[test]
fn mid_rehome_bucket_defers_eviction_until_move_completes() {
    let service = ServiceId::new(1);
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToPort(1)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(service),
        vec![Action::ToPort(1)],
    ));
    let flow = packet(7).flow_key().unwrap();
    table.insert(
        FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &flow),
            vec![Action::ToService(service)],
        )
        .with_hard_timeout_ns(Some(1_000_000)),
    );
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_shard| vec![(service, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>)],
        ThreadedHostConfig {
            num_shards: 2,
            rule_sweep_interval_ns: 100_000,
            ..ThreadedHostConfig::default()
        },
    );
    let workers: Vec<u64> = sim
        .actors()
        .iter()
        .filter(|a| a.kind == crate::sim::SimActorKind::Worker)
        .map(|a| a.id)
        .collect();
    // Keep the flow's bucket busy: the packet is dispatched into the
    // NF ring (stepping workers only) and sits there, holding the
    // bucket's in-flight count, so the re-home cannot finish draining.
    assert!(host.inject(packet(7)).is_admitted());
    for _ in 0..5 {
        for worker in &workers {
            sim.step(*worker);
        }
    }
    let victim = host.shard_of(&packet(7));
    let weights: Vec<u32> = (0..2).map(|s| u32::from(s != victim as u32)).collect();
    assert!(host.set_steering_weights(&weights));
    assert!(host.pending_rehomes() > 0, "the busy bucket is mid-move");
    // Sail far past the hard timeout while the bucket is parked: the
    // sweep must defer the rule (its state is being exported).
    sim.advance_clock_ns(10_000_000);
    for _ in 0..200 {
        for worker in &workers {
            sim.step(*worker);
        }
    }
    let snap = host.stats().snapshot();
    assert_eq!(
        snap.rules_evicted_idle + snap.rules_evicted_hard,
        0,
        "a mid-re-home bucket's exact rules are protected from eviction"
    );
    // Let the move complete (NFs drain, host advances the handshake).
    for _ in 0..400 {
        sim.step_all();
        let _ = host.poll_egress_burst(64);
        if host.pending_rehomes() == 0 {
            break;
        }
    }
    assert_eq!(host.pending_rehomes(), 0, "re-home completed");
    // Unparked, each partition's copy of the broadcast-installed rule
    // (host installs replicate exact rules to every shard; the move
    // left the destination's pre-existing copy in place) evicts
    // exactly once — and neither copy double-evicts or resurrects.
    sim.advance_clock_ns(10_000_000);
    for _ in 0..200 {
        sim.step_all();
    }
    assert_eq!(host.stats().shard_snapshot(0).rules_evicted_hard, 1);
    assert_eq!(host.stats().shard_snapshot(1).rules_evicted_hard, 1);
    sim.advance_clock_ns(10_000_000);
    for _ in 0..200 {
        sim.step_all();
    }
    assert_eq!(
        host.stats().snapshot().rules_evicted_hard,
        2,
        "evicted rules do not resurrect"
    );
    host.shutdown();
}

#[test]
fn hash_sampling_emits_conserved_spans_and_latency() {
    use sdnfv_telemetry::{SpanVerdict, TraceStage};
    let host = ThreadedHost::start(
        forward_table(),
        vec![],
        ThreadedHostConfig {
            trace_sample_every: 1, // trace every flow
            trace_ring_capacity: 4096,
            ..ThreadedHostConfig::default()
        },
    );
    for i in 0..50 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 50);
    assert_eq!(outputs.len(), 50);
    let spans = collect_spans(&host, 100);
    let snap = host.stats().snapshot();
    assert_eq!(snap.spans_dropped, 0);
    // Fast ToPort path: one RX span and one terminal egress span per
    // admitted packet, nothing else.
    let rx = spans
        .iter()
        .filter(|s| s.stage == TraceStage::Rx && s.verdict == SpanVerdict::Forwarded)
        .count();
    let egress = spans
        .iter()
        .filter(|s| s.stage == TraceStage::Egress && s.verdict == SpanVerdict::Egressed)
        .count();
    assert_eq!(rx, 50);
    assert_eq!(egress, 50);
    assert_eq!(spans.len(), 100);
    // The histograms saw every packet too.
    let latency = host.latency_report();
    assert_eq!(latency.end_to_end.count(), 50);
    assert_eq!(latency.ingress_wait.count(), 50);
    assert_eq!(latency.egress_wait.count(), 50);
    host.shutdown();
}

#[test]
fn rule_miss_emits_punted_span_for_sampled_flows() {
    use sdnfv_telemetry::{SpanVerdict, TraceStage};
    let host = ThreadedHost::start(
        forward_table(),
        vec![],
        ThreadedHostConfig {
            trace_sample_every: 1,
            ..ThreadedHostConfig::default()
        },
    );
    // Ingress port 1 has no rule: the lookup misses and the packet is
    // punted — its trace must still terminate.
    let stray = PacketBuilder::udp()
        .src_ip([10, 0, 0, 9])
        .dst_ip([10, 0, 0, 2])
        .src_port(7)
        .dst_port(80)
        .ingress_port(1)
        .total_size(256)
        .build();
    assert!(host.inject(stray).is_admitted());
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.stats().snapshot().controller_punts == 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let spans = collect_spans(&host, 1);
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].stage, TraceStage::Rx);
    assert_eq!(spans[0].verdict, SpanVerdict::Punted);
    host.shutdown();
}

#[test]
fn trace_pin_rule_traces_unsampled_flows() {
    use sdnfv_telemetry::TraceStage;
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToPort(1)],
    ));
    // A rule-level pin: packets from ingress port 2 are traced even
    // with hash sampling off.
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(2)),
        vec![Action::Trace, Action::ToPort(1)],
    ));
    let host = ThreadedHost::start(
        table,
        vec![],
        ThreadedHostConfig::default(), // trace_sample_every = 0
    );
    assert_eq!(host.trace_sampling(), 0);
    let build = |port: u8, src_port: u16| {
        PacketBuilder::udp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([10, 0, 0, 2])
            .src_port(src_port)
            .dst_port(80)
            .ingress_port(u16::from(port))
            .total_size(256)
            .build()
    };
    for i in 0..10 {
        assert!(host.inject(build(0, 1000 + i)).is_admitted());
        assert!(host.inject(build(2, 2000 + i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 20);
    assert_eq!(outputs.len(), 20);
    // Only the pinned flows (10 packets, RX + egress each) trace.
    let spans = collect_spans(&host, 20);
    assert_eq!(spans.len(), 20);
    assert!(spans.iter().any(|s| s.stage == TraceStage::Egress));
    assert_eq!(host.stats().snapshot().spans_dropped, 0);
    host.shutdown();
}

#[test]
fn trace_ring_overflow_counts_dropped_spans_exactly() {
    let host = ThreadedHost::start(
        forward_table(),
        vec![],
        ThreadedHostConfig {
            trace_sample_every: 1,
            trace_ring_capacity: 4, // deliberately tiny, never drained
            ..ThreadedHostConfig::default()
        },
    );
    for i in 0..100 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 100);
    assert_eq!(outputs.len(), 100);
    // Every admitted packet generated exactly two spans (RX + egress);
    // each either sits in the ring or was counted dropped — no span
    // vanishes unaccounted. Poll until the books balance (workers may
    // still be flushing the last burst when the packets egress).
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut collected = 0u64;
    let mut dropped = host.stats().snapshot().spans_dropped;
    while collected + dropped < 200 && Instant::now() < deadline {
        collected += host.poll_traces().len() as u64;
        dropped = host.stats().snapshot().spans_dropped;
        std::thread::yield_now();
    }
    assert_eq!(collected + dropped, 200);
    assert!(dropped > 0, "a 4-slot ring cannot hold 200 spans");
    host.shutdown();
}

#[test]
fn nf_path_emits_rx_nf_and_egress_spans() {
    use sdnfv_telemetry::{SpanVerdict, TraceStage};
    let (graph, ids) = catalog::chain(&[("a", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = ids
        .iter()
        .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
        .collect();
    let host = ThreadedHost::start(
        table,
        nfs,
        ThreadedHostConfig {
            trace_sample_every: 1,
            trace_ring_capacity: 8192,
            ..ThreadedHostConfig::default()
        },
    );
    for i in 0..30 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    let outputs = collect_outputs(&host, 30);
    assert_eq!(outputs.len(), 30);
    let spans = collect_spans(&host, 90);
    assert_eq!(host.stats().snapshot().spans_dropped, 0);
    let count = |stage: TraceStage| spans.iter().filter(|s| s.stage == stage).count();
    assert_eq!(count(TraceStage::Rx), 30, "one RX span per packet");
    assert_eq!(count(TraceStage::Nf), 30, "one NF span per packet");
    assert_eq!(
        count(TraceStage::Egress),
        30,
        "one terminal span per packet"
    );
    // Exactly one terminal (non-Forwarded) span per packet.
    let terminals = spans
        .iter()
        .filter(|s| s.verdict != SpanVerdict::Forwarded)
        .count();
    assert_eq!(terminals, 30);
    // NF spans carry the service id and a well-ordered burst window.
    for span in spans.iter().filter(|s| s.stage == TraceStage::Nf) {
        assert_eq!(span.service, ids[0].value());
        assert!(span.t_start_ns <= span.t_end_ns);
    }
    // NF service time histogram recorded every invocation.
    assert_eq!(host.latency_report().nf_service.count(), 30);
    host.shutdown();
}

#[test]
fn trace_sampling_knob_is_live() {
    let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
    assert_eq!(host.trace_sampling(), 0);
    for i in 0..20 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    assert_eq!(collect_outputs(&host, 20).len(), 20);
    // Nothing sampled while the knob is off.
    assert!(host.poll_traces().is_empty());
    host.set_trace_sampling(1);
    assert_eq!(host.trace_sampling(), 1);
    for i in 20..40 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    assert_eq!(collect_outputs(&host, 20).len(), 20);
    assert!(
        !collect_spans(&host, 1).is_empty(),
        "knob took effect mid-run"
    );
    host.shutdown();
}

#[test]
fn retire_middle_shard_tombstones_and_reuses_the_slot() {
    let host = ThreadedHost::start_sharded(
        forward_table(),
        |_shard| vec![],
        ThreadedHostConfig {
            num_shards: 3,
            ..ThreadedHostConfig::default()
        },
    );
    assert!(host.retire_shard_at(1), "a middle shard can retire");
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.is_retiring() && Instant::now() < deadline {
        let _ = host.poll_egress();
        std::thread::yield_now();
    }
    assert!(!host.is_retiring());
    // The slot is tombstoned, not reaped: shards 0 and 2 keep their
    // indices, so steering entries and per-shard stats stay valid.
    assert_eq!(host.num_shards(), 3);
    assert_eq!(host.num_live_shards(), 2);
    assert!(!host.is_live_shard(1));
    assert!(host.is_live_shard(2));
    assert!(
        !host.steering_table().contains(&1),
        "no bucket points at the tombstone"
    );
    // Traffic still round-trips losslessly over the two live shards.
    for i in 0..100 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    assert_eq!(collect_outputs(&host, 100).len(), 100);
    assert_eq!(host.stats().snapshot().overflow_drops, 0);
    // A later spawn recycles the tombstone instead of growing the host.
    let slot = host
        .spawn_shard(vec![])
        .map_err(|_| "spawn refused")
        .expect("spawn reuses the tombstone");
    assert_eq!(slot, 1, "the lowest tombstoned slot is reused");
    assert_eq!(host.num_shards(), 3);
    assert_eq!(host.num_live_shards(), 3);
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.pending_rehomes() > 0 && Instant::now() < deadline {
        let _ = host.poll_egress();
        std::thread::yield_now();
    }
    assert_eq!(host.pending_rehomes(), 0);
    assert!(
        host.steering_table().contains(&1),
        "the revived shard serves buckets again"
    );
    for i in 0..100 {
        assert!(host.inject(packet(i)).is_admitted());
    }
    assert_eq!(collect_outputs(&host, 100).len(), 100);
    host.shutdown();
}

/// Records which replica of a service saw which flow, for the
/// dispatch-policy regression below.
struct RecorderNf {
    replica: usize,
    seen: Arc<Mutex<std::collections::HashSet<(usize, u64)>>>,
}

impl NetworkFunction for RecorderNf {
    fn name(&self) -> &str {
        "recorder"
    }

    fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
        if let Some(key) = packet.flow_key() {
            self.seen.lock().insert((self.replica, key.stable_hash()));
        }
        Verdict::Default
    }
}

/// Runs 3 flows x 8 packets through a two-replica service and returns
/// how many distinct (replica, flow) owner pairs appeared — the number
/// of per-flow state copies a stateful NF would have ended up with.
fn replica_owner_pairs(dispatch: ReplicaDispatch) -> usize {
    let service = ServiceId::new(1);
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(service)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(service),
        vec![Action::ToPort(1)],
    ));
    let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
    let log = Arc::clone(&seen);
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        move |_shard| {
            (0..2)
                .map(|replica| {
                    (
                        service,
                        Box::new(RecorderNf {
                            replica,
                            seen: Arc::clone(&log),
                        }) as Box<dyn NetworkFunction>,
                    )
                })
                .collect()
        },
        ThreadedHostConfig {
            replica_dispatch: dispatch,
            ..ThreadedHostConfig::default()
        },
    );
    // One interleaved burst: the whole burst stages before any replica
    // drains, so least-loaded balancing alternates replicas mid-flow.
    let burst: Vec<Packet> = (0..8u16).flat_map(|_| (0..3).map(packet)).collect();
    let outcome = host.inject_burst(burst);
    assert_eq!(outcome.admitted, 24);
    for _ in 0..400 {
        sim.step_all();
    }
    assert_eq!(host.poll_egress_burst(64).len(), 24);
    host.shutdown();
    let owners = seen.lock().len();
    owners
}

#[test]
fn sticky_dispatch_keeps_each_flow_on_one_replica() {
    assert_eq!(
        replica_owner_pairs(ReplicaDispatch::Sticky),
        3,
        "sticky: exactly one state owner per flow"
    );
    assert!(
        replica_owner_pairs(ReplicaDispatch::LeastLoaded) > 3,
        "least-loaded splits a flow's state across replicas"
    );
}

#[test]
fn bucket_handout_carries_rules_and_nf_state_to_another_host() {
    let service = ServiceId::new(1);
    let start_host = |scrubbed: &Arc<Mutex<Vec<FlowKey>>>| {
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(service)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(service),
            vec![Action::ToPort(1)],
        ));
        let log = Arc::clone(scrubbed);
        ThreadedHost::start(
            table,
            vec![(
                service,
                Box::new(FlowStateNf {
                    states: HashMap::new(),
                    scrubbed: log,
                }) as Box<dyn NetworkFunction>,
            )],
            ThreadedHostConfig::default(),
        )
    };
    let scrub_a = Arc::new(Mutex::new(Vec::new()));
    let scrub_b = Arc::new(Mutex::new(Vec::new()));
    let host_a = start_host(&scrub_a);
    let host_b = start_host(&scrub_b);
    // Federated hosts keep disjoint wildcard-mutation sequence ranges.
    host_b.raise_mutation_seq_floor(1 << 32);
    // Build per-flow NF state on A, plus an exact pin for the flow.
    let flow = packet(7).flow_key().unwrap();
    host_a.install_rule(FlowRule::new(
        FlowMatch::exact(RulePort::Nic(0), &flow),
        vec![Action::ToService(service)],
    ));
    for _ in 0..10 {
        assert!(host_a.inject(packet(7)).is_admitted());
    }
    assert_eq!(collect_outputs(&host_a, 10).len(), 10);
    let bucket = (flow.stable_hash() % STEER_BUCKETS as u64) as usize;
    assert!(host_a.begin_bucket_handout(bucket));
    assert!(
        !host_a.begin_bucket_handout(bucket),
        "a bucket mid-handout is refused"
    );
    // Arrivals during the handout are penned, not dropped.
    assert!(host_a.inject(packet(7)).is_admitted());
    // Drive A until the worker has exported the bucket's state bundle.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut handouts = Vec::new();
    while handouts.is_empty() && Instant::now() < deadline {
        handouts = host_a.take_ready_handouts();
        std::thread::yield_now();
    }
    assert_eq!(handouts.len(), 1);
    let handout = &handouts[0];
    assert_eq!(handout.bucket, bucket);
    assert_eq!(handout.table_state.exact_rules.len(), 1, "the pin travels");
    assert_eq!(handout.nf_states.len(), 1, "the NF counter travels");
    // B adopts: the rule installs and the NF state import is acked.
    let done = host_b.absorb_bucket_handout(handout);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done.load(Ordering::Acquire) && Instant::now() < deadline {
        let _ = host_b.poll_egress();
        std::thread::yield_now();
    }
    assert!(done.load(Ordering::Acquire), "import acked");
    // Only now does A release: the penned packet forwards to B.
    let pen = host_a.finish_bucket_handout(bucket);
    assert_eq!(pen.len(), 1);
    for (pkt, _key) in pen {
        assert!(host_b.inject(pkt).is_admitted());
    }
    assert_eq!(collect_outputs(&host_b, 1).len(), 1);
    // The ledgers agree end to end: one bucket moved, nothing lost.
    let sent = host_a.rehome_report();
    assert_eq!(sent.buckets_handed_off, 1);
    assert!(sent.packets_penned >= 1);
    let got = host_b.rehome_report();
    assert_eq!(got.buckets_adopted, 1);
    assert_eq!(got.rules_rehomed, 1);
    assert_eq!(got.nf_flow_states_rehomed, 1);
    assert_eq!(host_a.stats().snapshot().overflow_drops, 0);
    assert_eq!(host_b.stats().snapshot().overflow_drops, 0);
    host_a.shutdown();
    host_b.shutdown();
}
