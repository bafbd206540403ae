//! The NF Manager: one host's packet path behind a call-and-return API.
//!
//! [`NfManager`] is a thin facade over a one-shard [`ThreadedHost`] started
//! with [`ThreadedHost::start_sim_sharded`]. The shard worker and the NF
//! replicas are the shipping shard and NF engines — the same state
//! machines the threaded runtime spins — stepped on the calling thread
//! under a virtual clock. A `process_*` call:
//!
//! 1. advances the clock to `max(now, now_ns)`;
//! 2. injects the packets (a throttled packet is retried once the host has
//!    run to idle);
//! 3. steps every actor until none does any work, then drains egress;
//! 4. reports transmitted packets from egress, and drops and punts from the
//!    shard's counters.
//!
//! Everything is deterministic, which is what the discrete-event simulators
//! and most tests need, and the paper-figure benches that drive this facade
//! measure the code that ships: the host has one packet path.

use sdnfv_flowtable::{FlowRule, RuleId, ServiceId, SharedFlowTable};
use sdnfv_graph::{CompileOptions, ServiceGraph};
use sdnfv_nf::NetworkFunction;
use sdnfv_proto::packet::Port;
use sdnfv_proto::Packet;

use crate::messages::NfManagerMessage;
use crate::runtime::{ThreadedHost, ThreadedHostConfig};
use crate::sim::SimHandle;
use crate::stats::HostStats;

/// What happened to a packet handed to [`NfManager::process_packet`] or
/// [`NfManager::process_burst`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketOutcome {
    /// The packet left the host through the given NIC port.
    Transmitted {
        /// Egress port.
        port: Port,
        /// The (possibly rewritten) packet.
        packet: Packet,
    },
    /// The packet was dropped: by an NF verdict or a drop rule, because it
    /// was unparseable, because its next service has no replica, because a
    /// rule cycle used up its budget of 64 NF rounds, or because a parallel
    /// rule naming one service twice overflowed that service's ring.
    Dropped,
    /// The packet must go to the SDN controller: the flow table had no rule
    /// for it, or an NF asked for a next hop with no rule to validate it.
    /// The engine does not hand punted frames back, so a caller that
    /// re-injects the packet once the controller answers keeps its own
    /// copy.
    PuntedToController,
}

/// The NF Manager facade over a one-shard, simulation-driven host (see the
/// module docs).
pub struct NfManager {
    host: ThreadedHost,
    sim: SimHandle,
}

impl std::fmt::Debug for NfManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfManager")
            .field("host", &self.host)
            .finish()
    }
}

impl Default for NfManager {
    fn default() -> Self {
        NfManager::new(ThreadedHostConfig::default())
    }
}

impl NfManager {
    /// Starts a manager whose host runs with `config`. The facade always
    /// runs one shard, whatever `config.num_shards` says.
    pub fn new(config: ThreadedHostConfig) -> Self {
        let config = ThreadedHostConfig {
            num_shards: 1,
            ..config
        };
        let (host, sim) =
            ThreadedHost::start_sim_sharded(SharedFlowTable::new(), |_| Vec::new(), config);
        NfManager { host, sim }
    }

    /// Host statistics.
    pub fn stats(&self) -> &HostStats {
        self.host.stats()
    }

    /// Attaches an NF replica implementing `service`. Replicas of one
    /// service share its packets as the host's
    /// [`ReplicaDispatch`](crate::ReplicaDispatch) says (paper §3.3).
    ///
    /// The NF's `on_start` hook runs before this returns; any messages it
    /// emits are applied and queued like messages emitted while processing
    /// packets.
    pub fn add_nf(&mut self, service: ServiceId, nf: Box<dyn NetworkFunction>) {
        let mut nf = nf;
        while let Err(back) = self.host.add_nf_replica(0, service, nf) {
            // The control ring is full: let the worker apply what it holds.
            nf = back;
            self.settle();
        }
        self.settle();
    }

    /// Packets processed by the replicas of `service`, summed.
    pub fn service_invocations(&self, service: ServiceId) -> u64 {
        self.sim
            .actors()
            .iter()
            .filter(|actor| actor.service == Some(service))
            .map(|actor| actor.processed)
            .sum()
    }

    /// Compiles `graph` with `options` and installs the resulting rules.
    pub fn install_graph(&mut self, graph: &ServiceGraph, options: &CompileOptions) {
        for rule in graph.compile(options) {
            self.host.install_rule(rule);
        }
    }

    /// Installs a single rule directly (as the SDN controller would).
    pub fn install_rule(&mut self, rule: FlowRule) -> RuleId {
        self.host.install_rule(rule)
    }

    /// Drains the messages NFs have emitted (and the host has applied)
    /// since the last call; the caller (the SDNFV Application / SDN
    /// controller connection) consumes these.
    pub fn take_messages(&mut self) -> Vec<NfManagerMessage> {
        self.host.take_nf_messages()
    }

    /// Processes one packet to completion through the host.
    pub fn process_packet(&mut self, packet: Packet, now_ns: u64) -> PacketOutcome {
        self.process_burst(vec![packet], now_ns)
            .pop()
            .expect("one outcome per packet")
    }

    /// Processes a burst of packets to completion through the host,
    /// returning one outcome per packet.
    ///
    /// The engine is pipelined, so outcomes come in **completion order**,
    /// not input order: transmitted packets in the order they egressed,
    /// followed by one [`PacketOutcome::Dropped`] per dropped packet and
    /// one [`PacketOutcome::PuntedToController`] per punt (the engine
    /// counts those instead of handing the frames back).
    pub fn process_burst(&mut self, packets: Vec<Packet>, now_ns: u64) -> Vec<PacketOutcome> {
        self.sim
            .advance_clock_ns(now_ns.saturating_sub(self.sim.now_ns()));
        let expected = packets.len();
        let before = self.host.stats().snapshot();
        let mut outcomes = Vec::with_capacity(expected);
        let mut pending = packets;
        while !pending.is_empty() {
            let injection = self.host.inject_burst(pending);
            assert!(
                injection.admitted > 0,
                "an idle host admits at least one packet"
            );
            pending = injection.throttled;
            self.run_to_idle(&mut outcomes);
        }
        let after = self.host.stats().snapshot();
        let dropped = after.dropped + after.overflow_drops - before.dropped - before.overflow_drops;
        let punted = after.controller_punts - before.controller_punts;
        outcomes.extend(std::iter::repeat_n(
            PacketOutcome::Dropped,
            dropped as usize,
        ));
        outcomes.extend(std::iter::repeat_n(
            PacketOutcome::PuntedToController,
            punted as usize,
        ));
        debug_assert_eq!(outcomes.len(), expected, "one outcome per packet");
        outcomes
    }

    /// Steps the host to idle and drains egress into `outcomes`, until a
    /// drain frees nothing more (a full egress ring parks packets in the
    /// worker until the host polls it).
    fn run_to_idle(&mut self, outcomes: &mut Vec<PacketOutcome>) {
        loop {
            self.settle();
            let egress = self.host.poll_egress_burst(usize::MAX);
            if egress.is_empty() {
                return;
            }
            outcomes.extend(egress.into_iter().map(|out| PacketOutcome::Transmitted {
                port: out.port,
                packet: out.packet,
            }));
        }
    }

    /// Steps every actor until none does any work.
    fn settle(&self) {
        while self.sim.step_all() > 0 {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{ReplicaDispatch, MAX_CHAIN_HOPS};
    use sdnfv_flowtable::{Action, FlowMatch, RulePort};
    use sdnfv_graph::catalog;
    use sdnfv_nf::nfs::{ComputeNf, FirewallNf, FirewallRule, NoOpNf, SamplerNf, ScrubberNf};
    use sdnfv_nf::{NfContext, NfMessage, Verdict};
    use sdnfv_proto::packet::PacketBuilder;

    fn udp_packet(src_port: u16) -> Packet {
        PacketBuilder::udp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([10, 9, 9, 9])
            .src_port(src_port)
            .dst_port(80)
            .ingress_port(0)
            .build()
    }

    fn parallel(enable_parallel: bool) -> CompileOptions {
        CompileOptions {
            ingress_ports: vec![0],
            egress_port: 1,
            enable_parallel,
            ..CompileOptions::default()
        }
    }

    /// source -> noop chain of `n` services -> port 1.
    fn chain_manager(n: usize, enable_parallel: bool) -> NfManager {
        let names: Vec<(String, bool)> = (0..n).map(|i| (format!("nf{i}"), true)).collect();
        let refs: Vec<(&str, bool)> = names.iter().map(|(s, ro)| (s.as_str(), *ro)).collect();
        let (graph, ids) = catalog::chain(&refs);
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &parallel(enable_parallel));
        for id in ids {
            manager.add_nf(id, Box::new(NoOpNf::new()));
        }
        manager
    }

    #[test]
    fn empty_table_punts_to_controller() {
        let mut manager = NfManager::default();
        assert_eq!(
            manager.process_packet(udp_packet(1), 0),
            PacketOutcome::PuntedToController
        );
        assert_eq!(manager.stats().snapshot().controller_punts, 1);
    }

    #[test]
    fn sequential_chain_transmits() {
        let mut manager = chain_manager(3, false);
        match manager.process_packet(udp_packet(1), 0) {
            PacketOutcome::Transmitted { port, .. } => assert_eq!(port, 1),
            other => panic!("expected transmit, got {other:?}"),
        }
        let snap = manager.stats().snapshot();
        assert_eq!(snap.nf_invocations, 3);
        assert_eq!(snap.transmitted, 1);
        assert_eq!(snap.parallel_dispatches, 0);
    }

    #[test]
    fn parallel_chain_transmits_with_one_dispatch() {
        let mut manager = chain_manager(3, true);
        match manager.process_packet(udp_packet(1), 0) {
            PacketOutcome::Transmitted { port, .. } => assert_eq!(port, 1),
            other => panic!("expected transmit, got {other:?}"),
        }
        let snap = manager.stats().snapshot();
        assert_eq!(snap.nf_invocations, 3);
        assert_eq!(snap.parallel_dispatches, 1);
    }

    #[test]
    fn firewall_discard_drops_packet() {
        let (graph, ids) = catalog::chain(&[("firewall", true)]);
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(ids[0], Box::new(FirewallNf::deny_by_default()));
        assert_eq!(
            manager.process_packet(udp_packet(5), 0),
            PacketOutcome::Dropped
        );
        assert_eq!(manager.stats().snapshot().dropped, 1);
    }

    #[test]
    fn nf_steering_respects_allowed_edges() {
        // Graph: sampler may send to the DDoS detector (an allowed edge).
        let (graph, svcs) = catalog::anomaly_detection();
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(svcs.firewall, Box::new(NoOpNf::new()));
        // Sample every packet so traffic goes to the DDoS/IDS path.
        manager.add_nf(svcs.sampler, Box::new(SamplerNf::per_packet(svcs.ddos, 1)));
        manager.add_nf(svcs.ddos, Box::new(NoOpNf::new()));
        manager.add_nf(svcs.ids, Box::new(NoOpNf::new()));
        manager.add_nf(svcs.scrubber, Box::new(ScrubberNf::new()));
        match manager.process_packet(udp_packet(7), 0) {
            PacketOutcome::Transmitted { port, .. } => assert_eq!(port, 1),
            other => panic!("expected transmit, got {other:?}"),
        }
        // firewall, sampler, ddos, ids all ran; scrubber did not (clean pkt).
        assert_eq!(manager.service_invocations(svcs.scrubber), 0);
        assert_eq!(manager.service_invocations(svcs.ddos), 1);
    }

    #[test]
    fn missing_nf_instance_drops() {
        // The chain's second service never gets a replica: packets reaching
        // it are dropped.
        let (graph, ids) = catalog::chain(&[("nf0", true), ("nf1", true)]);
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(ids[0], Box::new(NoOpNf::new()));
        assert_eq!(
            manager.process_packet(udp_packet(9), 0),
            PacketOutcome::Dropped
        );
        assert_eq!(manager.service_invocations(ids[0]), 1);
    }

    /// Packets processed by each replica of `service`, in attach order.
    fn per_replica(manager: &NfManager, service: ServiceId) -> Vec<u64> {
        manager
            .sim
            .actors()
            .iter()
            .filter(|actor| actor.service == Some(service))
            .map(|actor| actor.processed)
            .collect()
    }

    #[test]
    fn load_balances_across_instances() {
        // Flow-sticky dispatch spreads distinct flows over both replicas,
        // inside one burst as well as across scalar calls.
        let (graph, ids) = catalog::chain(&[("worker", true)]);
        let mut manager = NfManager::new(ThreadedHostConfig {
            replica_dispatch: ReplicaDispatch::Sticky,
            ..ThreadedHostConfig::default()
        });
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(ids[0], Box::new(NoOpNf::new()));
        manager.add_nf(ids[0], Box::new(NoOpNf::new()));
        let outcomes = manager.process_burst((0..8).map(udp_packet).collect(), 0);
        assert_eq!(outcomes.len(), 8);
        for port in 8..16 {
            manager.process_packet(udp_packet(port), 0);
        }
        let per_replica = per_replica(&manager, ids[0]);
        assert_eq!(per_replica.len(), 2);
        assert!(per_replica.iter().all(|n| *n > 0), "{per_replica:?}");
        assert_eq!(per_replica.iter().sum::<u64>(), 16);
        assert_eq!(manager.service_invocations(ids[0]), 16);
    }

    #[test]
    fn lookup_cache_counts_hits() {
        // Hit counting itself is covered by the cache's own tests; a host
        // with the cache disabled must still forward.
        let mut manager = NfManager::new(ThreadedHostConfig {
            enable_lookup_cache: false,
            ..ThreadedHostConfig::default()
        });
        let (graph, ids) = catalog::chain(&[("nf0", true)]);
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(ids[0], Box::new(ComputeNf::new(1)));
        for _ in 0..3 {
            assert!(matches!(
                manager.process_packet(udp_packet(1), 0),
                PacketOutcome::Transmitted { .. }
            ));
        }
    }

    /// Sends one `ChangeDefault` at start-up, then forwards by default.
    struct PinToService {
        service: ServiceId,
        next: ServiceId,
    }

    impl NetworkFunction for PinToService {
        fn name(&self) -> &str {
            "pin-to-service"
        }

        fn on_start(&mut self, ctx: &mut NfContext) {
            ctx.send(NfMessage::ChangeDefault {
                flows: FlowMatch::any(),
                service: self.service,
                new_default: Action::ToService(self.next),
            });
        }

        fn process(&mut self, _packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            Verdict::Default
        }
    }

    #[test]
    fn messages_are_applied_and_queued() {
        let (graph, svcs) = catalog::anomaly_detection();
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(svcs.firewall, Box::new(NoOpNf::new()));
        // The sampler sends everything to the DDoS detector (an allowed
        // edge) from its start hook.
        manager.add_nf(
            svcs.sampler,
            Box::new(PinToService {
                service: svcs.sampler,
                next: svcs.ddos,
            }),
        );
        manager.add_nf(svcs.ddos, Box::new(NoOpNf::new()));
        manager.add_nf(svcs.ids, Box::new(NoOpNf::new()));
        assert!(matches!(
            manager.process_packet(udp_packet(1), 0),
            PacketOutcome::Transmitted { .. }
        ));
        assert_eq!(manager.service_invocations(svcs.ddos), 1, "applied");
        let messages = manager.take_messages();
        assert_eq!(messages.len(), 1);
        assert_eq!(messages[0].from, svcs.sampler);
        assert!(manager.take_messages().is_empty());
        assert_eq!(manager.stats().snapshot().nf_messages, 1);
    }

    #[test]
    fn hop_bound_prevents_infinite_loops() {
        // A rule that points a service at itself would loop forever without
        // the hop bound.
        let mut manager = NfManager::default();
        let svc = ServiceId::new(1);
        manager.install_rule(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(svc)],
        ));
        manager.install_rule(FlowRule::new(
            FlowMatch::at_step(svc),
            vec![Action::ToService(svc)],
        ));
        manager.add_nf(svc, Box::new(NoOpNf::new()));
        assert_eq!(
            manager.process_packet(udp_packet(3), 0),
            PacketOutcome::Dropped
        );
        assert_eq!(manager.service_invocations(svc), u64::from(MAX_CHAIN_HOPS));
    }

    /// An outcome reduced to something sortable, for multiset comparison.
    fn outcome_key(outcome: &PacketOutcome) -> (u8, Port, Vec<u8>) {
        match outcome {
            PacketOutcome::Transmitted { port, packet } => (0, *port, packet.data().to_vec()),
            PacketOutcome::Dropped => (1, 0, Vec::new()),
            PacketOutcome::PuntedToController => (2, 0, Vec::new()),
        }
    }

    #[test]
    fn burst_outcomes_match_scalar_outcomes_in_order() {
        // The same traffic through a `process_packet` loop and through one
        // `process_burst` gives the same outcomes (as a multiset: a burst
        // completes in pipeline order) and the same counters, on a
        // sequential chain, a parallel chain, the anomaly-detection graph
        // and the video graph.
        type Build = fn() -> NfManager;
        fn firewall() -> Box<dyn NetworkFunction> {
            Box::new(
                FirewallNf::allow_by_default()
                    .with_rule(FirewallRule::deny(FlowMatch::any().with_src_port(666))),
            )
        }
        let sequential: Build = || {
            let (graph, ids) = catalog::chain(&[("fw", true), ("w", true)]);
            let mut manager = NfManager::default();
            manager.install_graph(&graph, &parallel(false));
            manager.add_nf(ids[0], firewall());
            manager.add_nf(ids[1], Box::new(NoOpNf::new()));
            manager
        };
        let parallel_chain: Build = || {
            let (graph, ids) = catalog::chain(&[("fw", true), ("w", true)]);
            let mut manager = NfManager::default();
            manager.install_graph(&graph, &parallel(true));
            manager.add_nf(ids[0], firewall());
            manager.add_nf(ids[1], Box::new(NoOpNf::new()));
            manager
        };
        let anomaly: Build = || {
            let (graph, svcs) = catalog::anomaly_detection();
            let mut manager = NfManager::default();
            manager.install_graph(&graph, &CompileOptions::default());
            manager.add_nf(svcs.firewall, firewall());
            manager.add_nf(svcs.sampler, Box::new(SamplerNf::per_packet(svcs.ddos, 2)));
            manager.add_nf(svcs.ddos, Box::new(NoOpNf::new()));
            manager.add_nf(svcs.ids, Box::new(NoOpNf::new()));
            manager.add_nf(svcs.scrubber, Box::new(ScrubberNf::new()));
            manager
        };
        let video: Build = || video_manager();
        let packets = || -> Vec<Packet> {
            vec![
                udp_packet(1),
                udp_packet(666), // firewalled
                udp_packet(2),
                Packet::from_bytes(vec![0u8; 8]), // unparseable
                udp_packet(1),                    // repeated flow
                udp_packet(666),
                udp_packet(3),
            ]
        };
        for (name, build) in [
            ("sequential", sequential),
            ("parallel", parallel_chain),
            ("anomaly", anomaly),
            ("video", video),
        ] {
            let mut scalar = build();
            let mut scalar_outcomes: Vec<_> = packets()
                .into_iter()
                .map(|p| outcome_key(&scalar.process_packet(p, 7)))
                .collect();
            let mut batched = build();
            let mut burst_outcomes: Vec<_> = batched
                .process_burst(packets(), 7)
                .iter()
                .map(outcome_key)
                .collect();
            scalar_outcomes.sort();
            burst_outcomes.sort();
            assert_eq!(burst_outcomes, scalar_outcomes, "{name}");
            assert!(burst_outcomes.iter().any(|o| o.0 == 0), "{name} forwards");
            assert_eq!(
                batched.stats().snapshot(),
                scalar.stats().snapshot(),
                "{name}"
            );
        }
    }

    #[test]
    fn parallel_burst_matches_scalar_and_batches_dispatch() {
        // A parallel-heavy graph: the firewall and the worker run as one
        // parallel segment. A burst must give the same outcomes and
        // counters as scalar calls (including conflict resolution when the
        // firewall discards), with one parallel dispatch per packet.
        let build = || {
            let (graph, ids) = catalog::chain(&[("fw", true), ("w", true)]);
            let mut manager = NfManager::default();
            manager.install_graph(&graph, &parallel(true));
            manager.add_nf(
                ids[0],
                Box::new(
                    FirewallNf::allow_by_default()
                        .with_rule(FirewallRule::deny(FlowMatch::any().with_src_port(666))),
                ),
            );
            manager.add_nf(ids[1], Box::new(NoOpNf::new()));
            manager
        };
        let packets = || -> Vec<Packet> {
            vec![
                udp_packet(1),
                udp_packet(666), // discarded by the parallel firewall
                udp_packet(2),
                udp_packet(1), // repeated flow
                udp_packet(666),
                udp_packet(3),
            ]
        };

        let mut scalar = build();
        let mut scalar_outcomes: Vec<_> = packets()
            .into_iter()
            .map(|p| outcome_key(&scalar.process_packet(p, 7)))
            .collect();
        let mut batched = build();
        let mut burst_outcomes: Vec<_> = batched
            .process_burst(packets(), 7)
            .iter()
            .map(outcome_key)
            .collect();
        scalar_outcomes.sort();
        burst_outcomes.sort();
        assert_eq!(burst_outcomes, scalar_outcomes);
        assert_eq!(burst_outcomes.iter().filter(|o| o.0 == 1).count(), 2);

        let scalar_snap = scalar.stats().snapshot();
        let batched_snap = batched.stats().snapshot();
        assert_eq!(batched_snap.parallel_dispatches, 6);
        assert_eq!(batched_snap, scalar_snap);
    }

    #[test]
    fn parallel_burst_load_balances_across_replicas() {
        // Two replicas of each parallel service: the fan-out still picks a
        // replica per packet inside one burst.
        let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
        let mut manager = NfManager::new(ThreadedHostConfig {
            replica_dispatch: ReplicaDispatch::LeastLoaded,
            ..ThreadedHostConfig::default()
        });
        manager.install_graph(&graph, &parallel(true));
        for id in &ids {
            manager.add_nf(*id, Box::new(NoOpNf::new()));
            manager.add_nf(*id, Box::new(NoOpNf::new()));
        }
        let outcomes = manager.process_burst((0..8).map(udp_packet).collect(), 0);
        assert_eq!(outcomes.len(), 8);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, PacketOutcome::Transmitted { .. })));
        for id in &ids {
            assert_eq!(per_replica(&manager, *id), vec![4, 4], "{id}");
        }
        assert_eq!(manager.stats().snapshot().parallel_dispatches, 8);
    }

    #[test]
    fn burst_load_balances_per_packet() {
        // Least-loaded dispatch splits a single burst evenly between two
        // replicas of a sequential service.
        let (graph, ids) = catalog::chain(&[("worker", true)]);
        let mut manager = NfManager::new(ThreadedHostConfig {
            replica_dispatch: ReplicaDispatch::LeastLoaded,
            ..ThreadedHostConfig::default()
        });
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(ids[0], Box::new(NoOpNf::new()));
        manager.add_nf(ids[0], Box::new(NoOpNf::new()));
        let outcomes = manager.process_burst((0..10).map(udp_packet).collect(), 0);
        assert_eq!(outcomes.len(), 10);
        assert_eq!(per_replica(&manager, ids[0]), vec![5, 5]);
    }

    /// The video-optimizer graph with a no-op NF behind every service.
    fn video_manager() -> NfManager {
        let (graph, svcs) = catalog::video_optimizer();
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        for service in [
            svcs.firewall,
            svcs.video_detector,
            svcs.policy_engine,
            svcs.quality_detector,
            svcs.transcoder,
            svcs.cache,
            svcs.shaper,
        ] {
            manager.add_nf(service, Box::new(NoOpNf::new()));
        }
        manager
    }

    #[test]
    fn each_video_service_runs_once_per_packet() {
        // A sequential rule listing several next hops sends the packet to
        // its default only: the transcoder runs, and the cache runs once.
        let (_, svcs) = catalog::video_optimizer();
        let mut manager = video_manager();
        let outcomes = manager.process_burst((0..5).map(udp_packet).collect(), 0);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, PacketOutcome::Transmitted { .. })));
        for service in [
            svcs.firewall,
            svcs.video_detector,
            svcs.policy_engine,
            svcs.quality_detector,
            svcs.transcoder,
            svcs.cache,
            svcs.shaper,
        ] {
            assert_eq!(manager.service_invocations(service), 5, "{service}");
        }
        assert_eq!(manager.stats().snapshot().nf_invocations, 35);
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        let mut manager = chain_manager(1, false);
        assert!(manager.process_burst(Vec::new(), 0).is_empty());
        assert_eq!(manager.stats().snapshot().received, 0);
    }

    #[test]
    fn non_ip_packets_are_dropped() {
        let mut manager = chain_manager(1, false);
        let outcome = manager.process_packet(Packet::from_bytes(vec![0u8; 12]), 0);
        assert_eq!(outcome, PacketOutcome::Dropped);
    }
}
