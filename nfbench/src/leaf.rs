//! Leaf-layer replay: the workload's own packets and rule set pushed
//! through each layer's public functions one layer at a time, so each
//! per-operation cost reflects that workload's mix.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sdnfv_dataplane::cache::cached_lookup;
use sdnfv_dataplane::messages::{apply_nf_message_tracked_with, PinTimeouts};
use sdnfv_dataplane::{resolve_parallel_verdicts, shard_for_flow, LookupCache};
use sdnfv_flowtable::{
    Action, FlowMatch, FlowRule, FlowTable, RulePort, ServiceId, SharedFlowTable,
};
use sdnfv_nf::{NfContext, NfMessage, PacketBatch, Verdict};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::Packet;
use sdnfv_ring::{spsc_ring, CreditGate};

use crate::drive::BURST;
use crate::report::Report;
use crate::workload::{Generator, Kind, Workload, CHURN_PIN_IDLE_NS};

/// Packets replayed: the workload's first sequence numbers.
const PACKETS: u64 = 8192;
/// Entries of the worker's lookup cache (as the host sizes it).
const CACHE_ENTRIES: usize = 4096;

/// Runs `round` until `budget` is spent; returns ns per operation, where
/// one round is `ops` operations.
fn per_op(budget: Duration, ops: usize, mut round: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut rounds = 0usize;
    loop {
        round();
        rounds += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / (rounds * ops.max(1)) as f64
}

/// The workload's replay inputs.
struct Replay {
    workload: Workload,
    packets: Vec<Packet>,
    keys: Vec<FlowKey>,
    /// Whether each packet's flow is flagged (`churn_pins`).
    flagged: Vec<bool>,
    rules: Vec<FlowRule>,
    ids: Vec<ServiceId>,
}

impl Replay {
    fn new(workload: Workload, generator: &Generator) -> Self {
        let packets: Vec<Packet> = (0..PACKETS).map(|seq| generator.packet(seq)).collect();
        let keys = packets
            .iter()
            .map(|p| p.flow_key().expect("generated packets parse"))
            .collect();
        let flagged = (0..PACKETS)
            .map(|seq| generator.is_flagged(generator.flow_of(seq).0))
            .collect();
        let (rules, ids) = workload.rules();
        Replay {
            workload,
            packets,
            keys,
            flagged,
            rules,
            ids,
        }
    }

    fn base_table(&self) -> FlowTable {
        let mut table = FlowTable::new();
        for rule in &self.rules {
            table.insert(rule.clone());
        }
        table
    }

    /// The table lookups the worker makes for packet `i`: at ingress, then
    /// after each dispatch (a parallel dispatch looks up once, at its exit
    /// service).
    fn lookups(&self, i: usize) -> Vec<RulePort> {
        let ids = &self.ids;
        let mut steps = vec![RulePort::Nic(crate::workload::INGRESS_PORT)];
        match self.workload.kind {
            Kind::Seq2 | Kind::Flap => steps.extend(ids.iter().map(|&s| RulePort::Service(s))),
            Kind::Par2 => steps.push(RulePort::Service(ids[ids.len() - 1])),
            Kind::Churn => {
                steps.push(RulePort::Service(ids[0]));
                if self.flagged[i] {
                    steps.push(RulePort::Service(ids[1]));
                }
            }
        }
        steps
    }

    /// The `ChangeDefault` a pinning NF sends for `key`: the IDS's pin to
    /// the scrubber on `churn_pins`; elsewhere a pin of the first NF's own
    /// default path, which leaves forwarding unchanged.
    fn pin_message(&self, table: &FlowTable, key: &FlowKey) -> NfMessage {
        let step = RulePort::Service(self.ids[0]);
        let new_default = match self.workload.kind {
            Kind::Churn => Action::ToService(self.ids[1]),
            Kind::Seq2 | Kind::Par2 | Kind::Flap => table
                .peek(step, key)
                .and_then(FlowRule::default_action)
                .expect("the first NF has a default path"),
        };
        NfMessage::ChangeDefault {
            flows: FlowMatch::exact(step, key),
            service: self.ids[0],
            new_default,
        }
    }

    /// Flows that get pins: the flagged ones on `churn_pins`, every
    /// distinct flow elsewhere.
    fn pinned_keys(&self) -> Vec<FlowKey> {
        let mut keys: Vec<FlowKey> = self
            .keys
            .iter()
            .zip(&self.flagged)
            .filter(|(_, &flagged)| flagged || self.workload.kind != Kind::Churn)
            .map(|(k, _)| *k)
            .collect();
        keys.sort_by_key(|k| k.stable_hash());
        keys.dedup();
        keys
    }

    fn pin_all(&self, table: &mut FlowTable, keys: &[FlowKey], timeouts: PinTimeouts) {
        for key in keys {
            let message = self.pin_message(table, key);
            apply_nf_message_tracked_with(table, self.ids[0], &message, false, timeouts);
        }
    }
}

/// Replays `workload`'s packets through each layer for `budget` in total
/// and adds the per-layer metrics to `report`.
pub fn replay(workload: Workload, generator: &Generator, budget: Duration, report: &mut Report) {
    let r = Replay::new(workload, generator);
    let slice = budget / 14;
    let n = r.packets.len();

    report.metric(
        "proto.parse_ns",
        per_op(slice, n, || {
            for p in &r.packets {
                black_box(black_box(p).flow_key());
            }
        }),
        "ns",
    );
    report.metric(
        "proto.stable_hash_ns",
        per_op(slice, n, || {
            for k in &r.keys {
                black_box(black_box(k).stable_hash());
            }
        }),
        "ns",
    );
    report.metric(
        "dataplane.steer_ns",
        per_op(slice, n, || {
            for k in &r.keys {
                black_box(shard_for_flow(black_box(k), workload.shards));
            }
        }),
        "ns",
    );

    // Classifier: the workload's lookup sequence on its rule set.
    let per_packet: Vec<Vec<RulePort>> = (0..n).map(|i| r.lookups(i)).collect();
    let sequence: Vec<(RulePort, FlowKey)> = per_packet
        .iter()
        .zip(&r.keys)
        .flat_map(|(steps, key)| steps.iter().map(move |s| (*s, *key)))
        .collect();
    let pinned = r.pinned_keys();
    let mut wildcard = r.base_table();
    report.metric(
        "flowtable.lookup_wildcard_ns",
        per_op(slice, sequence.len(), || {
            for (step, key) in &sequence {
                black_box(wildcard.lookup(*step, key));
            }
        }),
        "ns",
    );
    let mut exact = r.base_table();
    r.pin_all(&mut exact, &pinned, PinTimeouts::NONE);
    let pin_step = RulePort::Service(r.ids[0]);
    report.metric(
        "flowtable.lookup_exact_ns",
        per_op(slice, pinned.len(), || {
            for key in &pinned {
                black_box(exact.lookup(pin_step, key));
            }
        }),
        "ns",
    );
    let pin_rules: Vec<FlowRule> = pinned
        .iter()
        .filter_map(|k| exact.exact_rule_id(pin_step, k))
        .filter_map(|id| exact.rule(id).cloned())
        .collect();
    report.metric(
        "flowtable.insert_exact_ns",
        timed_rounds(
            slice,
            pin_rules.len(),
            || r.base_table(),
            |table| {
                for rule in &pin_rules {
                    black_box(table.insert(rule.clone()));
                }
            },
        ),
        "ns",
    );
    let timeouts = PinTimeouts {
        idle_ns: Some(CHURN_PIN_IDLE_NS),
        hard_ns: None,
    };
    let messages: Vec<(FlowKey, NfMessage)> = pinned
        .iter()
        .map(|k| (*k, r.pin_message(&wildcard, k)))
        .collect();
    report.metric(
        "dataplane.apply_message_ns",
        timed_rounds(
            slice,
            messages.len(),
            || r.base_table(),
            |table| {
                for (_, message) in &messages {
                    black_box(apply_nf_message_tracked_with(
                        table, r.ids[0], message, false, timeouts,
                    ));
                }
            },
        ),
        "ns",
    );
    let expiring = || {
        let mut table = r.base_table();
        r.pin_all(&mut table, &pinned, timeouts);
        table.advance_clock(CHURN_PIN_IDLE_NS * 2);
        table
    };
    report.metric(
        "flowtable.sweep_ns_per_evicted",
        timed_rounds(slice, pinned.len(), expiring, |table| {
            while table.sweep(256, |_| false) > 0 {}
            black_box(table.take_evicted());
        }),
        "ns",
    );

    // Lookup cache over shard 0's share of the sequence (each shard's
    // worker has its own cache), with the host's cache size and TTL and
    // shard 0's share of the open-loop packet spacing on a virtual clock.
    let shared = SharedFlowTable::new();
    for rule in &r.rules {
        shared.insert(rule.clone());
    }
    if workload.kind == Kind::Churn {
        shared.with_write(|table| r.pin_all(table, &pinned, timeouts));
    }
    let config = workload.config();
    let ttl_ns = config.rule_sweep_interval_ns / 2;
    let shard0: Vec<(&Vec<RulePort>, &FlowKey)> = per_packet
        .iter()
        .zip(&r.keys)
        .filter(|(_, key)| shard_for_flow(key, workload.shards) == 0)
        .collect();
    let shard0_lookups = shard0.iter().map(|(steps, _)| steps.len()).sum();
    let spacing_ns = (1e9 * workload.shards as f64 / workload.rate_pps) as u64;
    let mut cache = LookupCache::new(CACHE_ENTRIES);
    let mut now_ns = 0u64;
    report.metric(
        "dataplane.cache_get_ns",
        per_op(slice, shard0_lookups, || {
            for &(steps, key) in &shard0 {
                now_ns += spacing_ns;
                for step in steps {
                    black_box(cached_lookup(
                        &shared, &mut cache, true, *step, key, now_ns, ttl_ns,
                    ));
                }
            }
        }),
        "ns",
    );
    let probes = (cache.hits() + cache.misses()).max(1);
    report.metric(
        "dataplane.cache_hit_ratio",
        cache.hits() as f64 / probes as f64,
        "ratio",
    );

    // Rings: one hop is a burst push plus a burst pop.
    let (producer, consumer) = spsc_ring::<Packet>(config.nf_ring_capacity);
    let mut items: Vec<Packet> = r.packets[..BURST].to_vec();
    report.metric(
        "ring.hop_ns_per_item",
        per_op(slice, 1024 * BURST, || {
            for _ in 0..1024 {
                producer.push_n(&mut items);
                consumer.pop_n(&mut items, BURST);
            }
        }),
        "ns",
    );
    let gate = CreditGate::new(config.shard_credits);
    report.metric(
        "ring.credit_ns",
        per_op(slice, 1024, || {
            for _ in 0..1024 {
                if gate.try_acquire(BURST) {
                    gate.release(BURST);
                }
            }
        }),
        "ns",
    );

    // NFs: each burst through the workload's NF instances, in the order
    // the packets would visit them; their verdicts feed the merge replay.
    let mut nfs = workload.nfs(&r.ids);
    let mut ctx = NfContext::new(0);
    let mut merges: Vec<Vec<Verdict>> = Vec::new();
    let nf_per_packet = per_op(slice * 2, n, || {
        merges.clear();
        for burst in r.packets.chunks(BURST) {
            let refs: Vec<&Packet> = burst.iter().collect();
            let batch = PacketBatch::new(&refs);
            let mut first = vec![Verdict::Default; refs.len()];
            nfs[0].1.process_batch(&batch, &mut first, &mut ctx);
            match workload.kind {
                Kind::Seq2 | Kind::Flap => {
                    for (_, nf) in nfs.iter_mut().skip(1) {
                        let mut verdicts = vec![Verdict::Default; refs.len()];
                        nf.process_batch(&batch, &mut verdicts, &mut ctx);
                        merges.extend(verdicts.into_iter().map(|v| vec![v]));
                    }
                    merges.extend(first.into_iter().map(|v| vec![v]));
                }
                Kind::Par2 => {
                    let mut second = vec![Verdict::Default; refs.len()];
                    nfs[1].1.process_batch(&batch, &mut second, &mut ctx);
                    merges.extend(first.into_iter().zip(second).map(|(a, b)| vec![a, b]));
                }
                Kind::Churn => {
                    let to_scrub: Vec<&Packet> = refs
                        .iter()
                        .zip(&first)
                        .filter(|(_, v)| matches!(v, Verdict::ToService(_)))
                        .map(|(p, _)| *p)
                        .collect();
                    let mut scrubbed = vec![Verdict::Default; to_scrub.len()];
                    nfs[1]
                        .1
                        .process_batch(&PacketBatch::new(&to_scrub), &mut scrubbed, &mut ctx);
                    merges.extend(first.into_iter().chain(scrubbed).map(|v| vec![v]));
                }
            }
            black_box(ctx.take_messages());
        }
    });
    report.metric("nf.invoke_ns_per_pkt", nf_per_packet, "ns");
    report.metric(
        "dataplane.merge_ns",
        per_op(slice, merges.len(), || {
            for verdicts in &merges {
                black_box(resolve_parallel_verdicts(black_box(verdicts)));
            }
        }),
        "ns",
    );
}

/// Like [`per_op`], but each round first builds fresh state with `fresh`
/// (untimed) and times only `round` on it.
fn timed_rounds<T>(
    budget: Duration,
    ops: usize,
    mut fresh: impl FnMut() -> T,
    mut round: impl FnMut(&mut T),
) -> f64 {
    let start = Instant::now();
    let mut timed = Duration::ZERO;
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed() < budget {
        let mut state = fresh();
        let t = Instant::now();
        round(&mut state);
        timed += t.elapsed();
        rounds += 1;
        black_box(&state);
    }
    timed.as_nanos() as f64 / (rounds * ops.max(1)) as f64
}
