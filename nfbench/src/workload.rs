//! The benchmark's workloads: which host each one builds, and the packets
//! its generator offers.
//!
//! Every frame is a pure function of the workload, the seed and the
//! packet's sequence number, so the checker can rebuild the exact bytes a
//! packet must leave the host with, and the leaf replay can push the same
//! packets through single layers.

use sdnfv_dataplane::{SimHandle, ThreadedHost, ThreadedHostConfig};
use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
use sdnfv_graph::{catalog, CompileOptions};
use sdnfv_nf::nfs::{ComputeNf, IdsNf, NoOpNf, ScrubberNf};
use sdnfv_nf::NetworkFunction;
use sdnfv_proto::packet::{Packet, PacketBuilder, Port};

/// Offset of the UDP payload in every generated frame (Ethernet 14 + IPv4
/// 20 + UDP 8). The first 8 payload bytes carry the sequence number.
pub const PAYLOAD_OFFSET: usize = 42;
/// The NIC port every generated packet arrives on.
pub const INGRESS_PORT: Port = 0;
/// Where the default path of every chain leaves the host.
pub const EGRESS_PORT: Port = 1;
/// Where `churn_pins` traffic leaves after the scrubber.
pub const SCRUBBED_PORT: Port = 2;
/// The payload signature `churn_pins` plants in flagged flows (one of the
/// IDS's default signatures).
pub const SIGNATURE: &[u8] = b"<script>";
/// Packets per flow in `churn_pins`.
pub const CHURN_FLOW_PACKETS: u64 = 4;
/// One flow in this many carries the IDS signature in `churn_pins`.
pub const CHURN_FLAG_EVERY: u32 = 8;
/// Idle timeout of the IDS's per-flow pins in `churn_pins`: well above a
/// flow's packet spacing, so a pin only expires after its flow ended.
pub const CHURN_PIN_IDLE_NS: u64 = 200_000_000;
/// `rehome_flap` flips the steering weights once per this many packets
/// offered, so every phase and rate sees re-homes in the same proportion.
pub const FLAP_EVERY_PACKETS: u64 = 16_384;
/// The two skewed splits `rehome_flap` alternates between.
pub const FLAP_WEIGHTS: [[u32; 2]; 2] = [[3, 1], [1, 3]];
/// Checksum rounds of each `ComputeNf` in `par2_1500b`.
const COMPUTE_ROUNDS: u32 = 1;

/// How a workload's NFs are arranged.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two `NoOpNf` in sequence.
    Seq2,
    /// Two read-only `ComputeNf` in parallel composition.
    Par2,
    /// `IdsNf` → `ScrubberNf`, with flagged flows pinned to the scrubber.
    Churn,
    /// One `NoOpNf` per shard, steering weights flipped on a schedule.
    Flap,
}

/// One named workload.
#[derive(Clone, Copy)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// NF arrangement.
    pub kind: Kind,
    /// Pipeline shards.
    pub shards: usize,
    /// Frame size in bytes.
    pub frame_size: usize,
    /// Distinct flows (fixed-flow workloads), or flows alive at once
    /// (`churn_pins`, where every flow is new).
    pub flows: u32,
    /// Offered rate of the open-loop phase, packets per second: about a
    /// quarter of the workload's saturation rate on a 2-CPU machine.
    pub rate_pps: f64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "seq2_64b",
        kind: Kind::Seq2,
        shards: 1,
        frame_size: 64,
        flows: 256,
        rate_pps: 100_000.0,
    },
    Workload {
        name: "par2_1500b",
        kind: Kind::Par2,
        shards: 1,
        frame_size: 1500,
        flows: 1024,
        rate_pps: 40_000.0,
    },
    Workload {
        name: "churn_pins",
        kind: Kind::Churn,
        shards: 1,
        frame_size: 512,
        flows: 1024,
        rate_pps: 30_000.0,
    },
    Workload {
        name: "rehome_flap",
        kind: Kind::Flap,
        shards: 2,
        frame_size: 64,
        flows: 4096,
        rate_pps: 150_000.0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// NF replicas per shard.
    pub fn nfs_per_shard(&self) -> usize {
        match self.kind {
            Kind::Flap => 1,
            Kind::Seq2 | Kind::Par2 | Kind::Churn => 2,
        }
    }

    /// Host threads the workload spawns: one worker per shard plus one
    /// thread per NF replica.
    pub fn host_threads(&self) -> usize {
        self.shards * (1 + self.nfs_per_shard())
    }

    /// The host configuration. Only `churn_pins` installs rules that can
    /// expire; the other workloads run with the rule sweeper off, which
    /// also turns off the lookup cache's TTL (half the sweep interval), so
    /// their repeated flows hit the cache.
    pub fn config(&self) -> ThreadedHostConfig {
        let churn = self.kind == Kind::Churn;
        let defaults = ThreadedHostConfig::default();
        ThreadedHostConfig {
            num_shards: self.shards,
            pin_idle_timeout_ns: churn.then_some(CHURN_PIN_IDLE_NS),
            rule_sweep_interval_ns: if churn {
                defaults.rule_sweep_interval_ns
            } else {
                0
            },
            ..defaults
        }
    }

    /// The workload's rule set and the service id of each NF in chain
    /// order. Sequential and parallel chains are compiled from a service
    /// graph; `churn_pins` installs its rules directly so the scrubber path
    /// leaves on its own port.
    pub fn rules(&self) -> (Vec<FlowRule>, Vec<ServiceId>) {
        match self.kind {
            Kind::Churn => {
                let ids = ServiceId::new(1);
                let scrubber = ServiceId::new(2);
                let rules = vec![
                    FlowRule::new(
                        FlowMatch::at_step(RulePort::Nic(INGRESS_PORT)),
                        vec![Action::ToService(ids)],
                    ),
                    FlowRule::new(
                        FlowMatch::at_step(RulePort::Service(ids)),
                        vec![Action::ToPort(EGRESS_PORT), Action::ToService(scrubber)],
                    ),
                    FlowRule::new(
                        FlowMatch::at_step(RulePort::Service(scrubber)),
                        vec![Action::ToPort(SCRUBBED_PORT)],
                    ),
                ];
                (rules, vec![ids, scrubber])
            }
            Kind::Seq2 | Kind::Par2 | Kind::Flap => {
                let names: Vec<String> = (0..self.nfs_per_shard())
                    .map(|i| format!("nf{i}"))
                    .collect();
                let specs: Vec<(&str, bool)> = names.iter().map(|n| (n.as_str(), true)).collect();
                let (graph, ids) = catalog::chain(&specs);
                let options = CompileOptions {
                    enable_parallel: self.kind == Kind::Par2,
                    egress_port: EGRESS_PORT,
                    ..CompileOptions::default()
                };
                (graph.compile(&options), ids)
            }
        }
    }

    /// One shard's NF instances, keyed by service, in chain order.
    pub fn nfs(&self, ids: &[ServiceId]) -> Vec<(ServiceId, Box<dyn NetworkFunction>)> {
        ids.iter()
            .map(|&id| {
                let nf: Box<dyn NetworkFunction> = match self.kind {
                    Kind::Seq2 | Kind::Flap => Box::new(NoOpNf::new()),
                    Kind::Par2 => Box::new(ComputeNf::new(COMPUTE_ROUNDS)),
                    Kind::Churn if id == ids[0] => Box::new(IdsNf::new(ids[0], ids[1])),
                    Kind::Churn => Box::new(ScrubberNf::new()),
                };
                (id, nf)
            })
            .collect()
    }

    fn table(&self) -> (SharedFlowTable, Vec<ServiceId>) {
        let (rules, ids) = self.rules();
        let table = SharedFlowTable::new();
        for rule in rules {
            table.insert(rule);
        }
        (table, ids)
    }

    /// Builds the threaded host: compiles the graph, installs the rules
    /// and starts the shard workers and NF threads.
    pub fn start(&self) -> ThreadedHost {
        let (table, ids) = self.table();
        ThreadedHost::start_sharded(table, |_| self.nfs(&ids), self.config())
    }

    /// Builds the same host on the step-driven runtime.
    pub fn start_sim(&self) -> (ThreadedHost, SimHandle) {
        let (table, ids) = self.table();
        ThreadedHost::start_sim_sharded(table, |_| self.nfs(&ids), self.config())
    }
}

/// The packets of one workload under one seed.
pub struct Generator {
    workload: Workload,
    /// Seed-derived offset into the 24-bit source-address space.
    addr_base: u32,
    /// Seed-derived source port shared by every flow.
    src_port: u16,
    /// Which residue of `flow % CHURN_FLAG_EVERY` is flagged.
    flag_residue: u32,
    /// Per-flow frames with a zero sequence number (fixed-flow workloads).
    templates: Vec<Vec<u8>>,
}

/// SplitMix64 finalizer: spreads a seed over all 64 bits.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Generator {
    /// The generator of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let z = mix(seed);
        let mut generator = Generator {
            workload,
            addr_base: (z & 0x00ff_ffff) as u32,
            src_port: 1024 + ((z >> 24) & 0x7fff) as u16,
            flag_residue: ((z >> 40) % u64::from(CHURN_FLAG_EVERY)) as u32,
            templates: Vec::new(),
        };
        if workload.kind != Kind::Churn {
            generator.templates = (0..workload.flows)
                .map(|flow| generator.build(flow, 0, false).data().to_vec())
                .collect();
        }
        generator
    }

    /// The flow packet `seq` belongs to, and whether it is the flow's
    /// first packet. `churn_pins` runs `flows` flows at once, each sending
    /// [`CHURN_FLOW_PACKETS`] packets spaced `flows` packets apart, then
    /// replaces them with new ones.
    pub fn flow_of(&self, seq: u64) -> (u32, bool) {
        let window = u64::from(self.workload.flows);
        match self.workload.kind {
            Kind::Churn => {
                let generation = seq / (window * CHURN_FLOW_PACKETS);
                let flow = generation * window + seq % window;
                (
                    flow as u32,
                    (seq / window).is_multiple_of(CHURN_FLOW_PACKETS),
                )
            }
            Kind::Seq2 | Kind::Par2 | Kind::Flap => ((seq % window) as u32, seq < window),
        }
    }

    /// Whether `flow` carries the IDS signature (`churn_pins` only).
    pub fn is_flagged(&self, flow: u32) -> bool {
        self.workload.kind == Kind::Churn && flow % CHURN_FLAG_EVERY == self.flag_residue
    }

    /// The port packet `seq` must leave on.
    pub fn expected_port(&self, seq: u64) -> Port {
        if self.is_flagged(self.flow_of(seq).0) {
            SCRUBBED_PORT
        } else {
            EGRESS_PORT
        }
    }

    fn build(&self, flow: u32, seq: u64, signed: bool) -> Packet {
        let addr = (self.addr_base.wrapping_add(flow)) & 0x00ff_ffff;
        let mut payload = seq.to_le_bytes().to_vec();
        if signed {
            payload.extend_from_slice(SIGNATURE);
        }
        PacketBuilder::udp()
            .src_ip([10, (addr >> 16) as u8, (addr >> 8) as u8, addr as u8])
            .dst_ip([192, 168, 0, 1])
            .src_port(self.src_port)
            .dst_port(80)
            .payload(&payload)
            .total_size(self.workload.frame_size)
            .ingress_port(INGRESS_PORT)
            .build()
    }

    /// Packet `seq`, as offered to the host.
    pub fn packet(&self, seq: u64) -> Packet {
        let (flow, first) = self.flow_of(seq);
        match self.templates.get(flow as usize) {
            Some(template) => {
                let mut data = template.clone();
                data[PAYLOAD_OFFSET..PAYLOAD_OFFSET + 8].copy_from_slice(&seq.to_le_bytes());
                let mut packet = Packet::from_bytes(data);
                packet.ingress_port = INGRESS_PORT;
                packet
            }
            None => self.build(flow, seq, first && self.is_flagged(flow)),
        }
    }

    /// Whether `frame` is exactly the frame of packet `seq`.
    pub fn frame_matches(&self, seq: u64, frame: &[u8]) -> bool {
        let (flow, _) = self.flow_of(seq);
        match self.templates.get(flow as usize) {
            Some(template) => {
                let seq_field = PAYLOAD_OFFSET..PAYLOAD_OFFSET + 8;
                frame.len() == template.len()
                    && frame[..seq_field.start] == template[..seq_field.start]
                    && frame[seq_field.clone()] == seq.to_le_bytes()
                    && frame[seq_field.end..] == template[seq_field.end..]
            }
            None => self.packet(seq).data() == frame,
        }
    }
}

/// The sequence number a frame carries, if it is long enough to carry one.
pub fn seq_of(frame: &[u8]) -> Option<u64> {
    let field = frame.get(PAYLOAD_OFFSET..PAYLOAD_OFFSET + 8)?;
    Some(u64::from_le_bytes(field.try_into().ok()?))
}
