//! Correctness checks: every offered packet leaves the host exactly once,
//! on its expected port, with its exact bytes; the host's own counters
//! balance; and each workload keeps the promise its mechanism makes.

use sdnfv_dataplane::{HostOutput, ThreadedHost};

use crate::workload::{seq_of, Generator};

/// Outstanding packets tracked at once. In-flight packets are bounded by
/// the shards' credit budgets plus the generator's backlog, far below this.
const WINDOW: usize = 1 << 17;

#[derive(Clone, Copy, Default)]
struct Slot {
    seq: u64,
    due_ns: u64,
    timed: bool,
    live: bool,
}

/// The exactly-once ledger of offered packets.
pub struct Ledger {
    slots: Vec<Slot>,
    outstanding: usize,
    offered: u64,
    delivered: u64,
    unknown: u64,
    /// Descriptions of the first few violations.
    pub violations: Vec<String>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger {
            slots: vec![Slot::default(); WINDOW],
            outstanding: 0,
            offered: 0,
            delivered: 0,
            unknown: 0,
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    /// Records that packet `seq`, due at `due_ns`, is being offered;
    /// `timed` packets give a latency sample when they egress.
    pub fn offer(&mut self, seq: u64, due_ns: u64, timed: bool) {
        let slot = &mut self.slots[seq as usize % WINDOW];
        assert!(
            !slot.live,
            "more than {WINDOW} packets outstanding: packet {} never left the host",
            slot.seq
        );
        *slot = Slot {
            seq,
            due_ns,
            timed,
            live: true,
        };
        self.outstanding += 1;
        self.offered += 1;
    }

    /// Checks one egressed packet and retires it. Returns its due time and
    /// whether it is timed, when it was a correct first delivery.
    pub fn deliver(&mut self, generator: &Generator, out: &HostOutput) -> Option<(u64, bool)> {
        let frame = out.packet.data();
        let Some(seq) = seq_of(frame) else {
            self.unknown += 1;
            self.violation(format!(
                "frame of {} bytes carries no sequence",
                frame.len()
            ));
            return None;
        };
        let slot = &mut self.slots[seq as usize % WINDOW];
        if !slot.live || slot.seq != seq {
            self.unknown += 1;
            self.violation(format!("packet {seq} egressed but is not outstanding"));
            return None;
        }
        slot.live = false;
        let (due_ns, timed) = (slot.due_ns, slot.timed);
        self.outstanding -= 1;
        let expected = generator.expected_port(seq);
        if out.port != expected {
            self.violation(format!(
                "packet {seq} left on port {} instead of {expected}",
                out.port
            ));
            return None;
        }
        if !generator.frame_matches(seq, frame) {
            self.violation(format!("packet {seq} left with altered bytes"));
            return None;
        }
        self.delivered += 1;
        Some((due_ns, timed))
    }

    /// Packets offered and not yet seen at egress.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Packets offered.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Packets delivered exactly once, on the right port, with the right
    /// bytes.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Offered packets not delivered correctly, plus egressed packets that
    /// were never offered (duplicates).
    pub fn failed(&self) -> u64 {
        self.offered - self.delivered + self.unknown
    }

    /// Closes the ledger: every packet still outstanding is lost.
    pub fn close(&mut self) {
        if self.outstanding > 0 {
            let lost = self.outstanding;
            self.violation(format!("{lost} offered packets never left the host"));
        }
    }
}

/// Host-side checks after the run has drained: packet conservation, credit
/// budgets back to full, and no NF state dropped on import.
pub fn check_host(host: &ThreadedHost, ledger: &Ledger, violations: &mut Vec<String>) {
    let stats = host.stats().snapshot();
    if stats.received != stats.transmitted + stats.dropped + stats.controller_punts {
        violations.push(format!(
            "conservation: received {} != transmitted {} + dropped {} + punts {}",
            stats.received, stats.transmitted, stats.dropped, stats.controller_punts
        ));
    }
    if stats.received != ledger.offered() {
        violations.push(format!(
            "host received {} packets, generator offered {}",
            stats.received,
            ledger.offered()
        ));
    }
    if stats.overflow_drops != 0 || stats.nf_state_import_drops != 0 {
        violations.push(format!(
            "{} overflow drops, {} NF-state import drops",
            stats.overflow_drops, stats.nf_state_import_drops
        ));
    }
    for shard in 0..host.num_shards() {
        if !host.is_live_shard(shard) {
            continue;
        }
        let (available, budget) = (host.available_credits(shard), host.credit_budget(shard));
        if available != budget {
            violations.push(format!(
                "shard {shard}: {available:?} of {budget:?} credits back after drain"
            ));
        }
    }
}
