//! Heap allocations per packet on the shard worker and NF replicas.
//!
//! A counting global allocator tallies every allocation made while the
//! step-driven host's actors run (`SimHandle::step`), and nothing else: the
//! test's own packet building, injection and egress polling run between
//! steps and are not counted. After a warm-up (replica spawn, lookup-cache
//! fill, staging and scratch growth) a packet may cost at most one
//! allocation — its descriptor — from its first dispatch to egress.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sdnfv_dataplane::{SimHandle, ThreadedHost, ThreadedHostConfig};
use sdnfv_flowtable::{ServiceId, SharedFlowTable};
use sdnfv_graph::{catalog, CompileOptions};
use sdnfv_nf::nfs::NoOpNf;
use sdnfv_nf::NetworkFunction;
use sdnfv_proto::packet::PacketBuilder;
use sdnfv_proto::Packet;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a counter, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System.alloc`, which does the work.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, which does the work.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, which does the work.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Packets per injected burst (the host's burst size).
const BURST: usize = 32;
/// Distinct flows the traffic cycles through.
const FLOWS: u16 = 64;

fn packet(seq: u64) -> Packet {
    PacketBuilder::udp()
        .src_port(1000 + (seq % u64::from(FLOWS)) as u16)
        .payload(&seq.to_be_bytes())
        .build()
}

/// Steps every actor once with the counter on; returns allocations made.
fn step_counted(sim: &SimHandle, actors: &[u64]) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    for &id in actors {
        sim.step(id);
    }
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Offers `bursts` bursts, stepping the actors after each, and drains
/// egress; returns (packets egressed, allocations inside actor steps).
fn run(
    host: &ThreadedHost,
    sim: &SimHandle,
    actors: &[u64],
    seq: &mut u64,
    bursts: usize,
) -> (u64, u64) {
    let mut egressed = 0;
    let mut allocations = 0;
    for _ in 0..bursts {
        let burst: Vec<Packet> = (0..BURST)
            .map(|_| {
                *seq += 1;
                packet(*seq)
            })
            .collect();
        let injected = host.inject_burst(burst);
        assert!(injected.throttled.is_empty(), "credits stay available");
        // One step moves the burst through RX; two more carry it through
        // both NFs and the TX hops to egress.
        for _ in 0..3 {
            allocations += step_counted(sim, actors);
        }
        egressed += host.poll_egress_burst(4 * BURST).len() as u64;
    }
    (egressed, allocations)
}

#[test]
fn two_nf_chain_allocates_at_most_once_per_packet() {
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    // Periodic control work (telemetry snapshots, rule sweeps) is off: the
    // claim is about the per-packet path, and the virtual clock does not
    // move here anyway.
    let config = ThreadedHostConfig {
        telemetry_interval_ns: 0,
        rule_sweep_interval_ns: 0,
        ..ThreadedHostConfig::default()
    };
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_| {
            ids.iter()
                .map(|id: &ServiceId| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
                .collect()
        },
        config,
    );
    // The worker's first step spawns the NF replicas.
    sim.step_all();
    let actors: Vec<u64> = sim.actors().iter().map(|a| a.id).collect();
    assert_eq!(actors.len(), 3, "one worker and two NF replicas");

    let mut seq = 0;
    let (warm, _) = run(&host, &sim, &actors, &mut seq, 64);
    assert_eq!(warm, 64 * BURST as u64);
    let (egressed, allocations) = run(&host, &sim, &actors, &mut seq, 256);
    assert_eq!(egressed, 256 * BURST as u64, "every packet egresses");
    assert!(
        allocations <= egressed,
        "{allocations} allocations for {egressed} packets: more than one per packet"
    );
    let stats = host.stats().snapshot();
    assert_eq!(stats.nf_invocations, 2 * stats.transmitted);
    drop(host);
}
