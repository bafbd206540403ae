//! Ablation benches for the design choices DESIGN.md calls out:
//! flow-lookup caching, replica dispatch policy, and the division
//! heuristic's sub-problem size. The data-plane ablations run through the
//! `NfManager` facade, so they measure the shipping shard engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnfv_dataplane::{NfManager, ReplicaDispatch, ThreadedHostConfig};
use sdnfv_graph::{catalog, CompileOptions};
use sdnfv_nf::nfs::NoOpNf;
use sdnfv_placement::{DivisionSolver, PlacementProblem, PlacementSolver};
use sdnfv_proto::packet::PacketBuilder;
use std::hint::black_box;

fn chain_manager(config: ThreadedHostConfig, instances_per_service: usize) -> NfManager {
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true), ("c", true), ("d", true)]);
    let mut manager = NfManager::new(config);
    manager.install_graph(&graph, &CompileOptions::default());
    for id in ids {
        for _ in 0..instances_per_service {
            manager.add_nf(id, Box::new(NoOpNf::new()));
        }
    }
    manager
}

fn bench_flow_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_flow_cache");
    for (label, enabled) in [("cache_on", true), ("cache_off", false)] {
        let mut manager = chain_manager(
            ThreadedHostConfig {
                enable_lookup_cache: enabled,
                ..ThreadedHostConfig::default()
            },
            1,
        );
        let pkt = PacketBuilder::udp().total_size(256).ingress_port(0).build();
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            let mut now = 0u64;
            b.iter(|| {
                now += 1;
                black_box(manager.process_packet(pkt.clone(), now))
            })
        });
    }
    group.finish();
}

fn bench_load_balance(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_load_balance");
    for (label, replica_dispatch) in [
        ("sticky", ReplicaDispatch::Sticky),
        ("least_loaded", ReplicaDispatch::LeastLoaded),
    ] {
        let mut manager = chain_manager(
            ThreadedHostConfig {
                replica_dispatch,
                ..ThreadedHostConfig::default()
            },
            3,
        );
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            let mut now = 0u64;
            b.iter(|| {
                now += 1;
                let pkt = PacketBuilder::udp()
                    .src_port((now % 512) as u16 + 1024)
                    .total_size(256)
                    .ingress_port(0)
                    .build();
                black_box(manager.process_packet(pkt, now))
            })
        });
    }
    group.finish();
}

fn bench_division_group_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_division_size");
    group.sample_size(10);
    let problem = PlacementProblem::paper_figure5(20, 1.0, 16631);
    for group_size in [2usize, 5, 10] {
        let solver = DivisionSolver {
            group_size,
            ..DivisionSolver::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(group_size), &(), |b, _| {
            b.iter(|| black_box(solver.solve(&problem)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flow_cache,
    bench_load_balance,
    bench_division_group_size
);
criterion_main!(benches);
