//! The placement problem: services, flows, and the MILP's parameters.

use sdnfv_flowtable::ServiceId;

use crate::topology::{NodeId, Topology};

/// A service type that can be instantiated on nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// The service identity (matches service-graph vertices).
    pub id: ServiceId,
    /// Human-readable name.
    pub name: String,
    /// Maximum number of flows one CPU core running this service can handle
    /// (the MILP's `P_ij`, identical across nodes here).
    pub flows_per_core: u32,
}

impl ServiceSpec {
    /// Creates a service spec.
    pub fn new(id: ServiceId, name: impl Into<String>, flows_per_core: u32) -> Self {
        ServiceSpec {
            id,
            name: name.into(),
            flows_per_core,
        }
    }
}

/// One flow that must be routed through a chain of services.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Flow identifier (dense, used for indexing).
    pub id: usize,
    /// Node where the flow enters the network (the MILP's `I_k`).
    pub ingress: NodeId,
    /// Node where the flow leaves the network (the MILP's `E_k`).
    pub egress: NodeId,
    /// Bandwidth the flow consumes on every link it crosses (`B_k`).
    pub bandwidth: f64,
    /// Maximum tolerable end-to-end delay (`T_k`).
    pub max_delay: f64,
    /// The service chain the flow must traverse, in order.
    pub chain: Vec<ServiceId>,
}

/// A complete placement problem instance.
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    /// The network.
    pub topology: Topology,
    /// The service types.
    pub services: Vec<ServiceSpec>,
    /// The flows to place.
    pub flows: Vec<FlowSpec>,
}

impl PlacementProblem {
    /// Looks up a service spec by id.
    pub fn service(&self, id: ServiceId) -> Option<&ServiceSpec> {
        self.services.iter().find(|s| s.id == id)
    }

    /// The paper's Figure 5 configuration: a 22-node / 64-edge topology with
    /// 2 cores per node, a 5-service chain J1–J5 where J1–J4 support 10
    /// flows per core and J5 supports 4, and `flow_count` unit-bandwidth
    /// flows between pseudo-random (but deterministic) endpoints.
    pub fn paper_figure5(flow_count: usize, capacity_scale: f64, seed: u64) -> PlacementProblem {
        let topology =
            Topology::rocketfuel_like(22, 64, 2, 10.0, 16631).scaled(capacity_scale.max(1.0));
        let services: Vec<ServiceSpec> = (1..=5)
            .map(|j| {
                ServiceSpec::new(
                    ServiceId::new(j),
                    format!("j{j}"),
                    if j == 5 { 4 } else { 10 },
                )
            })
            .collect();
        let chain: Vec<ServiceId> = services.iter().map(|s| s.id).collect();
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let node_count = topology.node_count();
        let flows = (0..flow_count)
            .map(|id| {
                let ingress = (next() % node_count as u64) as usize;
                let mut egress = (next() % node_count as u64) as usize;
                if egress == ingress {
                    egress = (egress + 1) % node_count;
                }
                FlowSpec {
                    id,
                    ingress,
                    egress,
                    bandwidth: 1.0,
                    max_delay: 200.0,
                    chain: chain.clone(),
                }
            })
            .collect();
        PlacementProblem {
            topology,
            services,
            flows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_problem_shape() {
        let problem = PlacementProblem::paper_figure5(10, 1.0, 42);
        assert_eq!(problem.topology.node_count(), 22);
        assert_eq!(problem.topology.link_count(), 64);
        assert_eq!(problem.services.len(), 5);
        assert_eq!(problem.flows.len(), 10);
        assert!(problem.flows.iter().all(|f| f.chain.len() == 5));
        assert!(problem.flows.iter().all(|f| f.ingress != f.egress));
        assert_eq!(
            problem.service(ServiceId::new(5)).unwrap().flows_per_core,
            4
        );
        assert_eq!(
            problem.service(ServiceId::new(1)).unwrap().flows_per_core,
            10
        );
        assert!(problem.service(ServiceId::new(9)).is_none());
        // Deterministic.
        let again = PlacementProblem::paper_figure5(10, 1.0, 42);
        assert_eq!(problem.flows, again.flows);
    }

    #[test]
    fn capacity_scaling_increases_cores() {
        let base = PlacementProblem::paper_figure5(1, 1.0, 1);
        let scaled = PlacementProblem::paper_figure5(1, 10.0, 1);
        assert_eq!(
            base.topology.node(0).cores * 10,
            scaled.topology.node(0).cores
        );
    }
}
