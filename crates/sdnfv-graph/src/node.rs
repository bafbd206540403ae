//! Graph vertices: services plus the distinguished source and sink.

use std::fmt;

use sdnfv_flowtable::ServiceId;

/// A vertex reference in a service graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GraphNode {
    /// The packet's entry point into the graph (traffic arriving from the
    /// network).
    Source,
    /// A network service vertex.
    Service(ServiceId),
    /// The packet's exit from the graph (traffic leaving toward its
    /// destination).
    Sink,
}

impl GraphNode {
    /// Returns the service id if this node is a service vertex.
    pub fn service(&self) -> Option<ServiceId> {
        match self {
            GraphNode::Service(id) => Some(*id),
            _ => None,
        }
    }
}

impl fmt::Display for GraphNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphNode::Source => write!(f, "source"),
            GraphNode::Service(id) => write!(f, "{id}"),
            GraphNode::Sink => write!(f, "sink"),
        }
    }
}

impl From<ServiceId> for GraphNode {
    fn from(id: ServiceId) -> Self {
        GraphNode::Service(id)
    }
}

/// Metadata describing one service vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceNode {
    /// The service identity.
    pub id: ServiceId,
    /// Human-readable name (e.g. `"firewall"`).
    pub name: String,
    /// Whether the NF implementing the service only reads packets. Read-only
    /// services are eligible for parallel dispatch.
    pub read_only: bool,
}

impl ServiceNode {
    /// Creates a service node description.
    pub fn new(id: ServiceId, name: impl Into<String>, read_only: bool) -> Self {
        ServiceNode {
            id,
            name: name.into(),
            read_only,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_display_and_service_accessor() {
        assert_eq!(GraphNode::Source.to_string(), "source");
        assert_eq!(GraphNode::Sink.to_string(), "sink");
        let svc = GraphNode::Service(ServiceId::new(4));
        assert_eq!(svc.to_string(), "svc-4");
        assert_eq!(svc.service(), Some(ServiceId::new(4)));
        assert_eq!(GraphNode::Source.service(), None);
        assert_eq!(GraphNode::from(ServiceId::new(4)), svc);
    }

    #[test]
    fn service_node_construction() {
        let node = ServiceNode::new(ServiceId::new(1), "ids", true);
        assert_eq!(node.name, "ids");
        assert!(node.read_only);
    }
}
