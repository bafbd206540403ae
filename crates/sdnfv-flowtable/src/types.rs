//! Identifiers shared across the SDNFV control and data planes.

use std::fmt;

use sdnfv_proto::packet::Port;

/// An abstract network service identity (paper §3.2).
///
/// Service IDs decouple "what processing a packet needs next" (e.g. *a* Video
/// Detector) from the address of the specific NF instance that provides it,
/// so NFs can be replicated or moved without reconfiguring their neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ServiceId(pub u32);

impl ServiceId {
    /// Creates a service id from its numeric value.
    pub const fn new(id: u32) -> Self {
        ServiceId(id)
    }

    /// Numeric value of the id.
    pub const fn value(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc-{}", self.0)
    }
}

impl From<u32> for ServiceId {
    fn from(v: u32) -> Self {
        ServiceId(v)
    }
}

/// The "step" a flow rule applies to: either a physical NIC port (for packets
/// entering the host) or the service whose NF just finished with the packet.
///
/// This is the paper's repurposed OpenFlow "input port" match field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RulePort {
    /// A NIC port: the rule applies to packets arriving from the wire.
    Nic(Port),
    /// A service: the rule applies to packets completing that service.
    Service(ServiceId),
}

impl RulePort {
    /// Returns the service id if this is a service step.
    pub fn service(&self) -> Option<ServiceId> {
        match self {
            RulePort::Service(id) => Some(*id),
            RulePort::Nic(_) => None,
        }
    }

    /// Returns the NIC port if this is an ingress step.
    pub fn nic(&self) -> Option<Port> {
        match self {
            RulePort::Nic(p) => Some(*p),
            RulePort::Service(_) => None,
        }
    }
}

impl fmt::Display for RulePort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RulePort::Nic(p) => write!(f, "eth{p}"),
            RulePort::Service(s) => write!(f, "{s}"),
        }
    }
}

impl From<ServiceId> for RulePort {
    fn from(id: ServiceId) -> Self {
        RulePort::Service(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_id_display_and_value() {
        let id = ServiceId::new(7);
        assert_eq!(id.to_string(), "svc-7");
        assert_eq!(id.value(), 7);
        assert_eq!(ServiceId::from(7u32), id);
    }

    #[test]
    fn rule_port_accessors() {
        let nic = RulePort::Nic(0);
        let svc = RulePort::Service(ServiceId::new(3));
        assert_eq!(nic.nic(), Some(0));
        assert_eq!(nic.service(), None);
        assert_eq!(svc.service(), Some(ServiceId::new(3)));
        assert_eq!(svc.nic(), None);
        assert_eq!(nic.to_string(), "eth0");
        assert_eq!(svc.to_string(), "svc-3");
        assert_eq!(RulePort::from(ServiceId::new(3)), svc);
    }
}
