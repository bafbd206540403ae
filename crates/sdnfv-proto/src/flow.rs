//! Flow identity: IP protocol numbers and the classic 5-tuple [`FlowKey`].

use std::fmt;
use std::net::Ipv4Addr;

use crate::packet::Packet;

/// Transport protocol carried inside an IPv4 datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpProtocol {
    /// ICMP (protocol number 1).
    Icmp,
    /// TCP (protocol number 6).
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// Any other protocol, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// Numeric protocol value as carried in the IPv4 header.
    pub fn value(&self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => *v,
        }
    }
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Icmp => write!(f, "icmp"),
            IpProtocol::Tcp => write!(f, "tcp"),
            IpProtocol::Udp => write!(f, "udp"),
            IpProtocol::Other(v) => write!(f, "proto-{v}"),
        }
    }
}

/// The classic 5-tuple identifying a flow.
///
/// Flow keys are the unit of matching in the
/// [`sdnfv-flowtable`](https://docs.rs/sdnfv-flowtable) crate and the unit of
/// consistency for flow-hash load balancing in the NF Manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port (zero for protocols without ports).
    pub src_port: u16,
    /// Destination transport port (zero for protocols without ports).
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: IpProtocol,
}

impl FlowKey {
    /// Creates a flow key from its five components.
    pub fn new(
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        protocol: IpProtocol,
    ) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol,
        }
    }

    /// Extracts the 5-tuple from a packet, if it carries IPv4.
    ///
    /// For transport protocols other than TCP/UDP the ports are reported as
    /// zero.
    pub fn from_packet(packet: &Packet) -> Option<FlowKey> {
        let ip = packet.ipv4().ok()?;
        let (src_port, dst_port) = match ip.protocol {
            IpProtocol::Tcp => {
                let tcp = packet.tcp().ok()?;
                (tcp.src_port, tcp.dst_port)
            }
            IpProtocol::Udp => {
                let udp = packet.udp().ok()?;
                (udp.src_port, udp.dst_port)
            }
            _ => (0, 0),
        };
        Some(FlowKey {
            src_ip: ip.src,
            dst_ip: ip.dst,
            src_port,
            dst_port,
            protocol: ip.protocol,
        })
    }

    /// Returns the key for traffic in the opposite direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// A deterministic 64-bit hash of the key, stable across processes.
    ///
    /// Used for flow-hash load balancing so that all packets of a flow are
    /// steered to the same NF thread, as required for NFs holding per-flow
    /// state (paper §4.2).
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over the canonical byte representation.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let mut hash = OFFSET;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        feed(&self.src_ip.octets());
        feed(&self.dst_ip.octets());
        feed(&self.src_port.to_be_bytes());
        feed(&self.dst_port.to_be_bytes());
        feed(&[self.protocol.value()]);
        hash
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({})",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    #[test]
    fn protocol_numeric_mapping() {
        assert_eq!(IpProtocol::from(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from(1), IpProtocol::Icmp);
        assert_eq!(IpProtocol::from(89), IpProtocol::Other(89));
        assert_eq!(IpProtocol::Other(89).value(), 89);
        assert_eq!(IpProtocol::Tcp.value(), 6);
    }

    #[test]
    fn from_udp_packet() {
        let pkt = PacketBuilder::udp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([10, 0, 0, 2])
            .src_port(1234)
            .dst_port(80)
            .payload(b"x")
            .build();
        let key = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(key.src_ip, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(key.dst_port, 80);
        assert_eq!(key.protocol, IpProtocol::Udp);
    }

    #[test]
    fn from_tcp_packet() {
        let pkt = PacketBuilder::tcp()
            .src_ip([1, 1, 1, 1])
            .dst_ip([2, 2, 2, 2])
            .src_port(4567)
            .dst_port(443)
            .payload(b"hello")
            .build();
        let key = FlowKey::from_packet(&pkt).unwrap();
        assert_eq!(key.protocol, IpProtocol::Tcp);
        assert_eq!(key.src_port, 4567);
        assert_eq!(key.dst_port, 443);
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let key = FlowKey::new(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            100,
            200,
            IpProtocol::Tcp,
        );
        let rev = key.reversed();
        assert_eq!(rev.src_ip, key.dst_ip);
        assert_eq!(rev.dst_port, key.src_port);
        assert_eq!(rev.reversed(), key);
    }

    #[test]
    fn stable_hash_differs_for_different_flows() {
        let a = FlowKey::new(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            100,
            200,
            IpProtocol::Tcp,
        );
        let mut b = a;
        b.src_port = 101;
        assert_ne!(a.stable_hash(), b.stable_hash());
        assert_eq!(a.stable_hash(), a.stable_hash());
    }

    #[test]
    fn display_contains_endpoints() {
        let key = FlowKey::new(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            100,
            200,
            IpProtocol::Udp,
        );
        let s = key.to_string();
        assert!(s.contains("1.2.3.4:100"));
        assert!(s.contains("5.6.7.8:200"));
        assert!(s.contains("udp"));
    }
}
