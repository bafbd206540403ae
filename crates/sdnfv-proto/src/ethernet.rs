//! Ethernet II frame header parsing and serialization.

use crate::error::ProtoError;
use crate::mac::MacAddr;
use crate::Result;

/// Length of an Ethernet II header in bytes.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// The EtherType of a frame: which protocol the payload carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
    /// IPv6 (`0x86dd`).
    Ipv6,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// Numeric value carried on the wire.
    pub fn value(&self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(v) => *v,
        }
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

/// A parsed Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination hardware address.
    pub dst: MacAddr,
    /// Source hardware address.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Creates a new header.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> Self {
        EthernetHeader {
            dst,
            src,
            ethertype,
        }
    }

    /// Parses the header from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(ProtoError::Truncated {
                layer: "ethernet",
                needed: ETHERNET_HEADER_LEN,
                available: buf.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        let ethertype = u16::from_be_bytes([buf[12], buf[13]]).into();
        Ok(EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
        })
    }

    /// Serializes the header into exactly [`ETHERNET_HEADER_LEN`] bytes.
    pub fn to_bytes(&self) -> [u8; ETHERNET_HEADER_LEN] {
        let mut out = [0u8; ETHERNET_HEADER_LEN];
        out[0..6].copy_from_slice(&self.dst.octets());
        out[6..12].copy_from_slice(&self.src.octets());
        out[12..14].copy_from_slice(&self.ethertype.value().to_be_bytes());
        out
    }

    /// Writes the header into the first [`ETHERNET_HEADER_LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(ProtoError::Truncated {
                layer: "ethernet",
                needed: ETHERNET_HEADER_LEN,
                available: buf.len(),
            });
        }
        buf[..ETHERNET_HEADER_LEN].copy_from_slice(&self.to_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_serialize_roundtrip() {
        let hdr = EthernetHeader::new(
            MacAddr::new([1, 2, 3, 4, 5, 6]),
            MacAddr::new([7, 8, 9, 10, 11, 12]),
            EtherType::Ipv4,
        );
        let bytes = hdr.to_bytes();
        let parsed = EthernetHeader::parse(&bytes).unwrap();
        assert_eq!(parsed, hdr);
    }

    #[test]
    fn parse_rejects_short_buffer() {
        let err = EthernetHeader::parse(&[0u8; 10]).unwrap_err();
        assert!(matches!(
            err,
            ProtoError::Truncated {
                layer: "ethernet",
                ..
            }
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x86dd), EtherType::Ipv6);
        assert_eq!(EtherType::from(0x1234), EtherType::Other(0x1234));
        assert_eq!(EtherType::Other(0x1234).value(), 0x1234);
        assert_eq!(EtherType::Ipv6.value(), 0x86dd);
    }

    #[test]
    fn write_into_larger_buffer() {
        let hdr = EthernetHeader::new(MacAddr::ZERO, MacAddr::BROADCAST, EtherType::Arp);
        let mut buf = vec![0u8; 64];
        hdr.write(&mut buf).unwrap();
        assert_eq!(EthernetHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn write_rejects_short_buffer() {
        let hdr = EthernetHeader::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::Ipv4);
        let mut buf = [0u8; 8];
        assert!(hdr.write(&mut buf).is_err());
    }
}
