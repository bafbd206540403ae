//! IPv4 header parsing, serialization and checksum computation.

use std::net::Ipv4Addr;

use crate::error::ProtoError;
use crate::flow::IpProtocol;
use crate::Result;

/// Minimum length of an IPv4 header (no options) in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// A parsed IPv4 header (options are preserved only as a length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services / type-of-service byte.
    pub dscp_ecn: u8,
    /// Total length of the IP datagram (header + payload) in bytes.
    pub total_length: u16,
    /// Identification field (used for fragmentation).
    pub identification: u16,
    /// Flags (3 bits) and fragment offset (13 bits) packed as on the wire.
    pub flags_fragment: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol of the payload.
    pub protocol: IpProtocol,
    /// Header checksum as carried in the packet.
    pub checksum: u16,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Header length in bytes (20 when there are no options).
    pub header_len: usize,
}

impl Ipv4Header {
    /// Creates a header with sensible defaults (TTL 64, no fragmentation).
    ///
    /// `payload_len` is the length of the transport header plus payload; the
    /// total length field is computed from it. The checksum is left at zero
    /// and filled in by [`Ipv4Header::write`].
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_length: (IPV4_HEADER_LEN + payload_len) as u16,
            identification: 0,
            flags_fragment: 0x4000, // don't fragment
            ttl: 64,
            protocol,
            checksum: 0,
            src,
            dst,
            header_len: IPV4_HEADER_LEN,
        }
    }

    /// Parses an IPv4 header from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(ProtoError::Truncated {
                layer: "ipv4",
                needed: IPV4_HEADER_LEN,
                available: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(ProtoError::InvalidField {
                layer: "ipv4",
                field: "version",
            });
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl < IPV4_HEADER_LEN {
            return Err(ProtoError::InvalidField {
                layer: "ipv4",
                field: "ihl",
            });
        }
        if buf.len() < ihl {
            return Err(ProtoError::Truncated {
                layer: "ipv4",
                needed: ihl,
                available: buf.len(),
            });
        }
        Ok(Ipv4Header {
            dscp_ecn: buf[1],
            total_length: u16::from_be_bytes([buf[2], buf[3]]),
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            flags_fragment: u16::from_be_bytes([buf[6], buf[7]]),
            ttl: buf[8],
            protocol: IpProtocol::from(buf[9]),
            checksum: u16::from_be_bytes([buf[10], buf[11]]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            header_len: ihl,
        })
    }

    /// Serializes the header (without options) and computes its checksum.
    pub fn to_bytes(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut out = [0u8; IPV4_HEADER_LEN];
        out[0] = 0x45; // version 4, IHL 5 words
        out[1] = self.dscp_ecn;
        out[2..4].copy_from_slice(&self.total_length.to_be_bytes());
        out[4..6].copy_from_slice(&self.identification.to_be_bytes());
        out[6..8].copy_from_slice(&self.flags_fragment.to_be_bytes());
        out[8] = self.ttl;
        out[9] = self.protocol.value();
        // checksum at 10..12 computed below
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&out);
        out[10..12].copy_from_slice(&csum.to_be_bytes());
        out
    }

    /// Writes the header into the first [`IPV4_HEADER_LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(ProtoError::Truncated {
                layer: "ipv4",
                needed: IPV4_HEADER_LEN,
                available: buf.len(),
            });
        }
        buf[..IPV4_HEADER_LEN].copy_from_slice(&self.to_bytes());
        Ok(())
    }

    /// Returns `true` if the checksum carried in the header is consistent
    /// with its contents (only meaningful for option-less headers produced by
    /// [`Ipv4Header::to_bytes`]).
    pub fn checksum_valid(buf: &[u8]) -> bool {
        if buf.len() < IPV4_HEADER_LEN {
            return false;
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if buf.len() < ihl || ihl < IPV4_HEADER_LEN {
            return false;
        }
        internet_checksum(&buf[..ihl]) == 0
    }
}

/// Computes the 16-bit one's-complement internet checksum over `data`.
///
/// When the buffer already contains a checksum field the result is `0` for a
/// consistent header; when the checksum field is zeroed the result is the
/// value to store there.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 1, 77),
            IpProtocol::Udp,
            100,
        )
    }

    #[test]
    fn roundtrip() {
        let hdr = sample();
        let bytes = hdr.to_bytes();
        let parsed = Ipv4Header::parse(&bytes).unwrap();
        assert_eq!(parsed.src, hdr.src);
        assert_eq!(parsed.dst, hdr.dst);
        assert_eq!(parsed.protocol, IpProtocol::Udp);
        assert_eq!(parsed.total_length, 120);
        assert_eq!(parsed.header_len, IPV4_HEADER_LEN);
    }

    #[test]
    fn checksum_is_valid_after_serialization() {
        let bytes = sample().to_bytes();
        assert!(Ipv4Header::checksum_valid(&bytes));
        let mut corrupted = bytes;
        corrupted[15] ^= 0xff;
        assert!(!Ipv4Header::checksum_valid(&corrupted));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::parse(&bytes),
            Err(ProtoError::InvalidField {
                field: "version",
                ..
            })
        ));
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(Ipv4Header::parse(&[0u8; 10]).is_err());
        assert!(!Ipv4Header::checksum_valid(&[0u8; 10]));
    }

    #[test]
    fn rejects_bad_ihl() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0x42; // IHL 2 words = 8 bytes < minimum
        assert!(Ipv4Header::parse(&bytes).is_err());
    }

    #[test]
    fn checksum_of_zeros_is_all_ones() {
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xffff);
    }

    #[test]
    fn checksum_odd_length() {
        // Odd-length buffers are padded with a zero byte.
        assert_eq!(internet_checksum(&[0xff]), internet_checksum(&[0xff, 0x00]));
    }
}
