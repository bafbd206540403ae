//! UDP header parsing and serialization.

use crate::error::ProtoError;
use crate::Result;

/// Length of a UDP header in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of the UDP header plus payload in bytes.
    pub length: u16,
    /// Checksum (zero means "not computed", which is legal for IPv4).
    pub checksum: u16,
}

impl UdpHeader {
    /// Creates a header for a datagram with `payload_len` bytes of payload.
    ///
    /// The checksum is left at zero (valid for UDP over IPv4).
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        UdpHeader {
            src_port,
            dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
            checksum: 0,
        }
    }

    /// Parses a UDP header from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(ProtoError::Truncated {
                layer: "udp",
                needed: UDP_HEADER_LEN,
                available: buf.len(),
            });
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: u16::from_be_bytes([buf[4], buf[5]]),
            checksum: u16::from_be_bytes([buf[6], buf[7]]),
        })
    }

    /// Serializes the header into exactly [`UDP_HEADER_LEN`] bytes.
    pub fn to_bytes(&self) -> [u8; UDP_HEADER_LEN] {
        let mut out = [0u8; UDP_HEADER_LEN];
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&self.length.to_be_bytes());
        out[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        out
    }

    /// Writes the header into the first [`UDP_HEADER_LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(ProtoError::Truncated {
                layer: "udp",
                needed: UDP_HEADER_LEN,
                available: buf.len(),
            });
        }
        buf[..UDP_HEADER_LEN].copy_from_slice(&self.to_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let hdr = UdpHeader::new(1111, 2222, 100);
        let parsed = UdpHeader::parse(&hdr.to_bytes()).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(parsed.length, 108);
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(UdpHeader::parse(&[0u8; 4]).is_err());
        let hdr = UdpHeader::new(1, 2, 0);
        let mut buf = [0u8; 4];
        assert!(hdr.write(&mut buf).is_err());
    }

    #[test]
    fn write_into_larger_buffer() {
        let hdr = UdpHeader::new(53, 12345, 16);
        let mut buf = vec![0u8; 32];
        hdr.write(&mut buf).unwrap();
        assert_eq!(UdpHeader::parse(&buf).unwrap(), hdr);
    }
}
