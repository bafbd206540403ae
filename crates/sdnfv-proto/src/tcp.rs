//! TCP header parsing and serialization.

use crate::error::ProtoError;
use crate::Result;

/// Minimum length of a TCP header (no options) in bytes.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP control flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: u8 = 0x01;
    /// SYN flag.
    pub const SYN: u8 = 0x02;
    /// RST flag.
    pub const RST: u8 = 0x04;
    /// PSH flag.
    pub const PSH: u8 = 0x08;
    /// ACK flag.
    pub const ACK: u8 = 0x10;

    /// Returns `true` if the SYN bit is set.
    pub fn syn(&self) -> bool {
        self.0 & Self::SYN != 0
    }

    /// Returns `true` if the ACK bit is set.
    pub fn ack(&self) -> bool {
        self.0 & Self::ACK != 0
    }

    /// Returns `true` if the FIN bit is set.
    pub fn fin(&self) -> bool {
        self.0 & Self::FIN != 0
    }

    /// Returns `true` if the RST bit is set.
    pub fn rst(&self) -> bool {
        self.0 & Self::RST != 0
    }
}

/// A parsed TCP header (options preserved only as a length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum as carried in the packet (not verified).
    pub checksum: u16,
    /// Header length in bytes including options.
    pub header_len: usize,
}

impl TcpHeader {
    /// Creates a data-segment header (ACK+PSH) with sensible defaults.
    pub fn new(src_port: u16, dst_port: u16, seq: u32) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
            window: 65535,
            checksum: 0,
            header_len: TCP_HEADER_LEN,
        }
    }

    /// Parses a TCP header from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < TCP_HEADER_LEN {
            return Err(ProtoError::Truncated {
                layer: "tcp",
                needed: TCP_HEADER_LEN,
                available: buf.len(),
            });
        }
        let data_offset = (buf[12] >> 4) as usize * 4;
        if data_offset < TCP_HEADER_LEN {
            return Err(ProtoError::InvalidField {
                layer: "tcp",
                field: "data offset",
            });
        }
        if buf.len() < data_offset {
            return Err(ProtoError::Truncated {
                layer: "tcp",
                needed: data_offset,
                available: buf.len(),
            });
        }
        Ok(TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            checksum: u16::from_be_bytes([buf[16], buf[17]]),
            header_len: data_offset,
        })
    }

    /// Serializes the header (without options) into [`TCP_HEADER_LEN`] bytes.
    pub fn to_bytes(&self) -> [u8; TCP_HEADER_LEN] {
        let mut out = [0u8; TCP_HEADER_LEN];
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = 0x50; // data offset 5 words
        out[13] = self.flags.0;
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[16..18].copy_from_slice(&self.checksum.to_be_bytes());
        out
    }

    /// Writes the header into the first [`TCP_HEADER_LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < TCP_HEADER_LEN {
            return Err(ProtoError::Truncated {
                layer: "tcp",
                needed: TCP_HEADER_LEN,
                available: buf.len(),
            });
        }
        buf[..TCP_HEADER_LEN].copy_from_slice(&self.to_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut hdr = TcpHeader::new(8080, 443, 42);
        hdr.ack = 77;
        hdr.window = 1024;
        let parsed = TcpHeader::parse(&hdr.to_bytes()).unwrap();
        assert_eq!(parsed, hdr);
        assert!(parsed.flags.ack());
        assert!(!parsed.flags.syn());
    }

    #[test]
    fn flags_accessors() {
        let f = TcpFlags(TcpFlags::SYN | TcpFlags::FIN);
        assert!(f.syn());
        assert!(f.fin());
        assert!(!f.ack());
        assert!(!f.rst());
        assert!(TcpFlags(TcpFlags::RST).rst());
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(TcpHeader::parse(&[0u8; 12]).is_err());
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut bytes = TcpHeader::new(1, 2, 3).to_bytes();
        bytes[12] = 0x20; // 2 words = 8 bytes, below minimum
        assert!(TcpHeader::parse(&bytes).is_err());
    }

    #[test]
    fn parses_options_length() {
        // Build a 24-byte header: data offset 6 words.
        let mut bytes = vec![0u8; 24];
        bytes[..20].copy_from_slice(&TcpHeader::new(1, 2, 3).to_bytes());
        bytes[12] = 0x60;
        let parsed = TcpHeader::parse(&bytes).unwrap();
        assert_eq!(parsed.header_len, 24);
    }
}
