//! The memcached binary UDP framing and text protocol subset used by the
//! application-aware load balancer NF (paper §5.4, Figure 12).
//!
//! Memcached-over-UDP prefixes each datagram with an 8-byte frame header
//! (request id, sequence number, datagram count, reserved), followed by the
//! ordinary text protocol (`get <key>\r\n`, `set <key> ...`).

use crate::error::ProtoError;
use crate::Result;

/// Length of the memcached UDP frame header in bytes.
pub const MEMCACHED_UDP_HEADER_LEN: usize = 8;

/// The 8-byte frame header prepended to memcached-over-UDP datagrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpFrameHeader {
    /// Opaque request id chosen by the client, echoed in the response.
    pub request_id: u16,
    /// Sequence number of this datagram within the message.
    pub sequence: u16,
    /// Total number of datagrams in the message.
    pub total_datagrams: u16,
    /// Reserved, must be zero.
    pub reserved: u16,
}

impl UdpFrameHeader {
    /// Creates a single-datagram frame header.
    pub fn single(request_id: u16) -> Self {
        UdpFrameHeader {
            request_id,
            sequence: 0,
            total_datagrams: 1,
            reserved: 0,
        }
    }

    /// Parses the frame header from the start of a UDP payload.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < MEMCACHED_UDP_HEADER_LEN {
            return Err(ProtoError::Truncated {
                layer: "memcached",
                needed: MEMCACHED_UDP_HEADER_LEN,
                available: buf.len(),
            });
        }
        Ok(UdpFrameHeader {
            request_id: u16::from_be_bytes([buf[0], buf[1]]),
            sequence: u16::from_be_bytes([buf[2], buf[3]]),
            total_datagrams: u16::from_be_bytes([buf[4], buf[5]]),
            reserved: u16::from_be_bytes([buf[6], buf[7]]),
        })
    }

    /// Serializes the frame header.
    pub fn to_bytes(&self) -> [u8; MEMCACHED_UDP_HEADER_LEN] {
        let mut out = [0u8; MEMCACHED_UDP_HEADER_LEN];
        out[0..2].copy_from_slice(&self.request_id.to_be_bytes());
        out[2..4].copy_from_slice(&self.sequence.to_be_bytes());
        out[4..6].copy_from_slice(&self.total_datagrams.to_be_bytes());
        out[6..8].copy_from_slice(&self.reserved.to_be_bytes());
        out
    }
}

/// A memcached text-protocol command relevant to the proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `get <key>` — retrieve a value.
    Get {
        /// Key being requested.
        key: String,
    },
    /// `set <key> <flags> <exptime> <bytes>` — store a value.
    Set {
        /// Key being stored.
        key: String,
        /// Number of payload bytes that follow the command line.
        bytes: usize,
    },
}

impl Command {
    /// Returns the key the command operates on.
    pub fn key(&self) -> &str {
        match self {
            Command::Get { key } => key,
            Command::Set { key, .. } => key,
        }
    }
}

/// A parsed memcached-over-UDP request: frame header plus command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// UDP frame header.
    pub frame: UdpFrameHeader,
    /// Text-protocol command.
    pub command: Command,
}

impl Request {
    /// Parses a request from a full UDP payload (frame header + text).
    pub fn parse(payload: &[u8]) -> Result<Request> {
        let frame = UdpFrameHeader::parse(payload)?;
        let body = &payload[MEMCACHED_UDP_HEADER_LEN..];
        let command = parse_command(body)?;
        Ok(Request { frame, command })
    }

    /// Serializes the request into a UDP payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.frame.to_bytes().to_vec();
        match &self.command {
            Command::Get { key } => out.extend_from_slice(format!("get {key}\r\n").as_bytes()),
            Command::Set { key, bytes } => {
                out.extend_from_slice(format!("set {key} 0 0 {bytes}\r\n").as_bytes())
            }
        }
        out
    }
}

/// Builds a single-datagram `get` request payload for a key.
pub fn get_request(request_id: u16, key: &str) -> Vec<u8> {
    Request {
        frame: UdpFrameHeader::single(request_id),
        command: Command::Get {
            key: key.to_string(),
        },
    }
    .to_bytes()
}

fn parse_command(body: &[u8]) -> Result<Command> {
    let text = std::str::from_utf8(body).map_err(|_| ProtoError::Malformed {
        layer: "memcached",
        reason: "command is not valid UTF-8".to_string(),
    })?;
    let line = text.lines().next().unwrap_or("").trim_end_matches('\r');
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("get") => {
            let key = parts.next().ok_or_else(|| ProtoError::Malformed {
                layer: "memcached",
                reason: "get without key".to_string(),
            })?;
            Ok(Command::Get {
                key: key.to_string(),
            })
        }
        Some("set") => {
            let key = parts.next().ok_or_else(|| ProtoError::Malformed {
                layer: "memcached",
                reason: "set without key".to_string(),
            })?;
            // flags, exptime
            let _ = parts.next();
            let _ = parts.next();
            let bytes = parts
                .next()
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| ProtoError::Malformed {
                    layer: "memcached",
                    reason: "set without byte count".to_string(),
                })?;
            Ok(Command::Set {
                key: key.to_string(),
                bytes,
            })
        }
        other => Err(ProtoError::Malformed {
            layer: "memcached",
            reason: format!("unsupported command {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_header_roundtrip() {
        let hdr = UdpFrameHeader {
            request_id: 0xabcd,
            sequence: 2,
            total_datagrams: 3,
            reserved: 0,
        };
        assert_eq!(UdpFrameHeader::parse(&hdr.to_bytes()).unwrap(), hdr);
    }

    #[test]
    fn get_request_roundtrip() {
        let payload = get_request(7, "user:1234");
        let req = Request::parse(&payload).unwrap();
        assert_eq!(req.frame.request_id, 7);
        assert_eq!(req.frame.total_datagrams, 1);
        assert_eq!(
            req.command,
            Command::Get {
                key: "user:1234".to_string()
            }
        );
        assert_eq!(req.command.key(), "user:1234");
    }

    #[test]
    fn set_request_parses() {
        let mut payload = UdpFrameHeader::single(1).to_bytes().to_vec();
        payload.extend_from_slice(b"set session:9 0 300 128\r\n");
        let req = Request::parse(&payload).unwrap();
        assert_eq!(
            req.command,
            Command::Set {
                key: "session:9".to_string(),
                bytes: 128
            }
        );
        // And a serialize/parse roundtrip keeps the key and byte count.
        let reparsed = Request::parse(&req.to_bytes()).unwrap();
        assert_eq!(reparsed.command, req.command);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Request::parse(&[0u8; 4]).is_err());
        let mut payload = UdpFrameHeader::single(1).to_bytes().to_vec();
        payload.extend_from_slice(b"delete foo\r\n");
        assert!(Request::parse(&payload).is_err());
        let mut payload = UdpFrameHeader::single(1).to_bytes().to_vec();
        payload.extend_from_slice(b"get\r\n");
        assert!(Request::parse(&payload).is_err());
        let mut payload = UdpFrameHeader::single(1).to_bytes().to_vec();
        payload.extend_from_slice(b"set foo 0 0 notanumber\r\n");
        assert!(Request::parse(&payload).is_err());
        let mut payload = UdpFrameHeader::single(1).to_bytes().to_vec();
        payload.extend_from_slice(&[0xff, 0xfe]);
        assert!(Request::parse(&payload).is_err());
    }
}
