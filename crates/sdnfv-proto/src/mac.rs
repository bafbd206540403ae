//! MAC (Ethernet hardware) addresses.

use std::fmt;
use std::str::FromStr;

use crate::error::ProtoError;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used as a placeholder by traffic generators.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Returns the six octets of the address.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Returns `true` if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Returns `true` if the group (multicast) bit is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Returns `true` if the locally-administered bit is set.
    pub fn is_local(&self) -> bool {
        self.0[0] & 0x02 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl FromStr for MacAddr {
    type Err = ProtoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(ProtoError::InvalidField {
                layer: "ethernet",
                field: "mac address",
            });
        }
        for (i, part) in parts.iter().enumerate() {
            octets[i] = u8::from_str_radix(part, 16).map_err(|_| ProtoError::InvalidField {
                layer: "ethernet",
                field: "mac address",
            })?;
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let mac = MacAddr::new([0x00, 0x1b, 0x21, 0xab, 0xcd, 0xef]);
        let s = mac.to_string();
        assert_eq!(s, "00:1b:21:ab:cd:ef");
        assert_eq!(s.parse::<MacAddr>().unwrap(), mac);
    }

    #[test]
    fn broadcast_and_multicast_flags() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::ZERO.is_broadcast());
        assert!(!MacAddr::new([0x00, 1, 2, 3, 4, 5]).is_multicast());
        assert!(MacAddr::new([0x01, 0, 0, 0, 0, 1]).is_multicast());
        assert!(MacAddr::new([0x02, 0, 0, 0, 0, 1]).is_local());
    }

    #[test]
    fn parse_rejects_bad_strings() {
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("zz:11:22:33:44:55".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }
}
