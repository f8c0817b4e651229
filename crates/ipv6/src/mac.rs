//! IEEE 802 MAC addresses and Organizationally Unique Identifiers.
//!
//! CPE devices that use legacy EUI-64 SLAAC addressing expose their WAN
//! interface MAC address in the low 64 bits of their IPv6 address. The three
//! high-order bytes of that MAC — the OUI — identify the device manufacturer,
//! which drives the per-AS homogeneity analysis of §5.1 of the paper.

use core::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::Error;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-zero MAC address. The paper observes this as a pathological
    /// default (§5.5): it appeared as an EUI-64 IID in 12 distinct ASes.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Construct a MAC address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Construct a MAC address from a 48-bit integer (the low 48 bits of
    /// `bits` are used).
    pub const fn from_u64(bits: u64) -> Self {
        MacAddr([
            (bits >> 40) as u8,
            (bits >> 32) as u8,
            (bits >> 24) as u8,
            (bits >> 16) as u8,
            (bits >> 8) as u8,
            bits as u8,
        ])
    }

    /// Return the address as a 48-bit integer.
    pub const fn to_u64(self) -> u64 {
        ((self.0[0] as u64) << 40)
            | ((self.0[1] as u64) << 32)
            | ((self.0[2] as u64) << 24)
            | ((self.0[3] as u64) << 16)
            | ((self.0[4] as u64) << 8)
            | self.0[5] as u64
    }

    /// Return the octets of the address.
    pub(crate) const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// The Organizationally Unique Identifier: the three high-order bytes.
    pub const fn oui(self) -> Oui {
        Oui([self.0[0], self.0[1], self.0[2]])
    }

    /// Whether this is the all-zero address.
    pub const fn is_zero(self) -> bool {
        self.to_u64() == 0
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

impl FromStr for MacAddr {
    type Err = Error;

    /// Parse `aa:bb:cc:dd:ee:ff`, `aa-bb-cc-dd-ee-ff` or `aabb.ccdd.eeff`
    /// style MAC addresses.
    fn from_str(s: &str) -> Result<Self, Error> {
        let hex: String = s
            .chars()
            .filter(|c| !matches!(c, ':' | '-' | '.'))
            .collect();
        if hex.len() != 12 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(Error::InvalidMac(s.to_string()));
        }
        let mut octets = [0u8; 6];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let byte = std::str::from_utf8(chunk).expect("ascii hex");
            octets[i] =
                u8::from_str_radix(byte, 16).map_err(|_| Error::InvalidMac(s.to_string()))?;
        }
        Ok(MacAddr(octets))
    }
}

/// A 24-bit Organizationally Unique Identifier — the vendor-identifying
/// portion of a MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Oui(pub [u8; 3]);

impl Oui {
    /// Construct an OUI from its three octets.
    pub const fn new(octets: [u8; 3]) -> Self {
        Oui(octets)
    }

    /// Construct an OUI from a 24-bit integer.
    pub const fn from_u32(bits: u32) -> Self {
        Oui([(bits >> 16) as u8, (bits >> 8) as u8, bits as u8])
    }

    /// Return the OUI as a 24-bit integer.
    pub const fn to_u32(self) -> u32 {
        ((self.0[0] as u32) << 16) | ((self.0[1] as u32) << 8) | self.0[2] as u32
    }

    /// Build the MAC address with this OUI and the given NIC-specific suffix.
    pub const fn with_nic(self, nic: [u8; 3]) -> MacAddr {
        MacAddr([self.0[0], self.0[1], self.0[2], nic[0], nic[1], nic[2]])
    }
}

impl fmt::Display for Oui {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02X}-{:02X}-{:02X}", self.0[0], self.0[1], self.0[2])
    }
}

impl FromStr for Oui {
    type Err = Error;

    /// Parse `AA-BB-CC`, `aa:bb:cc` or `AABBCC` style OUIs (the IEEE registry
    /// uses the dashed upper-case form).
    fn from_str(s: &str) -> Result<Self, Error> {
        let hex: String = s
            .chars()
            .filter(|c| !matches!(c, ':' | '-' | '.'))
            .collect();
        if hex.len() != 6 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(Error::InvalidMac(s.to_string()));
        }
        let mut octets = [0u8; 3];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let byte = std::str::from_utf8(chunk).expect("ascii hex");
            octets[i] =
                u8::from_str_radix(byte, 16).map_err(|_| Error::InvalidMac(s.to_string()))?;
        }
        Ok(Oui(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_round_trip() {
        let m = MacAddr::new([0x38, 0x10, 0xd5, 0xaa, 0xbb, 0xcc]);
        assert_eq!(m.to_string(), "38:10:d5:aa:bb:cc");
        assert_eq!("38:10:d5:aa:bb:cc".parse::<MacAddr>().unwrap(), m);
        assert_eq!("38-10-D5-AA-BB-CC".parse::<MacAddr>().unwrap(), m);
        assert_eq!("3810.d5aa.bbcc".parse::<MacAddr>().unwrap(), m);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("38:10:d5:aa:bb".parse::<MacAddr>().is_err());
        assert!("zz:10:d5:aa:bb:cc".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
        assert!("38:10:d5:aa:bb:cc:dd".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_u64_round_trip() {
        let m = MacAddr::from_u64(0x3810_d5aa_bbcc);
        assert_eq!(m, MacAddr::new([0x38, 0x10, 0xd5, 0xaa, 0xbb, 0xcc]));
        assert_eq!(m.to_u64(), 0x3810_d5aa_bbcc);
    }

    #[test]
    fn oui_extraction() {
        let m: MacAddr = "c8:0e:14:01:02:03".parse().unwrap();
        assert_eq!(m.oui(), Oui::new([0xc8, 0x0e, 0x14]));
        assert_eq!(m.oui().to_string(), "C8-0E-14");
    }

    #[test]
    fn oui_parse_and_u32() {
        let o: Oui = "C8-0E-14".parse().unwrap();
        assert_eq!(o.to_u32(), 0xc80e14);
        assert_eq!(Oui::from_u32(0xc80e14), o);
        assert_eq!(o.with_nic([1, 2, 3]).to_string(), "c8:0e:14:01:02:03");
        assert!("C8-0E".parse::<Oui>().is_err());
    }

    #[test]
    fn flag_bits() {
        assert!(MacAddr::ZERO.is_zero());
        assert!(!MacAddr::new([0, 0, 0, 0, 0, 1]).is_zero());
    }
}
