//! Modified EUI-64 interface identifiers (RFC 4291 Appendix A, RFC 2464 §4).
//!
//! An EUI-64 SLAAC interface identifier is formed from a 48-bit MAC address
//! by inserting `ff:fe` between the third and fourth octets and flipping the
//! Universal/Local bit of the first octet. The transformation is trivially
//! reversible, which is exactly the privacy problem the paper studies: a CPE
//! that uses EUI-64 addressing broadcasts its hardware MAC in every response,
//! providing a stable identifier that survives prefix rotation.

use core::fmt;
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use crate::addr::interface_id;
use crate::error::Error;
use crate::mac::{MacAddr, Oui};

/// A modified EUI-64 interface identifier: the low 64 bits of an IPv6 address
/// formed from a MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Eui64(pub u64);

impl Eui64 {
    /// Form the modified EUI-64 IID from a MAC address: insert `ff:fe` in the
    /// middle and flip the U/L bit.
    pub const fn from_mac(mac: MacAddr) -> Self {
        let o = mac.octets();
        let bytes = [o[0] ^ 0x02, o[1], o[2], 0xff, 0xfe, o[3], o[4], o[5]];
        Eui64(u64::from_be_bytes(bytes))
    }

    /// Recover the MAC address embedded in this IID by reversing the modified
    /// EUI-64 transformation.
    pub const fn to_mac(self) -> MacAddr {
        let b = self.0.to_be_bytes();
        MacAddr::new([b[0] ^ 0x02, b[1], b[2], b[5], b[6], b[7]])
    }

    /// Whether a raw 64-bit IID has the `ff:fe` marker of a modified EUI-64
    /// identifier in its middle two octets.
    ///
    /// This is the detection heuristic used throughout the paper (and in the
    /// prior periphery-discovery work it builds on): the probability of a
    /// random privacy-extension IID colliding with the marker is 2⁻¹⁶.
    pub const fn is_eui64_iid(iid: u64) -> bool {
        let b = iid.to_be_bytes();
        b[3] == 0xff && b[4] == 0xfe
    }

    /// Interpret a raw IID as an EUI-64 identifier, if it carries the marker.
    pub(crate) fn from_iid(iid: u64) -> Result<Self, Error> {
        if Self::is_eui64_iid(iid) {
            Ok(Eui64(iid))
        } else {
            Err(Error::NotEui64)
        }
    }

    /// Extract the EUI-64 identifier from a full IPv6 address, if its IID
    /// carries the `ff:fe` marker. This is `extractEUI` in the paper's
    /// Algorithms 1 and 2.
    pub fn from_addr(addr: Ipv6Addr) -> Option<Self> {
        let iid = interface_id(addr);
        if Self::is_eui64_iid(iid) {
            Some(Eui64(iid))
        } else {
            None
        }
    }

    /// Whether an IPv6 address has an EUI-64 interface identifier. This is
    /// `isEUI` in the paper's pseudocode.
    pub fn addr_is_eui64(addr: Ipv6Addr) -> bool {
        Self::is_eui64_iid(interface_id(addr))
    }

    /// The raw 64-bit value of the identifier.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The OUI of the embedded MAC address (manufacturer identifier).
    pub const fn oui(self) -> Oui {
        self.to_mac().oui()
    }

    /// Combine this IID with a 64-bit routing prefix into a full address.
    pub const fn with_prefix64(self, prefix64: u64) -> Ipv6Addr {
        let bits = ((prefix64 as u128) << 64) | self.0 as u128;
        // Ipv6Addr::from(u128) is not const; go through octets.
        let b = bits.to_be_bytes();
        Ipv6Addr::new(
            u16::from_be_bytes([b[0], b[1]]),
            u16::from_be_bytes([b[2], b[3]]),
            u16::from_be_bytes([b[4], b[5]]),
            u16::from_be_bytes([b[6], b[7]]),
            u16::from_be_bytes([b[8], b[9]]),
            u16::from_be_bytes([b[10], b[11]]),
            u16::from_be_bytes([b[12], b[13]]),
            u16::from_be_bytes([b[14], b[15]]),
        )
    }
}

impl fmt::Display for Eui64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(
            f,
            "{:02x}{:02x}:{:02x}{:02x}:{:02x}{:02x}:{:02x}{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
        )
    }
}

impl std::str::FromStr for Eui64 {
    type Err = Error;

    /// Parse the [`fmt::Display`] form: four colon-separated groups of up to
    /// four hex digits (`3a10:d5ff:feaa:bbcc`). The identifier must carry the
    /// `ff:fe` EUI-64 marker; anything else fails with [`Error::NotEui64`].
    fn from_str(s: &str) -> Result<Self, Error> {
        let mut groups = s.split(':');
        let mut iid: u64 = 0;
        for _ in 0..4 {
            let group = groups.next().ok_or(Error::NotEui64)?;
            // from_str_radix accepts a leading sign; only bare hex digits are
            // part of the Display form.
            if group.is_empty() || group.len() > 4 || !group.bytes().all(|b| b.is_ascii_hexdigit())
            {
                return Err(Error::NotEui64);
            }
            let value = u16::from_str_radix(group, 16).map_err(|_| Error::NotEui64)?;
            iid = (iid << 16) | value as u64;
        }
        if groups.next().is_some() {
            return Err(Error::NotEui64);
        }
        Self::from_iid(iid)
    }
}

impl From<MacAddr> for Eui64 {
    fn from(mac: MacAddr) -> Self {
        Eui64::from_mac(mac)
    }
}

impl From<Eui64> for MacAddr {
    fn from(eui: Eui64) -> Self {
        eui.to_mac()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_mac() {
        // Figure 1 of the paper: MAC 38:10:d5:aa:bb:cc should yield an IID of
        // 3a10:d5ff:feaa:bbcc (U/L bit flipped, ff:fe inserted).
        let mac: MacAddr = "38:10:d5:aa:bb:cc".parse().unwrap();
        let eui = Eui64::from_mac(mac);
        assert_eq!(eui.to_string(), "3a10:d5ff:feaa:bbcc");
        assert_eq!(eui.to_mac(), mac);
    }

    #[test]
    fn address_embedding() {
        let mac: MacAddr = "38:10:d5:aa:bb:cc".parse().unwrap();
        let eui = Eui64::from_mac(mac);
        let addr = eui.with_prefix64(0x2001_16b8_1d01_0000);
        assert_eq!(
            addr,
            "2001:16b8:1d01:0:3a10:d5ff:feaa:bbcc"
                .parse::<Ipv6Addr>()
                .unwrap()
        );
        assert!(Eui64::addr_is_eui64(addr));
        assert_eq!(Eui64::from_addr(addr), Some(eui));
        assert_eq!(Eui64::from_addr(addr).unwrap().to_mac(), mac);
    }

    #[test]
    fn non_eui64_addresses_are_rejected() {
        let privacy: Ipv6Addr = "2001:db8::8d4f:1a2b:3c4d:5e6f".parse().unwrap();
        assert!(!Eui64::addr_is_eui64(privacy));
        assert_eq!(Eui64::from_addr(privacy), None);
        assert_eq!(Eui64::from_iid(0x1234_5678_9abc_def0), Err(Error::NotEui64));
    }

    #[test]
    fn oui_recovery() {
        let mac: MacAddr = "c8:0e:14:12:34:56".parse().unwrap();
        let eui = Eui64::from_mac(mac);
        assert_eq!(eui.oui(), Oui::new([0xc8, 0x0e, 0x14]));
    }

    #[test]
    fn zero_mac_pathology() {
        // §5.5: the all-zero MAC appears as an EUI-64 IID in many ASes.
        let eui = Eui64::from_mac(MacAddr::ZERO);
        assert_eq!(eui.to_string(), "0200:00ff:fe00:0000");
        assert!(Eui64::is_eui64_iid(eui.as_u64()));
        assert!(eui.to_mac().is_zero());
    }

    proptest! {
        #[test]
        fn mac_eui64_round_trip(bits in any::<u64>()) {
            let mac = MacAddr::from_u64(bits & 0xffff_ffff_ffff);
            let eui = Eui64::from_mac(mac);
            prop_assert!(Eui64::is_eui64_iid(eui.as_u64()));
            prop_assert_eq!(eui.to_mac(), mac);
        }

        #[test]
        fn with_prefix_preserves_parts(prefix in any::<u64>(), bits in any::<u64>()) {
            let mac = MacAddr::from_u64(bits & 0xffff_ffff_ffff);
            let eui = Eui64::from_mac(mac);
            let addr = eui.with_prefix64(prefix);
            prop_assert_eq!(crate::addr::network_prefix64(addr), prefix);
            prop_assert_eq!(Eui64::from_addr(addr), Some(eui));
        }
    }
}
