//! Conversions between [`std::net::Ipv6Addr`] and the `u128` arithmetic view
//! used by the inference algorithms.
//!
//! The paper's Algorithms 1 and 2 treat IPv6 addresses as 128-bit integers:
//! the routing prefix is `addr >> 64` and numeric distances between prefixes
//! are plain integer subtractions. These helpers keep that arithmetic in one
//! place.

use std::net::Ipv6Addr;

/// Convert an [`Ipv6Addr`] to its 128-bit big-endian integer representation.
#[inline]
pub fn addr_to_u128(addr: Ipv6Addr) -> u128 {
    u128::from_be_bytes(addr.octets())
}

/// Convert a 128-bit integer back into an [`Ipv6Addr`].
#[inline]
pub fn addr_from_u128(bits: u128) -> Ipv6Addr {
    Ipv6Addr::from(bits.to_be_bytes())
}

/// Return the upper 64 bits of an address — the routing prefix in SLAAC
/// addressing — as an integer (`addr >> 64` in the paper's notation).
#[inline]
pub fn network_prefix64(addr: Ipv6Addr) -> u64 {
    (addr_to_u128(addr) >> 64) as u64
}

/// Return the lower 64 bits of an address: the interface identifier (IID).
#[inline]
pub fn interface_id(addr: Ipv6Addr) -> u64 {
    addr_to_u128(addr) as u64
}

/// Rebuild a full address from a 64-bit routing prefix and a 64-bit IID.
#[inline]
pub fn from_parts(prefix64: u64, iid: u64) -> Ipv6Addr {
    addr_from_u128(((prefix64 as u128) << 64) | iid as u128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_round_trip() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(addr_from_u128(addr_to_u128(a)), a);
        let b: Ipv6Addr = "ff02::1:ff00:1234".parse().unwrap();
        assert_eq!(addr_from_u128(addr_to_u128(b)), b);
    }

    #[test]
    fn prefix_and_iid_split() {
        let a: Ipv6Addr = "2001:16b8:1d01:aa00:3a10:d5ff:feaa:bbcc".parse().unwrap();
        let p = network_prefix64(a);
        let iid = interface_id(a);
        assert_eq!(p, 0x2001_16b8_1d01_aa00);
        assert_eq!(iid, 0x3a10_d5ff_feaa_bbcc);
        assert_eq!(from_parts(p, iid), a);
    }

    #[test]
    fn from_parts_zero_iid() {
        let a = from_parts(0x2001_0db8_0000_0000, 0);
        assert_eq!(a, "2001:db8::".parse::<Ipv6Addr>().unwrap());
    }
}
