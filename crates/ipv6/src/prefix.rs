//! CIDR prefixes over the 128-bit IPv6 address space.
//!
//! [`Ipv6Prefix`] is the workhorse type of the reproduction: provider
//! allocations (`/32`), rotation pools (`/46`), candidate networks (`/48`),
//! customer delegations (`/56`, `/60`, `/64`) and host subnets are all
//! prefixes, and the search-space-reduction arguments of §3.2 of the paper
//! are statements about how these prefixes nest.

use core::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::addr::{addr_from_u128, addr_to_u128};
use crate::error::Error;
use crate::ADDR_BITS;

/// An IPv6 CIDR prefix: a network address plus a prefix length.
///
/// The network address is always stored in canonical (masked) form, so two
/// prefixes that describe the same network compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv6Prefix {
    bits: u128,
    len: u8,
}

impl Ipv6Prefix {
    /// The whole IPv6 address space, `::/0`.
    pub const ALL: Ipv6Prefix = Ipv6Prefix { bits: 0, len: 0 };

    /// Construct a prefix from a network address and a length, masking off
    /// any host bits.
    pub fn new(addr: Ipv6Addr, len: u8) -> Result<Self, Error> {
        if len > ADDR_BITS {
            return Err(Error::InvalidPrefixLength(len));
        }
        let bits = addr_to_u128(addr) & Self::mask(len);
        Ok(Ipv6Prefix { bits, len })
    }

    /// Construct a prefix from the integer form of its network address.
    pub fn from_bits(bits: u128, len: u8) -> Result<Self, Error> {
        if len > ADDR_BITS {
            return Err(Error::InvalidPrefixLength(len));
        }
        Ok(Ipv6Prefix {
            bits: bits & Self::mask(len),
            len,
        })
    }

    /// The network mask for a prefix of length `len` as a 128-bit integer.
    pub const fn mask(len: u8) -> u128 {
        if len == 0 {
            0
        } else if len >= 128 {
            u128::MAX
        } else {
            u128::MAX << (128 - len)
        }
    }

    /// The prefix length.
    // `len` here is a prefix length, not a container size; an `is_empty`
    // counterpart would be meaningless.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(&self) -> u8 {
        self.len
    }

    /// The network address of the prefix.
    pub fn network(&self) -> Ipv6Addr {
        addr_from_u128(self.bits)
    }

    /// The network address as a 128-bit integer.
    pub const fn network_bits(&self) -> u128 {
        self.bits
    }

    /// The last address contained in this prefix.
    pub fn last_address(&self) -> Ipv6Addr {
        addr_from_u128(self.bits | !Self::mask(self.len))
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        addr_to_u128(addr) & Self::mask(self.len) == self.bits
    }

    /// Whether `other` is fully contained in (or equal to) this prefix.
    pub fn contains_prefix(&self, other: &Ipv6Prefix) -> bool {
        other.len >= self.len && other.bits & Self::mask(self.len) == self.bits
    }

    /// The number of subnets of length `sub_len` this prefix divides into.
    pub fn num_subnets(&self, sub_len: u8) -> Result<u128, Error> {
        if sub_len > ADDR_BITS {
            return Err(Error::InvalidPrefixLength(sub_len));
        }
        if sub_len < self.len {
            return Err(Error::SubnetShorterThanParent {
                parent: self.len,
                requested: sub_len,
            });
        }
        let extra = sub_len - self.len;
        Ok(if extra >= 128 {
            u128::MAX
        } else {
            1u128 << extra
        })
    }

    /// The `index`th subnet of length `sub_len` inside this prefix.
    pub fn nth_subnet(&self, sub_len: u8, index: u128) -> Result<Ipv6Prefix, Error> {
        let available = self.num_subnets(sub_len)?;
        if index >= available {
            return Err(Error::SubnetIndexOutOfRange { index, available });
        }
        if sub_len == 0 {
            // Only ::/0 subdivides into itself; index 0 was validated above.
            return Ok(*self);
        }
        let shift = 128 - sub_len;
        let bits = self.bits | (index << shift);
        Ipv6Prefix::from_bits(bits, sub_len)
    }

    /// The index of `sub` among the subnets of its length inside this prefix,
    /// or `None` if `sub` is not contained in `self`.
    pub fn subnet_index(&self, sub: &Ipv6Prefix) -> Option<u128> {
        if !self.contains_prefix(sub) {
            return None;
        }
        if sub.len == 0 {
            return Some(0);
        }
        let shift = 128 - sub.len;
        Some((sub.bits >> shift) & ((Self::mask(sub.len) & !Self::mask(self.len)) >> shift))
    }

    /// Iterate over the subnets of length `sub_len` contained in this prefix.
    pub fn subnets(&self, sub_len: u8) -> Result<SubnetIter, Error> {
        let count = self.num_subnets(sub_len)?;
        Ok(SubnetIter {
            parent: *self,
            sub_len,
            next: 0,
            count,
        })
    }

    /// The enclosing prefix of length `len` that contains this prefix.
    pub fn supernet(&self, len: u8) -> Result<Ipv6Prefix, Error> {
        if len > self.len {
            return Err(Error::SubnetShorterThanParent {
                parent: len,
                requested: self.len,
            });
        }
        Ipv6Prefix::from_bits(self.bits, len)
    }

    /// The /64 prefix that contains `addr`. In SLAAC addressing this is the
    /// network the interface identifier lives in.
    pub fn enclosing_64(addr: Ipv6Addr) -> Ipv6Prefix {
        Ipv6Prefix::from_bits(addr_to_u128(addr), 64).expect("64 is a valid length")
    }

    /// Produce an address inside this prefix with the given interface
    /// identifier in its host bits. Host bits of `iid` that overlap the
    /// network portion are masked off.
    pub fn addr_with_host_bits(&self, host_bits: u128) -> Ipv6Addr {
        addr_from_u128(self.bits | (host_bits & !Self::mask(self.len)))
    }

    /// Interpret a /64-granularity span (a count of /64 networks) as an
    /// inferred prefix length: a span of `2^k` /64s corresponds to a /`64-k`.
    ///
    /// The paper's algorithms compute `size ← log2(max_r − min_r)` over
    /// 64-bit prefix integers and report the result as a prefix length; a
    /// span of zero (identifier seen in a single /64) maps to /64.
    pub fn span_to_prefix_len(span: u64) -> u8 {
        if span == 0 {
            64
        } else {
            // ceil(log2(span + 1)) bits are needed to cover the span.
            let bits = 64 - span.leading_zeros() as u8;
            64 - bits.min(64)
        }
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| Error::InvalidPrefix(s.to_string()))?;
        let addr: Ipv6Addr = addr
            .parse()
            .map_err(|_| Error::InvalidPrefix(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| Error::InvalidPrefix(s.to_string()))?;
        Ipv6Prefix::new(addr, len)
    }
}

/// Iterator over the fixed-length subnets of a prefix.
#[derive(Debug, Clone)]
pub struct SubnetIter {
    parent: Ipv6Prefix,
    sub_len: u8,
    next: u128,
    count: u128,
}

impl Iterator for SubnetIter {
    type Item = Ipv6Prefix;

    fn next(&mut self) -> Option<Ipv6Prefix> {
        if self.next >= self.count {
            return None;
        }
        let prefix = self
            .parent
            .nth_subnet(self.sub_len, self.next)
            .expect("index bounded by count");
        self.next += 1;
        Some(prefix)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.count - self.next;
        if remaining > usize::MAX as u128 {
            (usize::MAX, None)
        } else {
            (remaining as usize, Some(remaining as usize))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        let pfx = p("2001:16b8::/32");
        assert_eq!(pfx.to_string(), "2001:16b8::/32");
        assert_eq!(pfx.len(), 32);
        assert!(matches!(
            "2001:db8::".parse::<Ipv6Prefix>(),
            Err(Error::InvalidPrefix(_))
        ));
        assert!(matches!(
            "2001:db8::/129".parse::<Ipv6Prefix>(),
            Err(Error::InvalidPrefixLength(129))
        ));
        assert!(matches!(
            "nonsense/32".parse::<Ipv6Prefix>(),
            Err(Error::InvalidPrefix(_))
        ));
    }

    #[test]
    fn canonical_form_masks_host_bits() {
        let a = Ipv6Prefix::new("2001:db8::dead:beef".parse().unwrap(), 48).unwrap();
        let b = p("2001:db8::/48");
        assert_eq!(a, b);
    }

    #[test]
    fn containment() {
        let pool = p("2001:16b8:100::/46");
        assert!(pool.contains("2001:16b8:101::1".parse().unwrap()));
        assert!(!pool.contains("2001:16b8:104::1".parse().unwrap()));
        assert!(pool.contains_prefix(&p("2001:16b8:103::/48")));
        assert!(!pool.contains_prefix(&p("2001:16b8::/32")));
        assert!(p("2001:16b8::/32").contains_prefix(&pool));
        assert!(pool.contains_prefix(&pool));
    }

    #[test]
    fn subnet_enumeration() {
        let pfx = p("2001:db8::/56");
        assert_eq!(pfx.num_subnets(64).unwrap(), 256);
        let subs: Vec<_> = pfx.subnets(64).unwrap().collect();
        assert_eq!(subs.len(), 256);
        assert_eq!(subs[0], p("2001:db8::/64"));
        assert_eq!(subs[255], p("2001:db8:0:ff::/64"));
        assert_eq!(pfx.nth_subnet(64, 16).unwrap(), p("2001:db8:0:10::/64"));
        assert!(pfx.nth_subnet(64, 256).is_err());
        assert!(pfx.nth_subnet(48, 0).is_err());
    }

    #[test]
    fn subnet_index_round_trip() {
        let pfx = p("2001:db8::/48");
        for idx in [0u128, 1, 17, 255, 65535] {
            let sub = pfx.nth_subnet(64, idx).unwrap();
            assert_eq!(pfx.subnet_index(&sub), Some(idx));
        }
        assert_eq!(pfx.subnet_index(&p("2001:db9::/64")), None);
    }

    #[test]
    fn supernet() {
        let pfx = p("2001:16b8:1d01::/48");
        assert_eq!(pfx.supernet(46).unwrap(), p("2001:16b8:1d00::/46"));
        assert_eq!(pfx.supernet(32).unwrap(), p("2001:16b8::/32"));
        assert!(pfx.supernet(56).is_err());
    }

    #[test]
    fn last_address_and_count() {
        let pfx = p("2001:db8::/64");
        assert_eq!(
            pfx.last_address(),
            "2001:db8::ffff:ffff:ffff:ffff".parse::<Ipv6Addr>().unwrap()
        );
        assert_eq!(Ipv6Prefix::ALL.last_address(), Ipv6Addr::from(u128::MAX));
    }

    #[test]
    fn enclosing_64() {
        let addr: Ipv6Addr = "2001:db8:0:42:3a10:d5ff:feaa:bbcc".parse().unwrap();
        assert_eq!(Ipv6Prefix::enclosing_64(addr), p("2001:db8:0:42::/64"));
    }

    #[test]
    fn span_to_prefix_len_matches_paper_arithmetic() {
        // 2001:16b8:1d00::/64 to 2001:16b8:1d03:ffff::/64 is a span of
        // 0x3_ffff /64s: a /46 rotation pool spans 2^18 /64s.
        assert_eq!(Ipv6Prefix::span_to_prefix_len(0x3_ffff), 46);
        assert_eq!(Ipv6Prefix::span_to_prefix_len(0), 64);
        assert_eq!(Ipv6Prefix::span_to_prefix_len(255), 56);
        assert_eq!(Ipv6Prefix::span_to_prefix_len(256), 55);
    }

    #[test]
    fn addr_with_host_bits_masks_network_overlap() {
        let pfx = p("2001:db8:0:10::/60");
        let a = pfx.addr_with_host_bits(u128::MAX);
        assert!(pfx.contains(a));
        assert_eq!(a, pfx.last_address());
    }

    proptest! {
        #[test]
        fn canonicalisation_is_idempotent(bits in any::<u128>(), len in 0u8..=128) {
            let p1 = Ipv6Prefix::from_bits(bits, len).unwrap();
            let p2 = Ipv6Prefix::from_bits(p1.network_bits(), len).unwrap();
            prop_assert_eq!(p1, p2);
            prop_assert!(p1.contains(p1.network()));
            prop_assert!(p1.contains(p1.last_address()));
        }

        #[test]
        fn nth_subnet_is_contained_and_indexable(
            bits in any::<u128>(),
            len in 0u8..=64,
            extra in 0u8..=16,
            idx_seed in any::<u128>(),
        ) {
            let parent = Ipv6Prefix::from_bits(bits, len).unwrap();
            let sub_len = len + extra;
            let count = parent.num_subnets(sub_len).unwrap();
            let idx = idx_seed % count;
            let sub = parent.nth_subnet(sub_len, idx).unwrap();
            prop_assert!(parent.contains_prefix(&sub));
            prop_assert_eq!(parent.subnet_index(&sub), Some(idx));
        }

        #[test]
        fn parse_display_round_trip(bits in any::<u128>(), len in 0u8..=128) {
            let p1 = Ipv6Prefix::from_bits(bits, len).unwrap();
            let p2: Ipv6Prefix = p1.to_string().parse().unwrap();
            prop_assert_eq!(p1, p2);
        }

        #[test]
        fn contains_iff_subnet_of(addr_bits in any::<u128>(), len in 0u8..=128) {
            let pfx = Ipv6Prefix::from_bits(addr_bits, len).unwrap();
            let addr = addr_from_u128(addr_bits);
            prop_assert!(pfx.contains(addr));
        }
    }
}
