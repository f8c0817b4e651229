//! Longest-prefix-match RIB and AS metadata.
//!
//! The paper uses Routeviews BGP snapshots to map EUI-64 response addresses
//! to their encompassing BGP-advertised prefix and origin AS (Figure 7,
//! Table 2). This crate provides the equivalent machinery:
//!
//! * [`PrefixTable`] — a sorted-range table over IPv6 prefixes supporting
//!   exact insert/lookup and longest-prefix-match (a binary search and a
//!   walk up the enclosing entries), generic over the stored value. The
//!   simulator's pools, the [`Rib`] and the streaming shard map all resolve
//!   addresses through it.
//! * [`Rib`] — a routing information base mapping advertised prefixes to an
//!   origin [`Asn`], with a text import/export format standing in for a
//!   Routeviews table dump.
//! * [`AsRegistry`] — per-AS metadata (name, country code) used to label the
//!   tables in the evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asdb;
pub mod rib;
pub mod trie;

pub use asdb::{AsInfo, AsRegistry, CountryCode};
pub use rib::{Rib, RibEntry, RibParseError, RibParseErrorKind};
pub use trie::PrefixTable;

use serde::{Deserialize, Serialize};

/// An Autonomous System Number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Asn(pub u32);

impl Asn {
    /// The numeric value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Asn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_display() {
        assert_eq!(Asn(8881).to_string(), "AS8881");
        assert_eq!(Asn::from(3320).value(), 3320);
    }
}
