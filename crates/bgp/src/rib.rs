//! A Routing Information Base: advertised prefix → origin AS.
//!
//! Stands in for the Routeviews global table the paper uses to find the
//! "encompassing BGP prefix" of each EUI-64 response address (Figure 7,
//! Table 2).

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_ipv6::Ipv6Prefix;

use crate::trie::PrefixTable;
use crate::Asn;

/// A single RIB entry: an advertised prefix originated by an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RibEntry {
    /// The advertised prefix.
    pub prefix: Ipv6Prefix,
    /// The origin AS.
    pub origin: Asn,
}

/// Why a line of a RIB table dump failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RibParseErrorKind {
    /// The first column was not a valid IPv6 prefix.
    BadPrefix,
    /// The second column was not a valid AS number.
    BadAsn,
}

/// A parse failure in [`Rib::from_table_text`], carrying the 1-based line
/// number of the offending entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RibParseError {
    /// The 1-based line number that failed to parse.
    pub line: usize,
    /// What was wrong with it.
    pub kind: RibParseErrorKind,
}

impl std::fmt::Display for RibParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            RibParseErrorKind::BadPrefix => write!(f, "line {}: bad prefix", self.line),
            RibParseErrorKind::BadAsn => write!(f, "line {}: bad ASN", self.line),
        }
    }
}

impl std::error::Error for RibParseError {}

/// A routing information base with longest-prefix-match lookup.
#[derive(Debug, Clone, Default)]
pub struct Rib {
    table: PrefixTable<Asn>,
}

impl Rib {
    /// Create an empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of advertised prefixes.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the RIB is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Announce a prefix from an origin AS. Returns the previous origin if
    /// the exact prefix was already announced (e.g. an origin change).
    pub fn announce(&mut self, prefix: Ipv6Prefix, origin: Asn) -> Option<Asn> {
        self.table.insert(prefix, origin)
    }

    /// The most specific announced prefix covering `addr` and its origin.
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<RibEntry> {
        self.table
            .longest_match(addr)
            .map(|(prefix, &origin)| RibEntry { prefix, origin })
    }

    /// The origin AS for `addr`, if any announced prefix covers it.
    pub fn origin(&self, addr: Ipv6Addr) -> Option<Asn> {
        self.lookup(addr).map(|e| e.origin)
    }

    /// The length of the encompassing BGP prefix for `addr` — the quantity
    /// plotted against inferred rotation-pool sizes in Figure 7.
    pub fn encompassing_prefix_len(&self, addr: Ipv6Addr) -> Option<u8> {
        self.lookup(addr).map(|e| e.prefix.len())
    }

    /// All entries in the RIB.
    pub fn entries(&self) -> Vec<RibEntry> {
        self.table
            .iter()
            .into_iter()
            .map(|(prefix, &origin)| RibEntry { prefix, origin })
            .collect()
    }

    /// Serialize in a simple `prefix origin-asn` text format, one entry per
    /// line (a stand-in for a Routeviews table dump).
    pub fn to_table_text(&self) -> String {
        let mut out = String::new();
        for entry in self.entries() {
            out.push_str(&format!("{} {}\n", entry.prefix, entry.origin.value()));
        }
        out
    }

    /// Parse the text format produced by [`Rib::to_table_text`]. The first
    /// line that fails to parse is reported in the error.
    pub fn from_table_text(text: &str) -> Result<Self, RibParseError> {
        // Collected, not announced line by line: a table dump is the one
        // large input, and the table builds in one pass from a list.
        let mut routes = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let prefix = parts
                .next()
                .and_then(|p| p.parse::<Ipv6Prefix>().ok())
                .ok_or(RibParseError {
                    line: lineno + 1,
                    kind: RibParseErrorKind::BadPrefix,
                })?;
            let asn = parts
                .next()
                .and_then(|a| a.parse::<u32>().ok())
                .ok_or(RibParseError {
                    line: lineno + 1,
                    kind: RibParseErrorKind::BadAsn,
                })?;
            routes.push((prefix, Asn(asn)));
        }
        let table = routes.into_iter().collect();
        Ok(Rib { table })
    }
}

impl FromIterator<RibEntry> for Rib {
    fn from_iter<T: IntoIterator<Item = RibEntry>>(iter: T) -> Self {
        let table = iter.into_iter().map(|e| (e.prefix, e.origin)).collect();
        Rib { table }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn announce_and_lookup() {
        let mut rib = Rib::new();
        rib.announce(p("2001:16b8::/32"), Asn(8881));
        rib.announce(p("2003:e2::/32"), Asn(3320));
        rib.announce(p("2804:14c::/33"), Asn(28573));

        let entry = rib.lookup("2001:16b8:1d01::1".parse().unwrap()).unwrap();
        assert_eq!(entry.origin, Asn(8881));
        assert_eq!(entry.prefix, p("2001:16b8::/32"));
        assert_eq!(
            rib.encompassing_prefix_len("2804:14c:1::1".parse().unwrap()),
            Some(33)
        );
        assert_eq!(rib.origin("2a02::1".parse().unwrap()), None);
    }

    #[test]
    fn more_specific_wins() {
        let mut rib = Rib::new();
        rib.announce(p("2001:16b8::/32"), Asn(8881));
        rib.announce(p("2001:16b8:8000::/33"), Asn(64500));
        assert_eq!(
            rib.origin("2001:16b8:8000::1".parse().unwrap()),
            Some(Asn(64500))
        );
        assert_eq!(rib.origin("2001:16b8::1".parse().unwrap()), Some(Asn(8881)));
    }

    #[test]
    fn origin_change_is_reported() {
        let mut rib = Rib::new();
        assert_eq!(rib.announce(p("2001:db8::/32"), Asn(1)), None);
        assert_eq!(rib.announce(p("2001:db8::/32"), Asn(2)), Some(Asn(1)));
        assert_eq!(rib.origin("2001:db8::1".parse().unwrap()), Some(Asn(2)));
        assert_eq!(rib.len(), 1);
    }

    #[test]
    fn table_text_round_trip() {
        let mut rib = Rib::new();
        rib.announce(p("2001:16b8::/32"), Asn(8881));
        rib.announce(p("2a02:587::/29"), Asn(6799));
        rib.announce(p("240e::/20"), Asn(4134));
        let text = rib.to_table_text();
        let parsed = Rib::from_table_text(&text).unwrap();
        assert_eq!(parsed.entries(), rib.entries());
    }

    #[test]
    fn table_text_parse_errors() {
        assert_eq!(
            Rib::from_table_text("not-a-prefix 123").unwrap_err(),
            RibParseError {
                line: 1,
                kind: RibParseErrorKind::BadPrefix
            }
        );
        let err = Rib::from_table_text("2001:db8::/32 1\n2001:db8::/32 notanasn").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, RibParseErrorKind::BadAsn);
        assert_eq!(err.to_string(), "line 2: bad ASN");
        // Comments and blank lines are fine.
        let rib = Rib::from_table_text("# comment\n\n2001:db8::/32 1\n").unwrap();
        assert_eq!(rib.len(), 1);
    }

    #[test]
    fn from_iterator() {
        let rib: Rib = vec![
            RibEntry {
                prefix: p("2001:db8::/32"),
                origin: Asn(1),
            },
            RibEntry {
                prefix: p("2a01::/16"),
                origin: Asn(2),
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(rib.len(), 2);
    }
}
