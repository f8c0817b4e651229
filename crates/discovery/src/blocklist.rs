//! The probe blocklist: prefixes no probe may ever be sent into.
//!
//! Real measurement campaigns carry opt-out lists; the discovery subsystem
//! honors one at every point a target is about to be emitted — the
//! detection-phase target stream, the boundary re-expansion candidates and
//! the discovery tree's own sweep all consult the same [`Blocklist`] before
//! a probe exists. A blocked prefix therefore never appears in a
//! [`ProbeLog`](scent_prober::ProbeLog), not merely never in a report.

use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use scent_core::PrefixTable;
use scent_ipv6::Ipv6Prefix;

/// A set of prefixes excluded from all probing, of any length: a /32 entry
/// silences a whole announcement, a /56 entry punches a hole inside an
/// otherwise-watched /48.
///
/// Membership tests ask a [`PrefixTable`] built when the list is: one
/// longest-prefix lookup per target or candidate, however long the opt-out
/// list grows. The table is not part of the serialized form — a list
/// travels as its entries and is rebuilt by [`Blocklist::new`] on arrival,
/// so no payload can carry a table that disagrees with them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<Ipv6Prefix>", into = "Vec<Ipv6Prefix>")]
pub struct Blocklist {
    entries: Vec<Ipv6Prefix>,
    /// The outermost entries — the ones no other entry contains. An entry
    /// nested inside another blocks nothing its outer entry does not, so at
    /// most one table entry contains any address and that one decides.
    outermost: PrefixTable<()>,
}

/// Two lists are equal when they hold the same entries (the table is a
/// function of them).
impl PartialEq for Blocklist {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for Blocklist {}

impl From<Vec<Ipv6Prefix>> for Blocklist {
    fn from(entries: Vec<Ipv6Prefix>) -> Self {
        Blocklist::new(entries)
    }
}

impl From<Blocklist> for Vec<Ipv6Prefix> {
    fn from(list: Blocklist) -> Self {
        list.entries
    }
}

impl Blocklist {
    /// A blocklist over the given prefixes (sorted and deduplicated).
    pub fn new(mut entries: Vec<Ipv6Prefix>) -> Self {
        entries.sort();
        entries.dedup();
        // Sorted by (network bits, length), an entry's nested entries follow
        // it directly: keep an entry unless the last one kept contains it.
        let mut outermost: Vec<Ipv6Prefix> = Vec::new();
        for entry in &entries {
            if !outermost.last().is_some_and(|o| o.contains_prefix(entry)) {
                outermost.push(*entry);
            }
        }
        Blocklist {
            entries,
            outermost: outermost.into_iter().map(|entry| (entry, ())).collect(),
        }
    }

    /// Parse a blocklist from text lines, one prefix per line. Empty lines
    /// and `#` comments are skipped. A malformed entry is a typed
    /// [`BlocklistError`] naming the line — never a silently dropped probe
    /// exclusion.
    pub fn parse<S: AsRef<str>>(lines: &[S]) -> Result<Self, BlocklistError> {
        let mut entries = Vec::new();
        for (index, line) in lines.iter().enumerate() {
            let text = line.as_ref().trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            match Ipv6Prefix::from_str(text) {
                Ok(prefix) => entries.push(prefix),
                Err(_) => {
                    return Err(BlocklistError {
                        line: index + 1,
                        entry: text.to_string(),
                    })
                }
            }
        }
        Ok(Blocklist::new(entries))
    }

    /// The entries, sorted and deduplicated.
    pub fn entries(&self) -> &[Ipv6Prefix] {
        &self.entries
    }

    /// Whether the list has no entries (the common case — checked once per
    /// epoch so empty blocklists cost nothing on the target hot path).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether `prefix` lies entirely inside some blocked entry — the test
    /// applied to candidate /48s and sweep subnets before a target is drawn
    /// from them.
    pub fn covers(&self, prefix: &Ipv6Prefix) -> bool {
        self.outermost
            .longest_match(prefix.network())
            .is_some_and(|(entry, _)| entry.len() <= prefix.len())
    }

    /// Whether `addr` lies inside some blocked entry — the final per-target
    /// test applied before an address is emitted to a prober.
    pub fn covers_addr(&self, addr: Ipv6Addr) -> bool {
        self.outermost.longest_match(addr).is_some()
    }
}

/// A malformed blocklist entry: the line number (1-based) and the offending
/// text. Refusing the whole list is deliberate — a half-parsed opt-out list
/// is a compliance incident, not a warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlocklistError {
    /// 1-based line number of the malformed entry.
    pub line: usize,
    /// The offending entry text.
    pub entry: String,
}

impl fmt::Display for BlocklistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed blocklist entry at line {}: {:?} is not an IPv6 prefix",
            self.line, self.entry
        )
    }
}

impl std::error::Error for BlocklistError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let list = Blocklist::parse(&[
            "# operators who opted out",
            "",
            "2001:db8::/32",
            "  2001:16b8:1d00::/48  ",
        ])
        .unwrap();
        assert_eq!(list.len(), 2);
        assert!(list.covers(&p("2001:db8:ffff::/48")));
        assert!(list.covers(&p("2001:16b8:1d00:aa00::/56")));
        assert!(!list.covers(&p("2001:16b8:1d10::/48")));
    }

    #[test]
    fn malformed_entry_is_a_typed_error_with_the_line() {
        let err = Blocklist::parse(&["2001:db8::/32", "not-a-prefix/99"]).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.entry, "not-a-prefix/99");
        let shown = err.to_string();
        assert!(shown.contains("line 2"), "{shown}");
        assert!(shown.contains("not-a-prefix"), "{shown}");
    }

    #[test]
    fn containment_is_entry_containment_not_equality() {
        let list = Blocklist::new(vec![p("2001:db8:1::/48")]);
        assert!(list.covers_addr("2001:db8:1::42".parse().unwrap()));
        assert!(!list.covers_addr("2001:db8:2::42".parse().unwrap()));
        // The /48 does not cover its /32 supernet.
        assert!(!list.covers(&p("2001:db8::/32")));
    }

    #[test]
    fn entries_are_sorted_and_deduplicated() {
        let list = Blocklist::new(vec![
            p("2001:db8:2::/48"),
            p("2001:db8:1::/48"),
            p("2001:db8:2::/48"),
        ]);
        assert_eq!(
            list.entries(),
            &[p("2001:db8:1::/48"), p("2001:db8:2::/48")]
        );
    }
}
