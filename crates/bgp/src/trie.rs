//! A sorted-range table over IPv6 prefixes with longest-prefix-match lookup.
//!
//! Entries live in one `Vec` ordered by `(network bits, length)`, beside a
//! dense column of their network bits. Two prefixes are either nested or
//! disjoint, so that order is a pre-order walk of the containment forest:
//! an entry's descendants follow it contiguously, and each entry records the
//! index of its nearest enclosing entry. A longest-prefix match is then a
//! binary search of the key column for the last entry starting at or before
//! the address, followed by a walk up that entry's (short) chain of
//! enclosing entries to the first one that contains the address.
//!
//! Lookups touch one or two cache lines of keys and one entry per nesting
//! level; `insert` and `remove` keep the order and re-link the whole table,
//! O(n) per call — the tables here are built once (a world's pools, a RIB,
//! a shard map: hundreds to a few thousand entries) and then only read.
//! Collecting an iterator builds a table with one sort and one link pass.
//!
//! (The module keeps the name it had while this was a unibit trie: the test
//! floor knows its unit tests as `trie::tests::*`. That trie survives as the
//! reference model of `tests/prefix_table_oracle.rs`.)

use std::net::Ipv6Addr;

use scent_ipv6::{addr_to_u128, Ipv6Prefix};

/// A table mapping [`Ipv6Prefix`]es to values of type `V`, with exact and
/// longest-prefix-match lookup.
#[derive(Debug, Clone)]
pub struct PrefixTable<V> {
    /// `entries[i].prefix.network_bits()`: the column the search reads.
    keys: Vec<u128>,
    /// Sorted by prefix, i.e. by `(network bits, length)`.
    entries: Vec<Entry<V>>,
}

#[derive(Debug, Clone, Copy)]
struct Entry<V> {
    prefix: Ipv6Prefix,
    /// Index of the most specific other entry containing `prefix`.
    parent: Option<u32>,
    value: V,
}

impl<V> Default for PrefixTable<V> {
    fn default() -> Self {
        PrefixTable {
            keys: Vec::new(),
            entries: Vec::new(),
        }
    }
}

impl<V> PrefixTable<V> {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, prefix: &Ipv6Prefix) -> Result<usize, usize> {
        self.entries.binary_search_by_key(prefix, |e| e.prefix)
    }

    /// Rebuild the key column and every entry's `parent` from the sorted
    /// entries: one pass with a stack of the entries still open.
    fn link(&mut self) {
        assert!(u32::try_from(self.entries.len()).is_ok(), "table too large");
        self.keys.clear();
        self.keys
            .extend(self.entries.iter().map(|e| e.prefix.network_bits()));
        let mut open: Vec<u32> = Vec::new();
        for i in 0..self.entries.len() {
            let prefix = self.entries[i].prefix;
            while open
                .last()
                .is_some_and(|&o| !self.entries[o as usize].prefix.contains_prefix(&prefix))
            {
                open.pop();
            }
            self.entries[i].parent = open.last().copied();
            open.push(i as u32);
        }
    }

    /// Insert a value for a prefix, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Ipv6Prefix, value: V) -> Option<V> {
        match self.position(&prefix) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].value, value)),
            Err(i) => {
                let parent = None;
                let entry = Entry {
                    prefix,
                    parent,
                    value,
                };
                self.entries.insert(i, entry);
                self.link();
                None
            }
        }
    }

    /// Exact-match lookup of a prefix.
    pub fn get(&self, prefix: &Ipv6Prefix) -> Option<&V> {
        let i = self.position(prefix).ok()?;
        Some(&self.entries[i].value)
    }

    /// Remove a prefix, returning its value if present.
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<V> {
        let i = self.position(prefix).ok()?;
        let removed = self.entries.remove(i);
        self.link();
        Some(removed.value)
    }

    /// The stored prefixes containing `addr`, most specific first: the
    /// containing part of the chain of enclosing entries above the last
    /// entry starting at or before `addr`. Every entry sorted between the
    /// most specific match and that predecessor starts inside the match's
    /// range, so it is nested in the match and the chain passes through it;
    /// above the match, everything on the chain contains it and so `addr`.
    fn matches(&self, addr: Ipv6Addr) -> impl Iterator<Item = &Entry<V>> {
        let bits = addr_to_u128(addr);
        let after = self.keys.partition_point(|&key| key <= bits);
        let mut next = after.checked_sub(1);
        std::iter::from_fn(move || {
            let entry = &self.entries[next?];
            next = entry.parent.map(|p| p as usize);
            Some(entry)
        })
        .skip_while(move |entry| !entry.prefix.contains(addr))
    }

    /// Longest-prefix-match: the most specific stored prefix containing
    /// `addr`, along with its value.
    pub fn longest_match(&self, addr: Ipv6Addr) -> Option<(Ipv6Prefix, &V)> {
        self.matches(addr).next().map(|e| (e.prefix, &e.value))
    }

    /// All stored prefixes that contain `addr`, from least to most specific.
    pub fn all_matches(&self, addr: Ipv6Addr) -> Vec<(Ipv6Prefix, &V)> {
        let mut out: Vec<_> = self.matches(addr).map(|e| (e.prefix, &e.value)).collect();
        out.reverse();
        out
    }

    /// Iterate over all `(prefix, value)` pairs in lexicographic prefix
    /// order.
    pub fn iter(&self) -> Vec<(Ipv6Prefix, &V)> {
        self.entries.iter().map(|e| (e.prefix, &e.value)).collect()
    }
}

/// Bulk construction: one sort and one link pass. A later pair replaces an
/// earlier one for the same prefix, as successive `insert`s would.
impl<V> FromIterator<(Ipv6Prefix, V)> for PrefixTable<V> {
    fn from_iter<I: IntoIterator<Item = (Ipv6Prefix, V)>>(iter: I) -> Self {
        let mut entries: Vec<Entry<V>> = iter
            .into_iter()
            .map(|(prefix, value)| Entry {
                prefix,
                parent: None,
                value,
            })
            .collect();
        entries.sort_by_key(|e| e.prefix);
        entries.dedup_by(|later, kept| {
            let same = later.prefix == kept.prefix;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        let mut table = PrefixTable {
            keys: Vec::new(),
            entries,
        };
        table.link();
        table
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
    fn insert_get_remove() {
        let mut table = PrefixTable::new();
        assert!(table.is_empty());
        assert_eq!(table.insert(p("2001:db8::/32"), 1), None);
        assert_eq!(table.insert(p("2001:db8::/32"), 2), Some(1));
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(&p("2001:db8::/32")), Some(&2));
        assert_eq!(table.get(&p("2001:db8::/48")), None);
        assert_eq!(table.remove(&p("2001:db8::/32")), Some(2));
        assert!(table.is_empty());
        assert_eq!(table.remove(&p("2001:db8::/32")), None);
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let mut table = PrefixTable::new();
        table.insert(p("2001:16b8::/32"), "provider");
        table.insert(p("2001:16b8:100::/46"), "pool");
        table.insert(p("2001:16b8:101::/48"), "candidate");
        let addr: Ipv6Addr = "2001:16b8:101:42::1".parse().unwrap();
        let (pfx, v) = table.longest_match(addr).unwrap();
        assert_eq!(pfx, p("2001:16b8:101::/48"));
        assert_eq!(*v, "candidate");

        let addr: Ipv6Addr = "2001:16b8:103::1".parse().unwrap();
        let (pfx, v) = table.longest_match(addr).unwrap();
        assert_eq!(pfx, p("2001:16b8:100::/46"));
        assert_eq!(*v, "pool");

        let addr: Ipv6Addr = "2001:16b8:ffff::1".parse().unwrap();
        let (pfx, v) = table.longest_match(addr).unwrap();
        assert_eq!(pfx, p("2001:16b8::/32"));
        assert_eq!(*v, "provider");

        let addr: Ipv6Addr = "2a02::1".parse().unwrap();
        assert!(table.longest_match(addr).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut table = PrefixTable::new();
        table.insert(Ipv6Prefix::ALL, 0u32);
        let (pfx, v) = table.longest_match("1234::1".parse().unwrap()).unwrap();
        assert_eq!(pfx, Ipv6Prefix::ALL);
        assert_eq!(*v, 0);
    }

    #[test]
    fn all_matches_orders_by_specificity() {
        let mut table = PrefixTable::new();
        table.insert(p("2001::/16"), 16);
        table.insert(p("2001:db8::/32"), 32);
        table.insert(p("2001:db8:0:1::/64"), 64);
        let matches = table.all_matches("2001:db8:0:1::5".parse().unwrap());
        let lens: Vec<u8> = matches.iter().map(|(p, _)| p.len()).collect();
        assert_eq!(lens, vec![16, 32, 64]);
    }

    #[test]
    fn iter_returns_all_prefixes() {
        let mut table = PrefixTable::new();
        let prefixes = [p("2001:db8::/32"), p("2a01::/16"), p("2001:db8:1::/48")];
        for (i, pfx) in prefixes.iter().enumerate() {
            table.insert(*pfx, i);
        }
        let entries = table.iter();
        assert_eq!(entries.len(), 3);
        for pfx in &prefixes {
            assert!(entries.iter().any(|(q, _)| q == pfx));
        }
    }

    #[test]
    fn host_route_128() {
        let mut table = PrefixTable::new();
        let host = p("2001:db8::1/128");
        table.insert(host, "host");
        let (pfx, _) = table.longest_match("2001:db8::1".parse().unwrap()).unwrap();
        assert_eq!(pfx, host);
        assert!(table
            .longest_match("2001:db8::2".parse().unwrap())
            .is_none());
    }

    proptest! {
        #[test]
        fn lpm_agrees_with_linear_scan(
            entries in proptest::collection::vec((any::<u128>(), 0u8..=64), 1..40),
            probe in any::<u128>(),
        ) {
            let mut table = PrefixTable::new();
            let mut list: Vec<(Ipv6Prefix, usize)> = Vec::new();
            for (i, (bits, len)) in entries.iter().enumerate() {
                let pfx = Ipv6Prefix::from_bits(*bits, *len).unwrap();
                table.insert(pfx, i);
                // Later inserts replace earlier ones for the same prefix.
                list.retain(|(q, _)| *q != pfx);
                list.push((pfx, i));
            }
            let addr = Ipv6Addr::from(probe);
            let expected = list
                .iter()
                .filter(|(q, _)| q.contains(addr))
                .max_by_key(|(q, _)| q.len())
                .map(|(q, v)| (q.len(), *v));
            let actual = table.longest_match(addr).map(|(q, v)| (q.len(), *v));
            prop_assert_eq!(actual, expected);
        }

        #[test]
        fn insert_then_get(bits in any::<u128>(), len in 0u8..=128) {
            let mut table = PrefixTable::new();
            let pfx = Ipv6Prefix::from_bits(bits, len).unwrap();
            table.insert(pfx, 42u32);
            prop_assert_eq!(table.get(&pfx), Some(&42));
            prop_assert_eq!(table.len(), 1);
        }
    }
}
