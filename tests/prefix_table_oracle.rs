//! Differential oracles for [`PrefixTable`], the sorted-range table behind
//! every longest-prefix match (probe → pool, response → announcement,
//! target → shard), against the boxed unibit trie it replaced, kept here
//! verbatim as the reference model — and against plain linear scans where a
//! user of the table can be checked from outside.

use std::net::Ipv6Addr;

use followscent::bgp::{Asn, PrefixTable, Rib};
use followscent::ipv6::{addr_from_u128, addr_to_u128, Ipv6Prefix};
use followscent::prober::{TargetGenerator, TargetStream};
use followscent::simnet::{scenarios, Engine, SimTime, WorldScale};
use followscent::stream::ShardMap;
use proptest::prelude::*;

/// A binary prefix trie mapping [`Ipv6Prefix`]es to values of type `V`: the
/// unibit trie [`PrefixTable`] replaced, verbatim.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    root: Node<V>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<V> {
    value: Option<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Default for Node<V> {
    fn default() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        PrefixTrie {
            root: Node::default(),
            len: 0,
        }
    }
}

/// Extract bit `i` (0 = most significant) of a 128-bit address.
#[inline]
fn bit(bits: u128, i: u8) -> usize {
    ((bits >> (127 - i)) & 1) as usize
}

impl<V> PrefixTrie<V> {
    /// Create an empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value for a prefix, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Ipv6Prefix, value: V) -> Option<V> {
        let bits = prefix.network_bits();
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = bit(bits, i);
            node = node.children[b].get_or_insert_with(|| Box::new(Node::default()));
        }
        let previous = node.value.replace(value);
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    /// Exact-match lookup of a prefix.
    pub fn get(&self, prefix: &Ipv6Prefix) -> Option<&V> {
        let bits = prefix.network_bits();
        let mut node = &self.root;
        for i in 0..prefix.len() {
            node = node.children[bit(bits, i)].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Remove a prefix, returning its value if present.
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> Option<V> {
        let bits = prefix.network_bits();
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            node = node.children[bit(bits, i)].as_deref_mut()?;
        }
        let removed = node.value.take();
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Longest-prefix-match: the most specific stored prefix containing
    /// `addr`, along with its value.
    pub fn longest_match(&self, addr: Ipv6Addr) -> Option<(Ipv6Prefix, &V)> {
        let bits = addr_to_u128(addr);
        let mut node = &self.root;
        let mut best: Option<(u8, &V)> = node.value.as_ref().map(|v| (0u8, v));
        for i in 0..128u8 {
            match node.children[bit(bits, i)].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((i + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| {
            (
                Ipv6Prefix::from_bits(bits, len).expect("length bounded by 128"),
                v,
            )
        })
    }

    /// All stored prefixes that contain `addr`, from least to most specific.
    pub fn all_matches(&self, addr: Ipv6Addr) -> Vec<(Ipv6Prefix, &V)> {
        let bits = addr_to_u128(addr);
        let mut node = &self.root;
        let mut out = Vec::new();
        if let Some(v) = node.value.as_ref() {
            out.push((Ipv6Prefix::ALL, v));
        }
        for i in 0..128u8 {
            match node.children[bit(bits, i)].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = child.value.as_ref() {
                        out.push((
                            Ipv6Prefix::from_bits(bits, i + 1).expect("length bounded"),
                            v,
                        ));
                    }
                }
                None => break,
            }
        }
        out
    }

    /// Iterate over all `(prefix, value)` pairs in lexicographic prefix
    /// order.
    pub fn iter(&self) -> Vec<(Ipv6Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len);
        Self::walk(&self.root, 0, 0, &mut out);
        out
    }

    fn walk<'a>(node: &'a Node<V>, bits: u128, depth: u8, out: &mut Vec<(Ipv6Prefix, &'a V)>) {
        if let Some(v) = node.value.as_ref() {
            out.push((
                Ipv6Prefix::from_bits(bits, depth).expect("depth bounded"),
                v,
            ));
        }
        if depth == 128 {
            return;
        }
        if let Some(child) = node.children[0].as_deref() {
            Self::walk(child, bits, depth + 1, out);
        }
        if let Some(child) = node.children[1].as_deref() {
            Self::walk(child, bits | (1u128 << (127 - depth)), depth + 1, out);
        }
    }
}

/// A prefix drawn so that collisions, nesting and adjacency are common: eight
/// possible /29s, a length from the interesting set, and below the /29 either
/// zeros, ones or noise.
fn prefix_from(bits: u128, shape: u8) -> Ipv6Prefix {
    const LENS: [u8; 8] = [0, 29, 30, 32, 48, 56, 64, 128];
    let high = (0x2001_0db8u128 << 96) | ((bits & 7) << 99);
    let low = match shape / 8 % 3 {
        0 => 0,
        1 => u128::MAX >> 29,
        _ => bits >> 29,
    };
    Ipv6Prefix::from_bits(high | low, LENS[(shape % 8) as usize]).expect("length is at most 128")
}

fn assert_same_table(table: &PrefixTable<u32>, trie: &PrefixTrie<u32>, probes: &[Ipv6Addr]) {
    assert_eq!(table.len(), trie.len());
    assert_eq!(table.is_empty(), trie.is_empty());
    assert_eq!(table.iter(), trie.iter(), "iteration order included");
    for &addr in probes {
        assert_eq!(
            table.longest_match(addr),
            trie.longest_match(addr),
            "{addr}"
        );
        assert_eq!(table.all_matches(addr), trie.all_matches(addr), "{addr}");
    }
}

proptest! {
    // Arbitrary interleavings of `insert` (fresh, replacing, nested,
    // adjacent, `/0`, `/128`) and `remove`: after every step the table and
    // the trie agree on every answer — at the touched prefix's first and
    // last address, one past either end, and a random address.
    #[test]
    fn table_agrees_with_the_unibit_trie(
        ops in proptest::collection::vec((any::<u128>(), any::<u8>(), any::<bool>()), 1..60),
        noise in any::<u128>(),
    ) {
        let mut table = PrefixTable::new();
        let mut trie = PrefixTrie::new();
        for (step, &(bits, shape, remove)) in ops.iter().enumerate() {
            let prefix = prefix_from(bits, shape);
            if remove {
                prop_assert_eq!(table.remove(&prefix), trie.remove(&prefix));
            } else {
                prop_assert_eq!(table.insert(prefix, step as u32), trie.insert(prefix, step as u32));
            }
            prop_assert_eq!(table.get(&prefix), trie.get(&prefix));
            let (first, last) = (prefix.network_bits(), addr_to_u128(prefix.last_address()));
            let probes = [first, last, first.wrapping_sub(1), last.wrapping_add(1), noise ^ bits];
            assert_same_table(&table, &trie, &probes.map(addr_from_u128));
        }
    }

    // Collecting pairs is inserting them one by one: a later pair replaces
    // an earlier one for the same prefix.
    #[test]
    fn collected_table_is_the_inserted_table(
        pairs in proptest::collection::vec((any::<u128>(), any::<u8>()), 0..40),
        probe in any::<u128>(),
    ) {
        let pairs = (pairs.iter().enumerate()).map(|(i, &(bits, shape))| (prefix_from(bits, shape), i as u32));
        let mut trie = PrefixTrie::new();
        for (prefix, value) in pairs.clone() {
            trie.insert(prefix, value);
        }
        let probes = [probe, (0x2001_0db8u128 << 96) | (probe >> 32)];
        assert_same_table(&pairs.collect(), &trie, &probes.map(addr_from_u128));
    }

    // The RIB parser takes outside text: whatever it is given, it answers
    // with a RIB or a typed error, never a panic.
    #[test]
    fn rib_parser_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        pick in proptest::collection::vec(0usize..12, 0..60),
    ) {
        let _ = Rib::from_table_text(&String::from_utf8_lossy(&bytes));
        // Nearly-valid text reaches further into the parser than noise does.
        const TOKENS: [&str; 12] = [
            "2001:db8::/32", "2a02:587::/29", "::/0", "2001:db8::/129", "/48", "::",
            "64500", "4294967296", "-1", " ", "\n", "#",
        ];
        let text: String = pick.iter().map(|&i| TOKENS[i]).collect();
        let _ = Rib::from_table_text(&text);
    }

    // `to_table_text` and `from_table_text` are inverses on a RIB's entries.
    #[test]
    fn rib_table_text_round_trips(
        routes in proptest::collection::vec((any::<u128>(), any::<u8>(), any::<u32>()), 0..40),
    ) {
        let mut rib = Rib::new();
        for &(bits, shape, origin) in &routes {
            rib.announce(prefix_from(bits, shape), Asn(origin));
        }
        let parsed = Rib::from_table_text(&rib.to_table_text()).expect("own output parses");
        prop_assert_eq!(parsed.entries(), rib.entries());
    }
}

/// The experiment-scale `paper_world` the benchmark's `steady_watch` runs on,
/// and that workload's targets: one per /56 of the first 128 pool /48s, in
/// probing order.
fn paper_world_and_watch_targets() -> (Engine, Vec<Ipv6Addr>) {
    let engine = Engine::build(scenarios::paper_world(7, WorldScale::experiment())).unwrap();
    let watched: Vec<Ipv6Prefix> = (engine.pools().iter())
        .filter(|pool| pool.config.prefix.len() <= 48)
        .flat_map(|pool| pool.config.prefix.subnets(48).unwrap())
        .take(128)
        .collect();
    let stream = TargetStream::new(&TargetGenerator::new(0x57ae), &watched, 56, 0x57ae, true);
    let targets = (0..stream.window_len()).map(|pos| stream.target_at(pos));
    (engine, targets.collect())
}

/// Addresses spread over a world's announcements and beyond: `n` draws, each
/// an announced prefix's network with noise below a /24 boundary, so most
/// fall inside an announcement, some in a neighbour, some in nobody's space.
fn scattered_addresses(rib: &Rib, n: u64) -> Vec<Ipv6Addr> {
    let entries = rib.entries();
    (0..n)
        .map(|i| {
            let noise = followscent::simnet::det::hash2(0x6c70, i, 0) as u128;
            let base = entries[i as usize % entries.len()].prefix.network_bits();
            addr_from_u128(base ^ (noise << 40) ^ (noise >> 3))
        })
        .collect()
}

/// A probe resolves its target to the most specific pool containing it —
/// checked from outside: a reply names its pool, that pool is the one a
/// linear scan of every pool picks, and no pool means no reply.
#[test]
fn probe_resolves_the_pool_a_linear_scan_does() {
    let (engine, mut targets) = paper_world_and_watch_targets();
    targets.extend(scattered_addresses(engine.rib(), 10_000));
    let t = SimTime::at(10, 9);
    let (mut replies, mut unpooled) = (0, 0);
    for target in targets {
        let want = (engine.pools().iter().enumerate())
            .filter(|(_, pool)| pool.config.prefix.contains(target))
            .max_by_key(|(_, pool)| pool.config.prefix.len())
            .map(|(index, _)| index as u32);
        let reply = engine.probe(target, t);
        assert_eq!(reply.map(|r| r.cpe.pool), reply.and(want), "{target}");
        if let Some(reply) = reply {
            assert_eq!(engine.current_wan_address(reply.cpe, t), Some(reply.source));
            replies += 1;
        }
        unpooled += u32::from(want.is_none());
    }
    assert!(
        replies > 1_000 && unpooled > 1_000,
        "{replies} replies, {unpooled} unpooled"
    );
}

/// A three-shard map routes every target where the reference trie does: to
/// the longest-matching announcement's shard, or to the unannounced fallback
/// (which an empty map gives for every address).
#[test]
fn seq_table_agrees_with_the_unibit_trie() {
    let (engine, mut targets) = paper_world_and_watch_targets();
    targets.extend(scattered_addresses(engine.rib(), 10_000));
    let entries = engine.rib().entries();
    let mut trie = PrefixTrie::new();
    for entry in &entries {
        // A one-announcement map routes the announcement's own space to the
        // shard the announcement is pinned to.
        let pinned = ShardMap::new(&[*entry], 3).shard_for(entry.prefix.network());
        trie.insert(entry.prefix, pinned as u32);
    }
    let unannounced = ShardMap::new(&[], 3);
    let want: Vec<u32> = (targets.iter())
        .map(|&target| match trie.longest_match(target) {
            Some((_, &shard)) => shard,
            None => unannounced.shard_for(target) as u32,
        })
        .collect();
    let map = ShardMap::new(&entries, 3);
    let table: Vec<u32> = (targets.iter())
        .map(|&target| map.shard_for(target) as u32)
        .collect();
    assert_eq!(table, want);
    assert!(
        (0..3).all(|shard| table.contains(&shard)),
        "all three shards used"
    );
}
