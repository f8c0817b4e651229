//! The index a probe finds its rotation pool in: one hash lookup keyed by
//! the target's /48.
//!
//! Every pool of length /40 or longer is laid out /48 by /48 (at most 256
//! keys a pool). A /48 inside one pool maps straight to that pool; a /48
//! split among pools longer than /48 keeps a short list of them, longest
//! first; a /48 no such pool touches has no key, so a miss costs one
//! lookup. Pools shorter than /40 are not expanded — validation admits a
//! /24 pool, and memory stays bounded by the pool count — but sit in a
//! [`PrefixTable`] searched only after the /48 index misses. Every expanded
//! pool is longer than every such wide one, so that order is longest-prefix
//! match.

use std::net::Ipv6Addr;

use scent_bgp::PrefixTable;
use scent_ipv6::{addr_to_u128, Ipv6Prefix};

/// Pools at least this long are expanded into their /48s.
const EXPANDED_MIN_LEN: u8 = 40;
/// The key of a free slot: no /48 key (the top 48 bits) reaches it.
const FREE: u64 = u64::MAX;
/// Tags a slot value that indexes `splits` instead of naming a pool.
const SPLIT: u32 = 1 << 31;
/// Fibonacci hashing multiplier (2^64 / φ).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Longest-prefix match over a world's pool prefixes, answering with the
/// pool's global index.
#[derive(Debug, Clone)]
pub(crate) struct PoolIndex {
    /// Open addressing with linear probing, at most half full: `(/48 key,
    /// value)`, where the value is a pool index or `SPLIT | splits index`.
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// For a /48 split among pools longer than /48: the pools touching it,
    /// longest first, ending at the first one (if any) covering the /48.
    splits: Vec<Vec<(Ipv6Prefix, u32)>>,
    /// Pools shorter than `EXPANDED_MIN_LEN`.
    wide: PrefixTable<u32>,
}

impl PoolIndex {
    /// Index `pools`, given in global pool order. Fails with the first
    /// prefix (in address order) that appears twice.
    pub(crate) fn new(pools: &[Ipv6Prefix]) -> Result<Self, Ipv6Prefix> {
        let mut sorted = pools.to_vec();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(pair[0]);
        }
        assert!(pools.len() < SPLIT as usize, "too many pools to index");

        let mut touches: Vec<(u64, Ipv6Prefix, u32)> = Vec::new();
        let mut wide = Vec::new();
        for (idx, &prefix) in pools.iter().enumerate() {
            if prefix.len() < EXPANDED_MIN_LEN {
                wide.push((prefix, idx as u32));
                continue;
            }
            let first = key_of(prefix.network_bits());
            let count = 1u64 << 48u8.saturating_sub(prefix.len());
            touches.extend((first..first + count).map(|key| (key, prefix, idx as u32)));
        }
        touches.sort_unstable_by_key(|&(key, prefix, _)| (key, std::cmp::Reverse(prefix.len())));

        let mut entries: Vec<(u64, u32)> = Vec::new();
        let mut splits = Vec::new();
        let mut rest = &touches[..];
        while let Some(&(key, longest, idx)) = rest.first() {
            let (group, tail) = rest.split_at(rest.iter().take_while(|t| t.0 == key).count());
            rest = tail;
            if longest.len() <= 48 {
                entries.push((key, idx));
                continue;
            }
            let covering = group.iter().position(|&(_, prefix, _)| prefix.len() <= 48);
            let kept = covering.map_or(group.len(), |i| i + 1);
            entries.push((key, SPLIT | splits.len() as u32));
            splits.push(group[..kept].iter().map(|&(_, p, i)| (p, i)).collect());
        }

        let capacity = (2 * entries.len()).next_power_of_two().max(16);
        let shift = 64 - capacity.trailing_zeros();
        let mut slots = vec![(FREE, 0); capacity];
        for (key, value) in entries {
            let mut i = home(key, shift);
            while slots[i].0 != FREE {
                i = (i + 1) & (capacity - 1);
            }
            slots[i] = (key, value);
        }
        Ok(PoolIndex {
            slots,
            shift,
            splits,
            wide: wide.into_iter().collect(),
        })
    }

    /// The global index of the longest pool containing `addr`.
    pub(crate) fn get(&self, addr: Ipv6Addr) -> Option<usize> {
        let key = key_of(addr_to_u128(addr));
        let mut i = home(key, self.shift);
        loop {
            let (slot_key, value) = self.slots[i];
            if slot_key == key {
                if value & SPLIT == 0 {
                    return Some(value as usize);
                }
                let pools = &self.splits[(value & !SPLIT) as usize];
                if let Some(&(_, idx)) = pools.iter().find(|(prefix, _)| prefix.contains(addr)) {
                    return Some(idx as usize);
                }
                break;
            }
            if slot_key == FREE {
                break;
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
        self.wide.longest_match(addr).map(|(_, &idx)| idx as usize)
    }
}

/// The /48 an address or network falls in, as its top 48 bits.
fn key_of(bits: u128) -> u64 {
    (bits >> 80) as u64
}

fn home(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(MUL) >> shift) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProviderConfig, RotationPolicy, RotationPoolConfig, SlotLayout};
    use crate::det::hash2;
    use crate::{scenarios, Engine, WorldConfig, WorldScale};
    use scent_ipv6::addr_from_u128;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    /// Every pool's /48s (sampled inside and at both ends), each pool's
    /// first and last address and the addresses just outside it, and
    /// random addresses in announced space: the index answers what
    /// `PrefixTable::longest_match` over the pools answers.
    fn assert_matches_table(world: WorldConfig) {
        let engine = Engine::build(world).unwrap();
        let prefixes: Vec<Ipv6Prefix> = engine
            .pools()
            .iter()
            .map(|pool| pool.config.prefix)
            .collect();
        let index = PoolIndex::new(&prefixes).unwrap();
        let table: PrefixTable<usize> = prefixes.iter().copied().zip(0..).collect();

        let mut probes: Vec<u128> = Vec::new();
        for (k, prefix) in prefixes.iter().enumerate() {
            let first = prefix.network_bits();
            let last = addr_to_u128(prefix.last_address());
            probes.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)]);
            for i in 0..16u64 {
                let h = ((hash2(k as u64, i, 4) as u128) << 64) | hash2(k as u64, i, 5) as u128;
                probes.push(addr_to_u128(prefix.addr_with_host_bits(h)));
            }
            if prefix.len() >= EXPANDED_MIN_LEN && prefix.len() <= 48 {
                for sub48 in prefix.subnets(48).unwrap() {
                    let h = hash2(k as u64, (sub48.network_bits() >> 80) as u64, 1) as u128;
                    probes.push(addr_to_u128(sub48.addr_with_host_bits(h)));
                    probes.push(sub48.network_bits());
                    probes.push(addr_to_u128(sub48.last_address()));
                }
            }
        }
        for (k, announced) in engine.rib().entries().iter().enumerate() {
            for i in 0..256u64 {
                let h = ((hash2(k as u64, i, 2) as u128) << 64) | hash2(k as u64, i, 3) as u128;
                probes.push(addr_to_u128(announced.prefix.addr_with_host_bits(h)));
            }
        }
        for bits in probes {
            let addr = addr_from_u128(bits);
            let expected = table.longest_match(addr).map(|(_, &i)| i);
            assert_eq!(index.get(addr), expected, "{addr}");
        }
    }

    #[test]
    fn index_answers_what_the_table_answers() {
        assert_matches_table(scenarios::paper_world(7, WorldScale::experiment()));
        assert_matches_table(scenarios::starcat_like(3));
        assert_matches_table(scenarios::churn_world(5));
        assert_matches_table(scenarios::continuous_world(11));
        assert_matches_table(scenarios::tracking_world(13));

        // A /48 pool nested in a /46 pool, /50s splitting a /48 of that
        // /46, and a /36 pool: wider than the /48 index expands.
        let pool = |prefix: &str, allocation_len: u8| RotationPoolConfig {
            prefix: p(prefix),
            allocation_len,
            occupancy: 0.01,
            layout: SlotLayout::Spread,
            rotation: RotationPolicy::Static,
        };
        let provider = ProviderConfig::new(
            64500u32,
            "Nested",
            "DE",
            vec![p("2001:db8::/32")],
            vec![
                pool("2001:db8:100::/46", 56),
                pool("2001:db8:101::/48", 64),
                pool("2001:db8:102:4000::/50", 64),
                pool("2001:db8:102:c000::/50", 64),
                pool("2001:db8:1000::/36", 56),
                pool("2001:db8:1000::/48", 56),
            ],
        );
        assert_matches_table(WorldConfig::new(vec![provider], 9));
    }

    #[test]
    fn repeated_prefix_is_refused() {
        let pools = [p("2001:db8::/48"), p("2001:db8:1::/48"), p("2001:db8::/48")];
        assert_eq!(PoolIndex::new(&pools).unwrap_err(), p("2001:db8::/48"));
    }
}
