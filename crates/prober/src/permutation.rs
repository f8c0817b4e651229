//! Full-cycle pseudo-random permutations of a target list.
//!
//! zmap scans the address space in a random order without keeping per-target
//! state by iterating a cyclic group element; the order is a pure function of
//! the scan seed, so a re-run with the same seed visits targets in the same
//! order. We reproduce the same property with an affine permutation over the
//! next power of two combined with cycle-walking: indices that fall outside
//! the target count are simply skipped. This visits every index in `0..n`
//! exactly once, in an order that looks random but is fully determined by the
//! seed.

use scent_simnet::det::{hash2, splitmix64};

/// A deterministic pseudo-random permutation of `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomPermutation {
    n: u64,
    /// Power-of-two domain the affine map is defined over.
    domain: u64,
    mul: u64,
    add: u64,
}

impl RandomPermutation {
    /// The probing order of a scan over `n` targets: the seeded permutation
    /// when `randomize` is set, list order otherwise (the identity is the
    /// affine map with multiplier 1 and offset 0, so both orders iterate the
    /// same way, lazily).
    ///
    /// Every scanner-shaped component (the batch [`Scanner`], the streamed
    /// scan replay, the continuous target stream) derives its order through
    /// this one function — the streamed/batch bit-equivalence guarantee
    /// depends on them never diverging.
    ///
    /// [`Scanner`]: crate::zmap6::Scanner
    pub(crate) fn for_scan(n: u64, seed: u64, randomize: bool) -> Self {
        if randomize {
            RandomPermutation::new(n, seed)
        } else {
            RandomPermutation {
                n,
                domain: n.max(1).next_power_of_two(),
                mul: 1,
                add: 0,
            }
        }
    }

    /// [`RandomPermutation::for_scan`], materialised — for a caller that
    /// reorders a list it keeps into shared storage (collecting a slice map
    /// allocates the result once; collecting the lazy iterator would
    /// allocate it twice).
    pub(crate) fn scan_order(n: u64, seed: u64, randomize: bool) -> Vec<u64> {
        Self::for_scan(n, seed, randomize).iter().collect()
    }

    /// Create a permutation of `0..n` determined by `seed`. `n` may be zero
    /// (the permutation is then empty).
    pub fn new(n: u64, seed: u64) -> Self {
        let domain = n.max(1).next_power_of_two();
        // Any odd multiplier is a bijection modulo a power of two. Mix the
        // seed twice so `mul` and `add` are independent.
        let mul = (hash2(seed, 0x7065_726d, domain) | 1) & (domain - 1).max(1);
        let add = hash2(seed, 0x0061_6464, domain) & (domain - 1);
        RandomPermutation {
            n,
            domain,
            mul: if mul == 0 { 1 } else { mul },
            add,
        }
    }

    /// Number of elements in the permutation.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The image of domain element `x` under the affine map (before cycle
    /// walking).
    fn map(&self, x: u64) -> u64 {
        (x.wrapping_mul(self.mul).wrapping_add(self.add)) & (self.domain - 1)
    }

    /// Iterate the permuted indices.
    pub fn iter(&self) -> PermutationIter {
        PermutationIter {
            perm: *self,
            next_domain: 0,
            emitted: 0,
        }
    }
}

/// Iterator over a [`RandomPermutation`].
#[derive(Debug, Clone)]
pub struct PermutationIter {
    perm: RandomPermutation,
    next_domain: u64,
    emitted: u64,
}

impl Iterator for PermutationIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.emitted < self.perm.n && self.next_domain < self.perm.domain {
            let candidate = self.perm.map(self.next_domain);
            self.next_domain += 1;
            if candidate < self.perm.n {
                self.emitted += 1;
                return Some(candidate);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.perm.n - self.emitted) as usize;
        (remaining, Some(remaining))
    }
}

/// Shuffle a slice in place according to a seeded Fisher–Yates pass. Used
/// where a materialised order is preferable to the streaming permutation
/// (e.g. small traceroute target lists); compared against
/// [`RandomPermutation`] in the `permutation` ablation bench.
pub fn seeded_shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = splitmix64(seed);
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn visits_every_index_exactly_once() {
        for n in [0u64, 1, 2, 7, 64, 1000, 4096] {
            let perm = RandomPermutation::new(n, 42);
            let seen: Vec<u64> = perm.iter().collect();
            assert_eq!(seen.len() as u64, n, "n={n}");
            let unique: HashSet<u64> = seen.iter().copied().collect();
            assert_eq!(unique.len() as u64, n, "n={n}");
            assert!(seen.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn same_seed_same_order_different_seed_different_order() {
        let a: Vec<u64> = RandomPermutation::new(1000, 7).iter().collect();
        let b: Vec<u64> = RandomPermutation::new(1000, 7).iter().collect();
        let c: Vec<u64> = RandomPermutation::new(1000, 8).iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn order_is_not_identity() {
        let order: Vec<u64> = RandomPermutation::new(4096, 1).iter().collect();
        let identity: Vec<u64> = (0..4096).collect();
        assert_ne!(order, identity);
        // ...and is reasonably well mixed: the first few elements should not
        // all be tiny.
        assert!(order.iter().take(8).any(|&v| v > 256));
    }

    #[test]
    fn a_scan_is_ordered_by_the_permutation_or_the_list() {
        for n in [0u64, 1, 7, 100, 4096] {
            let listed = RandomPermutation::for_scan(n, 9, false);
            assert!(listed.iter().eq(0..n), "n={n}");
            assert_eq!(listed.len(), n);
            assert_eq!(
                RandomPermutation::for_scan(n, 9, true),
                RandomPermutation::new(n, 9)
            );
            assert!(RandomPermutation::scan_order(n, 9, true)
                .into_iter()
                .eq(RandomPermutation::new(n, 9).iter()));
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let perm = RandomPermutation::new(100, 3);
        let mut iter = perm.iter();
        assert_eq!(iter.size_hint(), (100, Some(100)));
        iter.next();
        assert_eq!(iter.size_hint(), (99, Some(99)));
        assert!(!perm.is_empty());
        assert_eq!(perm.len(), 100);
        assert!(RandomPermutation::new(0, 3).is_empty());
    }

    #[test]
    fn seeded_shuffle_is_deterministic_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b: Vec<u32> = (0..100).collect();
        seeded_shuffle(&mut a, 99);
        seeded_shuffle(&mut b, 99);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        let mut c: Vec<u32> = (0..100).collect();
        seeded_shuffle(&mut c, 100);
        assert_ne!(a, c);
    }

    proptest! {
        #[test]
        fn permutation_is_bijective(n in 1u64..5000, seed in any::<u64>()) {
            let perm = RandomPermutation::new(n, seed);
            let seen: HashSet<u64> = perm.iter().collect();
            prop_assert_eq!(seen.len() as u64, n);
        }
    }
}
