//! Target address generation.
//!
//! The methodology never probes addresses it expects to exist: it probes one
//! *pseudo-random* IID inside each subnet of interest and relies on the CPE's
//! ICMPv6 error to reveal the periphery (§3.1). Target generators therefore
//! produce "one random address per subnet at granularity G" lists for
//! prefixes, rotation pools and candidate /48s.

use std::net::Ipv6Addr;
use std::sync::Arc;

use scent_ipv6::{addr_from_u128, Ipv6Prefix};
use scent_simnet::det::{hash1, splitmix64, HASH2_LABEL_OFFSET, HASH3_LABEL_OFFSET};

use crate::permutation::RandomPermutation;

/// Deterministic target generation keyed on a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetGenerator {
    seed: u64,
}

impl TargetGenerator {
    /// Create a generator. All addresses produced are pure functions of the
    /// seed and the subnet they fall in, so re-generating a target list for a
    /// later scan reproduces the exact same addresses (as the paper does by
    /// reusing the zmap seed across daily scans).
    pub fn new(seed: u64) -> Self {
        TargetGenerator { seed }
    }

    /// A pseudo-random address inside `prefix` (host bits drawn from the
    /// seed, network bits preserved): the one-subnet call of
    /// [`TargetGenerator::draw_into`].
    pub fn random_addr_in(&self, prefix: &Ipv6Prefix) -> Ipv6Addr {
        let mut drawn = None;
        self.draw_each([prefix.network_bits()], prefix.len(), |batch| {
            drawn = Some(batch[0])
        });
        drawn.expect("one subnet, one draw")
    }

    /// Append to `out` one pseudo-random address inside each subnet of
    /// length `sub_len` whose network bits `subnets` yields (bits past
    /// `sub_len` are ignored), in input order — bit for bit what
    /// [`TargetGenerator::random_addr_in`] draws for each subnet. The caller
    /// sizes `out`.
    ///
    /// This is every target list's kernel. A draw is the seed hashed with
    /// the subnet's two network words and its length, then hashed once more
    /// for the low host word: ten dependent SplitMix64 rounds. Up to /64 a
    /// subnet's low network word is zero, so the rounds that read only the
    /// seed, that word, the length or the second hash's label run once per
    /// call and six remain per address; and four subnets are drawn at a
    /// time, so four independent chains overlap instead of waiting on one.
    #[inline]
    pub fn draw_into<I>(&self, subnets: I, sub_len: u8, out: &mut Vec<Ipv6Addr>)
    where
        I: IntoIterator<Item = u128>,
    {
        self.draw_each(subnets, sub_len, |batch| out.extend_from_slice(batch));
    }

    /// The kernel behind [`TargetGenerator::draw_into`]: hands `emit` the
    /// draws four at a time (fewer at the end).
    #[inline]
    fn draw_each<I>(&self, subnets: I, sub_len: u8, emit: impl FnMut(&[Ipv6Addr]))
    where
        I: IntoIterator<Item = u128>,
    {
        assert!(sub_len <= 128, "a subnet is at most a /128");
        let keys = DrawKeys {
            seed: self.seed,
            mask: Ipv6Prefix::mask(sub_len),
            zero_low: hash1(self.seed, 0),
            len_word: splitmix64(u64::from(sub_len).wrapping_add(HASH3_LABEL_OFFSET)),
            label_word: splitmix64(TGEN_LABEL.wrapping_add(HASH2_LABEL_OFFSET)),
        };
        if sub_len <= 64 {
            keys.draw_all::<true>(subnets.into_iter(), emit);
        } else {
            keys.draw_all::<false>(subnets.into_iter(), emit);
        }
    }

    /// One pseudo-random target per subnet of length `sub_len` inside
    /// `prefix`, in subnet order.
    ///
    /// This is the core workload shape of the paper: one probe per /64 of a
    /// candidate /48 (§4.3), one probe per /56 for density inference (§4.2),
    /// one probe per inferred customer allocation for tracking (§6).
    pub fn one_per_subnet(&self, prefix: &Ipv6Prefix, sub_len: u8) -> Vec<Ipv6Addr> {
        self.per_candidate_48(std::slice::from_ref(prefix), sub_len)
    }

    /// Targets for a whole list of /48 candidates at a given granularity
    /// (clamped to each candidate's own length), candidate after candidate,
    /// in one list sized once.
    pub fn per_candidate_48(&self, candidates: &[Ipv6Prefix], granularity: u8) -> Vec<Ipv6Addr> {
        let sub_len = |candidate: &Ipv6Prefix| granularity.max(candidate.len());
        let count = (candidates.iter())
            .map(|candidate| subnet_count(candidate, sub_len(candidate)))
            .fold(0u128, u128::saturating_add);
        let mut targets = Vec::with_capacity(count.min(MAX_RESERVE) as usize);
        for candidate in candidates {
            let sub_len = sub_len(candidate);
            let count = subnet_count(candidate, sub_len);
            // Subnet `index` is the parent's bits with the index in the bits
            // between the two lengths (only ::/0 subdivides into /0s, and
            // only into itself).
            let shift = 128 - u32::from(sub_len);
            let base = candidate.network_bits();
            let subnets = (0..count).map(|index| base | index.checked_shl(shift).unwrap_or(0));
            self.draw_into(subnets, sub_len, &mut targets);
        }
        targets
    }
}

/// The largest list a builder reserves up front: lists past it (2^24
/// targets, 256 MiB) grow as they fill.
const MAX_RESERVE: u128 = 1 << 24;

/// The label of a draw's second hash, "tgen".
const TGEN_LABEL: u64 = 0x7467_656e;

/// The subnets of length `sub_len` inside `prefix`.
fn subnet_count(prefix: &Ipv6Prefix, sub_len: u8) -> u128 {
    prefix
        .num_subnets(sub_len)
        .expect("sub_len not shorter than prefix")
}

/// What a [`TargetGenerator::draw_into`] call computes once: the seed, the
/// subnet mask, and the mixed words that do not depend on the subnet.
struct DrawKeys {
    seed: u64,
    mask: u128,
    /// `hash1(seed, 0)`: the first hash's opening rounds for a subnet whose
    /// low network word is zero (every subnet up to /64).
    zero_low: u64,
    /// The subnet length, mixed as `hash3` mixes its third label.
    len_word: u64,
    /// [`TGEN_LABEL`], mixed as `hash2` mixes its second label.
    label_word: u64,
}

impl DrawKeys {
    /// The draws for four canonical subnets: host words `h1 = hash3(seed,
    /// low, high, len)` and `hash2(seed, h1, TGEN_LABEL)`, with the rounds
    /// above hoisted, computed one round across all four lanes at a time so
    /// the four chains interleave. `ZERO_LOW` says every low network word
    /// is zero.
    #[inline(always)]
    fn draw4<const ZERO_LOW: bool>(&self, bits: [u128; 4]) -> [Ipv6Addr; 4] {
        let high = lanes(bits, |bits| {
            splitmix64(((bits >> 64) as u64).wrapping_add(HASH2_LABEL_OFFSET))
        });
        let low = if ZERO_LOW {
            [self.zero_low; 4]
        } else {
            lanes(bits, |bits| hash1(self.seed, bits as u64))
        };
        let pair = lanes([0, 1, 2, 3], |i| splitmix64(low[i] ^ high[i]));
        let h1 = lanes(pair, |h| splitmix64(h ^ self.len_word));
        let h2 = lanes(h1, |h| hash1(self.seed, h));
        let h2 = lanes(h2, |h| splitmix64(h ^ self.label_word));
        lanes([0, 1, 2, 3], |i| {
            let host = (u128::from(h1[i]) << 64) | u128::from(h2[i]);
            addr_from_u128(bits[i] | (host & !self.mask))
        })
    }

    /// Draw every subnet `subnets` yields, four lanes at a time (the last
    /// call's unused lanes draw zeros, and are not emitted).
    #[inline]
    fn draw_all<const ZERO_LOW: bool>(
        &self,
        mut subnets: impl Iterator<Item = u128>,
        mut emit: impl FnMut(&[Ipv6Addr]),
    ) {
        loop {
            let mut bits = [0u128; 4];
            let mut filled = 0;
            while filled < bits.len() {
                let Some(next) = subnets.next() else { break };
                bits[filled] = next & self.mask;
                filled += 1;
            }
            if filled == 0 {
                return;
            }
            emit(&self.draw4::<ZERO_LOW>(bits)[..filled]);
            if filled < bits.len() {
                return;
            }
        }
    }
}

/// `f` applied to each of four lanes, written out so every call inlines.
#[inline(always)]
fn lanes<T: Copy, U>(from: [T; 4], f: impl Fn(T) -> U) -> [U; 4] {
    [f(from[0]), f(from[1]), f(from[2]), f(from[3])]
}

/// One target drawn from a [`TargetStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamedTarget {
    /// The scan pass (window) this target belongs to.
    pub window: u64,
    /// Probing-order index of the target within its window.
    pub seq: u64,
    /// The target address.
    pub target: Ipv6Addr,
}

/// The contiguous sub-range of `0..n` owned by producer `producer` of
/// `producers` when a probing-order sequence is split into even disjoint
/// *contiguous* slices: `[n*k/P, n*(k+1)/P)`. Concatenating the slices for
/// `k = 0..P` reconstructs `0..n` exactly. (The streaming engine's producer
/// sharding itself uses *strided* slices — see [`TargetStream::slice`] — so
/// that a k-way merge consumes all producers round-robin instead of draining
/// them one after another; contiguous bounds remain useful for static work
/// partitioning.)
pub fn slice_bounds(n: usize, producer: usize, producers: usize) -> (usize, usize) {
    assert!(producers > 0, "at least one producer");
    assert!(producer < producers, "producer index out of range");
    (n * producer / producers, n * (producer + 1) / producers)
}

/// An endless target stream for continuous monitoring: the same target list,
/// revisited window after window in the same zmap-permuted order (the paper
/// probes "the same addresses every 24 hours in the same order").
///
/// This is the streaming counterpart of building a target `Vec` and scanning
/// it repeatedly: instead of materializing per-window scans, a consumer pulls
/// one [`StreamedTarget`] at a time, forever.
///
/// A stream can be restricted to a *strided slice* of each window's probing
/// order ([`TargetStream::slice`]): producer `k` of `P` yields exactly the
/// positions `k, k + P, k + 2P, …` of every window, with the same global
/// `seq` numbers the full stream would assign, so P sliced streams partition
/// the full stream's output without coordinating — and a k-way merge over
/// them consumes every producer round-robin, which is what keeps all P
/// producer threads busy at once.
///
/// The target list is shared storage, held in probing order: cloning a
/// stream copies a cursor, not the list, so one pass builds it once and
/// hands every producer (and the probe-free rate replay) a clone to slice —
/// and a monitor keeps it from epoch to epoch while its watch list stands.
#[derive(Debug, Clone)]
pub struct TargetStream {
    /// The targets, permuted: element `p` is probed at position `p`.
    targets: Arc<[Ipv6Addr]>,
    window: u64,
    /// The window numbering starts at (0 unless the stream is one epoch of a
    /// churning run — see [`TargetStream::starting_at_window`]).
    base_window: u64,
    pos: usize,
    /// First probing-order position this stream yields per window.
    offset: usize,
    /// Distance between consecutive owned positions (1 = the whole order).
    step: usize,
}

impl TargetStream {
    /// Build a stream over one target per subnet (at `granularity`) of each
    /// candidate prefix, visiting targets in the pseudo-random order given by
    /// `order_seed` (or list order when `randomize` is false).
    pub fn new(
        generator: &TargetGenerator,
        candidates: &[Ipv6Prefix],
        granularity: u8,
        order_seed: u64,
        randomize: bool,
    ) -> Self {
        let targets = generator.per_candidate_48(candidates, granularity);
        Self::over(targets, order_seed, randomize)
    }

    /// Build a stream over an explicit target list.
    pub fn over(targets: Vec<Ipv6Addr>, order_seed: u64, randomize: bool) -> Self {
        let order = RandomPermutation::scan_order(targets.len() as u64, order_seed, randomize);
        TargetStream {
            targets: order.iter().map(|&index| targets[index as usize]).collect(),
            window: 0,
            base_window: 0,
            pos: 0,
            offset: 0,
            step: 1,
        }
    }

    /// Start the stream's window numbering at `window` instead of 0. Must be
    /// called before the first draw.
    ///
    /// This is what lets a continuous run revise its target set at epoch
    /// boundaries: each epoch builds a fresh stream over the revised list
    /// whose windows carry the *global* window numbers, so downstream
    /// consumers (send-time pacing, rotation detection, tracking) see one
    /// uninterrupted window sequence — send times and `seq` stay a pure
    /// function of the configuration plus the revision history.
    pub fn starting_at_window(mut self, window: u64) -> Self {
        assert!(
            self.window == self.base_window && self.pos == self.offset,
            "rebase a fresh stream, not one already drawn from"
        );
        self.base_window = window;
        self.window = window;
        self
    }

    /// Restrict the stream to producer `producer`'s strided slice of each
    /// window's probing order: positions `producer, producer + producers, …`.
    /// Must be called before the first draw. The sliced stream's `seq`
    /// numbers are the full stream's — position `p` of window `w` is yielded
    /// as `seq == p`.
    pub fn slice(mut self, producer: usize, producers: usize) -> Self {
        assert!(producers > 0, "at least one producer");
        assert!(producer < producers, "producer index out of range");
        assert!(
            self.window == self.base_window && self.pos == self.offset,
            "slice a fresh stream, not one already drawn from"
        );
        assert!(
            (self.offset, self.step) == (0, 1),
            "stream is already sliced; apply a slice exactly once"
        );
        self.offset = producer;
        self.step = producers;
        self.pos = producer;
        self
    }

    /// Number of targets per window (of the full, unsliced order).
    pub fn window_len(&self) -> usize {
        self.targets.len()
    }

    /// Number of targets per window this stream itself yields (`window_len`
    /// unless sliced).
    pub fn slice_len(&self) -> usize {
        if self.offset >= self.targets.len() {
            return 0;
        }
        (self.targets.len() - self.offset).div_ceil(self.step)
    }

    /// The window the next target will come from.
    pub fn current_window(&self) -> u64 {
        self.window
    }

    /// The target at probing-order position `pos` — identical every window,
    /// and independent of any slice applied to this stream. This is what lets
    /// a sliced producer account positions *other* producers own (e.g. to
    /// feed the virtual-queue feedback model) without drawing them.
    pub fn target_at(&self, pos: usize) -> std::net::Ipv6Addr {
        self.targets[pos]
    }

    /// Draw the next target. Returns `None` only for an empty target list (or
    /// an empty slice); otherwise the stream is infinite, advancing to the
    /// next window after each full pass over its slice.
    pub fn next_target(&mut self) -> Option<StreamedTarget> {
        if self.offset >= self.targets.len() {
            return None;
        }
        let seq = self.pos as u64;
        let target = self.targets[self.pos];
        let window = self.window;
        self.pos += self.step;
        if self.pos >= self.targets.len() {
            self.pos = self.offset;
            self.window += 1;
        }
        Some(StreamedTarget {
            window,
            seq,
            target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn random_addr_is_inside_and_deterministic() {
        let generator = TargetGenerator::new(42);
        let prefix = p("2001:db8:1:2::/64");
        let a = generator.random_addr_in(&prefix);
        let b = generator.random_addr_in(&prefix);
        assert_eq!(a, b);
        assert!(prefix.contains(a));
        let other = TargetGenerator::new(43).random_addr_in(&prefix);
        assert_ne!(a, other);
        // Different subnets produce different host bits (not just different
        // networks), since the subnet is part of the hash input.
        let c = generator.random_addr_in(&p("2001:db8:1:3::/64"));
        assert_ne!(
            scent_ipv6::interface_id(a),
            scent_ipv6::interface_id(c),
            "host bits should vary across subnets"
        );
    }

    #[test]
    fn one_per_subnet_counts_and_membership() {
        let generator = TargetGenerator::new(1);
        let prefix = p("2001:db8::/56");
        let targets = generator.one_per_subnet(&prefix, 64);
        assert_eq!(targets.len(), 256);
        let mut subnets = HashSet::new();
        for t in &targets {
            assert!(prefix.contains(*t));
            subnets.insert(Ipv6Prefix::enclosing_64(*t));
        }
        // Exactly one target per /64.
        assert_eq!(subnets.len(), 256);
    }

    #[test]
    fn one_per_subnet_same_length_is_single_target() {
        let generator = TargetGenerator::new(1);
        let prefix = p("2001:db8::/64");
        let targets = generator.one_per_subnet(&prefix, 64);
        assert_eq!(targets.len(), 1);
        assert!(prefix.contains(targets[0]));
    }

    /// The direct loop yields exactly what the validated subnet iterator
    /// does, at the lengths the callers use and at both ends of the range.
    #[test]
    fn one_per_subnet_equals_the_subnet_iterator() {
        let generator = TargetGenerator::new(0x57ae);
        let cases = [
            (p("2001:db8:1::/48"), 48),
            (p("2001:db8:1::/48"), 49),
            (p("2001:db8:1::/48"), 56),
            (p("2001:db8:1::/48"), 64),
            (p("2a02:27b0:4000::/46"), 56),
            (p("2001:db8::1/128"), 128),
            (Ipv6Prefix::ALL, 0),
            (Ipv6Prefix::ALL, 3),
        ];
        for (prefix, sub_len) in cases {
            let want: Vec<_> = prefix
                .subnets(sub_len)
                .unwrap()
                .map(|sub| generator.random_addr_in(&sub))
                .collect();
            assert_eq!(
                generator.one_per_subnet(&prefix, sub_len),
                want,
                "{prefix} -> /{sub_len}"
            );
        }
    }

    /// A draw as the two hashes compose it literally, with no round
    /// hoisted: what the kernel must reproduce bit for bit.
    fn composed_draw(seed: u64, subnet: &Ipv6Prefix) -> Ipv6Addr {
        let bits = subnet.network_bits();
        let h1 = scent_simnet::det::hash3(
            seed,
            bits as u64,
            (bits >> 64) as u64,
            u64::from(subnet.len()),
        );
        let h2 = scent_simnet::det::hash2(seed, h1, 0x7467_656e);
        subnet.addr_with_host_bits((u128::from(h1) << 64) | u128::from(h2))
    }

    // Any seed, any parents, every length on both sides of the /64 hoist,
    // empty input and tails of one to three lanes: the batch kernel and its
    // one-subnet call draw what the composed hashes do.
    proptest! {
        #[test]
        fn the_kernel_draws_what_the_hashes_compose(
            seed in any::<u64>(),
            parents in collection::vec(any::<u128>(), 0..10),
            sub_len in 0u8..=128,
        ) {
            let generator = TargetGenerator::new(seed);
            let subnets: Vec<Ipv6Prefix> = (parents.iter())
                .map(|&bits| Ipv6Prefix::from_bits(bits, sub_len).unwrap())
                .collect();
            let want: Vec<Ipv6Addr> = subnets.iter().map(|s| composed_draw(seed, s)).collect();
            // Uncanonical bits: the kernel ignores what lies past `sub_len`.
            let mut drawn = vec!["2001:db8::1".parse().unwrap()];
            generator.draw_into(parents.iter().copied(), sub_len, &mut drawn);
            prop_assert_eq!(drawn.len(), parents.len() + 1);
            prop_assert_eq!(&drawn[1..], &want[..]);
            for (subnet, want) in subnets.iter().zip(&want) {
                prop_assert_eq!(generator.random_addr_in(subnet), *want);
            }
        }
    }

    #[test]
    fn target_stream_cycles_windows_in_stable_order() {
        let generator = TargetGenerator::new(5);
        let candidates = [p("2001:db8:1::/48")];
        let mut stream = TargetStream::new(&generator, &candidates, 56, 77, true);
        assert_eq!(stream.window_len(), 256);
        let first_pass: Vec<_> = (0..256).map(|_| stream.next_target().unwrap()).collect();
        assert!(first_pass.iter().all(|t| t.window == 0));
        assert_eq!(stream.current_window(), 1);
        let second_pass: Vec<_> = (0..256).map(|_| stream.next_target().unwrap()).collect();
        assert!(second_pass.iter().all(|t| t.window == 1));
        // Same order every window, and the order is a permutation of the
        // whole target set.
        let a: Vec<_> = first_pass.iter().map(|t| t.target).collect();
        let b: Vec<_> = second_pass.iter().map(|t| t.target).collect();
        assert_eq!(a, b);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 256);
        // Seq restarts each window.
        assert_eq!(second_pass[0].seq, 0);
        assert_eq!(second_pass[255].seq, 255);
    }

    #[test]
    fn target_stream_in_order_and_empty() {
        let mut empty = TargetStream::over(Vec::new(), 1, true);
        assert!(empty.next_target().is_none());
        let targets = vec![
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
        ];
        let mut stream = TargetStream::over(targets.clone(), 1, false);
        assert_eq!(stream.next_target().unwrap().target, targets[0]);
        assert_eq!(stream.next_target().unwrap().target, targets[1]);
        assert_eq!(stream.next_target().unwrap().window, 1);
    }

    #[test]
    fn slices_partition_the_full_stream() {
        let generator = TargetGenerator::new(5);
        let candidates = [p("2001:db8:1::/48")];
        for producers in [1usize, 2, 3, 5, 8] {
            let mut full = TargetStream::new(&generator, &candidates, 56, 77, true);
            // Two windows of the full stream...
            let want: Vec<_> = (0..512).map(|_| full.next_target().unwrap()).collect();
            // ...must equal the union of every strided slice, reassembled in
            // (window, seq) order.
            let mut slices: Vec<_> = (0..producers)
                .map(|k| {
                    TargetStream::new(&generator, &candidates, 56, 77, true).slice(k, producers)
                })
                .collect();
            assert_eq!(slices.iter().map(|s| s.slice_len()).sum::<usize>(), 256);
            let mut got = Vec::new();
            for (k, slice) in slices.iter_mut().enumerate() {
                for _ in 0..2 * slice.slice_len() {
                    let t = slice.next_target().unwrap();
                    // Producer k owns exactly the positions ≡ k (mod P).
                    assert_eq!(t.seq as usize % producers, k);
                    got.push(t);
                }
            }
            got.sort_by_key(|t| (t.window, t.seq));
            assert_eq!(got, want, "producers={producers}");
        }
    }

    #[test]
    fn target_at_is_slice_independent_and_window_invariant() {
        let generator = TargetGenerator::new(5);
        let candidates = [p("2001:db8:1::/48")];
        let full = TargetStream::new(&generator, &candidates, 56, 77, true);
        let sliced = TargetStream::new(&generator, &candidates, 56, 77, true).slice(1, 3);
        let mut drawn = TargetStream::new(&generator, &candidates, 56, 77, true);
        for pos in 0..full.window_len() {
            assert_eq!(full.target_at(pos), sliced.target_at(pos));
            assert_eq!(drawn.next_target().unwrap().target, full.target_at(pos));
        }
        // Window 1 revisits the same positions in the same order.
        for pos in 0..full.window_len() {
            assert_eq!(drawn.next_target().unwrap().target, full.target_at(pos));
        }
    }

    #[test]
    fn starting_at_window_rebases_numbering_and_composes_with_slices() {
        let generator = TargetGenerator::new(5);
        let candidates = [p("2001:db8:1::/48")];
        let mut rebased =
            TargetStream::new(&generator, &candidates, 56, 77, true).starting_at_window(6);
        assert_eq!(rebased.current_window(), 6);
        let first: Vec<_> = (0..256).map(|_| rebased.next_target().unwrap()).collect();
        assert!(first.iter().all(|t| t.window == 6));
        assert_eq!(rebased.current_window(), 7);
        // Targets and seq are identical to an un-rebased stream's.
        let mut plain = TargetStream::new(&generator, &candidates, 56, 77, true);
        for t in &first {
            let want = plain.next_target().unwrap();
            assert_eq!((t.seq, t.target), (want.seq, want.target));
        }
        // Slices of a rebased stream partition it exactly like window 0's.
        let mut sliced = TargetStream::new(&generator, &candidates, 56, 77, true)
            .starting_at_window(6)
            .slice(1, 3);
        let t = sliced.next_target().unwrap();
        assert_eq!((t.window, t.seq), (6, 1));
    }

    #[test]
    #[should_panic(expected = "rebase a fresh stream")]
    fn starting_at_window_rejects_a_drawn_stream() {
        let generator = TargetGenerator::new(5);
        let candidates = [p("2001:db8:1::/48")];
        let mut stream = TargetStream::new(&generator, &candidates, 56, 77, true);
        stream.next_target().unwrap();
        let _ = stream.starting_at_window(3);
    }

    #[test]
    fn slice_bounds_cover_without_overlap() {
        for n in [0usize, 1, 7, 256, 1000] {
            for producers in 1..=9 {
                let mut next = 0;
                for k in 0..producers {
                    let (lo, hi) = slice_bounds(n, k, producers);
                    assert_eq!(lo, next, "n={n} P={producers} k={k}");
                    assert!(hi >= lo);
                    next = hi;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn per_candidate_48_clamps_granularity() {
        let generator = TargetGenerator::new(9);
        // Granularity shorter than the candidate itself is clamped to the
        // candidate length (one probe).
        let targets = generator.per_candidate_48(&[p("2001:db8:5::/48")], 40);
        assert_eq!(targets.len(), 1);
        let targets = generator.per_candidate_48(&[p("2001:db8:5::/48")], 56);
        assert_eq!(targets.len(), 256);
        // Candidate after candidate, 2^(56-46) = 1024 targets in each.
        let pools = [p("2001:db8:100::/46"), p("2001:db8:200::/46")];
        let targets = generator.per_candidate_48(&pools, 56);
        assert_eq!(targets.len(), 2048);
        assert!(targets[..1024].iter().all(|t| pools[0].contains(*t)));
        assert!(targets[1024..].iter().all(|t| pools[1].contains(*t)));
    }
}
