//! A differential oracle for [`IncrementalTracker`]: the append-only log
//! tracker against the two-ordered-maps tracker it replaced, kept here
//! verbatim but for the move counts the tracker no longer keeps, as the
//! reference model. Over arbitrary interleavings of `observe` (out-of-order
//! windows, repeated `(identifier, window)` sightings with lower and higher
//! `seq`), `compact_before`, `merge`
//! (including two unfolded trackers that saw one `(identifier, window, seq)`
//! at different addresses), `finish` between observations and an encode →
//! decode of an unfolded tracker, the two must produce equal reports at
//! every device cap, equal counters, and equal checkpoint bytes — the
//! snapshot format did not change with the layout. Identifiers differ in
//! all six bytes a fold orders by, some sharing some of them. Pinned cases
//! fold a tail of several chunks into a non-empty run, tails at the edges
//! of the key-sorted and radix-sorted folds and at the floor where a tail
//! folds itself, and a run folded after every window.
//!
//! `finish` reads a tail whose windows ascend per identifier without
//! folding it, so a second property feeds ordered windows — with a fold
//! somewhere among them, which may split a window between run and tail —
//! and checks the report unfolded. Pinned cases for that read: unroutable
//! identifiers outranking every cap, a window split between run and tail
//! with an equal and a lower `seq`, a tail whose windows go backwards
//! (folded first) beside an ordered one, and counts at the edges where
//! the count table leaves the stack and grows on the heap. Each is checked
//! at caps 0, 1, 8 and `usize::MAX`.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use followscent::bgp::{AsRegistry, Asn, Rib};
use followscent::checkpoint::{
    decode_value, encode_value, CheckpointError, Checkpointable, Writer,
};
use followscent::core::fasthash::FastMap;
use followscent::core::tracker::{
    DailyResult, DeviceTrackingResult, Sighting, TrackedDevice, TrackingReport,
};
use followscent::core::IncrementalTracker;
use followscent::ipv6::{addr_to_u128, Eui64, Ipv6Prefix, MacAddr};
use proptest::prelude::*;

/// The tracker as it stood before the one-record layout, verbatim but for
/// its move counts.
#[derive(Debug, Clone, Default)]
struct ReferenceTracker {
    sightings: BTreeMap<Eui64, BTreeMap<u64, Sighting>>,
    probes: FastMap<(u64, Ipv6Prefix), u64>,
}

impl ReferenceTracker {
    fn observe(&mut self, window: u64, seq: u64, target: Ipv6Addr, source: Option<Ipv6Addr>) {
        let target_48 = Ipv6Prefix::new(target, 48).expect("48 is valid");
        *self.probes.entry((window, target_48)).or_insert(0) += 1;
        let Some(source) = source else { return };
        let Some(eui) = Eui64::from_addr(source) else {
            return;
        };
        let sighting = Sighting {
            seq,
            address: source,
        };
        self.sightings
            .entry(eui)
            .or_default()
            .entry(window)
            .and_modify(|existing| {
                if seq < existing.seq {
                    *existing = sighting;
                }
            })
            .or_insert(sighting);
    }

    fn identifiers_seen(&self) -> usize {
        self.sightings.len()
    }

    fn compact_before(&mut self, window: u64) {
        self.probes.retain(|(w, _), _| *w >= window);
        self.sightings.retain(|_, windows| {
            windows.retain(|w, _| *w >= window);
            !windows.is_empty()
        });
    }

    fn merge(&mut self, other: ReferenceTracker) {
        for (eui, windows) in other.sightings {
            let mine = self.sightings.entry(eui).or_default();
            for (window, sighting) in windows {
                mine.entry(window)
                    .and_modify(|existing| {
                        if sighting.seq < existing.seq {
                            *existing = sighting;
                        }
                    })
                    .or_insert(sighting);
            }
        }
        for (key, count) in other.probes {
            *self.probes.entry(key).or_insert(0) += count;
        }
    }

    fn finish(
        &self,
        rib: &Rib,
        registry: &AsRegistry,
        windows: u64,
        max_devices: usize,
    ) -> TrackingReport {
        let mut ranked: Vec<(&Eui64, &BTreeMap<u64, Sighting>)> = self
            .sightings
            .iter()
            .filter(|(_, w)| !w.is_empty())
            .collect();
        ranked.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));

        let mut devices = Vec::new();
        for (&eui, window_sightings) in ranked {
            if devices.len() >= max_devices {
                break;
            }
            let first = window_sightings
                .values()
                .next()
                .expect("non-empty sighting map");
            let Some(asn) = rib.origin(first.address) else {
                continue;
            };
            let pool = common_pool(window_sightings.values().map(|s| s.address));
            let device = TrackedDevice {
                iid: eui,
                asn,
                country: registry.country(asn),
                bgp_prefix_len: rib.encompassing_prefix_len(first.address),
                first_observed: first.address,
                allocation_len: 64,
                pool,
            };
            let daily = (0..windows)
                .map(|window| {
                    let sighting = window_sightings.get(&window);
                    DailyResult {
                        day: window,
                        found: sighting.is_some(),
                        probes_sent: self.pool_probes(window, &pool),
                        address: sighting.map(|s| s.address),
                    }
                })
                .collect();
            devices.push(DeviceTrackingResult { device, daily });
        }
        TrackingReport { devices }
    }

    fn pool_probes(&self, window: u64, pool: &Ipv6Prefix) -> u64 {
        if pool.len() >= 48 {
            let enclosing_48 = pool.supernet(48).expect("pool is /48 or longer");
            self.probes
                .get(&(window, enclosing_48))
                .copied()
                .unwrap_or(0)
        } else {
            self.probes
                .iter()
                .filter(|((w, p48), _)| *w == window && pool.contains_prefix(p48))
                .map(|(_, count)| count)
                .sum()
        }
    }

    /// The checkpoint bytes as the codec wrote them for this layout: the
    /// sightings map and the probe counts, in declaration order.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.sightings.encode(&mut w);
        self.probes.encode(&mut w);
        w.into_bytes()
    }
}

fn common_pool<I: Iterator<Item = Ipv6Addr>>(mut addresses: I) -> Ipv6Prefix {
    let first = addresses.next().expect("at least one sighting");
    let first_bits = addr_to_u128(first);
    let mut len: u8 = 64;
    for addr in addresses {
        let differing = (first_bits ^ addr_to_u128(addr)).leading_zeros() as u8;
        len = len.min(differing);
    }
    Ipv6Prefix::from_bits(first_bits, len).expect("length clamped to <= 64")
}

const IDENTIFIERS: u64 = 6;
const WINDOWS: u64 = 7;

/// The /64s sources and targets are drawn from: three /48s of an announced
/// /32 (two of them under one /44, so pools wider than /48 occur), one /64
/// twice (sub-/48 pools), and one unannounced /48 (unroutable identifiers).
const PREFIX64S: [u64; 6] = [
    0x2001_0db8_0001_0000,
    0x2001_0db8_0001_0100,
    0x2001_0db8_0002_0000,
    0x2001_0db8_0013_0000,
    0x2001_0db8_0013_00ff,
    0x3fff_0000_0001_0000,
];

/// The modulus of each MAC byte of [`identifier`]: small ones make
/// identifiers share that byte (a fold skips a radix pass every pending
/// sighting agrees on), the last keeps identifiers below 256 distinct.
const MAC_MODULI: [u64; 6] = [3, 5, 7, 11, 13, 256];

/// Identifier `index`: each of its six MAC bytes — the six bytes of the
/// interface ID a fold's radix passes read — is its own function of the
/// index, so identifiers differ in every byte, some pairs share some bytes,
/// and the order by one byte is not the order by another.
fn identifier(index: u64) -> Eui64 {
    let byte = |k: usize| (((index * (2 * k as u64 + 1) + k as u64) % MAC_MODULI[k]) * 41) as u8;
    Eui64::from_mac(MacAddr::new(std::array::from_fn(byte)))
}

/// A response source decoded from `bits`: silent, a non-EUI-64 address, or
/// one of the identifiers under one of the /64s.
fn source(bits: u64) -> Option<Ipv6Addr> {
    let prefix64 = PREFIX64S[(bits >> 8) as usize % PREFIX64S.len()];
    match bits % 8 {
        0 => None,
        1 => Some(Ipv6Addr::from(((prefix64 as u128) << 64) | 0xbeef)),
        _ => Some(identifier((bits >> 4) % IDENTIFIERS).with_prefix64(prefix64)),
    }
}

/// The pair of trackers every operation is applied to, plus a second pair
/// (`side`) that `merge` folds into the first — so merges meet overlapping
/// identifiers, windows and probe keys.
#[derive(Default)]
struct Pair {
    new: IncrementalTracker,
    reference: ReferenceTracker,
    side_new: IncrementalTracker,
    side_reference: ReferenceTracker,
}

impl Pair {
    /// Apply the operation `bits` decodes to.
    fn apply(&mut self, bits: u64, rib: &Rib, registry: &AsRegistry) {
        let side = (bits >> 4) & 1 == 1;
        let (new, reference) = if side {
            (&mut self.side_new, &mut self.side_reference)
        } else {
            (&mut self.new, &mut self.reference)
        };
        let window = (bits >> 8) % WINDOWS;
        let seq = (bits >> 16) % 4;
        let target = Ipv6Addr::from(
            ((PREFIX64S[(bits >> 24) as usize % PREFIX64S.len()] as u128) << 64) | 1,
        );
        match bits % OPS {
            0..=14 => {
                let source = source(bits >> 32);
                new.observe(window, seq, target, source);
                reference.observe(window, seq, target, source);
            }
            15 => {
                new.compact_before(window);
                reference.compact_before(window);
            }
            16 => {
                // Whatever the tracker has not folded yet is encoded too.
                let bytes = encode_value(&*new);
                assert_eq!(bytes, reference.encode());
                *new = decode_value(&bytes).expect("canonical bytes decode");
            }
            17 => {
                let max_devices = [0, 1, 4, usize::MAX][(bits >> 32) as usize % 4];
                assert_eq!(
                    new.finish(rib, registry, WINDOWS + 1, max_devices),
                    reference.finish(rib, registry, WINDOWS + 1, max_devices),
                );
            }
            18 => {
                // Both sides sight one identifier at one `(window, seq)`
                // under different /64s, then merge unfolded.
                let eui = identifier((bits >> 32) % IDENTIFIERS);
                let at = (bits >> 40) as usize;
                let mine = eui.with_prefix64(PREFIX64S[at % PREFIX64S.len()]);
                let theirs = eui.with_prefix64(PREFIX64S[(at + 1) % PREFIX64S.len()]);
                self.new.observe(window, seq, target, Some(mine));
                self.reference.observe(window, seq, target, Some(mine));
                self.side_new.observe(window, seq, target, Some(theirs));
                self.side_reference
                    .observe(window, seq, target, Some(theirs));
                self.merge();
            }
            _ => self.merge(),
        }
    }

    fn merge(&mut self) {
        self.new.merge(std::mem::take(&mut self.side_new));
        self.reference
            .merge(std::mem::take(&mut self.side_reference));
    }

    /// Everything observable about the two trackers agrees.
    fn assert_equal(&mut self, rib: &Rib, registry: &AsRegistry) {
        for (new, reference) in [
            (&mut self.new, &self.reference),
            (&mut self.side_new, &self.side_reference),
        ] {
            let bytes = encode_value(&*new);
            assert_eq!(bytes, reference.encode());
            assert_eq!(new.identifiers_seen(), reference.identifiers_seen());
            for max_devices in [0, 1, 4, usize::MAX] {
                assert_eq!(
                    new.finish(rib, registry, WINDOWS + 1, max_devices),
                    reference.finish(rib, registry, WINDOWS + 1, max_devices),
                    "max_devices {max_devices}"
                );
            }
            assert_eq!(encode_value(&*new), bytes, "folding changes no byte");
            // And the bytes decode to a tracker that is the same again.
            let mut back: IncrementalTracker =
                decode_value(&bytes).expect("canonical bytes decode");
            assert_eq!(encode_value(&back), bytes);
            assert_eq!(
                back.finish(rib, registry, WINDOWS + 1, usize::MAX),
                reference.finish(rib, registry, WINDOWS + 1, usize::MAX)
            );
        }
    }
}

/// Operations `Pair::apply` decodes; the ones from `CHECKED` up are where
/// the layouts differ most, so the property checks right after them.
const OPS: u64 = 20;
const CHECKED: u64 = 15;

fn world() -> (Rib, AsRegistry) {
    let mut rib = Rib::new();
    rib.announce("2001:db8::/32".parse().unwrap(), Asn(64496));
    let mut registry = AsRegistry::new();
    registry.register(64496, "TestNet", "DE");
    (rib, registry)
}

proptest! {
    #[test]
    fn one_record_tracker_equals_the_two_map_reference(
        ops in proptest::collection::vec(any::<u64>(), 0..160),
    ) {
        let (rib, registry) = world();
        let mut pair = Pair::default();
        for (step, bits) in ops.iter().enumerate() {
            pair.apply(*bits, &rib, &registry);
            if bits % OPS >= CHECKED || step + 1 == ops.len() {
                pair.assert_equal(&rib, &registry);
            }
        }
        pair.apply(OPS - 1, &rib, &registry);
        pair.assert_equal(&rib, &registry);
    }
}

/// The interleavings the property is about, pinned: an out-of-order window,
/// a repeated `(identifier, window)` with a lower and a higher `seq`, and
/// compaction.
#[test]
fn pinned_out_of_order_and_repeated_sightings() {
    let (rib, registry) = world();
    let mut new = IncrementalTracker::new();
    let mut reference = ReferenceTracker::default();
    let eui = identifier(1);
    let at = |prefix64: u64| eui.with_prefix64(prefix64);
    let target: Ipv6Addr = "2001:db8:1::1".parse().unwrap();
    for (window, seq, prefix64) in [
        (3u64, 5u64, PREFIX64S[0]),
        (1, 2, PREFIX64S[1]), // out of order
        (3, 1, PREFIX64S[2]), // same window, lower seq: replaces
        (3, 9, PREFIX64S[3]), // same window, higher seq: ignored
        (5, 0, PREFIX64S[0]),
    ] {
        new.observe(window, seq, target, Some(at(prefix64)));
        reference.observe(window, seq, target, Some(at(prefix64)));
    }
    assert_eq!(new.identifiers_seen(), 1);
    assert_eq!(encode_value(&new), reference.encode());
    let report = new.finish(&rib, &registry, 6, 4);
    assert_eq!(report, reference.finish(&rib, &registry, 6, 4));
    let found: Vec<(u64, Ipv6Addr)> = report.devices[0]
        .daily
        .iter()
        .filter_map(|d| d.address.map(|a| (d.day, a)))
        .collect();
    assert_eq!(
        found,
        vec![
            (1, at(PREFIX64S[1])),
            (3, at(PREFIX64S[2])),
            (5, at(PREFIX64S[0]))
        ]
    );

    new.compact_before(4);
    reference.compact_before(4);
    assert_eq!(encode_value(&new), reference.encode());
}

/// A tail three 256-entry chunks long, folded into a non-empty run: 97
/// identifiers spread over every radix byte, windows out of order, and each
/// `(identifier, window, seq)` sighted twice under different /64s, so the
/// fold keeps the first arrival of every tie.
#[test]
fn a_tail_of_several_chunks_folds_into_a_run() {
    let (rib, registry) = world();
    let mut new = IncrementalTracker::new();
    let mut reference = ReferenceTracker::default();
    let target: Ipv6Addr = "2001:db8:1::1".parse().unwrap();
    let mut observe = |new: &mut IncrementalTracker, window: u64, seq: u64, source: Ipv6Addr| {
        new.observe(window, seq, target, Some(source));
        reference.observe(window, seq, target, Some(source));
    };
    for i in 0..40u64 {
        let source = identifier(i % 24).with_prefix64(PREFIX64S[i as usize % 5]);
        observe(&mut new, i % WINDOWS, i % 3, source);
    }
    assert!(new.identifiers_seen() > 0, "the run is not empty");
    for i in 0..384u64 {
        let eui = identifier(i * 7 % 97);
        let (window, seq) = ((i * 5 + 3) % WINDOWS, (i / 2) % 4);
        for copy in 0..2 {
            let source = eui.with_prefix64(PREFIX64S[(i + copy) as usize % 5]);
            observe(&mut new, window, seq, source);
        }
    }
    assert_eq!(encode_value(&new), reference.encode());
    assert_eq!(new.identifiers_seen(), reference.identifiers_seen());
    for max_devices in [0, 1, 4, usize::MAX] {
        assert_eq!(
            new.finish(&rib, &registry, WINDOWS + 1, max_devices),
            reference.finish(&rib, &registry, WINDOWS + 1, max_devices),
            "max_devices {max_devices}"
        );
    }
}

/// The longest tail a fold orders by packed keys (`tracker::KEY_FOLD`);
/// one sighting more takes the radix passes.
const KEY_FOLD: usize = 2_048;
/// The tail that folds on its own at `observe` (`tracker::FOLD_FLOOR`).
const FOLD_FLOOR: usize = 1 << 15;

/// Sighting `i` of a tail: consecutive pairs sight one identifier at one
/// `(window, seq)` under different /64s, so every tie is an equal `seq`
/// the fold breaks by arrival; 211 identifiers that share radix bytes
/// ([`identifier`]) recur over shuffled windows and `seq`s.
fn tail_sighting(i: u64) -> (u64, u64, Ipv6Addr) {
    let pair = i / 2;
    let eui = identifier(pair * 7 % 211);
    let (window, seq) = ((pair * 5 + 3) % WINDOWS, (pair / 3) % 4);
    (window, seq, eui.with_prefix64(PREFIX64S[i as usize % 5]))
}

/// Tails at the edges of both fold paths, and at the floor where a tail
/// folds on its own, each folded into an empty run and into a non-empty
/// one: the fold's run, its bytes and its report are the reference's.
#[test]
fn tails_at_the_fold_paths_edges_fold_as_the_reference() {
    let (rib, registry) = world();
    let target: Ipv6Addr = "2001:db8:1::1".parse().unwrap();
    for len in [
        1,
        KEY_FOLD - 1,
        KEY_FOLD,
        KEY_FOLD + 1,
        FOLD_FLOOR - 1,
        FOLD_FLOOR,
    ] {
        for warm in [0u64, 40] {
            let mut new = IncrementalTracker::new();
            let mut reference = ReferenceTracker::default();
            let mut observe = |new: &mut IncrementalTracker, window, seq, source| {
                new.observe(window, seq, target, Some(source));
                reference.observe(window, seq, target, Some(source));
            };
            for i in 0..warm {
                let source = identifier(i % 24).with_prefix64(PREFIX64S[i as usize % 5]);
                observe(&mut new, i % WINDOWS, i % 3, source);
            }
            if warm > 0 {
                assert!(new.identifiers_seen() > 0, "the run is not empty");
            }
            for i in 0..len as u64 {
                let (window, seq, source) = tail_sighting(i);
                observe(&mut new, window, seq, source);
            }
            let at = format!("tail {len}, run warmed by {warm}");
            // Only the floor folds the tail before a reader does.
            assert_eq!(new.sightings().is_some(), len == FOLD_FLOOR, "{at}");
            assert_eq!(encode_value(&new), reference.encode(), "{at}");
            assert_eq!(new.identifiers_seen(), reference.identifiers_seen());
            for max_devices in [1, usize::MAX] {
                assert_eq!(
                    new.finish(&rib, &registry, WINDOWS + 1, max_devices),
                    reference.finish(&rib, &registry, WINDOWS + 1, max_devices),
                    "{at}, max_devices {max_devices}"
                );
            }
        }
    }
}

/// A run that folds after every window: each fold merges a window's tail
/// into the run the earlier windows left, and the tail re-sights some of
/// the previous window's `(identifier, window)` pairs at lower and higher
/// `seq`s, so the merge both replaces and keeps entries of the run. After
/// every window the fold equals the reference.
#[test]
fn a_run_folded_after_every_window_equals_the_reference() {
    let (rib, registry) = world();
    let target: Ipv6Addr = "2001:db8:1::1".parse().unwrap();
    let mut new = IncrementalTracker::new();
    let mut reference = ReferenceTracker::default();
    for window in 0..WINDOWS {
        // The window's identifiers: the earlier windows' and new ones.
        let identifiers = 40 * (window + 1);
        for step in 0..identifiers {
            let id = (step * 17 + window) % identifiers;
            let seq = 2 + (step * 7 + window) % 5;
            let prefix64 = PREFIX64S[(id + window) as usize % PREFIX64S.len()];
            let source = identifier(id).with_prefix64(prefix64);
            new.observe(window, seq, target, Some(source));
            reference.observe(window, seq, target, Some(source));
            if window > 0 && step % 3 == 0 {
                // Late sightings of the previous window, at a lower `seq`
                // (replacing the run's entry) or a higher one (ignored).
                let late = [1, 9][(step / 3 % 2) as usize];
                let moved = identifier(id).with_prefix64(PREFIX64S[(id as usize + 3) % 6]);
                new.observe(window - 1, late, target, Some(moved));
                reference.observe(window - 1, late, target, Some(moved));
            }
        }
        new.fold();
        assert!(new.sightings().is_some(), "window {window} folded");
        assert_eq!(encode_value(&new), reference.encode(), "window {window}");
        assert_eq!(
            new.finish(&rib, &registry, WINDOWS, usize::MAX),
            reference.finish(&rib, &registry, WINDOWS, usize::MAX),
            "window {window}"
        );
    }
}

/// Sightings that are not strictly ascending by window cannot have been
/// written by the codec; decoding them is a typed error, not a tracker whose
/// binary searches would silently miss.
#[test]
fn unordered_sightings_are_refused() {
    let sighting = Sighting {
        seq: 0,
        address: identifier(1).with_prefix64(PREFIX64S[0]),
    };
    let mut w = Writer::new();
    w.put_usize(1);
    identifier(1).encode(&mut w);
    vec![(2u64, sighting), (2u64, sighting)].encode(&mut w);
    FastMap::<(u64, Ipv6Prefix), u64>::default().encode(&mut w);
    assert_eq!(
        decode_value::<IncrementalTracker>(w.as_bytes()).err(),
        Some(CheckpointError::InvalidValue("sightings out of order"))
    );
}

/// The device caps every read of an unfolded tail is checked at.
const CAPS: [usize; 4] = [0, 1, 8, usize::MAX];

/// `new`'s report at every cap is the reference's, and reading it folds
/// `new` exactly when `folds`.
fn assert_reports_equal(
    new: &mut IncrementalTracker,
    reference: &ReferenceTracker,
    windows: u64,
    folds: bool,
    at: &str,
) {
    let (rib, registry) = world();
    let unfolded = new.sightings().is_none();
    for max_devices in CAPS {
        assert_eq!(
            new.finish(&rib, &registry, windows, max_devices),
            reference.finish(&rib, &registry, windows, max_devices),
            "{at}, max_devices {max_devices}"
        );
        assert_eq!(
            new.sightings().is_none(),
            unfolded && !folds,
            "{at}: the read folded"
        );
    }
}

proptest! {
    #[test]
    fn ordered_tails_are_reported_unfolded(
        ops in proptest::collection::vec(any::<u64>(), 1..300),
        fold_at in any::<u64>(),
    ) {
        let mut new = IncrementalTracker::new();
        let mut reference = ReferenceTracker::default();
        let fold_at = fold_at as usize % (ops.len() + 1);
        for (step, bits) in ops.iter().enumerate() {
            if step == fold_at {
                new.fold();
            }
            let window = step as u64 * WINDOWS / ops.len() as u64;
            let target = Ipv6Addr::from(
                ((PREFIX64S[(bits >> 24) as usize % PREFIX64S.len()] as u128) << 64) | 1,
            );
            let source = source(bits >> 32);
            new.observe(window, (bits >> 16) % 4, target, source);
            reference.observe(window, (bits >> 16) % 4, target, source);
        }
        assert_reports_equal(&mut new, &reference, WINDOWS + 1, false, "ordered");
    }
}

/// Identifier `index` of up to 2^24 distinct ones: unlike [`identifier`],
/// past the 256 a count table's edges need.
fn wide_identifier(index: u64) -> Eui64 {
    let [.., a, b, c] = index.to_be_bytes();
    Eui64::from_mac(MacAddr::new([0x38, 0x10, 0xd5, a, b, c]))
}

/// Unroutable identifiers, each sighted in more windows than any routable
/// one and more of them than any fixed cap, are passed over: the cap
/// yields the best routable devices.
#[test]
fn unroutable_identifiers_outranking_every_cap_are_passed_over() {
    let unroutable = PREFIX64S[5];
    let mut new = IncrementalTracker::new();
    let mut reference = ReferenceTracker::default();
    let target: Ipv6Addr = "2001:db8:1::1".parse().unwrap();
    for window in 0..WINDOWS {
        for i in 0..24u64 {
            // 12 unroutable identifiers in all 7 windows; routable one `i`
            // in the first `i % 6 + 1`.
            let prefix64 = match i {
                0..12 => unroutable,
                _ if window <= i % 6 => PREFIX64S[i as usize % 5],
                _ => continue,
            };
            let source = identifier(i).with_prefix64(prefix64);
            new.observe(window, i, target, Some(source));
            reference.observe(window, i, target, Some(source));
        }
    }
    assert_reports_equal(&mut new, &reference, WINDOWS, false, "unroutable");
    let (rib, registry) = world();
    let report = new.finish(&rib, &registry, WINDOWS, 8);
    assert_eq!(report.devices.len(), 8);
    assert!(report
        .devices
        .iter()
        .all(|d| rib.origin(d.device.first_observed).is_some()));
}

/// A tail that folded itself at the floor mid-window: the run holds each
/// identifier's earliest sighting of window 3 so far, and the tail sights
/// them again in window 3 — at a lower `seq` (kept), an equal one (the
/// run's kept) and a higher one (dropped) — before window 4.
#[test]
fn a_window_split_between_run_and_tail_keeps_its_earliest_sighting() {
    let mut new = IncrementalTracker::new();
    let mut reference = ReferenceTracker::default();
    let target: Ipv6Addr = "2001:db8:1::1".parse().unwrap();
    let mut observe = |new: &mut IncrementalTracker, window: u64, seq: u64, source: Ipv6Addr| {
        new.observe(window, seq, target, Some(source));
        reference.observe(window, seq, target, Some(source));
    };
    for i in 0..FOLD_FLOOR as u64 {
        let source = identifier(i % 211).with_prefix64(PREFIX64S[i as usize % 5]);
        observe(&mut new, i * 4 / FOLD_FLOOR as u64, 100 + i % 7, source);
    }
    assert!(new.sightings().is_some(), "the floor folded the tail");
    for (window, i) in (0..211u64).map(|i| (3, i)).chain((0..211).map(|i| (4, i))) {
        let source = identifier(i).with_prefix64(PREFIX64S[(i as usize + 1) % 5]);
        observe(&mut new, window, [99, 100, 101][i as usize % 3], source);
    }
    assert_reports_equal(&mut new, &reference, WINDOWS, false, "split window");
}

/// One identifier's late sighting in an earlier window makes a tail the
/// read cannot count: that tracker's finish folds first, and the report
/// is still the reference's. The same tail without it is read unfolded.
#[test]
fn a_tail_whose_windows_go_backwards_is_folded_first() {
    let target: Ipv6Addr = "2001:db8:1::1".parse().unwrap();
    for late in [false, true] {
        let mut new = IncrementalTracker::new();
        let mut reference = ReferenceTracker::default();
        for window in 0..WINDOWS {
            for i in 0..40u64 {
                let source = identifier(i).with_prefix64(PREFIX64S[(i + window) as usize % 5]);
                new.observe(window, i, target, Some(source));
                reference.observe(window, i, target, Some(source));
            }
        }
        if late {
            let source = identifier(7).with_prefix64(PREFIX64S[4]);
            new.observe(2, 0, target, Some(source));
            reference.observe(2, 0, target, Some(source));
        }
        let at = format!("late sighting {late}");
        assert_reports_equal(&mut new, &reference, WINDOWS, late, &at);
    }
}

/// The count table holds 768 identifiers on the stack, 12 288 in the heap
/// table it moves to past them, and grows four times over past those:
/// tails of identifiers either side of both edges, each sighted in a few
/// windows, read as the reference.
#[test]
fn tails_at_the_count_tables_edges_read_as_the_reference() {
    let target: Ipv6Addr = "2001:db8:1::1".parse().unwrap();
    for identifiers in [768, 769, 12_288, 12_289] {
        let mut new = IncrementalTracker::new();
        let mut reference = ReferenceTracker::default();
        let mut seq = 0;
        for window in 0..3u64 {
            for i in 0..identifiers {
                if (i + window) % 5 == 0 {
                    continue;
                }
                let source = wide_identifier(i).with_prefix64(PREFIX64S[i as usize % 6]);
                new.observe(window, seq, target, Some(source));
                reference.observe(window, seq, target, Some(source));
                seq += 1;
            }
        }
        let at = format!("{identifiers} identifiers");
        assert_reports_equal(&mut new, &reference, 3, false, &at);
    }
}
