//! A differential oracle for [`WindowedRotationDetector`]: the detector that
//! keeps its entries in per-/48 blocks, each in the order it met them behind
//! a cursor and found otherwise through positions homed at subnet bits,
//! against the map keyed by target it replaced, kept here verbatim as the reference
//! model. Over watch lists re-probed window after window — revised
//! mid-stream (subset, superset, reordered), with targets met twice in a
//! window, windows out of order and arbitrary `seq` values — and over
//! rebuilds through the checkpoint codec and the `FromIterator` constructor,
//! the two must emit equal events, hold equal state and write equal
//! checkpoint bytes. Two target universes: one target per /64 of three
//! /48s, fed to detectors sized for nothing; and the
//! monitor's shape, one target per /56 with arbitrary bits below, two in one
//! subnet now and then and sources sometimes outside the target's /48, fed
//! to detectors sized for /56 subnets.

use std::marker::PhantomData;
use std::net::Ipv6Addr;

use followscent::checkpoint::{decode_value, encode_value, Checkpointable, Writer};
use followscent::core::fasthash::FastMap;
use followscent::core::rotation_detect::classify_change;
use followscent::core::{RotationEvent, WindowedRotationDetector};
use followscent::ipv6::{Eui64, MacAddr};
use proptest::prelude::*;

/// The detector as it stood before the cursor layout, verbatim.
#[derive(Debug, Clone, Default)]
struct ReferenceDetector {
    last: FastMap<Ipv6Addr, (u64, Option<Ipv6Addr>)>,
}

impl ReferenceDetector {
    fn observe(
        &mut self,
        window: u64,
        seq: u64,
        target: Ipv6Addr,
        source: Option<Ipv6Addr>,
    ) -> Option<RotationEvent> {
        let previous = self.last.insert(target, (window, source));
        let (prev_window, prev_source) = previous?;
        if prev_window >= window {
            // Re-observation within the same window (or out of order):
            // nothing to diff against.
            return None;
        }
        let change = classify_change(target, prev_source, source)?;
        Some(RotationEvent {
            window,
            seq,
            change,
        })
    }

    /// The checkpoint bytes as the codec wrote them for this layout: the map,
    /// in key order.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.last.encode(&mut w);
        w.into_bytes()
    }

    fn entries(&self) -> Vec<(Ipv6Addr, (u64, Option<Ipv6Addr>))> {
        let mut entries: Vec<_> = self.last.iter().map(|(t, last)| (*t, *last)).collect();
        entries.sort_by_key(|(target, _)| *target);
        entries
    }
}

/// Targets in the universe lists are drawn from.
const TARGETS: u64 = 24;

/// Target `index`: one per /64, spread over three /48s of one /32.
fn target(index: u64) -> Ipv6Addr {
    let bits = (0x2001_0db8_u128 << 96) | ((index % 3) as u128) << 80 | (index as u128) << 64 | 1;
    Ipv6Addr::from(bits)
}

/// A response to a probe of target `index`, decoded from `bits`: silent, a
/// non-EUI-64 address, or one of four identifiers in the target's /64.
fn source(index: u64, bits: u64) -> Option<Ipv6Addr> {
    let prefix64 = (u128::from(target(index)) >> 64) as u64;
    match bits % 6 {
        0 => None,
        1 => Some(Ipv6Addr::from(((prefix64 as u128) << 64) | 0xbeef)),
        device => {
            let mac = MacAddr::new([0xc8, 0x0e, 0x14, 0, 0, device as u8]);
            Some(Eui64::from_mac(mac).with_prefix64(prefix64))
        }
    }
}

/// A universe of targets, their responses, and the detector they are fed
/// to.
trait Universe {
    /// Targets in the universe lists are drawn from; target `index` lies in
    /// /48 number `index % 3`.
    const TARGETS: u64;
    fn target(index: u64) -> Ipv6Addr;
    fn source(index: u64, bits: u64) -> Option<Ipv6Addr>;
    fn detector() -> WindowedRotationDetector;
}

/// [`target`] and [`source`], fed to detectors sized for nothing.
struct OnePer64;

impl Universe for OnePer64 {
    const TARGETS: u64 = TARGETS;

    fn target(index: u64) -> Ipv6Addr {
        target(index)
    }

    fn source(index: u64, bits: u64) -> Option<Ipv6Addr> {
        source(index, bits)
    }

    fn detector() -> WindowedRotationDetector {
        WindowedRotationDetector::new()
    }
}

/// The monitor's shape, fed to detectors sized for /56 subnets as a
/// monitor's are: one target per /56 of three /48s, with arbitrary bits
/// below the /56 — except that every sixteenth target shares the subnet of
/// the target three before it. A response is silent, a non-EUI-64 address
/// in the target's /64, one of four identifiers in it, or — two draws in
/// eight — a router or an identifier outside the target's /48.
struct MonitorShape;

impl Universe for MonitorShape {
    const TARGETS: u64 = 96;

    fn target(index: u64) -> Ipv6Addr {
        let listed = if index % 16 == 15 { index - 3 } else { index };
        let subnet = u128::from((listed / 3 * 167 + 11) % 256);
        let below = u128::from(mix(index, 99)) << 8 | u128::from(index as u8);
        let bits = (0x2001_0db8_u128 << 96) | u128::from(index % 3) << 80 | subnet << 72;
        Ipv6Addr::from(bits | below & ((1 << 72) - 1))
    }

    fn source(index: u64, bits: u64) -> Option<Ipv6Addr> {
        let prefix64 = (u128::from(Self::target(index)) >> 64) as u64;
        let device = |prefix64: u64, device: u64| {
            let mac = MacAddr::new([0xc8, 0x0e, 0x14, 0, 1, device as u8]);
            Some(Eui64::from_mac(mac).with_prefix64(prefix64))
        };
        match bits % 8 {
            0 => None,
            1 => Some(Ipv6Addr::from(((prefix64 as u128) << 64) | 0xbeef)),
            // A router in a /48 of its own.
            2 => Some(Ipv6Addr::from(
                0x2001_0db8_00ff_u128 << 80 | u128::from(bits % 3),
            )),
            // An identifier in the same /64 position of /48 number 4 to 6.
            3 => device(prefix64 ^ 4 << 16, bits % 2),
            device_index => device(prefix64, device_index),
        }
    }

    fn detector() -> WindowedRotationDetector {
        WindowedRotationDetector::for_granularity(56)
    }
}

/// A second, independent draw from `bits`, keyed by `k`.
fn mix(bits: u64, k: u64) -> u64 {
    let mut z = bits ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Both detectors, fed the same observations.
struct Run<U> {
    new: WindowedRotationDetector,
    reference: ReferenceDetector,
    /// The watch list, in probing order (a target may be listed twice).
    list: Vec<u64>,
    window: u64,
    events: usize,
    universe: PhantomData<U>,
}

impl<U: Universe> Run<U> {
    /// Fresh detectors over the watch list `list`.
    fn new(list: Vec<u64>) -> Self {
        Run {
            new: U::detector(),
            reference: ReferenceDetector::default(),
            list,
            window: 0,
            events: 0,
            universe: PhantomData,
        }
    }

    fn observe(&mut self, window: u64, seq: u64, index: u64, source: Option<Ipv6Addr>) {
        let event = self.new.observe(window, seq, U::target(index), source);
        assert_eq!(
            event,
            self.reference
                .observe(window, seq, U::target(index), source)
        );
        self.events += usize::from(event.is_some());
    }

    /// Apply the operation `bits` decodes to.
    fn apply(&mut self, bits: u64) {
        match bits % 16 {
            // Probe the list as one window: usually the next one, sometimes
            // one already past; `seq` the position or arbitrary; now and
            // then a target met twice.
            0..=8 => {
                let window = match mix(bits, 1) % 8 {
                    0 => self.window.saturating_sub(1 + mix(bits, 2) % 3),
                    _ => {
                        self.window += 1;
                        self.window
                    }
                };
                let arbitrary_seq = mix(bits, 3) % 2 == 0;
                for (position, &index) in self.list.clone().iter().enumerate() {
                    let position = position as u64;
                    let seq = if arbitrary_seq {
                        mix(bits, position)
                    } else {
                        position
                    };
                    let answer = U::source(index, mix(bits ^ index, window));
                    self.observe(window, seq, index, answer);
                    if mix(bits, position + 100) % 13 == 0 {
                        let again = U::source(index, mix(bits, position + 200));
                        self.observe(window, seq + 1, index, again);
                    }
                }
            }
            // Revise the list: a subset, a superset, or a new order.
            9..=11 => match mix(bits, 4) % 3 {
                0 => {
                    let mut k = 0;
                    self.list.retain(|_| {
                        k += 1;
                        mix(bits, k) % 3 != 0
                    });
                }
                1 => {
                    for k in 0..1 + mix(bits, 5) % 6 {
                        let index = mix(bits, 10 + k) % U::TARGETS;
                        let at = mix(bits, 20 + k) as usize % (self.list.len() + 1);
                        self.list.insert(at, index);
                    }
                }
                _ => self.list.sort_by_key(|&index| mix(bits, index)),
            },
            // Rebuild the new detector in another entry order: through the
            // constructor from its own entries rotated, or through the codec.
            _ => {
                if mix(bits, 6) % 2 == 0 {
                    let mut entries: Vec<_> = self.new.last_observations().collect();
                    let by = mix(bits, 7) as usize % (entries.len() + 1);
                    entries.rotate_left(by);
                    self.new = entries.into_iter().collect();
                } else {
                    self.new = decode_value(&encode_value(&self.new)).expect("canonical bytes");
                }
            }
        }
    }

    /// Everything observable about the two detectors agrees.
    fn assert_equal(&self) {
        let (new, reference) = (&self.new, &self.reference);
        assert_eq!(new.targets_tracked(), reference.last.len());
        let mut state: Vec<_> = new.last_observations().collect();
        state.sort_by_key(|(target, _)| *target);
        assert_eq!(state, reference.entries());
        let rebuilt: WindowedRotationDetector = reference.entries().into_iter().collect();
        assert_eq!(&rebuilt, new);
        let bytes = encode_value(new);
        assert_eq!(bytes, reference.encode());
        let back: WindowedRotationDetector = decode_value(&bytes).expect("canonical bytes");
        assert_eq!(&back, new);
    }
}

/// Apply `ops` to a run over `U` that starts watching targets `start..`,
/// checking everything after each.
fn run_ops<U: Universe>(ops: &[u64], start: u64) {
    let mut run = Run::<U>::new((start % U::TARGETS..U::TARGETS).collect());
    for bits in ops {
        run.apply(*bits);
        run.assert_equal();
    }
}

proptest! {
    #[test]
    fn cursor_detector_equals_the_keyed_map_reference(
        ops in proptest::collection::vec(any::<u64>(), 0..96),
        start in 0u64..TARGETS,
    ) {
        run_ops::<OnePer64>(&ops, start);
    }

    #[test]
    fn in_the_monitors_shape_the_blocks_equal_the_keyed_map_reference(
        ops in proptest::collection::vec(any::<u64>(), 0..96),
        start in 0u64..MonitorShape::TARGETS,
    ) {
        run_ops::<MonitorShape>(&ops, start);
    }
}

/// The property's common case, pinned and made non-vacuous: a standing list
/// probed in one order for many windows — the fast path on every
/// observation after the first window — then reordered, cut and grown.
#[test]
fn a_standing_list_diffs_like_the_keyed_map() {
    standing_list::<OnePer64>();
    standing_list::<MonitorShape>();
}

fn standing_list<U: Universe>() {
    let mut run = Run::<U>::new((0..U::TARGETS).rev().collect());
    for window in 0..12u64 {
        run.apply(16 * window); // a probe
        run.assert_equal();
    }
    assert!(run.events > 24, "rotations were detected: {}", run.events);
    for revision in [9u64, 9 + 16, 9 + 32, 9 + 48] {
        run.apply(revision);
        run.apply(16 * 13);
        run.assert_equal();
    }
}

/// Equality is about what the detectors hold, never about their order.
#[test]
fn equality_ignores_order_and_sees_every_value() {
    let entries: Vec<_> = (0..8)
        .map(|index| (target(index), (index % 3, source(index, index))))
        .collect();
    let forward: WindowedRotationDetector = entries.iter().copied().collect();
    let backward: WindowedRotationDetector = entries.iter().rev().copied().collect();
    assert_eq!(forward, backward);
    assert_eq!(encode_value(&forward), encode_value(&backward));
    let mut changed = entries.clone();
    changed[3].1 .0 += 1;
    let changed: WindowedRotationDetector = changed.into_iter().collect();
    let fewer: WindowedRotationDetector = entries[1..].iter().copied().collect();
    assert_ne!(forward, changed);
    assert_ne!(forward, fewer);
}

/// A snapshot listing a target twice (no codec writes one) decodes the way
/// the map decoded it: the later entry stands.
#[test]
fn a_repeated_target_keeps_its_later_entry_as_the_map_did() {
    let mut w = Writer::new();
    w.put_usize(3);
    (target(1), (4u64, source(1, 2))).encode(&mut w);
    (target(2), (1u64, None::<Ipv6Addr>)).encode(&mut w);
    (target(1), (2u64, source(1, 3))).encode(&mut w);
    let bytes = w.into_bytes();
    let reference = ReferenceDetector {
        last: decode_value(&bytes).expect("well-formed"),
    };
    let new: WindowedRotationDetector = decode_value(&bytes).expect("well-formed");
    assert_eq!(new.targets_tracked(), 2);
    assert_eq!(encode_value(&new), reference.encode());
}

/// A block of 2^16 places and more, which keeps each place's high half
/// beside its slots: every /64 of one /48 at /64 granularity, twice over in
/// another order, then every other /64 of the /48 next to it for a second
/// time, equals the keyed map too.
#[test]
fn a_block_of_every_64_in_its_48_equals_the_keyed_map() {
    let target = |i: u64| Ipv6Addr::from((0x2001_0db8_u128 << 96) | u128::from(i) << 64 | 1);
    let answer = |i: u64, window: u64| match (i + window) % 4 {
        0 => None,
        1 => Some(target(i ^ 1)),
        2 => Some(Ipv6Addr::from(0x2001_0db8_00ff_u128 << 80 | u128::from(i))),
        _ => Some(target(i)),
    };
    let mut new = WindowedRotationDetector::for_granularity(64);
    let mut reference = ReferenceDetector::default();
    let lists: [Vec<u64>; 3] = [
        (0..1 << 16).collect(),
        (0..1 << 16).map(|i| i * 40_503 % (1 << 16)).collect(),
        (0..1 << 16).step_by(2).map(|i| i + (1 << 16)).collect(),
    ];
    for (window, list) in (0u64..).zip(&lists) {
        for (seq, &i) in (0u64..).zip(list) {
            let event = new.observe(window, seq, target(i), answer(i, window));
            assert_eq!(
                event,
                reference.observe(window, seq, target(i), answer(i, window))
            );
        }
    }
    assert_eq!(new.targets_tracked(), reference.last.len());
    assert_eq!(encode_value(&new), reference.encode());
    let rebuilt: WindowedRotationDetector = reference.entries().into_iter().collect();
    assert_eq!(rebuilt, new);
}
