//! Prefix-rotation detection from two snapshots taken 24 hours apart (§4.3).
//!
//! Two scans of the same target list (same order, same seed) are compared:
//! keep the `<target, response>` pairs whose response is an EUI-64 address in
//! either scan, drop the pairs common to both scans, and what remains are
//! targets whose EUI-64 responder changed — either to a different EUI-64
//! address, to a non-EUI-64 address, or to silence. A /48 with at least one
//! such change is flagged as (likely) rotating.
//!
//! [`WindowedRotationDetector`] runs the rule continuously, diffing every
//! window against each target's last one. Its state is laid out the way
//! the paper watches: one block per /48, an entry per target holding only
//! what the /48 does not already say (29 bytes), kept in the order the
//! block last met them and found otherwise through positions homed at the
//! target's subnet bits (2 bytes), so a monitor's standing watch list — one
//! target per subnet of each watched /48 — costs at most 32 bytes a target.

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_ipv6::{addr_to_u128, Eui64, Ipv6Prefix};
use scent_prober::Scan;

use crate::fasthash::{FastMap, FastSet};

/// The kind of change observed for one target between the two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChangeKind {
    /// EUI-64 response in both scans, but from different addresses.
    EuiToDifferentEui,
    /// EUI-64 response in the first scan only.
    EuiToNothing,
    /// EUI-64 response in the second scan only.
    NothingToEui,
    /// EUI-64 response replaced by (or replacing) a non-EUI-64 response.
    EuiToOtherKind,
}

/// One changed target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChangedTarget {
    /// The probed target.
    pub target: Ipv6Addr,
    /// The response source in the first snapshot, if any.
    pub first: Option<Ipv6Addr>,
    /// The response source in the second snapshot, if any.
    pub second: Option<Ipv6Addr>,
    /// How the response changed.
    pub kind: ChangeKind,
}

/// The outcome of comparing two snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RotationDetection {
    /// Every target whose EUI-64 response changed.
    pub changes: Vec<ChangedTarget>,
    /// The /48 networks containing at least one changed target.
    pub rotating_48s: Vec<Ipv6Prefix>,
}

/// Apply the §4.3 per-target rule to one `<first, second>` response pair:
/// keep the pair if it involves an EUI-64 response in at least one snapshot
/// and the two responses differ, classifying how it changed.
#[inline]
pub fn classify_change(
    target: Ipv6Addr,
    first_source: Option<Ipv6Addr>,
    second_source: Option<Ipv6Addr>,
) -> Option<ChangedTarget> {
    let first_eui = first_source.filter(|a| Eui64::addr_is_eui64(*a));
    let second_eui = second_source.filter(|a| Eui64::addr_is_eui64(*a));
    // Only pairs that are EUI-64 in at least one scan matter.
    if first_eui.is_none() && second_eui.is_none() {
        return None;
    }
    // Identical pairs are removed (the "common between the two scans" filter
    // of §4.3).
    if first_source == second_source {
        return None;
    }
    let kind = match (first_eui, second_eui) {
        (Some(_), Some(_)) => ChangeKind::EuiToDifferentEui,
        (Some(_), None) if second_source.is_none() => ChangeKind::EuiToNothing,
        (None, Some(_)) if first_source.is_none() => ChangeKind::NothingToEui,
        _ => ChangeKind::EuiToOtherKind,
    };
    Some(ChangedTarget {
        target,
        first: first_source,
        second: second_source,
        kind,
    })
}

/// A rotation event: one changed target, stamped with the observation window
/// it was detected in and a sequence number that orders events the way a
/// batch comparison would (probing order of the later snapshot).
///
/// Emitted incrementally by [`WindowedRotationDetector`] the moment a
/// target's EUI-64 responder is seen to differ from the previous window. A
/// monitor run records each rotation once, as one of these, and derives the
/// rest from them: the /48 it flags is its target's ([`rotating_48s`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RotationEvent {
    /// The observation window in which the change was detected (the window of
    /// the *later* observation).
    pub window: u64,
    /// Probing-order sequence number of the later observation.
    pub seq: u64,
    /// The change itself.
    pub change: ChangedTarget,
}

/// The /48s containing at least one event's target, sorted and distinct:
/// the §4.3 rule's verdict over `events`, in any order.
pub fn rotating_48s(events: &[RotationEvent]) -> Vec<Ipv6Prefix> {
    // Deduplicated as /48 network bits on the fast hasher, in a set that
    // grows with the /48s: a monitor's run has hundreds of events per /48,
    // so a set sized by the events would be mostly empty.
    let rotating: FastSet<u64> = events.iter().map(event_48).collect();
    prefixes_48(rotating)
}

/// The network bits of the /48 `event` flags — its target's — as the
/// address's top 48 bits: what a set of rotating /48s holds. Inlined: a
/// shard calls it once per retained event.
#[inline]
pub fn event_48(event: &RotationEvent) -> u64 {
    (addr_to_u128(event.change.target) >> 80) as u64
}

/// The /48s whose network bits ([`event_48`]) `nets` holds, each once,
/// ascending.
pub fn prefixes_48(nets: impl IntoIterator<Item = u64>) -> Vec<Ipv6Prefix> {
    let mut nets: Vec<u64> = nets.into_iter().collect();
    nets.sort_unstable();
    (nets.into_iter())
        .map(|net| Ipv6Prefix::from_bits(u128::from(net) << 80, 48).expect("48 is valid"))
        .collect()
}

/// What the detector keeps per target: the window and response source of
/// its last observation.
type Last = (u64, Option<Ipv6Addr>);

/// The bits of an address below its /48: what a block entry keeps of its
/// target, and of a response source in the same /48.
const LOW_BITS: u32 = 80;

/// How far past its home place an admitted target may land before its
/// block's positions are laid out again.
const MAX_PROBE: usize = 8;

/// The most subnet bits a granularity sizes a block for: one place per /64.
const MAX_SUBNET_BITS: u8 = 16;

/// Online rotation detection over a stream of per-target observations
/// grouped into windows (one window per scan pass).
///
/// This is the incremental counterpart of [`RotationDetection::compare`]:
/// feeding it the records of two scans as windows 0 and 1 emits exactly the
/// changes the batch comparison reports, but it keeps going — every later
/// window is diffed against each target's previous observation, which is what
/// turns the paper's one-shot "two snapshots 24h apart" methodology into a
/// continuous monitor.
///
/// The state is kept per /48, the unit the paper watches: one block per /48
/// the detector has met, keyed by the /48's network bits as a `u64`. An entry
/// keeps only what the /48 does not already say: the target's 80 bits below
/// it, the last window, and the response source's 80 bits below its /48 (29
/// bytes). A source outside its target's /48 keeps its /48 bits in one side
/// table, keyed by target; nothing else lives outside the blocks.
///
/// A block keeps its entries in the order it last met them, with a cursor
/// at the next one the current window is expected to meet. A monitor lists
/// one target per subnet of each watched /48 and re-probes the list in the
/// same permuted order every window, so after a list's first window an
/// observation finds its /48's block with one hash and its target *at* the
/// block's cursor: one compare, and the entry lies next to the one this /48
/// met before it — a window walks each block front to back. Everything else
/// — a first sighting, a revised or resumed list, a re-observation — goes
/// through the block's positions: an open-addressed table, 2 bytes a place
/// kept in the block's own slots, whose probe for a target starts at the
/// place its subnet bits name. An entry met out of place trades places
/// with the one at the cursor, so the next window meets it in order.
/// Nothing reads an observation's `seq` to find its entry.
///
/// A monitor names its granularity ([`Self::for_granularity`]), so every
/// block is born with one 31-byte slot (an entry and a place) per subnet
/// and each target's home is its own subnet's place: a watched target
/// costs its slot plus its share of one block header. Any other shape — no
/// granularity named, two targets in one subnet, targets crowded into one
/// corner of their /48 — stays exact: a probe walks past a taken place, and
/// an admission that lands far from its home lays the positions out again
/// on the bits its targets do vary in, or doubles the block. The layout is
/// never observable: equality, the checkpoint bytes and every event are
/// what a map keyed by target gives.
#[derive(Clone, Default)]
pub struct WindowedRotationDetector {
    /// Per /48 the detector has met, its block.
    blocks: Blocks,
    /// The /48 bits of every last response source that lies outside its
    /// target's /48, by target. The entry keeps the bits below.
    elsewhere: FastMap<Ipv6Addr, u64>,
    /// Targets tracked.
    len: usize,
    /// The places a block is born with: one per subnet of the granularity
    /// the owner named, or 0 when it named none.
    subnets: usize,
}

impl WindowedRotationDetector {
    /// An empty detector for no particular target list: a block is born
    /// with room for the targets the detector's blocks hold on average, and
    /// grows.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty detector for a list of one target per `/granularity` subnet
    /// of each /48 (the list `TargetGenerator::per_candidate_48` makes):
    /// every block is born with room for one target per subnet, at most one
    /// per /64, so a block of such a list never grows. The granularity is
    /// never state — a checkpoint encodes entries in target order.
    pub fn for_granularity(granularity: u8) -> Self {
        let bits = granularity.saturating_sub(48).min(MAX_SUBNET_BITS);
        WindowedRotationDetector {
            subnets: 1 << bits,
            ..Self::default()
        }
    }

    /// Number of targets currently tracked.
    pub fn targets_tracked(&self) -> usize {
        self.len
    }

    /// Observe one probe of `target` during `window` (windows must be fed in
    /// non-decreasing order per target; `seq` is the probing-order index of
    /// this observation within its window, copied into the event and never
    /// used to find the target). Returns a [`RotationEvent`] if the response
    /// differs from the previous window's in the §4.3 sense.
    #[inline]
    pub fn observe(
        &mut self,
        window: u64,
        seq: u64,
        target: Ipv6Addr,
        source: Option<Ipv6Addr>,
    ) -> Option<RotationEvent> {
        let bits = u128::from(target);
        let (now, source_48) = encode(bits, (window, source));
        let (previous, displaced) = self.swap(bits, now, source_48, Some(window))?;
        if previous.0 >= window {
            // Re-observation within the same window (or out of order):
            // nothing to diff against.
            return None;
        }
        if (previous.1, previous.2, displaced) == (now.1, now.2, source_48) {
            // The same response: the pair §4.3 drops, told from the entry
            // without rebuilding either address.
            return None;
        }
        let (_, prev_source) = last((bits >> LOW_BITS) as u64, previous, displaced);
        let change = classify_change(target, prev_source, source)?;
        Some(RotationEvent {
            window,
            seq,
            change,
        })
    }

    /// Set `target`'s entry to `last` and return what it held, or `None`
    /// once a target never seen is admitted holding `last`. No cursor
    /// moves.
    fn replace(&mut self, target: Ipv6Addr, last: Last) -> Option<Last> {
        let bits = u128::from(target);
        let (now, source_48) = encode(bits, last);
        let (previous, displaced) = self.swap(bits, now, source_48, None)?;
        Some(self::last((bits >> LOW_BITS) as u64, previous, displaced))
    }

    /// Have the entry of target `bits` hold `now` (`source_48`: its
    /// source's /48 bits when that lies outside the target's /48) and
    /// return what it held, with the /48 bits of a source elsewhere — or
    /// `None` once a target never seen is admitted. Met by an observation
    /// of `window`, the entry is found at, or moved to, its block's cursor.
    #[inline(always)]
    fn swap(
        &mut self,
        bits: u128,
        now: Held,
        source_48: Option<u64>,
        window: Option<u64>,
    ) -> Option<(Held, Option<u64>)> {
        let key = (bits >> LOW_BITS) as u64;
        let low = bits & LOW_MASK;
        let at = match self.blocks.find(key) {
            Ok(at) => at,
            Err(_) => {
                let born = self.born();
                self.blocks.insert(Block::new(key, born))
            }
        };
        let block = &mut self.blocks.blocks[at];
        let previous = match window {
            Some(window) => block.observe(window, low, now),
            None => block.replace(low, now),
        };
        // The side table is touched only when a source outside the target's
        // /48 comes or goes, and it hands back the one it held.
        let displaced = match (source_48, previous.map(|(_, kind, _)| kind)) {
            (Some(source_48), _) => self.elsewhere.insert(Ipv6Addr::from(bits), source_48),
            (None, Some(SlotKind::Elsewhere)) => self.elsewhere.remove(&Ipv6Addr::from(bits)),
            _ => None,
        };
        let Some(previous) = previous else {
            self.len += 1;
            return None;
        };
        Some((previous, displaced))
    }

    /// `target`'s entry, if the detector tracks it.
    fn get(&self, target: Ipv6Addr) -> Option<Last> {
        let bits = u128::from(target);
        let key = (bits >> LOW_BITS) as u64;
        let block = self.blocks.get(key)?;
        let at = block.find(bits & LOW_MASK).ok()?;
        Some(block.slots[at].entry(key, &self.elsewhere).1)
    }

    /// The places a new block is born with: one per subnet of the owner's
    /// granularity, or else room for as many targets as a block holds on
    /// average so far (a list's /48s tend to be listed alike).
    fn born(&self) -> usize {
        if self.subnets > 0 {
            return self.subnets;
        }
        (self.len / self.blocks.blocks.len().max(1))
            .max(1)
            .next_power_of_two()
    }

    /// The detector's complete state — what a checkpoint encodes: per
    /// target, the window and response source of its last observation, in
    /// target order. [`FromIterator`] rebuilds a detector from it.
    pub fn last_observations(
        &self,
    ) -> impl Iterator<Item = (Ipv6Addr, (u64, Option<Ipv6Addr>))> + '_ {
        let mut blocks: Vec<&Block> = self.blocks.blocks.iter().collect();
        blocks.sort_unstable_by_key(|block| block.key);
        blocks.into_iter().flat_map(move |block| {
            let mut entries: Vec<&Slot> = block.entries().iter().collect();
            entries.sort_unstable_by_key(|slot| slot.target());
            entries
                .into_iter()
                .map(move |slot| slot.entry(block.key, &self.elsewhere))
        })
    }
}

/// The bits below a /48.
const LOW_MASK: u128 = (1 << LOW_BITS) - 1;

/// How an entry's last response source is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum SlotKind {
    /// The last probe went unanswered.
    Silent,
    /// Answered from the target's own /48.
    Local,
    /// Answered from outside the target's /48, whose bits the side table
    /// keeps.
    Elsewhere,
}

/// One place of a block: one target's entry — the bits below the /48 of
/// the target and of its last response source, and the last window — and
/// one place of the block's positions. Packed to 31 bytes; the fields are
/// only ever copied out.
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct Slot {
    window: u64,
    /// The target's bits 64..128.
    target_iid: u64,
    /// The source's bits 64..128.
    source_iid: u64,
    /// The target's bits 48..64.
    target_subnet: u16,
    /// The source's bits 48..64.
    source_subnet: u16,
    /// This place of the positions, not of the entry: 0 (vacant) or one
    /// more than the position of the entry it names (its low 16 bits).
    place: u16,
    kind: SlotKind,
}

impl Slot {
    const VACANT: Slot = Slot {
        window: 0,
        target_iid: 0,
        source_iid: 0,
        target_subnet: 0,
        source_subnet: 0,
        place: 0,
        kind: SlotKind::Silent,
    };

    /// The entry of the target whose bits below the /48 are `target`.
    fn new(target: u128, (window, kind, source): Held) -> Slot {
        Slot {
            window,
            target_iid: target as u64,
            source_iid: source as u64,
            target_subnet: (target >> 64) as u16,
            source_subnet: (source >> 64) as u16,
            place: 0,
            kind,
        }
    }

    /// The target's bits below its /48.
    #[inline]
    fn target(&self) -> u128 {
        u128::from(self.target_subnet) << 64 | u128::from(self.target_iid)
    }

    /// The target, in the /48 whose network bits are `key`.
    fn target_addr(&self, key: u64) -> Ipv6Addr {
        Ipv6Addr::from(u128::from(key) << LOW_BITS | self.target())
    }

    /// Hold `held` instead and return what the entry held, field by field:
    /// the hit path writes the entry in place rather than copying a whole
    /// one over it.
    #[inline]
    fn replace(&mut self, (window, kind, source): Held) -> Held {
        let source_was = u128::from(self.source_subnet) << 64 | u128::from(self.source_iid);
        let held = (self.window, self.kind, source_was);
        self.window = window;
        self.kind = kind;
        self.source_iid = source as u64;
        self.source_subnet = (source >> 64) as u16;
        held
    }

    /// The entry as `(target, last)`, in the /48 `key`, reading the side
    /// table `elsewhere` if its source lies outside.
    fn entry(&self, key: u64, elsewhere: &FastMap<Ipv6Addr, u64>) -> (Ipv6Addr, Last) {
        let target = self.target_addr(key);
        let source_48 = (self.kind == SlotKind::Elsewhere).then(|| elsewhere[&target]);
        let source = u128::from(self.source_subnet) << 64 | u128::from(self.source_iid);
        (
            target,
            last(key, (self.window, self.kind, source), source_48),
        )
    }
}

/// What an entry holds: the last window, its source's kind, and the
/// source's bits below its /48.
type Held = (u64, SlotKind, u128);

/// `last` as the entry of target `bits` holds it, and its source's /48 bits
/// when that lies outside the target's /48.
#[inline]
fn encode(bits: u128, (window, source): Last) -> (Held, Option<u64>) {
    let (kind, source_48) = match source.map(u128::from) {
        None => (SlotKind::Silent, None),
        Some(source) if (source ^ bits) >> LOW_BITS == 0 => (SlotKind::Local, None),
        Some(source) => (SlotKind::Elsewhere, Some((source >> LOW_BITS) as u64)),
    };
    let low = source.map_or(0, |source| u128::from(source) & LOW_MASK);
    ((window, kind, low), source_48)
}

/// The [`Last`] an entry of the /48 `key` holds, given its source's /48 bits
/// when that lies elsewhere.
#[inline]
fn last(key: u64, (window, kind, source): Held, elsewhere: Option<u64>) -> Last {
    let source_48 = match kind {
        SlotKind::Silent => None,
        SlotKind::Local => Some(key),
        SlotKind::Elsewhere => {
            Some(elsewhere.expect("a source elsewhere keeps its /48 bits in the side table"))
        }
    };
    let source = source_48.map(|net| Ipv6Addr::from(u128::from(net) << LOW_BITS | source));
    (window, source)
}

/// The targets of one /48: a power-of-two number of slots, whose first
/// `len` hold the entries in the order the block last met them, and whose
/// `place` fields are the positions that find any entry — an open-addressed
/// table, probed linearly from a target's home place. One allocation.
#[derive(Clone)]
struct Block {
    /// The /48's network bits.
    key: u64,
    slots: Box<[Slot]>,
    /// Empty unless the block has more than 2^16 − 1 places: then each
    /// place's high 16 bits.
    high: Box<[u16]>,
    /// The window the cursor walks.
    window: u64,
    /// Entries held.
    len: u32,
    /// Where in the entries the window's next observation is expected: the
    /// entries before it are the ones this window has met.
    cursor: u32,
    /// Leading bits below the /48 that every target held shares.
    shared: u8,
    /// Leading bits below the /48 a home place skips: at most `shared`, and
    /// few enough that a home's bits stay inside the address. 0 at birth,
    /// set at each lay-out.
    skip: u8,
    /// How far target bits shift right to put their home in the low bits:
    /// the bits below the home's, `LOW_BITS − skip − log2(places)`.
    shift: u8,
}

impl Block {
    fn new(key: u64, places: usize) -> Block {
        Block {
            key,
            slots: vec![Slot::VACANT; places].into_boxed_slice(),
            high: high_halves(places),
            window: 0,
            len: 0,
            cursor: 0,
            shared: LOW_BITS as u8,
            skip: 0,
            shift: (LOW_BITS - places.trailing_zeros()) as u8,
        }
    }

    /// The entries, in the order the block last met them.
    #[inline]
    fn entries(&self) -> &[Slot] {
        &self.slots[..self.len as usize]
    }

    /// Where the probe for target bits `low` starts: the `log2(places)`
    /// bits after the `skip` leading ones below the /48. In a block born
    /// with one place per subnet, the subnet's index.
    #[inline]
    fn home(&self, low: u128) -> usize {
        (low >> self.shift) as usize & (self.slots.len() - 1)
    }

    /// What place `at` holds: 0, or one more than the position it names.
    #[inline]
    fn named(&self, at: usize) -> usize {
        let high = self.high.get(at).map_or(0, |&high| usize::from(high) << 16);
        usize::from(self.slots[at].place) | high
    }

    /// Have place `at` name `named`.
    fn name(&mut self, at: usize, named: usize) {
        self.slots[at].place = named as u16;
        if let Some(high) = self.high.get_mut(at) {
            *high = (named >> 16) as u16;
        }
    }

    /// The position of the entry for target bits `low`, or else the first
    /// vacant place on its probe and how far that lies from home (the place
    /// count for both when every place is taken).
    fn find(&self, low: u128) -> Result<usize, (usize, usize)> {
        let places = self.slots.len();
        let mut at = self.home(low);
        for distance in 0..places {
            match self.named(at) {
                0 => return Err((at, distance)),
                named if self.slots[named - 1].target() == low => return Ok(named - 1),
                _ => at = (at + 1) & (places - 1),
            }
        }
        Err((places, places))
    }

    /// The place naming the entry at `position`.
    fn place_of(&self, position: usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.home(self.slots[position].target());
        while self.named(at) != position + 1 {
            at = (at + 1) & mask;
        }
        at
    }

    /// Have the entry for target bits `low`, met by an observation of
    /// `window`, hold `held` and return what it held, or admit the target
    /// holding it and return `None`. The entry is found at the cursor, or
    /// moved there.
    #[inline]
    fn observe(&mut self, window: u64, low: u128, held: Held) -> Option<Held> {
        if window != self.window {
            self.window = window;
            self.cursor = 0;
        }
        let cursor = self.cursor as usize;
        let at = match self.entries().get(cursor) {
            Some(slot) if slot.target() == low => cursor,
            _ => self.seek(low, held)?,
        };
        if at == cursor {
            self.cursor += 1;
        }
        Some(self.slots[at].replace(held))
    }

    /// The slow path of [`Self::observe`]: find target bits `low` through
    /// the positions. An entry this window has not met yet trades places
    /// with the one at the cursor and its new position is returned; one met
    /// already stays where it is. A target never seen is admitted at the
    /// cursor holding `held`, and `None` says there was nothing before it.
    fn seek(&mut self, low: u128, held: Held) -> Option<usize> {
        let cursor = self.cursor as usize;
        match self.find(low) {
            Ok(at) if at < cursor => Some(at),
            Ok(at) => {
                self.trade(at, cursor);
                Some(cursor)
            }
            Err(vacancy) => {
                self.admit(Slot::new(low, held), vacancy);
                self.trade(self.len as usize - 1, cursor);
                self.cursor += 1;
                None
            }
        }
    }

    /// The entries at positions `a` and `b` trade places, and so do the
    /// places naming them; every slot keeps its own place of the positions.
    fn trade(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (place_a, place_b) = (self.place_of(a), self.place_of(b));
        let (slot_a, slot_b) = (self.slots[a], self.slots[b]);
        self.slots[a] = Slot {
            place: slot_a.place,
            ..slot_b
        };
        self.slots[b] = Slot {
            place: slot_b.place,
            ..slot_a
        };
        self.name(place_a, b + 1);
        self.name(place_b, a + 1);
    }

    /// Have the entry for target bits `low` hold `held` and return what it
    /// held, or admit the target holding it and return `None`; no cursor
    /// moves.
    fn replace(&mut self, low: u128, held: Held) -> Option<Held> {
        match self.find(low) {
            Ok(at) => Some(self.slots[at].replace(held)),
            Err(vacancy) => {
                self.admit(Slot::new(low, held), vacancy);
                None
            }
        }
    }

    /// Admit `slot`, whose target the block does not hold, after its last
    /// entry, named at `vacancy` (what [`Self::find`] returned). The
    /// positions are laid out again when every place is taken (doubled),
    /// when the target varies in bits its homes skip, or when the target
    /// lands more than [`MAX_PROBE`] places from home — on the bits its
    /// targets vary in if those moved, else doubled once three quarters of
    /// the places are taken.
    fn admit(&mut self, slot: Slot, (mut at, distance): (usize, usize)) {
        let low = slot.target();
        if let Some(first) = self.entries().first() {
            let shared = (low ^ first.target()).leading_zeros() - (128 - LOW_BITS);
            self.shared = self.shared.min(shared as u8);
        }
        let mut places = self.slots.len();
        let (full, far) = (at == places, distance > MAX_PROBE);
        let settled = self.skip_for(places) == self.skip;
        if full || (far && settled && 4 * (self.len as usize + 1) > 3 * places) {
            places *= 2;
        }
        if places != self.slots.len() || self.shared < self.skip || (far && !settled) {
            self.lay_out(places);
            (at, _) = self.find(low).expect_err("a target is admitted once");
        }
        let position = self.len as usize;
        self.slots[position] = Slot {
            place: self.slots[position].place,
            ..slot
        };
        self.len += 1;
        self.name(at, position + 1);
    }

    /// The leading bits a block of `places` places skips: the ones its
    /// targets share, as far as the home still fits below them.
    fn skip_for(&self, places: usize) -> u8 {
        self.shared.min((LOW_BITS - places.trailing_zeros()) as u8)
    }

    /// Lay the positions out again over `places` places (moving the entries
    /// to new slots if that is a new count).
    fn lay_out(&mut self, places: usize) {
        self.skip = self.skip_for(places);
        self.shift = (LOW_BITS - u32::from(self.skip) - places.trailing_zeros()) as u8;
        if places != self.slots.len() {
            let mut slots = vec![Slot::VACANT; places].into_boxed_slice();
            slots[..self.len as usize].copy_from_slice(self.entries());
            self.slots = slots;
            self.high = high_halves(places);
        }
        for at in 0..places {
            self.name(at, 0);
        }
        for position in 0..self.len as usize {
            let low = self.slots[position].target();
            let (at, _) = self.find(low).expect_err("targets are distinct");
            self.name(at, position + 1);
        }
    }
}

/// The high halves of `places` places: none while a place's low 16 bits
/// can name every position.
fn high_halves(places: usize) -> Box<[u16]> {
    let wide = places > usize::from(u16::MAX);
    vec![0; if wide { places } else { 0 }].into_boxed_slice()
}

/// The blocks, and an open-addressed table of their indices, probed
/// linearly from a /48's hashed home and at most a quarter full, so a
/// lookup seldom walks.
#[derive(Clone, Default)]
struct Blocks {
    blocks: Vec<Block>,
    /// Each 0 (vacant) or one more than the index of the block it names.
    table: Box<[u32]>,
}

impl Blocks {
    /// The index of the block of `key`, or else the vacant place its probe
    /// ends at.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mask = self.table.len().wrapping_sub(1);
        // The product's high half is its best mixed.
        let mut at = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        loop {
            match *self.table.get(at).ok_or(at)? as usize {
                0 => return Err(at),
                named if self.blocks[named - 1].key == key => return Ok(named - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn get(&self, key: u64) -> Option<&Block> {
        self.find(key).ok().map(|at| &self.blocks[at])
    }

    /// Add `block`, whose /48 no block holds, and return its index.
    fn insert(&mut self, block: Block) -> usize {
        self.blocks.push(block);
        if 4 * self.blocks.len() > self.table.len() {
            self.table = vec![0; 8 * self.blocks.len().next_power_of_two()].into_boxed_slice();
            for index in 0..self.blocks.len() {
                self.name(index);
            }
        } else {
            self.name(self.blocks.len() - 1);
        }
        self.blocks.len() - 1
    }

    /// Name the block at `index` in the table.
    fn name(&mut self, index: usize) {
        let at = self.find(self.blocks[index].key);
        let at = at.expect_err("a /48 has one block");
        self.table[at] = u32::try_from(index + 1).expect("fewer than 2^32 /48s");
    }
}

/// Rebuild a detector from [`WindowedRotationDetector::last_observations`]
/// (in any order). A target listed twice keeps its later entry, as a map
/// collected from the same list would.
impl FromIterator<(Ipv6Addr, (u64, Option<Ipv6Addr>))> for WindowedRotationDetector {
    fn from_iter<I: IntoIterator<Item = (Ipv6Addr, Last)>>(entries: I) -> Self {
        let mut detector = Self::new();
        detector.extend(entries);
        detector
    }
}

/// Set each listed target's entry, as [`FromIterator`] does.
impl Extend<(Ipv6Addr, (u64, Option<Ipv6Addr>))> for WindowedRotationDetector {
    fn extend<I: IntoIterator<Item = (Ipv6Addr, Last)>>(&mut self, entries: I) {
        for (target, last) in entries {
            self.replace(target, last);
        }
    }
}

/// Equal when they track the same targets with the same last observations,
/// however each laid them out.
impl PartialEq for WindowedRotationDetector {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.blocks.blocks.iter().all(|block| {
                block.entries().iter().all(|slot| {
                    let (target, last) = slot.entry(block.key, &self.elsewhere);
                    other.get(target) == Some(last)
                })
            })
    }
}

impl Eq for WindowedRotationDetector {}

/// The entries in target order — the order a checkpoint writes them in.
impl std::fmt::Debug for WindowedRotationDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.last_observations()).finish()
    }
}

impl RotationDetection {
    /// Compare two snapshots of the same target list.
    ///
    /// The scans need not present targets in the same order (the scanner
    /// already guarantees it, but the comparison is keyed by target address
    /// so any two scans over the same set can be diffed).
    ///
    /// Implemented on top of [`WindowedRotationDetector`] — the incremental
    /// detector the streaming engine drives one observation at a time — so
    /// the batch and streaming paths agree by construction.
    pub fn compare(first: &Scan, second: &Scan) -> Self {
        let mut detector = WindowedRotationDetector::new();
        for record in &first.records {
            detector.observe(0, 0, record.target, record.source());
        }
        let mut events = Vec::new();
        for (seq, record) in second.records.iter().enumerate() {
            events.extend(detector.observe(1, seq as u64, record.target, record.source()));
        }
        RotationDetection {
            changes: events.iter().map(|e| e.change).collect(),
            rotating_48s: rotating_48s(&events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::{Scanner, TargetGenerator};
    use scent_simnet::{scenarios, Engine, SimTime};

    /// Scan the Versatel /56-allocation pools on two consecutive days.
    fn two_snapshots() -> (Engine, Scan, Scan, Vec<Ipv6Prefix>) {
        let engine = Engine::build(scenarios::versatel_like(51)).unwrap();
        let generator = TargetGenerator::new(6);
        let mut targets = Vec::new();
        let mut pools = Vec::new();
        for pool in engine.pools() {
            if pool.config.allocation_len == 56 {
                targets.extend(generator.one_per_subnet(&pool.config.prefix, 56));
                pools.push(pool.config.prefix);
            }
        }
        let scanner = Scanner::at_paper_rate(17);
        let first = scanner.scan(&engine, &targets, SimTime::at(10, 9));
        let second = scanner.scan(&engine, &targets, SimTime::at(11, 9));
        (engine, first, second, pools)
    }

    #[test]
    fn detects_rotation_in_rotating_pools() {
        let (_engine, first, second, pools) = two_snapshots();
        let detection = RotationDetection::compare(&first, &second);
        assert!(!detection.changes.is_empty());
        assert!(!detection.rotating_48s.is_empty());
        // Every flagged /48 lies inside one of the rotating /46 pools.
        for pfx in &detection.rotating_48s {
            assert!(pools.iter().any(|pool| pool.contains_prefix(pfx)));
        }
        let sorted = detection.rotating_48s.windows(2).all(|w| w[0] < w[1]);
        assert!(sorted, "flagged /48s are sorted and distinct");
    }

    /// An event is its window, its seq and its change, and nothing else:
    /// a monitor run's event list is its largest report piece, and the /48
    /// an event flags is its target's.
    #[test]
    fn an_event_keeps_nothing_it_can_derive() {
        assert_eq!(std::mem::size_of::<RotationEvent>(), 72);
    }

    #[test]
    fn static_provider_shows_no_rotation() {
        let engine = Engine::build(scenarios::entel_like(52)).unwrap();
        let generator = TargetGenerator::new(6);
        let pool = engine.pools()[0].config.prefix;
        let targets = generator.one_per_subnet(&pool, 56);
        let scanner = Scanner::at_paper_rate(17);
        let first = scanner.scan(&engine, &targets, SimTime::at(10, 9));
        let second = scanner.scan(&engine, &targets, SimTime::at(11, 9));
        let detection = RotationDetection::compare(&first, &second);
        assert!(detection.changes.is_empty());
        assert!(detection.rotating_48s.is_empty());
    }

    #[test]
    fn identical_scans_produce_no_changes() {
        let (_engine, first, _, _) = two_snapshots();
        let detection = RotationDetection::compare(&first, &first);
        assert!(detection.changes.is_empty());
    }

    /// After any window each block's entries begin with that window's
    /// targets of its /48 in the order it met them — whatever the list did,
    /// and however the detector was built — so the next window over the same
    /// list meets every target at its block's cursor. The positions are the
    /// truth about where an entry is, and in a detector sized for /56
    /// subnets a list of one target per /56 names each at its subnet's home.
    #[test]
    fn entries_follow_the_last_windows_meeting_order() {
        // Target `i`: /48 `i % 2`, /56 subnet `37 * (i / 2)`, arbitrary
        // bits below.
        let target = |i: u64| {
            let below = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) as u128) << 8 | 0xab;
            let subnet = u128::from(37 * (i / 2) % 256);
            let bits = (0x2001_0db8_u128 << 96) | u128::from(i % 2) << 80 | subnet << 72;
            Ipv6Addr::from(bits | below & ((1 << 72) - 1))
        };
        let block_of = |detector: &WindowedRotationDetector, i: u64| {
            let key = (u128::from(target(i)) >> LOW_BITS) as u64;
            detector
                .blocks
                .get(key)
                .expect("a block per /48 met")
                .clone()
        };
        let check = |detector: &WindowedRotationDetector, list: &[u64], sized: bool| {
            for half in 0..2 {
                let mut order: Vec<Ipv6Addr> = Vec::new();
                for t in list.iter().filter(|&&i| i % 2 == half).map(|&i| target(i)) {
                    if !order.contains(&t) {
                        order.push(t);
                    }
                }
                let block = block_of(detector, half);
                let met: Vec<Ipv6Addr> = block.entries()[..order.len()]
                    .iter()
                    .map(|slot| slot.target_addr(block.key))
                    .collect();
                assert_eq!(met, order, "{list:?}");
                for (at, slot) in block.entries().iter().enumerate() {
                    assert_eq!(
                        block.find(slot.target()),
                        Ok(at),
                        "the positions are the truth"
                    );
                    let home = block.home(slot.target());
                    assert!(!sized || block.place_of(at) == home, "at its subnet's home");
                }
            }
        };
        // Whether an observation of `i` in `window` takes the fast path.
        let on_cursor = |detector: &WindowedRotationDetector, window: u64, i: u64| {
            let block = block_of(detector, i);
            let cursor = if window == block.window {
                block.cursor as usize
            } else {
                0
            };
            let low = u128::from(target(i)) & LOW_MASK;
            block
                .entries()
                .get(cursor)
                .is_some_and(|slot| slot.target() == low)
        };
        let windows: [&[u64]; 6] = [
            &[0, 1, 2, 3, 4, 5],
            &[3, 1, 5, 0, 2, 4],    // reordered
            &[1, 5, 7, 0, 6],       // revised: 2, 3, 4 evicted, 6, 7 admitted
            &[1, 1, 5, 7, 0, 6, 5], // re-observations within the window
            &[1, 5, 7, 0, 6],
            &[1, 5, 7, 0, 6], // standing: on the cursor from the window before
        ];
        for sized in [false, true] {
            let mut detector = match sized {
                true => WindowedRotationDetector::for_granularity(56),
                false => WindowedRotationDetector::new(),
            };
            for (window, list) in windows.iter().enumerate() {
                for &i in *list {
                    if window == 5 {
                        assert!(on_cursor(&detector, 5, i));
                    }
                    let source = (window % 2 == 0).then(|| target(i ^ 2));
                    detector.observe(window as u64, 0, target(i), source);
                }
                check(&detector, list, sized);
            }
            assert_eq!(
                detector.targets_tracked(),
                8,
                "evicted targets stay, at the tail"
            );

            // Resumed in another order: back on the cursor by the second
            // window.
            let entries: Vec<_> = detector.last_observations().collect();
            let mut resumed = match sized {
                true => WindowedRotationDetector::for_granularity(56),
                false => WindowedRotationDetector::new(),
            };
            resumed.extend(entries.iter().rev().copied());
            assert_eq!(resumed, detector);
            for window in 6..8u64 {
                for &i in windows[5] {
                    assert!(window == 6 || on_cursor(&resumed, window, i));
                    resumed.observe(window, 0, target(i), None);
                }
                check(&resumed, windows[5], sized);
            }
        }
    }

    /// Targets crowded into one subnet of a block sized for /56 subnets —
    /// 64 of them, one per /64 of one /56 — all start their probe at one
    /// place. Once an admission lands far from it, the block lays its
    /// positions out again on the bits its targets vary in (and again
    /// whenever a later target varies in a bit that layout skipped), so
    /// every target ends at its own home without the block growing.
    #[test]
    fn a_crowded_block_lays_its_positions_out_on_the_bits_its_targets_vary_in() {
        let target = |block: u128, i: u64| {
            Ipv6Addr::from((0x2001_0db8_u128 << 96) | block << 80 | u128::from(i) << 64 | 1)
        };
        let mut detector = WindowedRotationDetector::for_granularity(56);
        for block in [0, 1] {
            for i in 0..64 {
                assert!(detector.observe(0, i, target(block, i), None).is_none());
            }
            // The 64 share the /48's next 10 bits; the homes skip them.
            let held = detector
                .blocks
                .get(0x2001_0db8_0000 | block as u64)
                .unwrap();
            assert_eq!((held.slots.len(), held.len, held.skip), (256, 64, 10));
            for at in 0..64 {
                assert_eq!(held.place_of(at), held.home(held.slots[at].target()));
            }
        }
        assert_eq!(detector.targets_tracked(), 128);
        assert_eq!(detector.get(target(1, 63)), Some((0, None)));
    }

    /// A block of more than 2^16 − 1 places names its entries in four
    /// bytes: two in each slot, two more beside. (`tests/detector_oracle.rs`
    /// holds such a block to the keyed map.)
    #[test]
    fn a_block_of_every_64_in_its_48_names_its_entries_in_four_bytes() {
        let target = |i: u64| Ipv6Addr::from((0x2001_0db8_u128 << 96) | u128::from(i) << 64 | 1);
        let mut detector = WindowedRotationDetector::for_granularity(64);
        for i in (0..1 << 16).rev() {
            detector.observe(0, i, target(i), None);
        }
        let block = detector.blocks.get(0x2001_0db8_0000).unwrap();
        assert_eq!((block.high.len(), block.len), (1 << 16, 1 << 16));
        for i in [0, 1, 0xfffe, 0xffff] {
            let at = block.find(u128::from(target(i)) & LOW_MASK).unwrap();
            assert_eq!(block.place_of(at), block.home(block.slots[at].target()));
        }
    }

    #[test]
    fn disjoint_target_sets_are_ignored() {
        let (_engine, first, second, _) = two_snapshots();
        // A scan over different targets shares no keys with the first, so no
        // changes can be attributed.
        let mut other = second.clone();
        for record in &mut other.records {
            let bits = scent_ipv6::addr_to_u128(record.target) ^ (1u128 << 100);
            record.target = scent_ipv6::addr_from_u128(bits);
        }
        let detection = RotationDetection::compare(&first, &other);
        assert!(detection.changes.is_empty());
    }
}
