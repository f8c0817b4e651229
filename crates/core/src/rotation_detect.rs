//! Prefix-rotation detection from two snapshots taken 24 hours apart (§4.3).
//!
//! Two scans of the same target list (same order, same seed) are compared:
//! keep the `<target, response>` pairs whose response is an EUI-64 address in
//! either scan, drop the pairs common to both scans, and what remains are
//! targets whose EUI-64 responder changed — either to a different EUI-64
//! address, to a non-EUI-64 address, or to silence. A /48 with at least one
//! such change is flagged as (likely) rotating.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_ipv6::{Eui64, Ipv6Prefix};
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
/// target's EUI-64 responder is seen to differ from the previous window, and
/// consumed by the incremental tracker and the streaming engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RotationEvent {
    /// The observation window in which the change was detected (the window of
    /// the *later* observation).
    pub window: u64,
    /// Probing-order sequence number of the later observation.
    pub seq: u64,
    /// The change itself.
    pub change: ChangedTarget,
    /// The /48 containing the changed target.
    pub prefix_48: Ipv6Prefix,
}

/// What the detector keeps per target: the window and response source of
/// its last observation.
type Last = (u64, Option<Ipv6Addr>);

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
/// The entries are kept in the order the detector last met them, with a
/// cursor at the next one the current window is expected to meet. A monitor
/// re-probes a standing watch list in the same permuted order every window
/// (and so does each shard its own share of it), so after a list's first
/// window an observation finds its target *at* the cursor: one compare, no
/// hash. Everything else — a first sighting, a revised or resumed list, a
/// re-observation — goes through the index, and an entry met out of place is
/// swapped to the cursor, so the next window meets it in order. The index is
/// always the truth about where an entry is; the cursor only skips the
/// lookup, and nothing reads an observation's `seq` to find one. The order is
/// never observable: equality, the checkpoint bytes and every event are
/// what a map keyed by target gives.
#[derive(Clone, Default)]
pub struct WindowedRotationDetector {
    /// Per target, its last observation, in the order the detector met them.
    entries: Vec<(Ipv6Addr, Last)>,
    /// Target → its position in `entries`. On the [`crate::fasthash`]
    /// hasher; read only when the entry at the cursor is not the target.
    index: FastMap<Ipv6Addr, u32>,
    /// The window the cursor walks.
    window: u64,
    /// Where in `entries` the window's next observation is expected: the
    /// entries before it are the ones this window has met.
    cursor: usize,
}

impl WindowedRotationDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty detector with room for `targets` targets in both its entries
    /// and its index: a caller that knows its target list saves their
    /// doubling chains. Capacity is never state — a checkpoint encodes
    /// entries in target order.
    pub fn with_capacity(targets: usize) -> Self {
        WindowedRotationDetector {
            entries: Vec::with_capacity(targets),
            index: FastMap::with_capacity_and_hasher(targets, Default::default()),
            ..Self::default()
        }
    }

    /// Number of targets currently tracked.
    pub fn targets_tracked(&self) -> usize {
        self.entries.len()
    }

    /// Union another detector's per-target state into this one. On a target
    /// both sides have seen, the later-window entry wins (sharded runs route
    /// each target to exactly one shard, so in practice the two are
    /// disjoint).
    pub fn merge(&mut self, other: Self) {
        for (target, last) in other.entries {
            if let Some(mine) = self.slot(target, last) {
                if last.0 >= mine.0 {
                    *mine = last;
                }
            }
        }
    }

    /// Observe one probe of `target` during `window` (windows must be fed in
    /// non-decreasing order per target; `seq` is the probing-order index of
    /// this observation within its window, copied into the event and never
    /// used to find the target). Returns a [`RotationEvent`] if the response
    /// differs from the previous window's in the §4.3 sense.
    pub fn observe(
        &mut self,
        window: u64,
        seq: u64,
        target: Ipv6Addr,
        source: Option<Ipv6Addr>,
    ) -> Option<RotationEvent> {
        if window != self.window {
            self.window = window;
            self.cursor = 0;
        }
        let at = match self.entries.get(self.cursor) {
            Some((met, _)) if *met == target => {
                self.cursor += 1;
                self.cursor - 1
            }
            _ => self.seek(target, (window, source))?,
        };
        let (prev_window, prev_source) =
            std::mem::replace(&mut self.entries[at].1, (window, source));
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
            prefix_48: Ipv6Prefix::new(target, 48).expect("48 is valid"),
        })
    }

    /// The slow path of [`Self::observe`]: find `target` through the index.
    /// An entry this window has not met yet moves to the cursor (the entry
    /// sitting there takes its place) and its position is returned; one met
    /// already stays where it is. A target never seen is admitted at the
    /// cursor holding `last`, and `None` says there was nothing before it.
    fn seek(&mut self, target: Ipv6Addr, last: Last) -> Option<usize> {
        let (admitted, cursor) = (self.entries.len(), self.cursor);
        let slot = self.index.entry(target).or_insert(position(admitted));
        let at = *slot as usize;
        if at < cursor {
            return Some(at);
        }
        *slot = position(cursor);
        self.cursor += 1;
        if at == admitted {
            self.entries.push((target, last));
        }
        if at != cursor {
            self.entries.swap(at, cursor);
            self.index.insert(self.entries[at].0, position(at));
        }
        (at != admitted).then_some(cursor)
    }

    /// The entry for `target`, or `None` once `target` has been admitted at
    /// the tail holding `last`.
    fn slot(&mut self, target: Ipv6Addr, last: Last) -> Option<&mut Last> {
        match self.index.entry(target) {
            Entry::Occupied(slot) => Some(&mut self.entries[*slot.get() as usize].1),
            Entry::Vacant(slot) => {
                slot.insert(position(self.entries.len()));
                self.entries.push((target, last));
                None
            }
        }
    }

    /// The detector's complete state — what a checkpoint encodes: per
    /// target, the window and response source of its last observation, in
    /// no particular order. [`FromIterator`] rebuilds a detector from it.
    pub fn last_observations(
        &self,
    ) -> impl ExactSizeIterator<Item = &(Ipv6Addr, (u64, Option<Ipv6Addr>))> {
        self.entries.iter()
    }

    /// Fold a batch of rotation events into a [`RotationDetection`]. Events
    /// are ordered by `(window, seq)` — in place, so the caller keeps that
    /// one order too — and a sharded run merges into the same report
    /// regardless of shard count.
    pub fn collect(events: &mut [RotationEvent]) -> RotationDetection {
        // `(window, seq)` names one probe, and a probe yields at most one
        // event, so keys are unique and the unstable sort has exactly one
        // order to produce — without the stable sort's n/2 merge buffer.
        let key = |e: &RotationEvent| (e.window, e.seq);
        events.sort_unstable_by_key(key);
        debug_assert!(events.windows(2).all(|w| key(&w[0]) < key(&w[1])));
        let changes: Vec<ChangedTarget> = events.iter().map(|e| e.change).collect();
        // Deduplicated on the fast hasher: a set the size of the /48s, not
        // of the events (a monitor's run has hundreds of events per /48).
        let rotating: FastSet<Ipv6Prefix> = events.iter().map(|e| e.prefix_48).collect();
        let mut rotating_48s: Vec<Ipv6Prefix> = rotating.into_iter().collect();
        rotating_48s.sort_unstable();
        RotationDetection {
            changes,
            rotating_48s,
        }
    }
}

/// An entry's position, as the index stores it.
fn position(at: usize) -> u32 {
    u32::try_from(at).expect("a detector tracks fewer than 2^32 targets")
}

/// Rebuild a detector from [`WindowedRotationDetector::last_observations`]
/// (in any order). A target listed twice keeps its later entry, as a map
/// collected from the same list would.
impl FromIterator<(Ipv6Addr, (u64, Option<Ipv6Addr>))> for WindowedRotationDetector {
    fn from_iter<I: IntoIterator<Item = (Ipv6Addr, Last)>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let mut detector = Self::with_capacity(entries.size_hint().0);
        for (target, last) in entries {
            if let Some(mine) = detector.slot(target, last) {
                *mine = last;
            }
        }
        detector
    }
}

/// Equal when they track the same targets with the same last observations,
/// whatever order each met them in.
impl PartialEq for WindowedRotationDetector {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && self.entries.iter().all(|(target, last)| {
                (other.index.get(target)).is_some_and(|&at| other.entries[at as usize].1 == *last)
            })
    }
}

impl Eq for WindowedRotationDetector {}

/// The entries in target order — the order a checkpoint writes them in.
impl std::fmt::Debug for WindowedRotationDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut entries: Vec<&(Ipv6Addr, Last)> = self.entries.iter().collect();
        entries.sort_unstable_by_key(|(target, _)| *target);
        f.debug_map()
            .entries(entries.iter().map(|(target, last)| (target, last)))
            .finish()
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
        let mut detector = WindowedRotationDetector::with_capacity(first.records.len());
        for record in &first.records {
            detector.observe(0, 0, record.target, record.source());
        }
        let mut events = Vec::new();
        for (seq, record) in second.records.iter().enumerate() {
            if let Some(event) = detector.observe(1, seq as u64, record.target, record.source()) {
                events.push(event);
            }
        }
        WindowedRotationDetector::collect(&mut events)
    }

    /// Number of changed targets by change kind.
    pub fn change_counts(&self) -> HashMap<ChangeKind, usize> {
        let mut counts = HashMap::new();
        for change in &self.changes {
            *counts.entry(change.kind).or_insert(0) += 1;
        }
        counts
    }

    /// Whether a particular /48 was flagged as rotating.
    pub fn is_rotating(&self, prefix: &Ipv6Prefix) -> bool {
        self.rotating_48s.binary_search(prefix).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::{Scanner, TargetGenerator};
    use scent_simnet::{scenarios, Engine, SimTime};

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

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
            assert!(detection.is_rotating(pfx));
        }
        // Different EUI-64 devices rotate into probed slots, so the dominant
        // change kind involves EUI-64 on both sides or appearance/disappearance.
        let counts = detection.change_counts();
        assert!(counts.values().sum::<usize>() == detection.changes.len());
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
        assert!(!detection.is_rotating(&p("2803:9810:100::/48")));
    }

    #[test]
    fn identical_scans_produce_no_changes() {
        let (_engine, first, _, _) = two_snapshots();
        let detection = RotationDetection::compare(&first, &first);
        assert!(detection.changes.is_empty());
    }

    /// After any window the entries begin with that window's targets in the
    /// order it met them — whatever the list did, and however the detector
    /// was built — so the next window over the same list meets every target
    /// at the cursor.
    #[test]
    fn entries_follow_the_last_windows_meeting_order() {
        let target =
            |i: u64| scent_ipv6::addr_from_u128((0x2001_0db8_u128 << 96) | (i as u128) << 64 | 1);
        let check = |detector: &WindowedRotationDetector, list: &[u64]| {
            let mut order: Vec<Ipv6Addr> = Vec::new();
            for t in list.iter().map(|&i| target(i)) {
                if !order.contains(&t) {
                    order.push(t);
                }
            }
            let met: Vec<Ipv6Addr> = detector.entries[..order.len()]
                .iter()
                .map(|e| e.0)
                .collect();
            assert_eq!(met, order, "{list:?}");
            for (at, (t, _)) in detector.entries.iter().enumerate() {
                assert_eq!(detector.index[t] as usize, at, "the index is the truth");
            }
        };
        // Whether an observation of `t` in `window` takes the fast path.
        let on_cursor = |detector: &WindowedRotationDetector, window: u64, t: Ipv6Addr| {
            let cursor = if window == detector.window {
                detector.cursor
            } else {
                0
            };
            detector.entries.get(cursor).is_some_and(|e| e.0 == t)
        };
        let windows: [&[u64]; 6] = [
            &[0, 1, 2, 3, 4, 5],
            &[3, 1, 5, 0, 2, 4],    // reordered
            &[1, 5, 7, 0, 6],       // revised: 2, 3, 4 evicted, 6, 7 admitted
            &[1, 1, 5, 7, 0, 6, 5], // re-observations within the window
            &[1, 5, 7, 0, 6],
            &[1, 5, 7, 0, 6], // standing: on the cursor from the window before
        ];
        let mut detector = WindowedRotationDetector::new();
        for (window, list) in windows.iter().enumerate() {
            for &i in *list {
                if window == 5 {
                    assert!(on_cursor(&detector, 5, target(i)));
                }
                detector.observe(window as u64, 0, target(i), None);
            }
            check(&detector, list);
        }
        assert_eq!(
            detector.targets_tracked(),
            8,
            "evicted targets stay, at the tail"
        );

        // Resumed or merged in another order: back on the cursor by the
        // second window.
        let mut resumed: WindowedRotationDetector =
            detector.entries.iter().rev().copied().collect();
        let mut merged = WindowedRotationDetector::new();
        merged.merge(resumed.clone());
        assert_eq!(resumed, detector);
        assert_eq!(merged, detector);
        for rebuilt in [&mut resumed, &mut merged] {
            for window in 6..8u64 {
                for &i in windows[5] {
                    assert!(window == 6 || on_cursor(rebuilt, window, target(i)));
                    rebuilt.observe(window, 0, target(i), None);
                }
                check(rebuilt, windows[5]);
            }
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
