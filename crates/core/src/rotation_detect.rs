//! Prefix-rotation detection from two snapshots taken 24 hours apart (§4.3).
//!
//! Two scans of the same target list (same order, same seed) are compared:
//! keep the `<target, response>` pairs whose response is an EUI-64 address in
//! either scan, drop the pairs common to both scans, and what remains are
//! targets whose EUI-64 responder changed — either to a different EUI-64
//! address, to a non-EUI-64 address, or to silence. A /48 with at least one
//! such change is flagged as (likely) rotating.

use std::collections::{HashMap, HashSet};
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_ipv6::{Eui64, Ipv6Prefix};
use scent_prober::Scan;

use crate::fasthash::FastMap;

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

/// Online rotation detection over a stream of per-target observations
/// grouped into windows (one window per scan pass).
///
/// This is the incremental counterpart of [`RotationDetection::compare`]:
/// feeding it the records of two scans as windows 0 and 1 emits exactly the
/// changes the batch comparison reports, but it keeps going — every later
/// window is diffed against each target's previous observation, which is what
/// turns the paper's one-shot "two snapshots 24h apart" methodology into a
/// continuous monitor.
#[derive(Debug, Clone, Default)]
pub struct WindowedRotationDetector {
    /// Per target: the window and response source of the last observation.
    /// On the [`crate::fasthash`] hasher — this map is hit once per
    /// detection-phase observation, on the streaming hot path.
    last: FastMap<Ipv6Addr, (u64, Option<Ipv6Addr>)>,
}

impl WindowedRotationDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty detector with room for `targets` targets: a caller that
    /// knows its target list saves the table's doubling chain (6.4 MiB of
    /// allocation on the way to 32 768 targets). Capacity is never state —
    /// a checkpoint encodes entries in key order.
    pub fn with_capacity(targets: usize) -> Self {
        WindowedRotationDetector {
            last: FastMap::with_capacity_and_hasher(targets, Default::default()),
        }
    }

    /// Number of targets currently tracked.
    pub fn targets_tracked(&self) -> usize {
        self.last.len()
    }

    /// Union another detector's per-target state into this one. On a target
    /// both sides have seen, the later-window entry wins (sharded runs route
    /// each target to exactly one shard, so in practice the maps are
    /// disjoint).
    pub fn merge(&mut self, other: Self) {
        for (target, entry) in other.last {
            match self.last.entry(target) {
                std::collections::hash_map::Entry::Occupied(mut occupied) => {
                    if entry.0 >= occupied.get().0 {
                        occupied.insert(entry);
                    }
                }
                std::collections::hash_map::Entry::Vacant(vacant) => {
                    vacant.insert(entry);
                }
            }
        }
    }

    /// Observe one probe of `target` during `window` (windows must be fed in
    /// non-decreasing order per target; `seq` is the probing-order index of
    /// this observation within its window). Returns a [`RotationEvent`] if
    /// the response differs from the previous window's in the §4.3 sense.
    pub fn observe(
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
            prefix_48: Ipv6Prefix::new(target, 48).expect("48 is valid"),
        })
    }

    /// The detector's complete internal state — what a checkpoint encodes:
    /// per target, the window and response source of its last observation.
    pub fn last_observations(&self) -> &FastMap<Ipv6Addr, (u64, Option<Ipv6Addr>)> {
        &self.last
    }

    /// Rebuild a detector from [`WindowedRotationDetector::last_observations`].
    pub fn from_last_observations(last: FastMap<Ipv6Addr, (u64, Option<Ipv6Addr>)>) -> Self {
        WindowedRotationDetector { last }
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
        let rotating: HashSet<Ipv6Prefix> = events.iter().map(|e| e.prefix_48).collect();
        let mut rotating_48s: Vec<Ipv6Prefix> = rotating.into_iter().collect();
        rotating_48s.sort();
        RotationDetection {
            changes,
            rotating_48s,
        }
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
