//! Inference shards: the state each worker thread of the
//! [`IngestEngine`](crate::engine::IngestEngine) folds observations into —
//! the incremental classifiers of `scent-core` — and the messages it is fed.
//!
//! Each shard owns the complete inference state for the address space routed
//! to it — expansion validation, density accumulators, the windowed rotation
//! detector and the passive tracker — so shards never coordinate while
//! ingesting. The merge step ([`ShardInference::merge`]) recombines shard
//! states into the batch report shapes; every container involved is either a
//! disjoint union (per-/48 and per-identifier state never splits across
//! shards) or order-normalized afterwards, which is what makes the merged
//! result independent of the shard count.

use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use std::sync::mpsc::Sender;

use scent_core::density::DensityAccumulator;
use scent_core::fasthash::{FastMap, FastSet};
use scent_core::rotation_detect::{RotationEvent, WindowedRotationDetector};
use scent_core::tracker::IncrementalTracker;
use scent_core::SeedExpansion;
use scent_ipv6::{Eui64, Ipv6Prefix};

use crate::observation::{Observation, Phase};

/// A message delivered to a shard worker.
pub enum ShardMsg {
    /// Fold a batch of observations into the shard's state, in order. One
    /// channel message per batch amortizes the per-message channel overhead.
    ObserveBatch(Vec<Observation>),
    /// Adopt a recycler for batch buffers: after folding each subsequent
    /// [`ShardMsg::ObserveBatch`], the worker clears the buffer and sends it
    /// back to the router's [`BatchPool`](crate::buffer::BatchPool) instead
    /// of dropping it. Sent by the router when it builds its pool; a worker
    /// without one simply drops drained buffers — recycling is an allocation
    /// optimization, never a correctness requirement.
    AttachRecycler(crate::buffer::BatchReturn),
    /// Snapshot the shard's current inference state and send it back. The
    /// channel is FIFO, so the snapshot reflects every observation routed
    /// before the flush.
    Flush(Sender<ShardInference>),
    /// Drop per-window state older than the given window (exclusive): old
    /// tracker sightings/probe counts and old retained events. This is what
    /// keeps a genuinely endless monitor's memory bounded.
    Compact(u64),
}

/// The complete inference state of one shard (and, after merging, of the
/// whole engine).
#[derive(Debug, Clone, Default)]
pub struct ShardInference {
    /// /48s validated by expansion probing (EUI-64 response).
    pub validated: BTreeSet<Ipv6Prefix>,
    /// /48s that responded to expansion probing without an EUI-64 source.
    pub non_eui: BTreeSet<Ipv6Prefix>,
    /// Per-/48 online density state. (All the hash containers here are on
    /// the deterministic fast hasher — they are touched per observation, on
    /// the hot path; see `scent_core::fasthash`.)
    pub density: FastMap<Ipv6Prefix, DensityAccumulator>,
    /// Online rotation detection keyed by target.
    pub detector: WindowedRotationDetector,
    /// Every rotation event detected, in per-shard emission order.
    pub events: Vec<RotationEvent>,
    /// Passive per-identifier tracking.
    pub tracker: IncrementalTracker,
    /// Distinct response addresses over the density and detection phases.
    pub addresses: FastSet<Ipv6Addr>,
    /// The EUI-64 subset of `addresses`.
    pub eui_addresses: FastSet<Ipv6Addr>,
    /// Distinct EUI-64 interface identifiers.
    pub iids: FastSet<Eui64>,
    /// Observations ingested.
    pub observations: u64,
}

impl ShardInference {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation into the state. Returns the rotation event the
    /// observation triggered, if any (also retained in [`Self::events`]).
    pub fn ingest(&mut self, obs: &Observation) -> Option<RotationEvent> {
        self.observations += 1;
        match obs.phase {
            Phase::Expansion => {
                match SeedExpansion::classify_record(obs.source()) {
                    Some(true) => {
                        self.validated.insert(obs.target_48());
                    }
                    Some(false) => {
                        self.non_eui.insert(obs.target_48());
                    }
                    None => {}
                }
                None
            }
            Phase::Density => {
                self.density
                    .entry(obs.target_48())
                    .or_default()
                    .observe(&obs.record());
                self.note_address(obs);
                None
            }
            Phase::Detection => {
                self.note_address(obs);
                self.tracker
                    .observe(obs.window, obs.seq, obs.target, obs.source());
                let event = self
                    .detector
                    .observe(obs.window, obs.seq, obs.target, obs.source());
                if let Some(event) = event {
                    self.events.push(event);
                    self.tracker.apply_event(&event);
                }
                event
            }
        }
    }

    fn note_address(&mut self, obs: &Observation) {
        let Some(source) = obs.source() else { return };
        self.addresses.insert(source);
        if let Some(eui) = Eui64::from_addr(source) {
            self.eui_addresses.insert(source);
            self.iids.insert(eui);
        }
    }

    /// Merge another shard's state into this one. Per-prefix and
    /// per-identifier state is disjoint across shards by construction of the
    /// router, so the merge is a union.
    pub fn merge(&mut self, other: ShardInference) {
        self.validated.extend(other.validated);
        self.non_eui.extend(other.non_eui);
        for (prefix, accumulator) in other.density {
            self.density.entry(prefix).or_default().merge(accumulator);
        }
        self.events.extend(other.events);
        self.tracker.merge(other.tracker);
        self.addresses.extend(other.addresses);
        self.eui_addresses.extend(other.eui_addresses);
        self.iids.extend(other.iids);
        self.observations += other.observations;
        // The detectors' per-target maps are disjoint across shards, so the
        // union is exact — and checkpoint resume depends on it: restored
        // shard states are merged and then re-split for the new shard map.
        self.detector.merge(other.detector);
    }

    /// Fold a list of shard states into one.
    pub fn merge_all<I: IntoIterator<Item = ShardInference>>(states: I) -> Self {
        let mut merged = ShardInference::new();
        for state in states {
            merged.merge(state);
        }
        merged
    }

    /// Address statistics in the batch pipeline's shape:
    /// `(total addresses, EUI-64 addresses, unique IIDs)`.
    pub fn address_statistics(&self) -> (usize, usize, usize) {
        (
            self.addresses.len(),
            self.eui_addresses.len(),
            self.iids.len(),
        )
    }

    /// Drop per-window state older than `window` (exclusive). The windowed
    /// detector is untouched — its memory is O(targets), not O(windows).
    pub fn compact_before(&mut self, window: u64) {
        self.tracker.compact_before(window);
        self.events.retain(|e| e.window >= window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_simnet::SimTime;

    fn obs(phase: Phase, window: u64, seq: u64, target: &str, source: Option<&str>) -> Observation {
        Observation {
            phase,
            tenant: 0,
            window,
            seq,
            target: target.parse().unwrap(),
            sent_at: SimTime::at(1, 0),
            response: source.map(|s| scent_prober::ResponseRecord {
                source: s.parse().unwrap(),
                kind: scent_simnet::ReplyKind::TimeExceeded,
            }),
        }
    }

    fn eui_addr(prefix64: u64) -> String {
        Eui64::from_mac("c8:0e:14:01:02:03".parse().unwrap())
            .with_prefix64(prefix64)
            .to_string()
    }

    #[test]
    fn ingest_expansion_density_detection() {
        let mut state = ShardInference::new();
        let eui1 = eui_addr(0x2001_0db8_0001_0000);
        let eui2 = eui_addr(0x2001_0db8_0001_0100);

        // Expansion: EUI response validates, non-EUI response does not.
        state.ingest(&obs(Phase::Expansion, 0, 0, "2001:db8:1::1", Some(&eui1)));
        state.ingest(&obs(
            Phase::Expansion,
            0,
            1,
            "2001:db8:2::1",
            Some("2001:db8:2::beef"),
        ));
        state.ingest(&obs(Phase::Expansion, 0, 2, "2001:db8:3::1", None));
        assert_eq!(state.validated.len(), 1);
        assert_eq!(state.non_eui.len(), 1);

        // Density: accumulates per /48.
        state.ingest(&obs(Phase::Density, 0, 0, "2001:db8:1::2", Some(&eui1)));
        state.ingest(&obs(Phase::Density, 0, 1, "2001:db8:1:100::2", Some(&eui2)));
        let acc = &state.density[&"2001:db8:1::/48".parse().unwrap()];
        assert_eq!(acc.probes, 2);
        assert_eq!(acc.uniques.len(), 1, "same IID under two addresses");

        // Detection: window 1 differing from window 0 emits an event.
        assert!(state
            .ingest(&obs(Phase::Detection, 0, 0, "2001:db8:1::3", Some(&eui1)))
            .is_none());
        let event = state
            .ingest(&obs(Phase::Detection, 1, 0, "2001:db8:1::3", Some(&eui2)))
            .expect("changed EUI response must emit");
        assert_eq!(event.window, 1);
        assert_eq!(state.events.len(), 1);
        assert_eq!(state.tracker.identifiers_seen(), 1);
        assert!(
            state
                .tracker
                .moves_for(Eui64::from_addr(eui1.parse().unwrap()).unwrap())
                > 0
        );

        let (addrs, eui_addrs, iids) = state.address_statistics();
        assert_eq!(addrs, 2, "density + detection sources: two addresses");
        assert_eq!(eui_addrs, 2);
        assert_eq!(iids, 1);
        assert_eq!(state.observations, 7);
    }

    #[test]
    fn merge_is_a_union() {
        let eui1 = eui_addr(0x2001_0db8_0001_0000);
        let mut a = ShardInference::new();
        a.ingest(&obs(Phase::Expansion, 0, 0, "2001:db8:1::1", Some(&eui1)));
        a.ingest(&obs(Phase::Density, 0, 0, "2001:db8:1::2", Some(&eui1)));
        let mut b = ShardInference::new();
        b.ingest(&obs(
            Phase::Expansion,
            0,
            1,
            "2a02:27b0:1::1",
            Some(&eui_addr(0x2a02_27b0_0001_0000)),
        ));

        let merged = ShardInference::merge_all([a.clone(), b]);
        assert_eq!(merged.validated.len(), 2);
        assert_eq!(merged.observations, 3);
        // Merging density accumulators for the same /48 adds probes.
        let mut c = ShardInference::new();
        c.ingest(&obs(Phase::Density, 0, 1, "2001:db8:1::9", None));
        let merged = ShardInference::merge_all([a, c]);
        let acc = &merged.density[&"2001:db8:1::/48".parse().unwrap()];
        assert_eq!(acc.probes, 2);
        assert!(acc.responded);
    }
}
