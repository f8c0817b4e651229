//! Inference shards: the state each worker thread of a
//! [`ShardPool`](crate::engine::ShardPool) folds observations into — the
//! incremental classifiers of `scent-core` — and the messages it is fed.
//!
//! Each shard owns the complete inference state for the address space routed
//! to it — expansion validation, density accumulators, the windowed rotation
//! detector and the passive tracker — so shards never coordinate while
//! ingesting. The merge step ([`ShardInference::merge`]) recombines shard
//! states into the batch report shapes; every container a report reads is
//! either a disjoint union (per-/48 and per-identifier state never splits
//! across shards) or order-normalized afterwards, which is what makes the
//! merged result independent of the shard count. The rotation detector is
//! the one container no report reads: a merged state keeps the first
//! state's, and a snapshot carries every shard's as its worker yielded it —
//! a resumed run routes by the shard map its snapshot was taken under, so
//! each shard takes its own state back.
//!
//! A shard keeps what its run's report reads, plus the detector it diffs
//! each window against, and nothing else: every container here is touched
//! per observation. There are two flavours, decided once at construction
//! by whether the shard holds a census:
//!
//! * a **pipeline shard** ([`ShardInference::new`]) keeps the
//!   distinct-address census, which only the one-shot
//!   [`PipelineReport`](scent_core::PipelineReport) reads, and **no
//!   tracker** — no `PipelineReport` field reads one, so its
//!   [`tracker`](ShardInference::tracker) stays empty;
//! * a **monitor shard** keeps the tracker, which
//!   [`MonitorReport::tracking`](crate::MonitorReport) is built from, and
//!   **no census** — which is also what lets [`ShardMsg::Compact`] bound a
//!   monitor's whole state, not most of it.
//!
//! The tracker is an append-only log: a detection observation appends one
//! sighting to its tail and looks no identifier up. So the state a worker
//! hands back at the end of a lease may hold an unfolded tail; the
//! tracker's own readers — compaction, merge, the report, the codec — fold
//! it, and the session's snapshot folds it in place first.

use std::collections::BTreeSet;
use std::net::Ipv6Addr;

use scent_core::density::DensityAccumulator;
use scent_core::fasthash::{FastMap, FastSet};
use scent_core::rotation_detect::{event_48, prefixes_48, RotationEvent, WindowedRotationDetector};
use scent_core::tracker::IncrementalTracker;
use scent_core::SeedExpansion;
use scent_ipv6::{Eui64, Ipv6Prefix};

use crate::observation::{Observation, Phase};

/// A message delivered to a shard worker.
pub enum ShardMsg {
    /// End a lease: fold the lease's last batch (possibly empty) as an
    /// [`ShardMsg::ObserveBatch`] would, then hand the state the worker
    /// adopted for the lease back, by move, over the worker's own reply
    /// channel (its pool holds the other end), and go back to an empty one.
    /// FIFO with the batches, so the state reflects everything routed
    /// before — and carrying the last batch makes the end of a lease one
    /// wake-up of the worker, not two.
    Yield(Vec<Observation>),
    /// Fold a batch of observations into the shard's state, in order. One
    /// channel message per batch amortizes the per-message channel overhead.
    ObserveBatch(Vec<Observation>),
    /// Adopt a recycler for batch buffers: after folding each subsequent
    /// [`ShardMsg::ObserveBatch`], the worker clears the buffer and sends it
    /// back to the router's `BatchPool` instead
    /// of dropping it. Sent by the router when it builds its pool; a worker
    /// without one simply drops drained buffers — recycling is an allocation
    /// optimization, never a correctness requirement.
    AttachRecycler(crate::buffer::BatchReturn),
    /// Drop per-window state older than the given window (exclusive): old
    /// tracker sightings/probe counts and old retained events. This is what
    /// keeps a genuinely endless monitor's memory bounded: everything else
    /// a monitor shard holds is per watched target or per probed /48.
    Compact(u64),
}

/// What an expansion-phase observation contributes to a shard's state
/// besides its count: the /48 it validates, when an EUI-64 source answered
/// it. The one rule, read by [`ShardInference::ingest`] and by the router's
/// [`ExpansionTally`] alike.
fn validated_48(obs: &Observation) -> Option<Ipv6Prefix> {
    (SeedExpansion::classify_record(obs.source()) == Some(true)).then(|| obs.target_48())
}

/// Expansion-phase observations the router kept back from one shard's
/// worker: their count and the /48s they validated — all that
/// [`ShardInference::ingest`] would have made of them. An expansion
/// observation touches no other field, so folding the tally into the
/// state the worker yields ([`ExpansionTally::fold_into`]) leaves it as
/// ingesting them in routing order would have.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExpansionTally {
    observations: u64,
    validated: BTreeSet<Ipv6Prefix>,
}

impl ExpansionTally {
    /// Count one expansion-phase observation in.
    pub(crate) fn add(&mut self, obs: &Observation) {
        debug_assert_eq!(obs.phase, Phase::Expansion);
        self.observations += 1;
        self.validated.extend(validated_48(obs));
    }

    /// Merge the tally into the state its shard's worker yielded.
    pub(crate) fn fold_into(mut self, state: &mut ShardInference) {
        state.observations += self.observations;
        state.validated.append(&mut self.validated);
    }
}

/// The distinct-address census of the one-shot pipeline's report: response
/// addresses and EUI-64 identifiers over the density and detection phases.
/// It only ever grows, and no [`MonitorReport`](crate::MonitorReport) field
/// reads it, so a monitor's shards do not carry one — nor does a snapshot,
/// which holds monitor shards only.
#[derive(Debug, Clone, Default)]
struct Census {
    addresses: FastSet<Ipv6Addr>,
    iids: FastSet<Eui64>,
}

impl Census {
    fn note(&mut self, source: Option<Ipv6Addr>) {
        let Some(source) = source else { return };
        self.addresses.insert(source);
        if let Some(eui) = Eui64::from_addr(source) {
            self.iids.insert(eui);
        }
    }
}

/// The complete inference state of one shard (and, after merging, of the
/// whole engine).
#[derive(Debug, Clone)]
pub struct ShardInference {
    /// /48s validated by expansion probing (EUI-64 response).
    pub validated: BTreeSet<Ipv6Prefix>,
    /// Per-/48 online density state. (All the hash containers here are on
    /// the deterministic fast hasher — they are touched per observation, on
    /// the hot path; see `scent_core::fasthash`.)
    pub density: FastMap<Ipv6Prefix, DensityAccumulator>,
    /// Online rotation detection keyed by target. Only the shard that
    /// ingests a target reads its entry, so [`Self::merge`] does not merge
    /// detectors: a merged state keeps the first state's.
    pub detector: WindowedRotationDetector,
    /// Every rotation event detected and retained, in emission order,
    /// which is `(window, seq)` order: a shard is routed its observations
    /// in probing order. Written only beside [`Self::rotating`].
    pub(crate) events: Vec<RotationEvent>,
    /// The /48 network bits ([`event_48`]) of every retained event's
    /// target: the run's rotating /48s, kept as events are retained so the
    /// report does not re-read the events. Derived, so never encoded.
    rotating: FastSet<u64>,
    /// Passive per-identifier tracking, an append-only log its readers fold
    /// — fed by a monitor shard only; a pipeline shard's stays empty.
    pub tracker: IncrementalTracker,
    /// The shard's flavour: present in a pipeline shard (which then feeds
    /// it and not the tracker), absent in a monitor shard (which feeds the
    /// tracker).
    census: Option<Census>,
    /// Observations ingested.
    pub observations: u64,
}

impl Default for ShardInference {
    fn default() -> Self {
        ShardInference {
            census: Some(Census::default()),
            ..Self::without_census()
        }
    }
}

impl ShardInference {
    /// An empty pipeline shard: it keeps the distinct-address census
    /// ([`Self::address_statistics`]) and feeds no tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty monitor shard: everything a [`MonitorReport`](crate::MonitorReport)
    /// reads — the tracker included — and nothing else, so retention
    /// compaction bounds all of it.
    pub(crate) fn without_census() -> Self {
        ShardInference {
            validated: BTreeSet::new(),
            density: FastMap::default(),
            detector: WindowedRotationDetector::new(),
            events: Vec::new(),
            rotating: FastSet::default(),
            tracker: IncrementalTracker::new(),
            census: None,
            observations: 0,
        }
    }

    /// This state with a fresh detector, sized for one target per
    /// `/granularity` subnet of each /48
    /// ([`WindowedRotationDetector::for_granularity`]).
    pub(crate) fn detecting_at(mut self, granularity: u8) -> Self {
        self.detector = WindowedRotationDetector::for_granularity(granularity);
        self
    }

    /// Fold one observation into the state. Returns the rotation event the
    /// observation triggered, if any (also retained in [`Self::events`]).
    pub fn ingest(&mut self, obs: &Observation) -> Option<RotationEvent> {
        self.observations += 1;
        match obs.phase {
            Phase::Expansion => {
                self.validated.extend(validated_48(obs));
                None
            }
            Phase::Density => {
                self.density
                    .entry(obs.target_48())
                    .or_default()
                    .observe(&obs.record());
                if let Some(census) = &mut self.census {
                    census.note(obs.source());
                }
                None
            }
            Phase::Detection => {
                let event = self
                    .detector
                    .observe(obs.window, obs.seq, obs.target, obs.source());
                if let Some(event) = event {
                    self.retain(event);
                }
                match &mut self.census {
                    Some(census) => census.note(obs.source()),
                    None => self
                        .tracker
                        .observe(obs.window, obs.seq, obs.target, obs.source()),
                }
                event
            }
        }
    }

    /// Keep `event`, which a shard emits in `(window, seq)` order.
    fn retain(&mut self, event: RotationEvent) {
        debug_assert!(
            (self.events.last()).map_or(true, |last| (last.window, last.seq)
                < (event.window, event.seq)),
            "events are retained in (window, seq) order"
        );
        self.rotating.insert(event_48(&event));
        self.events.push(event);
    }

    /// Every rotation event detected and retained, in `(window, seq)`
    /// order but after a merge, which concatenates.
    pub fn events(&self) -> &[RotationEvent] {
        &self.events
    }

    /// Adopt `events` — in `(window, seq)` order, as a shard retained
    /// them — and the rotating /48s they flag.
    pub(crate) fn set_events(&mut self, events: Vec<RotationEvent>) {
        self.rotating = events.iter().map(event_48).collect();
        self.events = events;
    }

    /// The /48s containing a retained event's target, ascending: what
    /// `rotation_detect::rotating_48s` derives from [`Self::events`], read
    /// off the set kept beside them.
    pub(crate) fn rotating_48s(&self) -> Vec<Ipv6Prefix> {
        prefixes_48(self.rotating.iter().copied())
    }

    /// Merge another shard's state into this one. Per-prefix and
    /// per-identifier state is disjoint across shards by construction of the
    /// router, so the merge is a union — of everything a report reads. The
    /// detector is not merged: this state keeps its own and `other`'s is
    /// dropped.
    pub fn merge(&mut self, other: ShardInference) {
        self.validated.extend(other.validated);
        for (prefix, accumulator) in other.density {
            self.density.entry(prefix).or_default().merge(accumulator);
        }
        // Each state's events are in order, their concatenation is not:
        // whoever reads the merged events in order sorts them.
        self.events.extend(other.events);
        self.rotating.extend(other.rotating);
        self.tracker.merge(other.tracker);
        if let (Some(mine), Some(theirs)) = (&mut self.census, other.census) {
            mine.addresses.extend(theirs.addresses);
            mine.iids.extend(theirs.iids);
        }
        self.observations += other.observations;
    }

    /// Fold a list of shard states into one: the first state is adopted as
    /// it stands and the rest merge into it, so one shard costs nothing and
    /// N shards re-insert N − 1 states, never all N.
    pub(crate) fn merge_all<I: IntoIterator<Item = ShardInference>>(states: I) -> Self {
        let mut states = states.into_iter();
        let mut merged = states.next().unwrap_or_default();
        for state in states {
            merged.merge(state);
        }
        merged
    }

    /// Address statistics in the batch pipeline's shape:
    /// `(total addresses, EUI-64 addresses, unique IIDs)` — zeros for a
    /// monitor shard, which keeps no census. The EUI-64 count is taken here
    /// rather than kept: exact under merge, where a running counter would
    /// count a source twice if two shards saw it.
    pub fn address_statistics(&self) -> (usize, usize, usize) {
        let Some(census) = &self.census else {
            return (0, 0, 0);
        };
        let eui = |address: &&Ipv6Addr| Eui64::from_addr(**address).is_some();
        (
            census.addresses.len(),
            census.addresses.iter().filter(eui).count(),
            census.iids.len(),
        )
    }

    /// Drop per-window state older than `window` (exclusive). The windowed
    /// detector is untouched — its memory is O(targets), not O(windows).
    pub fn compact_before(&mut self, window: u64) {
        self.tracker.compact_before(window);
        let retained = self.events.len();
        self.events.retain(|e| e.window >= window);
        if self.events.len() < retained {
            self.rotating.clear();
            self.rotating.extend(self.events.iter().map(event_48));
        }
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
        // A pipeline shard, and beside it the monitor shard whose tracker
        // the same observations feed.
        let mut state = ShardInference::new();
        let mut monitor = ShardInference::without_census();
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

        // Density: accumulates per /48.
        state.ingest(&obs(Phase::Density, 0, 0, "2001:db8:1::2", Some(&eui1)));
        state.ingest(&obs(Phase::Density, 0, 1, "2001:db8:1:100::2", Some(&eui2)));
        let acc = &state.density[&"2001:db8:1::/48".parse().unwrap()];
        assert_eq!(acc.probes, 2);
        assert_eq!(acc.uniques.len(), 1, "same IID under two addresses");

        // Detection: window 1 differing from window 0 emits an event.
        let first = obs(Phase::Detection, 0, 0, "2001:db8:1::3", Some(&eui1));
        let second = obs(Phase::Detection, 1, 0, "2001:db8:1::3", Some(&eui2));
        assert!(state.ingest(&first).is_none());
        assert!(monitor.ingest(&first).is_none());
        let event = state
            .ingest(&second)
            .expect("changed EUI response must emit");
        assert_eq!(event.window, 1);
        assert_eq!(monitor.ingest(&second), Some(event));
        assert_eq!(state.events, vec![event]);
        assert_eq!(monitor.events, vec![event]);
        assert_eq!(monitor.tracker.identifiers_seen(), 1);
        assert_eq!(state.tracker.identifiers_seen(), 0);
        assert_eq!(monitor.address_statistics(), (0, 0, 0));

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

    /// A mixed-phase stream over four /48s: expansion and density probes
    /// (one silent and one non-EUI-64 responder per /48), then three
    /// detection windows in which every identifier moves each window — and
    /// moves *across* /48s, so a split by /48 leaves one identifier's
    /// history in several splits.
    fn mixed_stream() -> Vec<Observation> {
        let device = |kind: u64, a: u64, b: u64| -> Eui64 {
            let mac = format!("c8:0e:14:{kind:02x}:{a:02x}:{b:02x}");
            Eui64::from_mac(mac.parse().unwrap())
        };
        let prefix64 = |net: u64, block: u64| 0x2001_0db8_0000_0000 + (net << 16) + (block << 8);
        let mut stream = Vec::new();
        let mut push = |phase, window, target: String, source: Option<String>| {
            let seq = stream.len() as u64;
            stream.push(obs(phase, window, seq, &target, source.as_deref()));
        };
        for net in 0..4u64 {
            let source = device(0, net, 0).with_prefix64(prefix64(net, 0));
            let target = format!("2001:db8:{net:x}::1");
            push(Phase::Expansion, 0, target, Some(source.to_string()));
            for block in 0..4u64 {
                let source = match block {
                    2 => Some(format!("2001:db8:{net:x}:200::beef")),
                    3 => None,
                    _ => Some(
                        device(0, net, block)
                            .with_prefix64(prefix64(net, block))
                            .to_string(),
                    ),
                };
                let target = format!("2001:db8:{net:x}:{block:x}00::2");
                push(Phase::Density, 0, target, source);
            }
        }
        for window in 0..3u64 {
            for net in 0..4u64 {
                for block in 0..4u64 {
                    // The identifier answering this target this window sat
                    // one /48 over in the previous one.
                    let source = device(1, (net + window) % 4, block);
                    let source = source.with_prefix64(prefix64(net, block));
                    let target = format!("2001:db8:{net:x}:{block:x}00::3");
                    push(Phase::Detection, window, target, Some(source.to_string()));
                }
            }
        }
        stream
    }

    #[test]
    fn pipeline_shard_feeds_no_tracker() {
        let stream = mixed_stream();
        let mut pipeline = ShardInference::new();
        let mut monitor = ShardInference::without_census();
        for observation in &stream {
            assert_eq!(pipeline.ingest(observation), monitor.ingest(observation));
        }
        // What a `PipelineReport` reads is what it was...
        assert_eq!(pipeline.events.len(), 32);
        assert_eq!(pipeline.events, monitor.events);
        assert_eq!(pipeline.address_statistics(), (60, 56, 24));
        assert_eq!(pipeline.detector, monitor.detector);
        // ...and the tracker no report field of its reads was never fed.
        pipeline.tracker.fold();
        assert_eq!(pipeline.tracker.identifiers_seen(), 0);
        assert_eq!(pipeline.tracker.probe_counts().count(), 0);
        assert_eq!(monitor.tracker.identifiers_seen(), 16);
    }

    /// The rotating /48s a shard keeps beside its events are always the
    /// ones its events flag — `rotation_detect::rotating_48s`, the rule
    /// they replace at the report — as events are retained, merged,
    /// compacted away and decoded.
    #[test]
    fn the_kept_rotating_48s_follow_the_events() {
        use scent_checkpoint::{decode_value, encode_value};
        use scent_core::rotation_detect::rotating_48s;

        let nets = |nets: &[u16]| -> Vec<Ipv6Prefix> {
            (nets.iter())
                .map(|net| format!("2001:db8:{net:x}::/48").parse().unwrap())
                .collect()
        };
        // The target in /48 `net` answers from a /64 that moves in exactly
        // the windows `moves` lists.
        let shard = |targets: &[(u16, &[u64])]| {
            let mut state = ShardInference::without_census();
            for window in 0..3u64 {
                for (seq, (net, moves)) in targets.iter().enumerate() {
                    let moved = moves.iter().filter(|&&w| w <= window).count() as u64;
                    let prefix64 = 0x2001_0db8_0000_0000 | u64::from(*net) << 16 | moved;
                    let target = format!("2001:db8:{net:x}::1");
                    let source = eui_addr(prefix64);
                    state.ingest(&obs(
                        Phase::Detection,
                        window,
                        seq as u64,
                        &target,
                        Some(&source),
                    ));
                }
            }
            assert_eq!(state.rotating_48s(), rotating_48s(&state.events));
            state
        };
        let mut state = shard(&[(1, &[1]), (2, &[2]), (3, &[])]);
        assert_eq!(state.rotating_48s(), nets(&[1, 2]));

        let merged = ShardInference::merge_all([state.clone(), shard(&[(4, &[1, 2])])]);
        assert_eq!(merged.rotating_48s(), nets(&[1, 2, 4]));
        assert_eq!(merged.rotating_48s(), rotating_48s(&merged.events));

        // Compacting away window 1 forgets the /48 only its event flagged.
        state.compact_before(2);
        assert_eq!(state.rotating_48s(), nets(&[2]));
        assert_eq!(state.rotating_48s(), rotating_48s(&state.events));

        // The set is not encoded; a decoded shard rebuilds it.
        let decoded: ShardInference = decode_value(&encode_value(&state)).unwrap();
        assert_eq!(decoded.rotating_48s(), state.rotating_48s());
        assert_eq!(decoded.events(), state.events());
        // A merged state's events are two runs, not a shard's one: a
        // snapshot holds shards, and the codec refuses them.
        assert_eq!(
            decode_value::<ShardInference>(&encode_value(&merged)).err(),
            Some(scent_checkpoint::CheckpointError::InvalidValue(
                "events out of order"
            ))
        );
    }

    #[test]
    fn merge_all_equals_the_fold_from_empty_it_replaces() {
        use scent_checkpoint::encode_value;

        let stream = mixed_stream();
        let flavours = [
            (ShardInference::new(), (60, 56, 24), 0),
            (ShardInference::without_census(), (0, 0, 0), 16),
        ];
        for (empty, census, identifiers) in flavours {
            let mut whole = empty.clone();
            for observation in &stream {
                whole.ingest(observation);
            }
            assert_eq!(whole.address_statistics(), census);
            assert_eq!(whole.tracker.identifiers_seen(), identifiers);
            assert_eq!(whole.events.len(), 32);
            whole.tracker.fold();
            for splits in 1..=3usize {
                let mut states = vec![empty.clone(); splits];
                for observation in &stream {
                    let net = observation.target.segments()[2] as usize;
                    states[net % splits].ingest(observation);
                }
                let mut folded = empty.clone();
                for state in states.clone() {
                    folded.merge(state);
                }
                // A merged state keeps the first state's detector.
                folded.detector = states[0].detector.clone();
                let mut adopted = ShardInference::merge_all(states);
                assert_eq!(encode_value(&adopted), encode_value(&folded), "{splits}");
                assert_eq!(adopted.address_statistics(), whole.address_statistics());
                assert_eq!(adopted.observations, whole.observations);
                adopted.tracker.fold();
                assert_eq!(encode_value(&adopted.tracker), encode_value(&whole.tracker));
            }
        }
        // Monitor shards merge to a monitor shard: no census appears.
        let merged = ShardInference::merge_all(vec![ShardInference::without_census(); 2]);
        assert!(merged.census.is_none());
        assert_eq!(
            ShardInference::merge_all([]).address_statistics(),
            (0, 0, 0)
        );
    }
}
