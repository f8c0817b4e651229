//! Checkpoint/restore for the continuous monitor: snapshot shapes,
//! fingerprints, the stop signal, and the [`Checkpointable`] impls for the
//! engine's own state.
//!
//! A [`MonitorSnapshot`] is captured at an epoch boundary — the natural
//! suspension point, because producer streams and AIMD pacers are rebuilt
//! fresh each epoch, so no mid-stream cursor needs to survive. The snapshot
//! carries the monitor's merge-side progress (epoch/window counters, the
//! live watch list and its revision history), every shard's inference state,
//! and the telemetry deterministic tier. Restoring it and running the
//! remaining epochs produces a report — and a deterministic telemetry dump —
//! byte-identical to the uninterrupted run; `tests/checkpoint_resume.rs`
//! enforces that across shard counts, producer counts, churn and feedback.
//!
//! Snapshots are tied to their run by two FNV-1a fingerprints: one over the
//! full [`MonitorConfig`] plus the initial watch list,
//! one over the world's RIB. Resuming against a different configuration or
//! world fails with a typed [`CheckpointError`] instead of silently
//! producing a report that matches nothing.

use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use scent_checkpoint::{
    decode_snapshot, decode_value, encode_snapshot, encode_value, CheckpointError, Checkpointable,
    Reader, Writer,
};
use scent_core::fasthash::FastSet;
use scent_core::WatchRevision;
use scent_ipv6::{Eui64, Ipv6Prefix};
use scent_prober::WorldView;
use scent_telemetry::DeterministicSnapshot;

use crate::monitor::MonitorConfig;
use crate::shard::{Census, ShardInference};

/// Section ids inside the snapshot container (see
/// [`scent_checkpoint::encode_snapshot`]).
const SECTION_PROGRESS: u16 = 1;
const SECTION_WATCH: u16 = 2;
const SECTION_SHARDS: u16 = 3;
const SECTION_TELEMETRY: u16 = 4;
const SECTION_DISCOVERY: u16 = 5;

/// A cooperative stop request, checked by the monitor at epoch boundaries.
///
/// Cloning shares the flag: hand one clone to the monitor (via
/// [`MonitorControl`](crate::MonitorControl)) and keep another wherever the
/// stop decision is made (a signal handler, a watchdog thread, a test).
/// When the flag is raised the monitor finishes the epoch it is in — every
/// in-flight observation drains through the shards — applies any pending
/// watch-list revision, writes a final checkpoint if a sink is attached,
/// and returns a report covering the completed windows.
#[derive(Debug, Clone, Default)]
pub struct StopSignal {
    flag: Arc<AtomicBool>,
}

impl StopSignal {
    /// A fresh, un-raised signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a graceful stop at the next epoch boundary.
    pub fn request_stop(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Everything needed to resume a suspended monitoring run at the epoch
/// boundary where it was captured.
#[derive(Debug, Clone, Default)]
pub struct MonitorSnapshot {
    /// FNV-1a fingerprint of the run's full configuration plus its initial
    /// watch list; resuming under a different configuration is refused.
    pub config_fingerprint: u64,
    /// FNV-1a fingerprint of the world's RIB; resuming against a different
    /// world is refused.
    pub world_fingerprint: u64,
    /// Index of the next epoch to run (epochs completed so far).
    pub next_epoch: u64,
    /// The highest window number observed so far (drives retention
    /// compaction on the resumed side).
    pub current_window: u64,
    /// Probes spent on boundary re-expansions so far.
    pub expansion_probes: u64,
    /// The rate the last completed epoch ended on.
    pub final_rate: u64,
    /// The watch list as of this boundary (post-revision).
    pub watched: Vec<Ipv6Prefix>,
    /// Every watch-list revision applied so far, in epoch order.
    pub revisions: Vec<WatchRevision>,
    /// The discovery tree as of this boundary, when the run had
    /// [`MonitorConfig::discovery`] on. Cursor positions included: planning
    /// advances sweep cursors, so a resumed tree continues its permutations
    /// exactly where the suspended run left them.
    pub discovery: Option<scent_discovery::DiscoveryTree>,
    /// Each shard's complete inference state, in shard-index order.
    pub shards: Vec<ShardInference>,
    /// The telemetry deterministic tier, when an observer that carries one
    /// was attached at capture time.
    pub telemetry: Option<DeterministicSnapshot>,
}

impl MonitorSnapshot {
    /// Serialize into the versioned container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut progress = Writer::new();
        progress.put_u64(self.next_epoch);
        progress.put_u64(self.current_window);
        progress.put_u64(self.expansion_probes);
        progress.put_u64(self.final_rate);

        let mut watch = Writer::new();
        self.watched.encode(&mut watch);
        self.revisions.encode(&mut watch);

        let shards = encode_value(&self.shards);
        let telemetry = encode_value(&self.telemetry);
        let discovery = encode_value(&self.discovery);

        encode_snapshot(
            self.config_fingerprint,
            self.world_fingerprint,
            &[
                (SECTION_PROGRESS, progress.as_bytes()),
                (SECTION_WATCH, watch.as_bytes()),
                (SECTION_SHARDS, &shards),
                (SECTION_TELEMETRY, &telemetry),
                (SECTION_DISCOVERY, &discovery),
            ],
        )
    }

    /// Decode a snapshot previously produced by [`MonitorSnapshot::to_bytes`].
    ///
    /// Validates the container (magic, format version, checksum) and the
    /// section structure; corrupt input yields a typed [`CheckpointError`],
    /// never a panic. Fingerprints are carried through for the consumer —
    /// [`StreamMonitor::run_controlled`](crate::StreamMonitor::run_controlled)
    /// — to check against the run it is asked to resume.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (header, sections) = decode_snapshot(bytes)?;
        let mut snapshot = MonitorSnapshot {
            config_fingerprint: header.config_fingerprint,
            world_fingerprint: header.world_fingerprint,
            ..MonitorSnapshot::default()
        };
        let mut seen = [false; 5];
        for (id, payload) in sections {
            let slot = match id {
                SECTION_PROGRESS => 0,
                SECTION_WATCH => 1,
                SECTION_SHARDS => 2,
                SECTION_TELEMETRY => 3,
                SECTION_DISCOVERY => 4,
                _ => return Err(CheckpointError::InvalidValue("unknown snapshot section")),
            };
            if seen[slot] {
                return Err(CheckpointError::InvalidValue("duplicate snapshot section"));
            }
            seen[slot] = true;
            match id {
                SECTION_PROGRESS => {
                    let mut r = Reader::new(payload);
                    snapshot.next_epoch = r.u64()?;
                    snapshot.current_window = r.u64()?;
                    snapshot.expansion_probes = r.u64()?;
                    snapshot.final_rate = r.u64()?;
                    if !r.is_empty() {
                        return Err(CheckpointError::InvalidValue("trailing bytes"));
                    }
                }
                SECTION_WATCH => {
                    let mut r = Reader::new(payload);
                    snapshot.watched = Checkpointable::decode(&mut r)?;
                    snapshot.revisions = Checkpointable::decode(&mut r)?;
                    if !r.is_empty() {
                        return Err(CheckpointError::InvalidValue("trailing bytes"));
                    }
                }
                SECTION_SHARDS => snapshot.shards = decode_value(payload)?,
                SECTION_TELEMETRY => snapshot.telemetry = decode_value(payload)?,
                SECTION_DISCOVERY => snapshot.discovery = decode_value(payload)?,
                _ => unreachable!("matched above"),
            }
        }
        if !seen[0] || !seen[1] || !seen[2] {
            return Err(CheckpointError::Truncated);
        }
        Ok(snapshot)
    }
}

/// FNV-1a fingerprint of a monitor configuration plus its initial watch
/// list. Every field participates — a resumed run must match the original
/// exactly, including fields that only matter for scheduling (the producer
/// count) so a restored report never silently claims a configuration it was
/// not produced under.
///
/// Two words of it are not fields but literals, written where two retired
/// knobs were: the shard channel capacity (1024, its only production value)
/// and the observation batch (512). Kept, like the names in e2ebench's
/// frozen import list, so nothing written before the next benchmark
/// revision stops resuming — do not build on; they go then. A snapshot
/// taken under any other capacity no longer matches and is refused with
/// [`CheckpointError::ConfigMismatch`]. Another word is derived:
/// [`QueueModel::can_throttle`], written where the feedback switch was, so
/// every config whose switch agreed with its model keeps its fingerprint.
///
/// [`QueueModel::can_throttle`]: scent_prober::QueueModel::can_throttle
pub fn config_fingerprint(cfg: &MonitorConfig, watched_48s: &[Ipv6Prefix]) -> u64 {
    let mut w = Writer::new();
    w.put_usize(cfg.shards);
    w.put_usize(cfg.producers);
    w.put_usize(1024); // was `channel_capacity`
    w.put_usize(512); // was `observation_batch`
    w.put_u64(cfg.seed);
    w.put_u64(cfg.packets_per_second);
    w.put_u8(cfg.granularity);
    w.put_u64(cfg.windows);
    w.put_u64(cfg.window_interval.as_secs());
    w.put_u64(cfg.start.as_secs());
    w.put_usize(cfg.max_tracked);
    w.put_bool(cfg.queue_model.can_throttle());
    cfg.queue_model.encode(&mut w);
    cfg.retention_windows.encode(&mut w);
    match &cfg.churn {
        None => w.put_bool(false),
        Some(churn) => {
            w.put_bool(true);
            w.put_u64(churn.refresh_every);
            w.put_usize(churn.watch_capacity);
            w.put_u8(churn.expansion_len);
            w.put_u64(churn.max_48s_per_seed);
        }
    }
    match &cfg.discovery {
        None => w.put_bool(false),
        Some(discovery) => {
            w.put_bool(true);
            discovery.fingerprint_into(&mut w);
        }
    }
    cfg.checkpoint_every.encode(&mut w);
    match cfg.inject_shard_panic {
        None => w.put_bool(false),
        Some(shard) => {
            w.put_bool(true);
            w.put_usize(shard);
        }
    }
    for prefix in watched_48s {
        prefix.encode(&mut w);
    }
    w.fingerprint()
}

/// FNV-1a fingerprint of a world's RIB — the part of the world a monitor's
/// routing (and therefore its sharding) is derived from.
pub fn world_fingerprint<B: WorldView + ?Sized>(world: &B) -> u64 {
    let mut w = Writer::new();
    for entry in world.rib().entries() {
        entry.prefix.encode(&mut w);
        w.put_u32(entry.origin.0);
    }
    w.fingerprint()
}

/// The container is still `FORMAT_VERSION` 1, so the slots it has always
/// had keep their place: the set of /48s that answered expansion without an
/// EUI-64 source, after the validated ones, and the three census sections
/// (addresses, their EUI-64 subset, identifiers). A monitor shard — the only
/// kind a snapshot ever holds — writes the set and the census empty, and
/// whatever is found there is parsed and read past, not kept: snapshots
/// written while shards carried either still resume.
impl Checkpointable for ShardInference {
    fn encode(&self, w: &mut Writer) {
        self.validated.encode(w);
        BTreeSet::<Ipv6Prefix>::new().encode(w);
        self.density.encode(w);
        self.detector.encode(w);
        self.events.encode(w);
        self.tracker.encode(w);
        let empty = Census::default();
        let census = self.census.as_ref().unwrap_or(&empty);
        let eui_addresses: FastSet<Ipv6Addr> = (census.addresses.iter().copied())
            .filter(|address| Eui64::from_addr(*address).is_some())
            .collect();
        census.addresses.encode(w);
        eui_addresses.encode(w);
        census.iids.encode(w);
        w.put_u64(self.observations);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let validated = Checkpointable::decode(r)?;
        let _: BTreeSet<Ipv6Prefix> = Checkpointable::decode(r)?;
        let mut state = ShardInference {
            validated,
            density: Checkpointable::decode(r)?,
            detector: Checkpointable::decode(r)?,
            events: Checkpointable::decode(r)?,
            tracker: Checkpointable::decode(r)?,
            ..ShardInference::without_census()
        };
        let _: (FastSet<Ipv6Addr>, FastSet<Ipv6Addr>, FastSet<Eui64>) = Checkpointable::decode(r)?;
        state.observations = r.u64()?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{Observation, Phase};
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

    /// `empty` after one rotation's worth of every phase.
    fn populated(mut state: ShardInference) -> ShardInference {
        let eui = "2001:db8:1:0:c80e:14ff:fe01:203";
        let other = "2001:db8:1:4:c80e:14ff:fe99:203";
        state.ingest(&obs(Phase::Expansion, 0, 0, "2001:db8:1::1", Some(eui)));
        state.ingest(&obs(
            Phase::Expansion,
            0,
            1,
            "2001:db8:2::1",
            Some("2001:db8:2::beef"),
        ));
        state.ingest(&obs(Phase::Density, 0, 2, "2001:db8:1::2", Some(eui)));
        state.ingest(&obs(Phase::Detection, 0, 3, "2001:db8:1::3", Some(eui)));
        state.ingest(&obs(Phase::Detection, 1, 0, "2001:db8:1::3", Some(other)));
        assert!(!state.events.is_empty(), "rotation must have been detected");
        state
    }

    /// A monitor shard — the only kind a snapshot ever holds, and the kind
    /// whose tracker is fed — folded, as a snapshot holds it.
    fn populated_shard() -> ShardInference {
        let mut state = populated(ShardInference::without_census());
        state.tracker.fold();
        assert_eq!(state.tracker.identifiers_seen(), 2);
        state
    }

    fn shards_equal(a: &ShardInference, b: &ShardInference) {
        assert_eq!(a.validated, b.validated);
        assert_eq!(a.density, b.density);
        assert_eq!(a.detector, b.detector);
        assert_eq!(a.events, b.events);
        assert_eq!(encode_value(&a.tracker), encode_value(&b.tracker));
        assert_eq!(a.observations, b.observations);
    }

    #[test]
    fn shard_inference_roundtrips() {
        let state = populated_shard();
        let bytes = encode_value(&state);
        let back: ShardInference = decode_value(&bytes).unwrap();
        shards_equal(&state, &back);
        assert_eq!(encode_value(&back), bytes);
        // A census is written as found and read past: what comes back from
        // a pipeline shard's bytes is a monitor shard.
        let pipeline = populated(ShardInference::new());
        assert_eq!(pipeline.address_statistics(), (2, 2, 2));
        let pipeline_bytes = encode_value(&pipeline);
        let back: ShardInference = decode_value(&pipeline_bytes).unwrap();
        shards_equal(&pipeline, &back);
        assert_eq!(back.address_statistics(), (0, 0, 0));
        assert_eq!(
            encode_value(&back).len(),
            pipeline_bytes.len() - (2 + 2) * 16 - 2 * 8
        );
    }

    #[test]
    fn monitor_snapshot_roundtrips() {
        let snapshot = MonitorSnapshot {
            config_fingerprint: 0xfeed,
            world_fingerprint: 0xbeef,
            next_epoch: 3,
            current_window: 11,
            expansion_probes: 42,
            final_rate: 96,
            watched: vec!["2001:db8:1::/48".parse().unwrap()],
            revisions: vec![WatchRevision {
                epoch: 0,
                admitted: vec!["2001:db8:2::/48".parse().unwrap()],
                evicted: vec![],
            }],
            discovery: Some(scent_discovery::DiscoveryTree::from_announcements(
                vec!["2001:db8::/32".parse().unwrap()],
                7,
            )),
            shards: vec![populated_shard(), ShardInference::new()],
            telemetry: None,
        };
        let bytes = snapshot.to_bytes();
        let back = MonitorSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.config_fingerprint, snapshot.config_fingerprint);
        assert_eq!(back.world_fingerprint, snapshot.world_fingerprint);
        assert_eq!(back.next_epoch, snapshot.next_epoch);
        assert_eq!(back.current_window, snapshot.current_window);
        assert_eq!(back.expansion_probes, snapshot.expansion_probes);
        assert_eq!(back.final_rate, snapshot.final_rate);
        assert_eq!(back.watched, snapshot.watched);
        assert_eq!(back.revisions, snapshot.revisions);
        assert_eq!(back.discovery, snapshot.discovery);
        assert_eq!(back.telemetry, snapshot.telemetry);
        assert_eq!(back.shards.len(), 2);
        shards_equal(&back.shards[0], &snapshot.shards[0]);
        for (decoded, original) in back.shards.iter().zip(&snapshot.shards) {
            assert_eq!(decoded.events, original.events);
        }
    }

    /// A monitor shard's bytes as the codec wrote them while shards kept the
    /// /48s that answered expansion without an EUI-64 source and trackers
    /// kept move counts: `plain_48s` and `moves` in the two slots the codec
    /// now writes empty.
    fn parent_layout(
        shard: &ShardInference,
        plain_48s: &BTreeSet<Ipv6Prefix>,
        moves: &[(Eui64, u64)],
    ) -> Vec<u8> {
        let tracker = encode_value(&shard.tracker);
        let (tracker, empty) = tracker.split_at(tracker.len() - 8);
        assert_eq!(empty, [0; 8], "the lean tracker ends on an empty list");
        let mut head = Writer::new();
        shard.validated.encode(&mut head);
        plain_48s.encode(&mut head);
        shard.density.encode(&mut head);
        shard.detector.encode(&mut head);
        shard.events.encode(&mut head);
        let mut tail = Writer::new();
        moves.to_vec().encode(&mut tail);
        let census: (FastSet<Ipv6Addr>, FastSet<Ipv6Addr>, FastSet<Eui64>) = Default::default();
        census.encode(&mut tail);
        tail.put_u64(shard.observations);
        [head.as_bytes(), tracker, tail.as_bytes()].concat()
    }

    /// A snapshot written while its shards carried a non-EUI set and move
    /// counts decodes, re-encodes to the lean bytes and resumes to the
    /// uninterrupted run's report.
    #[test]
    fn a_snapshot_carrying_non_eui_sets_and_move_counts_still_resumes() {
        use crate::{MonitorSession, StreamMonitor};
        use scent_simnet::{scenarios, Engine};

        let engine = Engine::build(scenarios::continuous_world(53)).unwrap();
        let watched: Vec<Ipv6Prefix> = (engine.pools().iter())
            .map(|pool| pool.config.prefix)
            .filter(|prefix| prefix.len() <= 48)
            .flat_map(|prefix| prefix.subnets(48).unwrap())
            .collect();
        let config = MonitorConfig {
            windows: 4,
            shards: 2,
            checkpoint_every: Some(1),
            ..MonitorConfig::default()
        };
        let uninterrupted = StreamMonitor::new(config.clone())
            .run(&engine, &watched)
            .unwrap();

        let mut session = MonitorSession::new(&engine, config.clone(), watched.clone(), None);
        session.run_epoch(10_000).unwrap();
        session.run_epoch(10_000).unwrap();
        let lean = session.snapshot().to_bytes();
        let snapshot = MonitorSnapshot::from_bytes(&lean).unwrap();
        let plain_48s: BTreeSet<Ipv6Prefix> = watched.iter().take(2).copied().collect();
        let mut shards = Writer::new();
        shards.put_usize(snapshot.shards.len());
        let mut shards = shards.into_bytes();
        for shard in &snapshot.shards {
            assert_eq!(
                parent_layout(shard, &BTreeSet::new(), &[]),
                encode_value(shard)
            );
            let moves: Vec<(Eui64, u64)> = (shard.tracker.sightings().unwrap())
                .map(|sightings| (sightings[0].eui, sightings.len() as u64))
                .collect();
            assert!(!moves.is_empty());
            shards.extend(parent_layout(shard, &plain_48s, &moves));
        }
        let (header, sections) = decode_snapshot(&lean).unwrap();
        let sections: Vec<(u16, &[u8])> = (sections.into_iter())
            .map(|(id, payload)| match id {
                SECTION_SHARDS => (id, &shards[..]),
                _ => (id, payload),
            })
            .collect();
        let bytes = encode_snapshot(
            header.config_fingerprint,
            header.world_fingerprint,
            &sections,
        );
        assert!(bytes.len() > lean.len() + 2 * (2 * 16 + 16));

        let restored = MonitorSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(restored.to_bytes(), lean);
        let mut resumed = MonitorSession::new(&engine, config, watched, None)
            .resume(restored)
            .unwrap();
        while !resumed.is_done() {
            resumed.run_epoch(10_000).unwrap();
        }
        let mut report = resumed.finish();
        report.backpressure_stalls = uninterrupted.backpressure_stalls;
        assert_eq!(report, uninterrupted);
    }

    #[test]
    fn missing_sections_are_truncated() {
        let bytes = encode_snapshot(1, 2, &[(SECTION_PROGRESS, &encode_value(&(0u64, 0u64)))]);
        // A structurally valid container without the mandatory sections.
        assert!(MonitorSnapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn unknown_section_is_invalid() {
        let bytes = encode_snapshot(1, 2, &[(99, b"?")]);
        assert_eq!(
            MonitorSnapshot::from_bytes(&bytes).err(),
            Some(CheckpointError::InvalidValue("unknown snapshot section"))
        );
    }

    #[test]
    fn stop_signal_is_shared_between_clones() {
        let signal = StopSignal::new();
        let clone = signal.clone();
        assert!(!clone.is_stopped());
        signal.request_stop();
        assert!(clone.is_stopped());
    }

    #[test]
    fn fingerprints_react_to_every_field() {
        let cfg = MonitorConfig::default();
        let watched: Vec<Ipv6Prefix> = vec!["2001:db8:1::/48".parse().unwrap()];
        let base = config_fingerprint(&cfg, &watched);
        assert_eq!(base, config_fingerprint(&cfg.clone(), &watched));
        let mut other = cfg.clone();
        other.producers += 1;
        assert_ne!(base, config_fingerprint(&other, &watched));
        let mut other = cfg.clone();
        other.checkpoint_every = Some(2);
        assert_ne!(base, config_fingerprint(&other, &watched));
        let mut other = cfg.clone();
        other.inject_shard_panic = Some(0);
        assert_ne!(base, config_fingerprint(&other, &watched));
        let mut other = cfg.clone();
        other.discovery = Some(scent_discovery::DiscoveryConfig::paper_scale());
        assert_ne!(base, config_fingerprint(&other, &watched));
        assert_ne!(base, config_fingerprint(&cfg, &[]));
    }

    /// The default configuration's fingerprint is the one it had while the
    /// shard channel capacity and the observation batch were knobs, so every
    /// snapshot taken under it still resumes.
    #[test]
    fn the_default_fingerprint_outlives_the_retired_knobs() {
        let watched: Vec<Ipv6Prefix> = vec!["2001:db8:1::/48".parse().unwrap()];
        let fingerprint = config_fingerprint(&MonitorConfig::default(), &watched);
        assert_eq!(fingerprint, 0x2431_8915_6dbf_7580);
    }
}
