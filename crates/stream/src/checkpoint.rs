//! Checkpoint/restore for the continuous monitor: snapshot shapes,
//! fingerprints, the stop signal, and the [`Checkpointable`] impls for the
//! engine's own state.
//!
//! A [`MonitorSnapshot`] is captured at an epoch boundary — the natural
//! suspension point, because producer streams and AIMD pacers are rebuilt
//! fresh each epoch, so no mid-stream cursor needs to survive. The snapshot
//! carries the monitor's merge-side progress (epoch/window counters, the
//! live watch list and its revision history), every shard's inference state,
//! the telemetry deterministic tier and the discovery tree, written as one
//! fixed-layout body ([`MonitorSnapshot::to_bytes`]). Restoring it and
//! running the remaining epochs produces a report — and a deterministic
//! telemetry dump — byte-identical to the uninterrupted run;
//! `tests/checkpoint_resume.rs` enforces that across shard counts, producer
//! counts, churn and feedback.
//!
//! Snapshots are tied to their run by two FNV-1a fingerprints: one over the
//! full [`MonitorConfig`] plus the initial watch list,
//! one over the world's RIB. Resuming against a different configuration or
//! world fails with a typed [`CheckpointError`] instead of silently
//! producing a report that matches nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use scent_checkpoint::{
    decode_snapshot, encode_snapshot, CheckpointError, Checkpointable, Reader, Writer,
};
use scent_core::rotation_detect::RotationEvent;
use scent_core::WatchRevision;
use scent_ipv6::Ipv6Prefix;
use scent_prober::WorldView;
use scent_telemetry::DeterministicSnapshot;

use crate::monitor::{MonitorConfig, MAX_TRACKED};
use crate::shard::ShardInference;

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
    pub(crate) fn is_stopped(&self) -> bool {
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
    /// Serialize into the versioned container: the header, then the body's
    /// fields in their one fixed order — `next_epoch`, `current_window`,
    /// `expansion_probes`, `final_rate`, `watched`, `revisions`, `shards`,
    /// `telemetry`, `discovery` — written in one pass.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_snapshot(self.config_fingerprint, self.world_fingerprint, |w| {
            w.put_u64(self.next_epoch);
            w.put_u64(self.current_window);
            w.put_u64(self.expansion_probes);
            w.put_u64(self.final_rate);
            self.watched.encode(w);
            self.revisions.encode(w);
            self.shards.encode(w);
            self.telemetry.encode(w);
            self.discovery.encode(w);
        })
    }

    /// Decode a snapshot previously produced by [`MonitorSnapshot::to_bytes`].
    ///
    /// Validates the container (magic, format version, checksum), then reads
    /// the body in its fixed order and refuses any byte after it; corrupt
    /// input yields a typed [`CheckpointError`], never a panic. Fingerprints
    /// are carried through for the consumer —
    /// [`MonitorSession::resume`](crate::MonitorSession::resume) — to check
    /// against the run it is asked to resume.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (header, body) = decode_snapshot(bytes)?;
        let r = &mut Reader::new(body);
        // Fields are read in the order written: struct literals evaluate in
        // source order.
        let snapshot = MonitorSnapshot {
            config_fingerprint: header.config_fingerprint,
            world_fingerprint: header.world_fingerprint,
            next_epoch: r.u64()?,
            current_window: r.u64()?,
            expansion_probes: r.u64()?,
            final_rate: r.u64()?,
            watched: Checkpointable::decode(r)?,
            revisions: Checkpointable::decode(r)?,
            shards: Checkpointable::decode(r)?,
            telemetry: Checkpointable::decode(r)?,
            discovery: Checkpointable::decode(r)?,
        };
        if !r.is_empty() {
            return Err(CheckpointError::InvalidValue("trailing bytes"));
        }
        Ok(snapshot)
    }
}

/// FNV-1a fingerprint of a monitor configuration plus its initial watch
/// list. Every field participates — a resumed run must match the original
/// exactly, including fields that only matter for scheduling (the producer
/// count) so a restored report never silently claims a configuration it was
/// not produced under. The shard count is one of them, so a snapshot only
/// ever resumes into the shard count — and, through the world fingerprint,
/// the shard map — it was taken under. A constant that replaced a field is
/// written in the field's slot, so the fingerprint moves only if its value
/// does.
pub fn config_fingerprint(cfg: &MonitorConfig, watched_48s: &[Ipv6Prefix]) -> u64 {
    let mut w = Writer::new();
    w.put_usize(cfg.shards);
    w.put_usize(cfg.producers);
    w.put_u64(cfg.seed);
    w.put_u64(cfg.packets_per_second);
    w.put_u8(cfg.granularity);
    w.put_u64(cfg.windows);
    w.put_u64(cfg.window_interval.as_secs());
    w.put_u64(cfg.start.as_secs());
    w.put_usize(MAX_TRACKED);
    // The queue model, as its codec wrote it: drain rate, watermarks, then
    // the retired per-shard drain list, always empty.
    cfg.queue_model.drain_rate.encode(&mut w);
    w.put_u64(cfg.queue_model.high_watermark);
    w.put_u64(cfg.queue_model.low_watermark);
    w.put_usize(0);
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

/// Wire layout: the six fields in declaration order — validated, density,
/// detector, events, tracker, observations. A monitor shard is the only
/// kind a snapshot holds, so there is no census to write, and what decodes
/// is a monitor shard.
impl Checkpointable for ShardInference {
    fn encode(&self, w: &mut Writer) {
        self.validated.encode(w);
        self.density.encode(w);
        self.detector.encode(w);
        self.events.encode(w);
        self.tracker.encode(w);
        w.put_u64(self.observations);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut state = ShardInference::without_census();
        state.validated = Checkpointable::decode(r)?;
        state.density = Checkpointable::decode(r)?;
        state.detector = Checkpointable::decode(r)?;
        let events: Vec<RotationEvent> = Checkpointable::decode(r)?;
        let key = |e: &RotationEvent| (e.window, e.seq);
        if events.windows(2).any(|pair| key(&pair[0]) >= key(&pair[1])) {
            return Err(CheckpointError::InvalidValue("events out of order"));
        }
        state.set_events(events);
        state.tracker = Checkpointable::decode(r)?;
        state.observations = r.u64()?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{Observation, Phase};
    use scent_checkpoint::{decode_value, encode_value};
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

    /// A monitor shard — the only kind a snapshot ever holds, and the kind
    /// whose tracker is fed — after one rotation's worth of every phase,
    /// folded, as a snapshot holds it.
    fn populated_shard() -> ShardInference {
        let mut state = ShardInference::without_census();
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
        // The bytes are the six fields' and nothing else.
        let fields = [
            encode_value(&state.validated),
            encode_value(&state.density),
            encode_value(&state.detector),
            encode_value(&state.events),
            encode_value(&state.tracker),
            encode_value(&state.observations),
        ];
        assert_eq!(bytes, fields.concat());
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
        // The body is the nine fields in their fixed order and nothing else.
        let fields = [
            encode_value(&snapshot.next_epoch),
            encode_value(&snapshot.current_window),
            encode_value(&snapshot.expansion_probes),
            encode_value(&snapshot.final_rate),
            encode_value(&snapshot.watched),
            encode_value(&snapshot.revisions),
            encode_value(&snapshot.shards),
            encode_value(&snapshot.telemetry),
            encode_value(&snapshot.discovery),
        ];
        assert_eq!(decode_snapshot(&bytes).unwrap().1, fields.concat());
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

    /// The default configuration's fingerprint, pinned: the retired shard
    /// channel capacity, observation batch and feedback switch leave no word
    /// in it, and it moves only with a deliberate format change.
    #[test]
    fn the_default_fingerprint_outlives_the_retired_knobs() {
        let watched: Vec<Ipv6Prefix> = vec!["2001:db8:1::/48".parse().unwrap()];
        let fingerprint = config_fingerprint(&MonitorConfig::default(), &watched);
        assert_eq!(fingerprint, 0xd0b8_11cf_fc4d_a9e4);
    }

    /// A discovering config's fingerprint, pinned: the constants that
    /// replaced the discovery certificate and decay policy fields are written
    /// where those fields were, so the fingerprint moves only if a constant's
    /// value does.
    #[test]
    fn the_discovery_fingerprint_outlives_the_retired_knobs() {
        let cfg = MonitorConfig {
            churn: Some(crate::monitor::WatchChurn::default()),
            discovery: Some(scent_discovery::DiscoveryConfig::paper_scale()),
            ..MonitorConfig::default()
        };
        let fingerprint = config_fingerprint(&cfg, &[]);
        assert_eq!(fingerprint, 0x8b32_c5d6_5257_2a6d);
    }
}
