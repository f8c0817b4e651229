//! [`Checkpointable`] implementations for the workspace's incremental
//! monitor state: addresses and prefixes, probe records, the queue model,
//! density/rotation/tracking state, watch revisions and the telemetry
//! deterministic tier. (Streams and pacers are rebuilt at every epoch
//! boundary, where snapshots are taken, so they have no encoding.)
//!
//! Everything here encodes through public accessors (or `checkpoint_parts`
//! pairs added for this purpose), so the owning crates keep their fields
//! private and the codec stays in one place. Enum variants are encoded as
//! explicit `u8` tags — never discriminant casts — so reordering a Rust enum
//! can't silently change the wire format.

use std::net::Ipv6Addr;

use scent_core::rotation_detect::{ChangeKind, ChangedTarget};
use scent_core::tracker::{LoggedSighting, Sighting};
use scent_core::{
    DensityAccumulator, Eui64, IncrementalTracker, Ipv6Prefix, RotationEvent, WatchRevision,
    WindowedRotationDetector,
};
use scent_ipv6::{addr_from_u128, addr_to_u128};
use scent_prober::{QueueModel, ResponseRecord};
use scent_simnet::{DestUnreachableCode, ReplyKind, SimDuration, SimTime};
use scent_telemetry::{
    DeterministicSnapshot, EventKind, Histogram, TelemetryEvent, WindowStats, LATENCY_BOUNDS_SECS,
};

use crate::codec::{Checkpointable, Reader, Writer};
use crate::error::CheckpointError;

impl Checkpointable for Ipv6Addr {
    fn encode(&self, w: &mut Writer) {
        w.put_u128(addr_to_u128(*self));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(addr_from_u128(r.u128()?))
    }
}

impl Checkpointable for Ipv6Prefix {
    fn encode(&self, w: &mut Writer) {
        w.put_u128(self.network_bits());
        w.put_u8(self.len());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let bits = r.u128()?;
        let len = r.u8()?;
        Ipv6Prefix::from_bits(bits, len).map_err(|_| CheckpointError::InvalidValue("prefix length"))
    }
}

impl Checkpointable for Eui64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Eui64(r.u64()?))
    }
}

impl Checkpointable for SimTime {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(SimTime(r.u64()?))
    }
}

impl Checkpointable for SimDuration {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(SimDuration(r.u64()?))
    }
}

impl Checkpointable for ReplyKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            ReplyKind::EchoReply => w.put_u8(0),
            ReplyKind::DestinationUnreachable(code) => {
                w.put_u8(1);
                w.put_u8(code.value());
            }
            ReplyKind::TimeExceeded => w.put_u8(2),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.u8()? {
            0 => ReplyKind::EchoReply,
            1 => ReplyKind::DestinationUnreachable(
                DestUnreachableCode::from_value(r.u8()?)
                    .ok_or(CheckpointError::InvalidValue("dest-unreachable code"))?,
            ),
            2 => ReplyKind::TimeExceeded,
            _ => return Err(CheckpointError::InvalidValue("reply kind")),
        })
    }
}

impl Checkpointable for ResponseRecord {
    fn encode(&self, w: &mut Writer) {
        self.source.encode(w);
        self.kind.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(ResponseRecord {
            source: Ipv6Addr::decode(r)?,
            kind: ReplyKind::decode(r)?,
        })
    }
}

impl Checkpointable for Sighting {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.seq);
        self.address.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Sighting {
            seq: r.u64()?,
            address: Ipv6Addr::decode(r)?,
        })
    }
}

impl Checkpointable for DensityAccumulator {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.probes);
        self.uniques.encode(w);
        w.put_bool(self.responded);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(DensityAccumulator {
            probes: r.u64()?,
            uniques: Checkpointable::decode(r)?,
            responded: r.bool()?,
        })
    }
}

impl Checkpointable for ChangeKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            ChangeKind::EuiToDifferentEui => 0,
            ChangeKind::EuiToNothing => 1,
            ChangeKind::NothingToEui => 2,
            ChangeKind::EuiToOtherKind => 3,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.u8()? {
            0 => ChangeKind::EuiToDifferentEui,
            1 => ChangeKind::EuiToNothing,
            2 => ChangeKind::NothingToEui,
            3 => ChangeKind::EuiToOtherKind,
            _ => return Err(CheckpointError::InvalidValue("change kind")),
        })
    }
}

impl Checkpointable for ChangedTarget {
    fn encode(&self, w: &mut Writer) {
        self.target.encode(w);
        self.first.encode(w);
        self.second.encode(w);
        self.kind.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(ChangedTarget {
            target: Ipv6Addr::decode(r)?,
            first: Checkpointable::decode(r)?,
            second: Checkpointable::decode(r)?,
            kind: ChangeKind::decode(r)?,
        })
    }
}

impl Checkpointable for RotationEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.window);
        w.put_u64(self.seq);
        self.change.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(RotationEvent {
            window: r.u64()?,
            seq: r.u64()?,
            change: ChangedTarget::decode(r)?,
        })
    }
}

impl Checkpointable for WatchRevision {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        self.admitted.encode(w);
        self.evicted.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(WatchRevision {
            epoch: r.u64()?,
            admitted: Checkpointable::decode(r)?,
            evicted: Checkpointable::decode(r)?,
        })
    }
}

/// Wire layout (unchanged since the detector was a map keyed by target): the
/// entry count, then `(target, (window, source))` in target order — the
/// order the detector hands its per-/48 blocks out in, whatever layout it
/// keeps inside them.
impl Checkpointable for WindowedRotationDetector {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.targets_tracked());
        for entry in self.last_observations() {
            entry.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let entries: Vec<(Ipv6Addr, (u64, Option<Ipv6Addr>))> = Checkpointable::decode(r)?;
        Ok(entries.into_iter().collect())
    }
}

/// Wire layout: the per-identifier sightings in identifier order, then the
/// probe counts. The sightings are written straight off the tracker's
/// folded run; a snapshot folds its trackers in place first, so only a
/// tracker handed over unfolded is copied here to be folded.
impl Checkpointable for IncrementalTracker {
    fn encode(&self, w: &mut Writer) {
        let Some(identifiers) = self.sightings() else {
            let mut folded = self.clone();
            folded.fold();
            return folded.encode(w);
        };
        w.put_usize(identifiers.clone().count());
        for sightings in identifiers {
            sightings[0].eui.encode(w);
            w.put_usize(sightings.len());
            for entry in sightings {
                w.put_u64(entry.window);
                entry.sighting().encode(w);
            }
        }
        let mut probes: Vec<(u64, Ipv6Prefix, u64)> = self.probe_counts().collect();
        probes.sort_unstable_by_key(|&(window, prefix, _)| (window, prefix));
        w.put_usize(probes.len());
        for (window, prefix, count) in probes {
            w.put_u64(window);
            prefix.encode(w);
            w.put_u64(count);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut run = Vec::new();
        for _ in 0..r.usize()? {
            let eui = Eui64::decode(r)?;
            for _ in 0..r.usize()? {
                let window = r.u64()?;
                let entry = LoggedSighting::new(eui, window, Sighting::decode(r)?).ok_or(
                    CheckpointError::InvalidValue("sighting of another identifier"),
                )?;
                run.push(entry);
            }
        }
        let probes: Vec<(u64, Ipv6Prefix, u64)> = (0..r.usize()?)
            .map(|_| Ok((r.u64()?, Ipv6Prefix::decode(r)?, r.u64()?)))
            .collect::<Result<_, CheckpointError>>()?;
        IncrementalTracker::from_checkpoint_parts(run, probes)
            .map_err(CheckpointError::InvalidValue)
    }
}

impl Checkpointable for QueueModel {
    fn encode(&self, w: &mut Writer) {
        self.drain_rate.encode(w);
        w.put_u64(self.high_watermark);
        w.put_u64(self.low_watermark);
        self.per_shard_drain.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let model = QueueModel {
            drain_rate: Checkpointable::decode(r)?,
            high_watermark: r.u64()?,
            low_watermark: r.u64()?,
            per_shard_drain: Checkpointable::decode(r)?,
        };
        if !model.is_valid() {
            return Err(CheckpointError::InvalidValue("queue watermarks"));
        }
        Ok(model)
    }
}

impl Checkpointable for Histogram {
    fn encode(&self, w: &mut Writer) {
        for count in self.bucket_counts() {
            w.put_u64(*count);
        }
        w.put_u64(self.sum());
        w.put_u64(self.count());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let counts: [u64; LATENCY_BOUNDS_SECS.len() + 1] = Checkpointable::decode(r)?;
        let sum = r.u64()?;
        let count = r.u64()?;
        Ok(Histogram::from_parts(counts, sum, count))
    }
}

impl Checkpointable for WindowStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.window);
        w.put_u64(self.observations);
        w.put_u64(self.responses);
        self.first_send.encode(w);
        self.last_send.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(WindowStats {
            window: r.u64()?,
            observations: r.u64()?,
            responses: r.u64()?,
            first_send: SimTime::decode(r)?,
            last_send: SimTime::decode(r)?,
        })
    }
}

impl Checkpointable for EventKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            EventKind::WindowClose {
                observations,
                responses,
                first_send,
            } => {
                w.put_u8(0);
                w.put_u64(*observations);
                w.put_u64(*responses);
                first_send.encode(w);
            }
            EventKind::PhaseClose { phase, probes } => {
                w.put_u8(1);
                w.put_str(phase);
                w.put_u64(*probes);
            }
            EventKind::RateBackoff { from_pps, to_pps } => {
                w.put_u8(2);
                w.put_u64(*from_pps);
                w.put_u64(*to_pps);
            }
            EventKind::RateRecovery { from_pps, to_pps } => {
                w.put_u8(3);
                w.put_u64(*from_pps);
                w.put_u64(*to_pps);
            }
            EventKind::EpochClose {
                admitted,
                evicted,
                watch_len,
                expansion_probes,
            } => {
                w.put_u8(4);
                admitted.encode(w);
                evicted.encode(w);
                w.put_usize(*watch_len);
                w.put_u64(*expansion_probes);
            }
            EventKind::WatchExhausted => {
                w.put_u8(5);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.u8()? {
            0 => EventKind::WindowClose {
                observations: r.u64()?,
                responses: r.u64()?,
                first_send: SimTime::decode(r)?,
            },
            1 => {
                // `phase` is a `&'static str` in the event journal; decode by
                // interning against the pipeline's known phase names.
                let phase = match r.str()? {
                    "expansion" => "expansion",
                    "density" => "density",
                    "detection" => "detection",
                    _ => return Err(CheckpointError::InvalidValue("phase name")),
                };
                EventKind::PhaseClose {
                    phase,
                    probes: r.u64()?,
                }
            }
            2 => EventKind::RateBackoff {
                from_pps: r.u64()?,
                to_pps: r.u64()?,
            },
            3 => EventKind::RateRecovery {
                from_pps: r.u64()?,
                to_pps: r.u64()?,
            },
            4 => EventKind::EpochClose {
                admitted: Checkpointable::decode(r)?,
                evicted: Checkpointable::decode(r)?,
                watch_len: r.usize()?,
                expansion_probes: r.u64()?,
            },
            5 => EventKind::WatchExhausted,
            _ => return Err(CheckpointError::InvalidValue("event kind")),
        })
    }
}

impl Checkpointable for TelemetryEvent {
    fn encode(&self, w: &mut Writer) {
        self.virtual_time.encode(w);
        w.put_u64(self.window);
        w.put_u64(self.epoch);
        self.shard.encode(w);
        self.kind.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(TelemetryEvent {
            virtual_time: SimTime::decode(r)?,
            window: r.u64()?,
            epoch: r.u64()?,
            shard: Checkpointable::decode(r)?,
            kind: EventKind::decode(r)?,
        })
    }
}

impl Checkpointable for DeterministicSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.observations);
        w.put_u64(self.responses);
        w.put_u64(self.expansion_probes);
        w.put_u64(self.rate_backoffs);
        w.put_u64(self.rate_recoveries);
        w.put_u64(self.queue_high_water);
        w.put_u64(self.epochs);
        w.put_u64(self.admitted);
        w.put_u64(self.evicted);
        self.windows.encode(w);
        self.window_latency.encode(w);
        self.events.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(DeterministicSnapshot {
            observations: r.u64()?,
            responses: r.u64()?,
            expansion_probes: r.u64()?,
            rate_backoffs: r.u64()?,
            rate_recoveries: r.u64()?,
            queue_high_water: r.u64()?,
            epochs: r.u64()?,
            admitted: r.u64()?,
            evicted: r.u64()?,
            windows: Checkpointable::decode(r)?,
            window_latency: Histogram::decode(r)?,
            events: Checkpointable::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_value, encode_value};

    fn roundtrip<T: Checkpointable + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_value(&value);
        let back: T = decode_value(&bytes).expect("roundtrip decodes");
        assert_eq!(back, value);
    }

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn prefix(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn address_types_roundtrip() {
        roundtrip(addr("2001:db8::1"));
        roundtrip(prefix("2001:db8:40::/48"));
        roundtrip(Ipv6Prefix::ALL);
        roundtrip(Eui64(0x0250_56ff_fe00_1234));
        roundtrip(SimTime::at(3, 7));
        roundtrip(SimDuration::from_days(2));
    }

    #[test]
    fn reply_kinds_roundtrip() {
        roundtrip(ReplyKind::EchoReply);
        roundtrip(ReplyKind::TimeExceeded);
        // Each code is its RFC 4443 value behind the variant's tag.
        for v in 0..=6u8 {
            let code = DestUnreachableCode::from_value(v).expect("RFC 4443 code");
            assert_eq!(code.value(), v);
            let kind = ReplyKind::DestinationUnreachable(code);
            assert_eq!(encode_value(&kind), [1, v]);
            roundtrip(kind);
        }
        roundtrip(ResponseRecord {
            source: addr("2001:db8::2"),
            kind: ReplyKind::EchoReply,
        });
    }

    #[test]
    fn invalid_enum_tags_are_typed_errors() {
        assert_eq!(
            decode_value::<ReplyKind>(&[9]),
            Err(CheckpointError::InvalidValue("reply kind"))
        );
        assert_eq!(
            decode_value::<ChangeKind>(&[9]),
            Err(CheckpointError::InvalidValue("change kind"))
        );
        for code in [7, 200] {
            assert_eq!(
                decode_value::<ReplyKind>(&[1, code]),
                Err(CheckpointError::InvalidValue("dest-unreachable code"))
            );
        }
        // A prefix length over 128 can't be represented.
        let mut w = Writer::new();
        w.put_u128(0);
        w.put_u8(200);
        assert_eq!(
            decode_value::<Ipv6Prefix>(&w.into_bytes()),
            Err(CheckpointError::InvalidValue("prefix length"))
        );
    }

    #[test]
    fn density_accumulator_roundtrips() {
        let mut acc = DensityAccumulator::new();
        acc.probes = 17;
        acc.responded = true;
        acc.uniques.insert(Eui64(5));
        acc.uniques.insert(Eui64(9));
        roundtrip(acc);
    }

    #[test]
    fn rotation_state_roundtrips() {
        let change = ChangedTarget {
            target: addr("2001:db8:40::1"),
            first: Some(addr("2001:db8:40::aa")),
            second: None,
            kind: ChangeKind::EuiToNothing,
        };
        roundtrip(change);
        let event = RotationEvent {
            window: 3,
            seq: 99,
            change,
        };
        roundtrip(event);
        // Window, seq and change, and no /48: the target names it.
        assert_eq!(encode_value(&event).len(), 8 + 8 + 16 + 17 + 1 + 1);

        let mut detector = WindowedRotationDetector::new();
        detector.observe(0, 0, addr("2001:db8:40::1"), Some(addr("2001:db8:40::aa")));
        detector.observe(1, 4, addr("2001:db8:40::1"), None);
        let bytes = encode_value(&detector);
        let back: WindowedRotationDetector = decode_value(&bytes).unwrap();
        assert_eq!(back, detector);

        // No snapshot byte depends on how the detector was sized, or on the
        // order it met its targets in.
        let mut reserved = WindowedRotationDetector::for_granularity(56);
        let mut grown = WindowedRotationDetector::new();
        let feed = |detector: &mut WindowedRotationDetector, i: u64| {
            let target = addr_from_u128(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) as u128);
            detector.observe(i % 3, i, target, (i % 5 != 0).then_some(target));
        };
        for i in 0..1_000u64 {
            feed(&mut reserved, i);
            feed(&mut grown, 999 - i);
        }
        assert_eq!(reserved, grown);
        assert_eq!(encode_value(&reserved), encode_value(&grown));
    }

    #[test]
    fn tracker_roundtrips_including_continued_behaviour() {
        let mut tracker = IncrementalTracker::new();
        tracker.observe(0, 1, addr("2001:db8:40::1"), Some(addr("2001:db8:40::aa")));
        tracker.observe(
            1,
            2,
            addr("2001:db8:40::1"),
            Some(addr("2001:db8:40:0:0250:56ff:fe00:1234")),
        );
        // Encoded unfolded, decoded folded: the same bytes either way.
        let bytes = encode_value(&tracker);
        let mut back: IncrementalTracker = decode_value(&bytes).unwrap();
        assert!(back.sightings().is_some() && tracker.sightings().is_none());
        tracker.fold();
        assert_eq!(encode_value(&back), bytes);
        assert_eq!(encode_value(&tracker), bytes);
        // The restored tracker keeps accumulating identically.
        for t in [&mut back, &mut tracker] {
            t.observe(2, 3, addr("2001:db8:40::2"), None);
            t.observe(
                2,
                4,
                addr("2001:db8:40::2"),
                Some(addr("2001:db8:41:0:0250:56ff:fe00:1234")),
            );
        }
        assert_eq!(encode_value(&back), encode_value(&tracker));
    }

    #[test]
    fn watch_revision_roundtrips() {
        roundtrip(WatchRevision {
            epoch: 4,
            admitted: vec![prefix("2001:db8:41::/48")],
            evicted: vec![prefix("2001:db8:42::/48"), prefix("2001:db8:43::/48")],
        });
    }

    #[test]
    fn pacing_state_roundtrips() {
        roundtrip(QueueModel::unbounded());
        roundtrip(QueueModel {
            high_watermark: 9,
            low_watermark: 3,
            ..QueueModel::per_shard_drain([4, 5])
        });
    }

    #[test]
    fn invalid_pacing_state_is_a_typed_error() {
        let mut w = Writer::new();
        // drain_rate: None, high == low watermarks, no per-shard overrides.
        Option::<u64>::None.encode(&mut w);
        w.put_u64(4);
        w.put_u64(4);
        Vec::<u64>::new().encode(&mut w);
        assert_eq!(
            decode_value::<QueueModel>(&w.into_bytes()),
            Err(CheckpointError::InvalidValue("queue watermarks"))
        );
    }

    #[test]
    fn telemetry_tier_roundtrips() {
        let mut histogram = Histogram::new();
        histogram.observe(2);
        histogram.observe(100_000);
        roundtrip(histogram.clone());

        let window = WindowStats {
            window: 6,
            observations: 128,
            responses: 40,
            first_send: SimTime::at(6, 0),
            last_send: SimTime::at(6, 13),
        };
        roundtrip(window.clone());

        let events = vec![
            TelemetryEvent {
                virtual_time: SimTime::at(6, 13),
                window: 6,
                epoch: 1,
                shard: None,
                kind: EventKind::WindowClose {
                    observations: 128,
                    responses: 40,
                    first_send: SimTime::at(6, 0),
                },
            },
            TelemetryEvent {
                virtual_time: SimTime::at(6, 14),
                window: 6,
                epoch: 1,
                shard: Some(2),
                kind: EventKind::PhaseClose {
                    phase: "density",
                    probes: 12,
                },
            },
            TelemetryEvent {
                virtual_time: SimTime::at(6, 15),
                window: 6,
                epoch: 1,
                shard: None,
                kind: EventKind::RateBackoff {
                    from_pps: 64,
                    to_pps: 32,
                },
            },
            TelemetryEvent {
                virtual_time: SimTime::at(7, 0),
                window: 7,
                epoch: 1,
                shard: None,
                kind: EventKind::EpochClose {
                    admitted: vec![prefix("2001:db8:44::/48")],
                    evicted: vec![],
                    watch_len: 5,
                    expansion_probes: 99,
                },
            },
            TelemetryEvent {
                virtual_time: SimTime::at(7, 1),
                window: 7,
                epoch: 1,
                shard: None,
                kind: EventKind::WatchExhausted,
            },
        ];
        for event in &events {
            roundtrip(event.clone());
        }

        roundtrip(DeterministicSnapshot {
            observations: 1_000,
            responses: 300,
            expansion_probes: 99,
            rate_backoffs: 1,
            rate_recoveries: 2,
            queue_high_water: 17,
            epochs: 2,
            admitted: 1,
            evicted: 0,
            windows: vec![window],
            window_latency: histogram,
            events,
        });
    }

    #[test]
    fn unknown_phase_name_is_a_typed_error() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_str("warmup");
        w.put_u64(3);
        assert_eq!(
            decode_value::<EventKind>(&w.into_bytes()),
            Err(CheckpointError::InvalidValue("phase name"))
        );
    }
}
