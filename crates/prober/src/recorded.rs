//! Record/replay measurement backends.
//!
//! [`RecordingBackend`] wraps any live backend and captures every probe as a
//! [`ProbeRecord`] and every traceroute as a [`TraceRecord`], together with a
//! snapshot of the backend's control plane ([`RecordedWorld`]). The captured
//! [`ProbeLog`] can then be replayed by [`RecordedBackend`], which implements
//! [`ProbeTransport`] + [`WorldView`] itself — a second, fully independent
//! backend proving that the measurement pipelines really are
//! backend-agnostic: a pipeline run against the replay produces the same
//! report as the run that was recorded (test-enforced in the integration
//! suite).
//!
//! Replay is keyed on `(target, virtual send second)`. That matches any
//! deterministic recording where each `(target, time)` pair elicits a single
//! outcome — which holds for every simulated world without ICMPv6 rate
//! limiting, and for the deterministic pacing both the batch scanner and the
//! streamed sources use. A duplicate key keeps the outcome recorded last.

use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use scent_bgp::{AsRegistry, Asn, Rib, RibEntry};
use scent_simnet::{CpeId, ProbeReply, SimTime, TraceHop};

use crate::records::{ProbeRecord, ResponseRecord};
use crate::yarrp::TraceRecord;
use crate::{ProbeTransport, WorldView};

/// A serializable snapshot of a backend's control plane: everything
/// [`WorldView`] answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedWorld {
    /// The vantage point's source address.
    pub vantage: Ipv6Addr,
    /// The world/campaign seed.
    pub world_seed: u64,
    /// Every announced prefix and its origin AS.
    pub rib: Vec<RibEntry>,
    /// AS metadata.
    pub as_registry: AsRegistry,
}

/// One recorded traceroute: the virtual time it ran plus its result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedTrace {
    /// Virtual time the traceroute ran.
    pub at: SimTime,
    /// The hops observed.
    pub record: TraceRecord,
}

/// A complete capture of one measurement run: the world snapshot, every
/// probe outcome, and every traceroute.
///
/// Logs are *canonically ordered* ([`RecordingBackend::finish`] sorts probes
/// by `(send time, target)` and traces by `(send time, target)`), so two
/// captures of the same deterministic run compare equal even when the run
/// probed from multiple producer threads, whose wall-clock capture order is
/// scheduler-dependent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeLog {
    /// The control-plane snapshot.
    pub world: RecordedWorld,
    /// Every probe sent, in canonical `(sent_at, target)` order
    /// ([`ResponseRecord`]s inside).
    pub probes: Vec<ProbeRecord>,
    /// Every traceroute run, in canonical `(at, target)` order
    /// ([`TraceRecord`]s inside).
    pub traces: Vec<RecordedTrace>,
}

impl ProbeLog {
    /// Number of probes captured.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the log captured no probes at all.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

/// A pass-through backend that records everything crossing it.
///
/// Wrap a live backend, run any campaign, then call
/// [`RecordingBackend::finish`] to obtain the [`ProbeLog`].
pub struct RecordingBackend<'a, B: ?Sized> {
    inner: &'a B,
    probes: Mutex<Vec<ProbeRecord>>,
    traces: Mutex<Vec<RecordedTrace>>,
}

impl<'a, B: ProbeTransport + WorldView + ?Sized> RecordingBackend<'a, B> {
    /// Record everything sent through `inner`.
    pub fn new(inner: &'a B) -> Self {
        RecordingBackend {
            inner,
            probes: Mutex::new(Vec::new()),
            traces: Mutex::new(Vec::new()),
        }
    }

    /// Stop recording and return the captured log, canonically ordered:
    /// probes sorted by `(sent_at, target)`, traces by `(at, target)`. A
    /// deterministic run recorded twice therefore yields byte-equal logs no
    /// matter how many producer threads drove the probing or how the OS
    /// interleaved them (the sort is stable, so duplicate `(target, second)`
    /// keys keep their capture order and replay still sees the last one).
    pub fn finish(self) -> ProbeLog {
        let mut probes = self.probes.into_inner().expect("recorder lock poisoned");
        probes.sort_by_key(|record| (record.sent_at, record.target));
        let mut traces = self.traces.into_inner().expect("recorder lock poisoned");
        traces.sort_by_key(|trace| (trace.at, trace.record.target));
        ProbeLog {
            world: RecordedWorld {
                vantage: self.inner.vantage(),
                world_seed: self.inner.world_seed(),
                rib: self.inner.rib().entries(),
                as_registry: self.inner.as_registry().clone(),
            },
            probes,
            traces,
        }
    }
}

impl<B: ProbeTransport + ?Sized> ProbeTransport for RecordingBackend<'_, B> {
    fn probe(&self, target: Ipv6Addr, t: SimTime) -> Option<ProbeReply> {
        let reply = self.inner.probe(target, t);
        self.probes
            .lock()
            .expect("recorder lock poisoned")
            .push(ProbeRecord {
                target,
                sent_at: t,
                response: reply.map(|r| ResponseRecord {
                    source: r.source,
                    kind: r.kind,
                }),
            });
        reply
    }

    fn trace(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Vec<TraceHop> {
        let hops = self.inner.trace(target, t, max_hops);
        self.traces
            .lock()
            .expect("recorder lock poisoned")
            .push(RecordedTrace {
                at: t,
                record: TraceRecord::from_hops(target, hops.clone()),
            });
        hops
    }
}

impl<B: WorldView + ?Sized> WorldView for RecordingBackend<'_, B> {
    fn vantage(&self) -> Ipv6Addr {
        self.inner.vantage()
    }

    fn rib(&self) -> &Rib {
        self.inner.rib()
    }

    fn as_registry(&self) -> &AsRegistry {
        self.inner.as_registry()
    }

    fn world_seed(&self) -> u64 {
        self.inner.world_seed()
    }
}

/// A backend that replays a [`ProbeLog`]: probes and traceroutes answer
/// exactly what the recorded run observed, and the world view answers from
/// the recorded snapshot. Probing anything the recording never sent is
/// silent, like unallocated address space.
pub struct RecordedBackend {
    vantage: Ipv6Addr,
    world_seed: u64,
    rib: Rib,
    as_registry: AsRegistry,
    probes: HashMap<(Ipv6Addr, u64), Option<ResponseRecord>>,
    traces: HashMap<(Ipv6Addr, u64), Vec<TraceHop>>,
}

impl RecordedBackend {
    /// The ground-truth CPE identity attached to replayed probe replies.
    /// Replay has no ground truth, so this sentinel marks every reply;
    /// measurement code never reads the field.
    pub(crate) const REPLAYED_CPE: CpeId = CpeId {
        pool: u32::MAX,
        index: u32::MAX,
    };

    /// Build a replay backend from a captured log.
    pub fn from_log(log: ProbeLog) -> Self {
        let rib: Rib = log.world.rib.into_iter().collect();
        let mut probes = HashMap::with_capacity(log.probes.len());
        for record in log.probes {
            probes.insert((record.target, record.sent_at.as_secs()), record.response);
        }
        let mut traces = HashMap::with_capacity(log.traces.len());
        for trace in log.traces {
            traces.insert((trace.record.target, trace.at.as_secs()), trace.record.hops);
        }
        RecordedBackend {
            vantage: log.world.vantage,
            world_seed: log.world.world_seed,
            rib,
            as_registry: log.world.as_registry,
            probes,
            traces,
        }
    }
}

impl From<ProbeLog> for RecordedBackend {
    fn from(log: ProbeLog) -> Self {
        RecordedBackend::from_log(log)
    }
}

impl ProbeTransport for RecordedBackend {
    fn probe(&self, target: Ipv6Addr, t: SimTime) -> Option<ProbeReply> {
        let response = self.probes.get(&(target, t.as_secs())).copied().flatten()?;
        Some(ProbeReply {
            source: response.source,
            kind: response.kind,
            asn: self.rib.origin(response.source).unwrap_or(Asn(0)),
            cpe: Self::REPLAYED_CPE,
        })
    }

    fn trace(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Vec<TraceHop> {
        let Some(hops) = self.traces.get(&(target, t.as_secs())) else {
            return Vec::new();
        };
        hops.iter()
            .copied()
            .filter(|hop| hop.ttl <= max_hops)
            .collect()
    }
}

impl WorldView for RecordedBackend {
    fn vantage(&self) -> Ipv6Addr {
        self.vantage
    }

    fn rib(&self) -> &Rib {
        &self.rib
    }

    fn as_registry(&self) -> &AsRegistry {
        &self.as_registry
    }

    fn world_seed(&self) -> u64 {
        self.world_seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::TargetGenerator;
    use crate::zmap6::{Scanner, ScannerConfig};
    use scent_simnet::{scenarios, Engine};

    #[test]
    fn replayed_scan_matches_the_recorded_one() {
        let engine = Engine::build(scenarios::entel_like(5)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let targets = TargetGenerator::new(1).one_per_subnet(&pool, 56);
        let scanner = Scanner::new(ScannerConfig::default());

        let recorder = RecordingBackend::new(&engine);
        let live = scanner.scan(&recorder, &targets, SimTime::at(1, 9));
        let log = recorder.finish();
        assert_eq!(log.len(), targets.len());
        assert!(!log.is_empty());
        assert_eq!(log.world.world_seed, engine.config().seed);

        let replay = RecordedBackend::from_log(log);
        let replayed = scanner.scan(&replay, &targets, SimTime::at(1, 9));
        assert_eq!(live, replayed);
        assert!(live.responses() > 0, "a silent world proves nothing");
    }

    #[test]
    fn replayed_world_view_matches() {
        let engine = Engine::build(scenarios::versatel_like(9)).unwrap();
        let recorder = RecordingBackend::new(&engine);
        assert_eq!(recorder.vantage(), engine.vantage());
        let replay = RecordedBackend::from_log(recorder.finish());
        assert_eq!(replay.vantage(), engine.vantage());
        assert_eq!(replay.world_seed(), engine.config().seed);
        assert_eq!(replay.rib().entries(), engine.rib().entries());
        assert_eq!(replay.as_registry(), engine.as_registry());
    }

    #[test]
    fn traces_replay_and_unrecorded_space_is_silent() {
        let engine = Engine::build(scenarios::versatel_like(4)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let target = TargetGenerator::new(2).random_addr_in(&pool);
        let t = SimTime::at(1, 10);

        let recorder = RecordingBackend::new(&engine);
        let live_hops = recorder.trace(target, t, 32);
        let replay = RecordedBackend::from_log(recorder.finish());
        assert_eq!(replay.trace(target, t, 32), live_hops);
        // A shorter hop limit truncates the replay.
        if live_hops.len() > 1 {
            assert_eq!(replay.trace(target, t, 1).len(), 1);
        }
        // Unrecorded targets and times answer nothing.
        assert!(replay.probe(target, t).is_none() || engine.probe(target, t).is_some());
        assert!(replay.probe("3fff::1".parse().unwrap(), t).is_none());
        assert!(replay.trace(target, SimTime::at(40, 0), 32).is_empty());
    }
}
