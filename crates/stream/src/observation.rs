//! The event type the whole engine streams: one probe and its outcome.

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_ipv6::{Eui64, Ipv6Prefix};
use scent_prober::{ProbeRecord, ResponseRecord};
use scent_simnet::SimTime;

/// Which stage of the methodology an observation belongs to. The per-shard
/// inference state machine dispatches on this tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Seed expansion & validation probing (§4.1).
    Expansion,
    /// Density-inference probing (§4.2).
    Density,
    /// Rotation-detection probing (§4.3) — snapshot `window` of the target
    /// list. The batch pipeline stops at window 1; the continuous monitor
    /// keeps going.
    Detection,
}

/// One probe and its outcome, as an event.
///
/// This is the unit the shard router partitions and the inference shards
/// consume. It carries everything a [`ProbeRecord`] does plus the stream
/// coordinates (phase, window, probing-order sequence number) that let
/// per-shard state merge back into deterministic batch-shaped reports.
///
/// The type is deliberately plain-old-data: `Copy`, fixed-size, no heap
/// behind any field (the response is inline, not boxed). The whole hot path
/// leans on this — observations move through channels by memcpy into
/// recycled batch buffers ([`crate::buffer`]), so steady-state streaming
/// performs zero per-observation heap allocations. Keep it that way: a
/// `String`/`Vec`/`Box` field here would silently put an allocation (and a
/// far-thread deallocation) back on every probe. The `pod_contract` test
/// pins the property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// The methodology stage this probe belongs to.
    pub phase: Phase,
    /// The campaign (tenant) this probe was sent for. A standalone monitor
    /// is tenant 0; the multi-campaign scheduler stamps each campaign's
    /// observations with its tenant index so streams from different
    /// campaigns can never collide on `(window, seq)` alone — the merged
    /// clock keys include the tenant, and per-tenant inference state stays
    /// disjoint by construction.
    pub tenant: u32,
    /// The scan pass within the phase (only meaningful for
    /// [`Phase::Detection`], where each window is one snapshot).
    pub window: u64,
    /// Probing-order index within `(phase, window)`.
    pub seq: u64,
    /// The probed target.
    pub target: Ipv6Addr,
    /// Virtual send time.
    pub sent_at: SimTime,
    /// The response, if any.
    pub response: Option<ResponseRecord>,
}

impl Observation {
    /// The response source address, if any.
    pub fn source(&self) -> Option<Ipv6Addr> {
        self.response.map(|r| r.source)
    }

    /// The EUI-64 identifier in the response, if any.
    pub fn eui64(&self) -> Option<Eui64> {
        self.response.and_then(|r| r.eui64())
    }

    /// The /48 containing the target — the unit all per-prefix inference
    /// state is keyed on.
    pub fn target_48(&self) -> Ipv6Prefix {
        Ipv6Prefix::new(self.target, 48).expect("48 is a valid length")
    }

    /// View the observation as the batch record type.
    pub fn record(&self) -> ProbeRecord {
        ProbeRecord {
            target: self.target,
            sent_at: self.sent_at,
            response: self.response,
        }
    }
}

/// Anything that produces a stream of observations: the boundary between the
/// probing side (scanners, adapters over the simulated Internet, in a real
/// deployment a pcap feed) and the inference side (router + shards).
pub trait ObservationSource {
    /// Pull the next observation, or `None` when the stream is exhausted.
    fn next_observation(&mut self) -> Option<Observation>;
}

/// A borrowed source is a source: lets a caller drive a stream it still
/// wants afterwards (the monitor reads its pacer's end-of-epoch rate).
impl<S: ObservationSource + ?Sized> ObservationSource for &mut S {
    fn next_observation(&mut self) -> Option<Observation> {
        (**self).next_observation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_simnet::ReplyKind;

    /// The hot path's POD contract: observations are `Copy` and stay small
    /// enough that batched channel transfers are plain memcpys. The size
    /// bound is deliberately loose (layout may shift across rustc versions);
    /// what must never happen is a heap-owning field, which would break
    /// `Copy` and fail this test at compile time.
    #[test]
    fn pod_contract() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Observation>();
        assert!(
            std::mem::size_of::<Observation>() <= 96,
            "Observation grew past a cache-line-friendly size: {} bytes",
            std::mem::size_of::<Observation>()
        );
    }

    #[test]
    fn accessors() {
        let eui: Eui64 = Eui64::from_mac("c8:0e:14:01:02:03".parse().unwrap());
        let source = eui.with_prefix64(0x2001_0db8_0000_0042);
        let obs = Observation {
            phase: Phase::Detection,
            tenant: 0,
            window: 3,
            seq: 9,
            target: "2001:db8:0:42::1234".parse().unwrap(),
            sent_at: SimTime::at(1, 2),
            response: Some(ResponseRecord {
                source,
                kind: ReplyKind::TimeExceeded,
            }),
        };
        assert_eq!(obs.source(), Some(source));
        assert_eq!(obs.eui64(), Some(eui));
        assert_eq!(obs.target_48().to_string(), "2001:db8::/48");
        let record = obs.record();
        assert_eq!(record.target, obs.target);
        assert_eq!(record.eui64(), Some(eui));
        let silent = Observation {
            response: None,
            ..obs
        };
        assert_eq!(silent.source(), None);
        assert_eq!(silent.eui64(), None);
    }
}
