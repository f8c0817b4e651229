//! High-speed active probing over a probe transport.
//!
//! The paper's measurements are driven by two tools: the zmap6 IPv6
//! extensions of zmap (stateless, randomized-order, high-rate ICMPv6 Echo
//! Request scanning) and yarrp (stateless randomized traceroute). This crate
//! reimplements the scanning semantics of both against an abstract
//! *measurement backend*, described by two traits:
//!
//! * [`ProbeTransport`] — anything that can answer probes and traceroutes
//!   (the data plane);
//! * [`WorldView`] — anything that can answer the control-plane questions the
//!   methodology needs (the vantage address, the BGP RIB of announced
//!   prefixes, AS metadata, and the campaign seed).
//!
//! In this repository the canonical backend is the simulated Internet of
//! `scent-simnet`, and [`RecordedBackend`] replays previously captured probe
//! logs; the same scanner and pipeline logic would drive raw sockets plus a
//! Routeviews table. Every generic probing entry point is `?Sized`-friendly,
//! so `&dyn MeasurementBackend` trait objects work wherever a concrete
//! backend does.
//!
//! * [`permutation`] — zmap's trick of iterating targets in a pseudo-random
//!   but stateless and reproducible order (a full-cycle permutation derived
//!   from the scan seed). The paper probes "the same addresses every 24 hours
//!   in the same order (same zmap random seed)"; [`RandomPermutation`] is
//!   what makes that reproducibility possible.
//! * [`rate`] — pacing at a configurable packets-per-second budget against
//!   the virtual clock (the paper probes at 10 kpps), fixed-rate or with
//!   deterministic virtual-queue AIMD feedback.
//! * [`targets`] — target generation: one pseudo-random IID per subnet of a
//!   prefix at a chosen granularity (/64, /56, per-allocation, …).
//! * [`zmap6`] — the scanner itself and multi-day campaign scheduling.
//! * [`yarrp`] — the traceroute record (hop list, last responsive hop) the
//!   seed campaign and the record/replay backends share.
//! * [`seed`] — the CAIDA-style seed traceroute campaign that bootstraps the
//!   discovery pipeline.
//! * [`recorded`] — record/replay backends: capture a live run's probe log,
//!   then replay it as a [`MeasurementBackend`] of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod permutation;
pub mod rate;
pub mod recorded;
pub mod records;
pub mod seed;
pub mod targets;
pub mod yarrp;
pub mod zmap6;

pub use permutation::RandomPermutation;
pub use rate::{FeedbackPacer, ProbePacer, QueueModel, QueuePacer, RateTransition, VirtualQueue};
pub use recorded::{ProbeLog, RecordedBackend, RecordedTrace, RecordedWorld, RecordingBackend};
pub use records::{ProbeRecord, ResponseRecord, Scan};
pub use seed::{SeedCampaign, SeedEntry};
pub use targets::{slice_bounds, StreamedTarget, TargetGenerator, TargetStream};
pub use yarrp::TraceRecord;
pub use zmap6::{Campaign, Scanner, ScannerConfig};

use std::net::Ipv6Addr;

use scent_bgp::{AsRegistry, Rib};
use scent_simnet::{Engine, ProbeReply, SimTime, TraceHop};

/// Anything that can answer probes: the boundary between the measurement
/// tooling and the network (real or simulated) underneath it.
pub trait ProbeTransport: Sync {
    /// Send one ICMPv6 Echo Request to `target` at virtual time `t` and
    /// return the elicited response, if any.
    fn probe(&self, target: Ipv6Addr, t: SimTime) -> Option<ProbeReply>;

    /// Run a hop-limited traceroute toward `target`.
    fn trace(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Vec<TraceHop>;
}

/// The control-plane side of a measurement backend: where the measurement
/// runs from, what the routing table says, and the metadata the analyses
/// join against. Together with [`ProbeTransport`] this is everything the
/// discovery pipeline and the streaming monitor need — they never touch a
/// concrete engine type.
pub trait WorldView: Sync {
    /// The measurement vantage point's source address.
    fn vantage(&self) -> Ipv6Addr;

    /// The BGP RIB: every announced prefix and its origin AS. This doubles as
    /// the announced-prefix enumeration the seed campaign walks and the
    /// shard-routing key space of the streaming engine.
    fn rib(&self) -> &Rib;

    /// Metadata (name, country) for the ASes in the RIB.
    fn as_registry(&self) -> &AsRegistry;

    /// The world/campaign seed deterministic target derivation is keyed on.
    fn world_seed(&self) -> u64;
}

/// A complete measurement backend: probe data plane plus control-plane world
/// view. Blanket-implemented for everything that has both halves, and
/// dyn-safe, so heterogeneous backends can sit behind
/// `&dyn MeasurementBackend`.
pub trait MeasurementBackend: ProbeTransport + WorldView {}

impl<T: ProbeTransport + WorldView + ?Sized> MeasurementBackend for T {}

impl ProbeTransport for Engine {
    fn probe(&self, target: Ipv6Addr, t: SimTime) -> Option<ProbeReply> {
        Engine::probe(self, target, t)
    }

    fn trace(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Vec<TraceHop> {
        Engine::trace(self, target, t, max_hops)
    }
}

impl WorldView for Engine {
    fn vantage(&self) -> Ipv6Addr {
        Engine::vantage(self)
    }

    fn rib(&self) -> &Rib {
        Engine::rib(self)
    }

    fn as_registry(&self) -> &AsRegistry {
        Engine::as_registry(self)
    }

    fn world_seed(&self) -> u64 {
        self.config().seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_simnet::scenarios;

    #[test]
    fn dyn_measurement_backend_probes_and_views() {
        let engine = Engine::build(scenarios::versatel_like(3)).unwrap();
        let backend: &dyn MeasurementBackend = &engine;
        assert_eq!(backend.vantage(), engine.vantage());
        assert_eq!(backend.world_seed(), engine.config().seed);
        assert_eq!(backend.rib().len(), engine.rib().len());
        // Supertrait methods dispatch through the trait object.
        let pool = engine.pools()[0].config.prefix;
        let target = TargetGenerator::new(1).random_addr_in(&pool);
        let t = SimTime::at(1, 12);
        assert_eq!(backend.probe(target, t), engine.probe(target, t));
        assert_eq!(
            backend.trace(target, t, 32).len(),
            engine.trace(target, t, 32).len()
        );
    }
}
