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
//! * [`zmap6`] — the scanner itself, one scan or a multi-day series
//!   ([`Scanner::scans`]).
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
pub use rate::{ProbePacer, QueueModel, QueuePacer};
pub use recorded::{ProbeLog, RecordedBackend, RecordedTrace, RecordedWorld, RecordingBackend};
pub use records::{ProbeRecord, ResponseRecord, Scan};
pub use seed::{SeedCampaign, SeedEntry};
pub use targets::{slice_bounds, StreamedTarget, TargetGenerator, TargetStream};
pub use yarrp::TraceRecord;
pub use zmap6::{Scanner, ScannerConfig};

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

    /// The last responsive hop of [`trace`](ProbeTransport::trace)`(target,
    /// t, max_hops)`, as `TraceRecord::from_hops` derives it. A backend
    /// that can find it without building the hop list overrides this.
    fn last_hop(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Option<Ipv6Addr> {
        TraceRecord::from_hops(target, self.trace(target, t, max_hops)).last_hop
    }
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

    fn last_hop(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Option<Ipv6Addr> {
        Engine::last_hop(self, target, t, max_hops)
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
    use scent_simnet::{scenarios, CpeId};

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

    /// The engine's `last_hop` is the trace's last responsive hop, across
    /// hop limits below, at and above the core depth, with hops lost, for
    /// targets in pools, in announced space no pool holds and off the RIB.
    #[test]
    fn engine_last_hop_is_the_traces_last_hop() {
        let mut world = scenarios::versatel_like(3);
        world.providers[0].loss = 0.3;
        let engine = Engine::build(world).unwrap();
        let core_hops = engine.config().providers[0].core_hops;
        let generator = TargetGenerator::new(5);
        let announced = engine.rib().entries()[0].prefix;
        let outside_pools: Vec<Ipv6Addr> = (generator.one_per_subnet(&announced, 44).into_iter())
            .filter(|&a| engine.pools().iter().all(|p| !p.config.prefix.contains(a)))
            .take(40)
            .collect();
        let off_rib = ["3fff::1", "2a02:1234::1"].map(|a| a.parse::<Ipv6Addr>().unwrap());

        let (mut answered, mut lost_top) = (0, 0);
        for hour in [2u64, 4, 12] {
            let t = SimTime::at(3, hour);
            // Inside the delegations devices hold now, and beside them.
            let in_pools = (0..engine.pools().len() as u32)
                .flat_map(|pool| (0..20).map(move |index| CpeId { pool, index }))
                .filter_map(|id| engine.current_delegation(id, t))
                .flat_map(|d| [d.addr_with_host_bits(0x1234), d.last_address()]);
            let targets: Vec<Ipv6Addr> = (in_pools.chain(outside_pools.iter().copied()))
                .chain(off_rib)
                .collect();
            for &target in &targets {
                for max_hops in [0, core_hops - 1, core_hops, core_hops + 1, 32] {
                    let hops = engine.trace(target, t, max_hops);
                    let expected = TraceRecord::from_hops(target, hops.clone()).last_hop;
                    assert_eq!(engine.last_hop(target, t, max_hops), expected);
                    let backend: &dyn MeasurementBackend = &engine;
                    assert_eq!(backend.last_hop(target, t, max_hops), expected);
                    answered += usize::from(hops.len() > core_hops as usize);
                    lost_top += usize::from(hops.last().is_some_and(|h| h.addr.is_none()));
                }
            }
        }
        assert!(answered > 0 && lost_top > 0, "{answered} {lost_top}");
    }
}
