//! yarrp-style traceroute records.
//!
//! yarrp (Beverly, IMC 2016) performs high-speed topology discovery by
//! randomizing `(target, TTL)` probes and reconstructing paths statelessly.
//! The reproduction only needs its end product — the last responsive hop per
//! target, which for targets inside customer delegations is the CPE WAN
//! interface — so a [`TraceRecord`] keeps one
//! [`ProbeTransport::trace`](crate::ProbeTransport::trace) hop list plus the
//! last responsive hop derived from it. The record/replay backends store
//! it; the seed campaign ([`SeedCampaign`](crate::SeedCampaign)) asks a
//! backend for the last hop alone
//! ([`ProbeTransport::last_hop`](crate::ProbeTransport::last_hop)), whose
//! default derives it here.

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_simnet::TraceHop;

/// The result of tracerouting one target.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The traceroute destination.
    pub target: Ipv6Addr,
    /// All hops elicited, in TTL order.
    pub hops: Vec<TraceHop>,
    /// The last responsive hop, if any hop responded.
    pub last_hop: Option<Ipv6Addr>,
}

impl TraceRecord {
    /// Build a record from a raw hop list, deriving the last responsive hop.
    /// The single definition of "last responsive hop" every consumer (seed
    /// campaign, record/replay) shares.
    pub(crate) fn from_hops(target: Ipv6Addr, hops: Vec<TraceHop>) -> Self {
        let last_hop = hops.iter().filter_map(|h| h.addr).next_back();
        TraceRecord {
            target,
            hops,
            last_hop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::TargetGenerator;
    use crate::ProbeTransport;
    use scent_ipv6::Eui64;
    use scent_simnet::{scenarios, Engine, SimTime};

    fn engine() -> Engine {
        Engine::build(scenarios::versatel_like(5)).unwrap()
    }

    /// Trace every target through the transport seam, one record each.
    fn trace_all(engine: &Engine, targets: &[Ipv6Addr]) -> Vec<TraceRecord> {
        let transport: &dyn ProbeTransport = engine;
        targets
            .iter()
            .map(|&target| {
                TraceRecord::from_hops(target, transport.trace(target, SimTime::at(1, 10), 32))
            })
            .collect()
    }

    #[test]
    fn traceroutes_reach_the_periphery() {
        let engine = engine();
        // One target per /56 of one /46 pool of AS8881.
        let pool = engine.pools()[3].config.prefix;
        let targets = TargetGenerator::new(2).one_per_subnet(&pool, 56);
        let records = trace_all(&engine, &targets);
        assert_eq!(records.len(), targets.len());
        let with_cpe: Vec<_> = (records.iter())
            .filter(|r| r.last_hop.is_some_and(Eui64::addr_is_eui64))
            .collect();
        assert!(!with_cpe.is_empty());
        for record in &with_cpe {
            // The CPE hop is one past the provider core.
            assert!(record.hops.len() > 1);
            assert_eq!(record.last_hop, record.hops.last().unwrap().addr);
        }
    }

    #[test]
    fn unrouted_targets_produce_empty_traces() {
        let records = trace_all(&engine(), &["3fff::1".parse().unwrap()]);
        assert_eq!(records.len(), 1);
        assert!(records[0].hops.is_empty());
        assert_eq!(records[0].last_hop, None);
    }

    #[test]
    fn tracing_is_deterministic() {
        let engine = engine();
        let pool = engine.pools()[3].config.prefix;
        let targets = TargetGenerator::new(2).one_per_subnet(&pool, 56);
        assert_eq!(trace_all(&engine, &targets), trace_all(&engine, &targets));
    }
}
