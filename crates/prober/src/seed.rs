//! The seed traceroute campaign.
//!
//! The paper bootstraps its target selection from the CAIDA IPv6 Routed /48
//! Topology dataset: a traceroute to one target in every /48 of every
//! announced prefix /32 or smaller, collected more than a year before the
//! main measurements (§4). The seed's only role is to nominate /48 networks
//! whose *last responsive hop* carries an EUI-64 interface identifier.
//!
//! [`SeedCampaign::run`] reproduces that bootstrap against any measurement
//! backend ([`ProbeTransport`] + [`WorldView`]): it enumerates the /48s of
//! every prefix announced in the backend's RIB, traceroutes one
//! pseudo-random target in each, and records the last responsive hop.
//! Running it at an earlier [`SimTime`] than the main campaign reproduces the
//! staleness of the real seed data (devices have churned and prefixes have
//! rotated in the meantime), which is why the paper's §4.1 re-validates every
//! seed before using it.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use scent_ipv6::{Eui64, Ipv6Prefix};
use scent_simnet::det::hash2;
use scent_simnet::SimTime;

use crate::{ProbeTransport, WorldView};

/// One seed observation: the /48 probed and the last responsive hop seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedEntry {
    /// The /48 network the traceroute target was drawn from.
    pub target_48: Ipv6Prefix,
    /// The last responsive hop on the path toward the target.
    pub last_hop: std::net::Ipv6Addr,
}

/// The result of a seed traceroute campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedCampaign {
    /// All /48s that produced a responsive last hop.
    pub entries: Vec<SeedEntry>,
    /// Number of /48s probed (responsive or not).
    pub probed_48s: u64,
    /// The virtual time at which the campaign ran.
    pub(crate) collected_at: SimTime,
}

impl SeedCampaign {
    /// Run the seed campaign at time `t` against any backend.
    ///
    /// Every prefix announced in the backend's RIB is decomposed into /48s
    /// (prefixes longer than /48 are skipped); at most `max_48s_per_prefix`
    /// are probed per announcement, which bounds the cost for very large
    /// announcements. One deterministic pseudo-random target per /48 —
    /// keyed on the backend's world seed — is traced.
    ///
    /// Like a real routing table, the RIB holds each prefix once: if two
    /// providers were configured to announce the same prefix, it is probed
    /// once (under the surviving origin), not once per announcement.
    pub fn run<B: ProbeTransport + WorldView + ?Sized>(
        backend: &B,
        t: SimTime,
        max_48s_per_prefix: u64,
    ) -> Self {
        let seed = backend.world_seed();
        let mut entries = Vec::new();
        let mut probed = 0u64;
        for announced in backend.rib().entries() {
            let announced = announced.prefix;
            if announced.len() > 48 {
                continue;
            }
            let total = announced
                .num_subnets(48)
                .expect("48 not shorter than announcement");
            let count = total.min(max_48s_per_prefix as u128);
            for i in 0..count {
                let sub48 = announced.nth_subnet(48, i).expect("index bounded by count");
                probed += 1;
                // A pseudo-random /64 and IID inside the /48, fixed per /48 so
                // re-running the campaign is reproducible.
                let h = hash2(seed, sub48.network_bits() as u64, 0x7365_6564);
                let host_bits = ((h as u128) << 64) | hash2(seed, h, 1) as u128;
                let target = sub48.addr_with_host_bits(host_bits);
                if let Some(last_hop) = backend.last_hop(target, t, 32) {
                    entries.push(SeedEntry {
                        target_48: sub48,
                        last_hop,
                    });
                }
            }
        }
        SeedCampaign {
            entries,
            probed_48s: probed,
            collected_at: t,
        }
    }

    /// The /48 networks whose last hop carried an EUI-64 IID that was seen in
    /// no other /48 — the "unique responsive EUI-64 last hop" filter the
    /// paper applies to the CAIDA data (§4).
    pub fn unique_eui64_48s(&self) -> Vec<Ipv6Prefix> {
        let mut by_iid: HashMap<u64, Vec<Ipv6Prefix>> = HashMap::new();
        for entry in &self.entries {
            if let Some(eui) = Eui64::from_addr(entry.last_hop) {
                by_iid
                    .entry(eui.as_u64())
                    .or_default()
                    .push(entry.target_48);
            }
        }
        let mut out: Vec<Ipv6Prefix> = by_iid
            .into_values()
            .filter(|v| v.len() == 1)
            .map(|v| v[0])
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The distinct /32 supernets of the unique-EUI-64 /48s: the starting
    /// point of the expansion step (§4.1).
    pub fn seed_32s(&self) -> Vec<Ipv6Prefix> {
        let mut out: Vec<Ipv6Prefix> = self
            .unique_eui64_48s()
            .iter()
            .map(|p| p.supernet(32).expect("48 is longer than 32"))
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_simnet::config::{
        ProviderConfig, RotationPolicy, RotationPoolConfig, SlotLayout, WorldConfig,
    };
    use scent_simnet::Engine;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn tiny_world() -> WorldConfig {
        // Announce a /44 (16 /48s) with one /46 pool (4 /48s) populated.
        let provider = ProviderConfig::new(
            64500u32,
            "SeedNet",
            "DE",
            vec![p("2001:db8:a00::/44")],
            vec![RotationPoolConfig {
                prefix: p("2001:db8:a04::/46"),
                allocation_len: 56,
                occupancy: 0.8,
                layout: SlotLayout::Spread,
                rotation: RotationPolicy::Static,
            }],
        );
        let mut world = WorldConfig::new(vec![provider], 11);
        world.churn_fraction = 0.0;
        world
    }

    #[test]
    fn seed_campaign_finds_pool_48s() {
        let engine = Engine::build(tiny_world()).unwrap();
        let seed = SeedCampaign::run(&engine, SimTime::at(1, 12), 65_536);
        assert_eq!(seed.probed_48s, 16);
        // Only /48s covered by the pool can produce CPE last hops.
        let eui_48s = seed.unique_eui64_48s();
        assert!(!eui_48s.is_empty());
        for pfx in &eui_48s {
            assert!(p("2001:db8:a04::/46").contains_prefix(pfx));
        }
        // All of them roll up to the one announced /32... which here is the
        // /32 containing the /44.
        let seeds_32 = seed.seed_32s();
        assert_eq!(seeds_32, vec![p("2001:db8::/32")]);
    }

    #[test]
    fn max_48s_bound_is_respected() {
        let engine = Engine::build(tiny_world()).unwrap();
        let seed = SeedCampaign::run(&engine, SimTime::at(1, 12), 4);
        assert_eq!(seed.probed_48s, 4);
    }

    #[test]
    fn campaign_is_deterministic_and_backend_agnostic() {
        let engine = Engine::build(tiny_world()).unwrap();
        let a = SeedCampaign::run(&engine, SimTime::at(1, 12), 65_536);
        let b = SeedCampaign::run(&engine, SimTime::at(1, 12), 65_536);
        assert_eq!(a, b);
        // A `&dyn` backend runs the identical campaign.
        let dyn_backend: &dyn crate::MeasurementBackend = &engine;
        let c = SeedCampaign::run(dyn_backend, SimTime::at(1, 12), 65_536);
        assert_eq!(a, c);
    }

    #[test]
    fn privacy_only_world_produces_no_eui64_seeds() {
        let mut world = tiny_world();
        world.providers[0].eui64_fraction = 0.0;
        let engine = Engine::build(world).unwrap();
        let seed = SeedCampaign::run(&engine, SimTime::at(1, 12), 65_536);
        assert!(seed.unique_eui64_48s().is_empty());
        // Responses still exist; they just are not EUI-64.
        assert!(!seed.entries.is_empty());
    }
}
