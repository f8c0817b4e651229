//! Algorithm 2: rotation pool size inference (§3.2.2).
//!
//! For every EUI-64 identifier, collect the *response* addresses observed
//! over time (across scans). The span of their /64 routing prefixes is the
//! distance the device's delegation has travelled — the rotation pool it
//! moves within. The per-AS pool size is the median over that AS's
//! identifiers; an identifier seen in a single /64 contributes /64
//! (no observed rotation).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use scent_bgp::{Asn, Rib};
use scent_ipv6::{network_prefix64, Eui64, Ipv6Prefix};
use scent_prober::Scan;

use crate::stats::median;

/// Per-identifier and per-AS rotation pool inference.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RotationPoolInference {
    /// Inferred rotation-pool prefix length per EUI-64 identifier.
    pub per_iid: HashMap<Eui64, u8>,
    /// AS each identifier maps to.
    pub(crate) iid_asn: HashMap<Eui64, Asn>,
    /// Median inferred pool length per AS.
    pub per_as: HashMap<Asn, u8>,
    /// The lowest response address observed per identifier — the anchor an
    /// attacker uses to place the inferred pool in the address space.
    pub anchor: HashMap<Eui64, std::net::Ipv6Addr>,
    /// The encompassing BGP prefix length per AS (median over responses),
    /// plotted against the pool size in Figure 7.
    pub bgp_prefix_len: HashMap<Asn, u8>,
}

impl RotationPoolInference {
    /// Run Algorithm 2 over a set of scans (typically one per day).
    pub fn infer(scans: &[&Scan], rib: &Rib) -> Self {
        let mut spans: HashMap<Eui64, (u64, u64)> = HashMap::new();
        let mut anchor: HashMap<Eui64, std::net::Ipv6Addr> = HashMap::new();
        let mut iid_asn: HashMap<Eui64, Asn> = HashMap::new();
        let mut bgp_lens: HashMap<Asn, Vec<u8>> = HashMap::new();

        for scan in scans {
            for record in &scan.records {
                let Some(eui) = record.eui64() else { continue };
                let source = record.source().expect("eui64 implies a response");
                let p64 = network_prefix64(source);
                let entry = spans.entry(eui).or_insert((p64, p64));
                entry.0 = entry.0.min(p64);
                entry.1 = entry.1.max(p64);
                anchor
                    .entry(eui)
                    .and_modify(|a| {
                        if source < *a {
                            *a = source;
                        }
                    })
                    .or_insert(source);
                if let Some(rib_entry) = rib.lookup(source) {
                    iid_asn.entry(eui).or_insert(rib_entry.origin);
                    bgp_lens
                        .entry(rib_entry.origin)
                        .or_default()
                        .push(rib_entry.prefix.len());
                }
            }
        }

        let mut per_iid = HashMap::with_capacity(spans.len());
        let mut by_as: HashMap<Asn, Vec<u8>> = HashMap::new();
        for (eui, (min_p, max_p)) in &spans {
            let size = Ipv6Prefix::span_to_prefix_len(max_p - min_p);
            per_iid.insert(*eui, size);
            if let Some(asn) = iid_asn.get(eui) {
                by_as.entry(*asn).or_default().push(size);
            }
        }
        let per_as = by_as
            .into_iter()
            .filter_map(|(asn, sizes)| median(&sizes).map(|m| (asn, m)))
            .collect();
        let bgp_prefix_len = bgp_lens
            .into_iter()
            .filter_map(|(asn, lens)| median(&lens).map(|m| (asn, m)))
            .collect();

        RotationPoolInference {
            per_iid,
            iid_asn,
            per_as,
            anchor,
            bgp_prefix_len,
        }
    }

    /// The inferred pool length for an AS; /64 (i.e. "no rotation observed")
    /// when the AS was never observed.
    pub fn pool_for(&self, asn: Asn) -> u8 {
        self.per_as.get(&asn).copied().unwrap_or(64)
    }

    /// Whether the AS exhibits measurable rotation (pool larger than a /64).
    pub fn rotates(&self, asn: Asn) -> bool {
        self.pool_for(asn) < 64
    }

    /// The concrete pool prefix an attacker would scan for a given
    /// identifier: the inferred per-AS pool length anchored at the lowest
    /// observed response address.
    pub fn pool_prefix_for(&self, eui: Eui64) -> Option<Ipv6Prefix> {
        let asn = self.iid_asn.get(&eui)?;
        let len = self.pool_for(*asn);
        let anchor = self.anchor.get(&eui)?;
        Ipv6Prefix::new(*anchor, len).ok()
    }

    /// Per-AS inferred pool lengths (Figure 7's first CDF input).
    pub fn as_pool_sizes(&self) -> Vec<u8> {
        self.per_as.values().copied().collect()
    }

    /// Per-AS encompassing BGP prefix lengths (Figure 7's second CDF input).
    pub(crate) fn as_bgp_sizes(&self) -> Vec<u8> {
        self.bgp_prefix_len.values().copied().collect()
    }

    /// The median "cost saving" exponent of Figure 7: for each AS the
    /// difference between pool length and BGP prefix length in bits (≈16 in
    /// the paper: devices rotate within 1/2¹⁶ of the announced space).
    pub fn median_search_space_reduction_bits(&self) -> Option<u8> {
        let diffs: Vec<u8> = self
            .per_as
            .iter()
            .filter_map(|(asn, &pool)| {
                self.bgp_prefix_len
                    .get(asn)
                    .map(|&bgp| pool.saturating_sub(bgp))
            })
            .collect();
        median(&diffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::{Scanner, TargetGenerator};
    use scent_simnet::{scenarios, Engine, SimDuration, SimTime};

    /// Run a short daily campaign against the Versatel-like provider at /56
    /// granularity over its /56-allocation pools.
    fn versatel_campaign(days: u64) -> (Engine, Vec<Scan>) {
        let engine = Engine::build(scenarios::versatel_like(31)).unwrap();
        let generator = TargetGenerator::new(5);
        let mut targets = Vec::new();
        for pool in engine.pools() {
            if pool.config.allocation_len == 56 {
                targets.extend(generator.one_per_subnet(&pool.config.prefix, 56));
            }
        }
        let scanner = Scanner::at_paper_rate(11);
        let day = SimDuration::from_days(1);
        let scans = scanner.scans(&engine, &targets, SimTime::at(1, 9), days, day);
        (engine, scans)
    }

    #[test]
    fn single_snapshot_infers_no_rotation() {
        let (engine, scans) = versatel_campaign(1);
        let refs: Vec<&Scan> = scans.iter().collect();
        let inference = RotationPoolInference::infer(&refs, engine.rib());
        // With one snapshot every identifier sits in exactly one /64.
        assert!(inference.per_iid.values().all(|&len| len == 64));
        assert!(!inference.rotates(Asn(8881)));
    }

    #[test]
    fn multi_day_campaign_reveals_the_46_pool() {
        let (engine, scans) = versatel_campaign(20);
        let refs: Vec<&Scan> = scans.iter().collect();
        let inference = RotationPoolInference::infer(&refs, engine.rib());
        assert!(inference.rotates(Asn(8881)));
        let pool = inference.pool_for(Asn(8881));
        // Daily step of 96 slots over 20 days covers ~1920 of the 1024-slot
        // pool (wrapping), so the observed span approaches the true /46.
        assert!(pool <= 48, "inferred pool /{pool} should be /48 or wider");
        assert!(
            pool >= 44,
            "inferred pool /{pool} should not exceed the /44 span"
        );
        // The BGP prefix is the /32 announcement, giving a ≥12-bit search
        // space reduction.
        assert_eq!(inference.bgp_prefix_len.get(&Asn(8881)), Some(&32));
        let reduction = inference.median_search_space_reduction_bits().unwrap();
        assert!(reduction >= 12, "reduction={reduction}");
    }

    #[test]
    fn pool_prefix_anchors_contain_observations() {
        let (engine, scans) = versatel_campaign(10);
        let refs: Vec<&Scan> = scans.iter().collect();
        let inference = RotationPoolInference::infer(&refs, engine.rib());
        let mut checked = 0;
        for (&eui, &_len) in inference.per_iid.iter().take(50) {
            let pool = inference.pool_prefix_for(eui).unwrap();
            let anchor = inference.anchor[&eui];
            assert!(pool.contains(anchor));
            checked += 1;
        }
        assert!(checked > 0);
        // Unknown identifier has no pool.
        let unknown = Eui64::from_mac("00:11:22:33:44:55".parse().unwrap());
        assert_eq!(inference.pool_prefix_for(unknown), None);
    }

    #[test]
    fn static_provider_pools_are_64() {
        let engine = Engine::build(scenarios::starcat_like(32)).unwrap();
        let generator = TargetGenerator::new(5);
        let mut targets = Vec::new();
        for pool in engine.pools() {
            targets.extend(generator.one_per_subnet(&pool.config.prefix, 64));
        }
        let scanner = Scanner::at_paper_rate(11);
        let day = SimDuration::from_days(1);
        let scans = scanner.scans(&engine, &targets, SimTime::at(1, 9), 5, day);
        let refs: Vec<&Scan> = scans.iter().collect();
        let inference = RotationPoolInference::infer(&refs, engine.rib());
        assert_eq!(inference.pool_for(Asn(4713)), 64);
        assert!(!inference.rotates(Asn(4713)));
    }

    #[test]
    fn default_inference_is_conservative() {
        let inference = RotationPoolInference::default();
        assert_eq!(inference.pool_for(Asn(1)), 64);
        assert!(!inference.rotates(Asn(1)));
        assert!(inference.as_pool_sizes().is_empty());
        assert!(inference.as_bgp_sizes().is_empty());
        assert_eq!(inference.median_search_space_reduction_bits(), None);
    }
}
