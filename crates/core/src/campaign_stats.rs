//! Aggregate statistics over the multi-week daily campaign (§5).
//!
//! The 44-day campaign of the paper produced 110M unique EUI-64 addresses
//! carrying only 9M distinct interface identifiers — the smoking gun that the
//! same devices are being seen under many rotated prefixes. This module
//! computes those aggregates and the per-identifier distinct-/64 distribution
//! of Figure 8, plus the per-IID and per-AS allocation-size CDFs of Figure 5
//! and the pool-vs-BGP CDFs of Figure 7 (by delegating to Algorithms 1
//! and 2).

use std::collections::{HashMap, HashSet};
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_bgp::Rib;
use scent_ipv6::Eui64;
use scent_prober::Scan;

use crate::rotation_pool::RotationPoolInference;
use crate::stats::Cdf;

/// Aggregates over a whole campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Probes sent across all scans.
    pub probes_sent: u64,
    /// Responses received across all scans.
    pub responses: u64,
    /// Distinct response addresses.
    pub unique_addresses: usize,
    /// Distinct EUI-64 response addresses.
    pub unique_eui64_addresses: usize,
    /// Distinct EUI-64 interface identifiers.
    pub unique_iids: usize,
    /// Number of distinct /64 prefixes each identifier was observed in
    /// (Figure 8's distribution).
    pub prefixes_per_iid: HashMap<Eui64, usize>,
}

impl CampaignStats {
    /// Compute the aggregates over a set of daily scans.
    pub fn compute(scans: &[&Scan]) -> Self {
        let mut unique_addresses: HashSet<Ipv6Addr> = HashSet::new();
        let mut unique_eui64: HashSet<Ipv6Addr> = HashSet::new();
        let mut per_iid_prefixes: HashMap<Eui64, HashSet<u64>> = HashMap::new();
        let mut probes = 0u64;
        let mut responses = 0u64;
        for scan in scans {
            probes += scan.probes_sent() as u64;
            responses += scan.responses() as u64;
            for record in &scan.records {
                let Some(source) = record.source() else {
                    continue;
                };
                unique_addresses.insert(source);
                if let Some(eui) = Eui64::from_addr(source) {
                    unique_eui64.insert(source);
                    per_iid_prefixes
                        .entry(eui)
                        .or_default()
                        .insert(scent_ipv6::network_prefix64(source));
                }
            }
        }
        let prefixes_per_iid = per_iid_prefixes
            .iter()
            .map(|(eui, prefixes)| (*eui, prefixes.len()))
            .collect();
        CampaignStats {
            probes_sent: probes,
            responses,
            unique_addresses: unique_addresses.len(),
            unique_eui64_addresses: unique_eui64.len(),
            unique_iids: per_iid_prefixes.len(),
            prefixes_per_iid,
        }
    }

    /// The CDF of distinct /64 prefixes per identifier (Figure 8).
    pub fn prefixes_per_iid_cdf(&self) -> Cdf {
        Cdf::from_samples(self.prefixes_per_iid.values().map(|&n| n as f64))
    }

    /// The fraction of identifiers observed in more than one /64 — the
    /// paper's headline "~70% rotate at least once".
    pub fn fraction_multi_prefix(&self) -> f64 {
        if self.prefixes_per_iid.is_empty() {
            return 0.0;
        }
        self.prefixes_per_iid.values().filter(|&&n| n > 1).count() as f64
            / self.prefixes_per_iid.len() as f64
    }

    /// Figure 7's two CDF inputs: per-AS inferred rotation-pool sizes and
    /// per-AS encompassing BGP prefix sizes, computed by Algorithm 2.
    pub fn pool_vs_bgp_cdfs(scans: &[&Scan], rib: &Rib) -> (Cdf, Cdf) {
        let inference = RotationPoolInference::infer(scans, rib);
        let pool = Cdf::from_samples(inference.as_pool_sizes().iter().map(|&s| s as f64));
        let bgp = Cdf::from_samples(inference.as_bgp_sizes().iter().map(|&s| s as f64));
        (pool, bgp)
    }

    /// The ratio of unique EUI-64 addresses to unique identifiers: how many
    /// rotated addresses each device was seen under on average.
    pub fn addresses_per_iid(&self) -> f64 {
        if self.unique_iids == 0 {
            return 0.0;
        }
        self.unique_eui64_addresses as f64 / self.unique_iids as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::{Scanner, TargetGenerator};
    use scent_simnet::{scenarios, Engine, SimDuration, SimTime};

    fn versatel_campaign(days: u64) -> (Engine, Vec<Scan>) {
        let engine = Engine::build(scenarios::versatel_like(81)).unwrap();
        let generator = TargetGenerator::new(10);
        let mut targets = Vec::new();
        for pool in engine.pools() {
            if pool.config.allocation_len == 56 {
                targets.extend(generator.one_per_subnet(&pool.config.prefix, 56));
            }
        }
        let scanner = Scanner::at_paper_rate(23);
        let day = SimDuration::from_days(1);
        let scans = scanner.scans(&engine, &targets, SimTime::at(1, 9), days, day);
        (engine, scans)
    }

    #[test]
    fn rotation_multiplies_addresses_over_iids() {
        let (_engine, scans) = versatel_campaign(10);
        let refs: Vec<&Scan> = scans.iter().collect();
        let stats = CampaignStats::compute(&refs);
        assert!(stats.probes_sent > 0);
        assert!(stats.responses > 0);
        assert!(stats.unique_iids > 100);
        // Ten days of daily rotation: every observed device appears under
        // several prefixes, so addresses far exceed identifiers.
        assert!(stats.unique_eui64_addresses > stats.unique_iids * 3);
        assert!(stats.addresses_per_iid() > 3.0);
        assert!(stats.fraction_multi_prefix() > 0.7);
        let cdf = stats.prefixes_per_iid_cdf();
        assert!(cdf.median().unwrap() > 1.0);
        // Non-EUI addresses (the 15% privacy-addressed CPE) also appear.
        assert!(stats.unique_addresses >= stats.unique_eui64_addresses);
    }

    #[test]
    fn single_day_campaign_shows_no_rotation() {
        let (_engine, scans) = versatel_campaign(1);
        let refs: Vec<&Scan> = scans.iter().collect();
        let stats = CampaignStats::compute(&refs);
        assert_eq!(stats.fraction_multi_prefix(), 0.0);
        assert!(stats.prefixes_per_iid.values().all(|&n| n == 1));
        assert!((stats.addresses_per_iid() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_and_pool_cdfs_are_populated() {
        let (engine, scans) = versatel_campaign(8);
        let refs: Vec<&Scan> = scans.iter().collect();
        let allocation = crate::AllocationInference::infer(&refs, engine.rib());
        assert!(!allocation.iid_sizes().is_empty());
        assert_eq!(allocation.as_sizes().len(), 1); // one AS in this world
        let (pool_cdf, bgp_cdf) = CampaignStats::pool_vs_bgp_cdfs(&refs, engine.rib());
        assert_eq!(pool_cdf.len(), 1);
        assert_eq!(bgp_cdf.len(), 1);
        // Pool (/46-ish) is numerically larger than the BGP /32.
        assert!(pool_cdf.median().unwrap() > bgp_cdf.median().unwrap());
    }

    #[test]
    fn empty_campaign_stats_are_zero() {
        let stats = CampaignStats::compute(&[]);
        assert_eq!(stats.unique_addresses, 0);
        assert_eq!(stats.addresses_per_iid(), 0.0);
        assert_eq!(stats.fraction_multi_prefix(), 0.0);
        assert!(stats.prefixes_per_iid_cdf().is_empty());
    }
}
