//! Algorithm 1: customer prefix allocation size inference (§3.2.1).
//!
//! For every EUI-64 interface identifier observed in probe responses, collect
//! the *target* addresses that elicited a response carrying that identifier.
//! The span of those targets' /64 routing prefixes reveals how large a block
//! is internally routed by the same CPE — the customer's allocation. The
//! per-AS allocation size is the median over all of that AS's identifiers.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use scent_bgp::{Asn, Rib};
use scent_ipv6::{network_prefix64, Eui64, Ipv6Prefix};
use scent_prober::Scan;

use crate::stats::{median, mode};

/// Per-identifier and per-AS allocation size inference.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AllocationInference {
    /// Inferred allocation prefix length per EUI-64 identifier.
    pub per_iid: HashMap<Eui64, u8>,
    /// AS each identifier was observed in (via RIB lookup of the response).
    pub(crate) iid_asn: HashMap<Eui64, Asn>,
    /// Median inferred allocation prefix length per AS.
    pub per_as: HashMap<Asn, u8>,
}

impl AllocationInference {
    /// Run Algorithm 1 over one or more scans.
    ///
    /// Multiple scans simply contribute more `<response, target>` pairs; the
    /// paper runs the inference over a single day of probing, but pooling
    /// several days only tightens the estimate for sparsely probed devices.
    pub fn infer(scans: &[&Scan], rib: &Rib) -> Self {
        // eui -> (min target prefix64, max target prefix64)
        let mut spans: HashMap<Eui64, (u64, u64)> = HashMap::new();
        let mut iid_asn: HashMap<Eui64, Asn> = HashMap::new();
        for scan in scans {
            for (target, source, eui) in scan.eui64_pairs() {
                let p64 = network_prefix64(target);
                let entry = spans.entry(eui).or_insert((p64, p64));
                entry.0 = entry.0.min(p64);
                entry.1 = entry.1.max(p64);
                if let Some(asn) = rib.origin(source) {
                    iid_asn.entry(eui).or_insert(asn);
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

        AllocationInference {
            per_iid,
            iid_asn,
            per_as,
        }
    }

    /// Alternative per-AS aggregation using the mode instead of the median
    /// (compared in the `aggregation` ablation bench).
    pub fn per_as_mode(&self) -> HashMap<Asn, u8> {
        let mut by_as: HashMap<Asn, Vec<u8>> = HashMap::new();
        for (eui, size) in &self.per_iid {
            if let Some(asn) = self.iid_asn.get(eui) {
                by_as.entry(*asn).or_default().push(*size);
            }
        }
        by_as
            .into_iter()
            .filter_map(|(asn, sizes)| mode(&sizes).map(|m| (asn, m)))
            .collect()
    }

    /// The inferred allocation length for an AS, defaulting to /64 (the most
    /// conservative choice — probe every /64) when the AS was never observed.
    pub fn allocation_for(&self, asn: Asn) -> u8 {
        self.per_as.get(&asn).copied().unwrap_or(64)
    }

    /// All per-IID inferred sizes, as a plain vector (Figure 5a's CDF input).
    pub fn iid_sizes(&self) -> Vec<u8> {
        self.per_iid.values().copied().collect()
    }

    /// All per-AS inferred sizes (Figure 5b's CDF input).
    pub fn as_sizes(&self) -> Vec<u8> {
        self.per_as.values().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::{Scanner, TargetGenerator};
    use scent_simnet::{scenarios, Engine, SimTime};

    fn scan_provider(world: scent_simnet::WorldConfig, granularity: u8) -> (Engine, Scan) {
        let engine = Engine::build(world).unwrap();
        let generator = TargetGenerator::new(3);
        let mut targets = Vec::new();
        for pool in engine.pools() {
            targets.extend(generator.one_per_subnet(&pool.config.prefix, granularity));
        }
        let scanner = Scanner::at_paper_rate(9);
        let scan = scanner.scan(&engine, &targets, SimTime::at(1, 8));
        (engine, scan)
    }

    #[test]
    fn infers_56_for_entel_like_provider() {
        let (engine, scan) = scan_provider(scenarios::entel_like(21), 64);
        let inference = AllocationInference::infer(&[&scan], engine.rib());
        assert!(!inference.per_iid.is_empty());
        let asn = Asn(6568);
        assert_eq!(inference.per_as.get(&asn), Some(&56));
        assert_eq!(inference.allocation_for(asn), 56);
        // Nearly all identifiers individually infer /56 as well.
        let exact = inference.per_iid.values().filter(|&&s| s == 56).count();
        assert!(exact * 10 >= inference.per_iid.len() * 8);
    }

    #[test]
    fn infers_60_for_bhtelecom_like_provider() {
        let (engine, scan) = scan_provider(scenarios::bhtelecom_like(22), 64);
        let inference = AllocationInference::infer(&[&scan], engine.rib());
        assert_eq!(inference.per_as.get(&Asn(9146)), Some(&60));
    }

    #[test]
    fn infers_64_for_starcat_like_provider() {
        let (engine, scan) = scan_provider(scenarios::starcat_like(23), 64);
        let inference = AllocationInference::infer(&[&scan], engine.rib());
        assert_eq!(inference.per_as.get(&Asn(4713)), Some(&64));
    }

    #[test]
    fn unknown_as_defaults_to_64() {
        let inference = AllocationInference::default();
        assert_eq!(inference.allocation_for(Asn(65_000)), 64);
        assert!(inference.iid_sizes().is_empty());
        assert!(inference.as_sizes().is_empty());
    }

    #[test]
    fn mode_aggregation_close_to_median_for_clean_provider() {
        let (engine, scan) = scan_provider(scenarios::entel_like(24), 64);
        let inference = AllocationInference::infer(&[&scan], engine.rib());
        let mode_map = inference.per_as_mode();
        assert_eq!(mode_map.get(&Asn(6568)), inference.per_as.get(&Asn(6568)));
    }

    #[test]
    fn pooling_scans_only_adds_information() {
        let (engine, scan) = scan_provider(scenarios::entel_like(25), 64);
        let single = AllocationInference::infer(&[&scan], engine.rib());
        let pooled = AllocationInference::infer(&[&scan, &scan], engine.rib());
        assert_eq!(single.per_as, pooled.per_as);
        assert_eq!(single.per_iid.len(), pooled.per_iid.len());
    }
}
