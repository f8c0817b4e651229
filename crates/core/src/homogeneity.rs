//! Per-AS CPE manufacturer homogeneity (§5.1, Figure 4).
//!
//! Every EUI-64 identifier embeds the CPE's MAC address, whose OUI identifies
//! the manufacturer. Grouping the unique identifiers observed in a campaign
//! by origin AS and by manufacturer yields each AS's *homogeneity index*: the
//! share of its devices built by its most common vendor. The paper finds that
//! more than half of the 87 ASes with ≥100 identifiers have an index above
//! 0.9.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use scent_bgp::{Asn, Rib};
use scent_ipv6::Eui64;
use scent_oui::OuiRegistry;
use scent_prober::Scan;

use crate::stats::Cdf;

/// Homogeneity of a single AS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsHomogeneity {
    /// The AS.
    pub asn: Asn,
    /// Unique EUI-64 identifiers observed in the AS.
    pub unique_iids: usize,
    /// The most common manufacturer and its device count.
    pub dominant: (String, usize),
    /// The homogeneity index: dominant count / unique identifiers.
    pub homogeneity: f64,
    /// Number of distinct manufacturers observed in the AS.
    pub manufacturers: usize,
}

/// The homogeneity analysis over a whole campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HomogeneityReport {
    /// Per-AS results, for ASes meeting the minimum-identifier threshold.
    pub per_as: Vec<AsHomogeneity>,
    /// ASes excluded for having too few identifiers.
    pub(crate) excluded_ases: usize,
    /// Total distinct manufacturers observed across all ASes.
    pub total_manufacturers: usize,
}

impl HomogeneityReport {
    /// Analyse one or more scans.
    pub fn analyse(scans: &[&Scan], rib: &Rib, registry: &OuiRegistry, min_iids: usize) -> Self {
        // asn -> set of unique EUI-64 identifiers.
        let mut iids_by_as: HashMap<Asn, HashSet<Eui64>> = HashMap::new();
        for scan in scans {
            for record in &scan.records {
                let Some(eui) = record.eui64() else { continue };
                let source = record.source().expect("eui64 implies response");
                if let Some(asn) = rib.origin(source) {
                    iids_by_as.entry(asn).or_default().insert(eui);
                }
            }
        }

        let mut per_as = Vec::new();
        let mut excluded = 0usize;
        let mut all_manufacturers: HashSet<String> = HashSet::new();
        for (asn, iids) in &iids_by_as {
            // Count devices per manufacturer within the AS.
            let mut by_vendor: HashMap<String, usize> = HashMap::new();
            for eui in iids {
                let name = registry
                    .lookup_eui64(*eui)
                    .unwrap_or("(unregistered OUI)")
                    .to_string();
                all_manufacturers.insert(name.clone());
                *by_vendor.entry(name).or_insert(0) += 1;
            }
            if iids.len() < min_iids {
                excluded += 1;
                continue;
            }
            let (dominant_name, dominant_count) = by_vendor
                .iter()
                .max_by_key(|(name, count)| (**count, std::cmp::Reverse((*name).clone())))
                .map(|(name, count)| (name.clone(), *count))
                .expect("at least one vendor when iids is non-empty");
            per_as.push(AsHomogeneity {
                asn: *asn,
                unique_iids: iids.len(),
                homogeneity: dominant_count as f64 / iids.len() as f64,
                dominant: (dominant_name, dominant_count),
                manufacturers: by_vendor.len(),
            });
        }
        per_as.sort_by_key(|h| h.asn);

        HomogeneityReport {
            per_as,
            excluded_ases: excluded,
            total_manufacturers: all_manufacturers.len(),
        }
    }

    /// The homogeneity CDF across ASes (Figure 4).
    pub fn cdf(&self) -> Cdf {
        Cdf::from_samples(self.per_as.iter().map(|h| h.homogeneity))
    }

    /// Fraction of included ASes with homogeneity above `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.per_as.is_empty() {
            return 0.0;
        }
        self.per_as
            .iter()
            .filter(|h| h.homogeneity > threshold)
            .count() as f64
            / self.per_as.len() as f64
    }

    /// The entry for a particular AS, if it met the threshold.
    pub fn for_as(&self, asn: Asn) -> Option<&AsHomogeneity> {
        self.per_as.iter().find(|h| h.asn == asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_oui::builtin_registry;
    use scent_prober::{Scanner, TargetGenerator};
    use scent_simnet::{scenarios, Engine, SimTime, WorldScale};

    fn scan_world(world: scent_simnet::WorldConfig) -> (Engine, Scan) {
        let engine = Engine::build(world).unwrap();
        let generator = TargetGenerator::new(8);
        let mut targets = Vec::new();
        for pool in engine.pools() {
            let granularity = pool.config.allocation_len;
            targets.extend(generator.one_per_subnet(&pool.config.prefix, granularity));
        }
        let scan = Scanner::at_paper_rate(19).scan(&engine, &targets, SimTime::at(1, 9));
        (engine, scan)
    }

    #[test]
    fn versatel_is_avm_dominated() {
        let (engine, scan) = scan_world(scenarios::versatel_like(61));
        let report = HomogeneityReport::analyse(&[&scan], engine.rib(), &builtin_registry(), 50);
        let versatel = report.for_as(Asn(8881)).expect("AS8881 included");
        assert_eq!(versatel.dominant.0, "AVM GmbH");
        assert!(
            versatel.homogeneity > 0.85,
            "homogeneity={}",
            versatel.homogeneity
        );
        assert!(versatel.manufacturers >= 2);
        assert!(versatel.unique_iids >= 50);
    }

    #[test]
    fn world_homogeneity_distribution_matches_paper_shape() {
        let world = scenarios::paper_world(62, WorldScale::small());
        let (engine, scan) = scan_world(world);
        let report = HomogeneityReport::analyse(&[&scan], engine.rib(), &builtin_registry(), 20);
        assert!(report.per_as.len() >= 5, "ASes={}", report.per_as.len());
        // The paper: >half of ASes above 0.9, three-quarters above 0.67, and
        // even the least homogeneous AS above ~1/3.
        assert!(report.fraction_above(0.9) >= 0.3);
        assert!(report.fraction_above(0.67) >= 0.6);
        assert!(report.per_as.iter().all(|h| h.homogeneity > 0.3));
        let cdf = report.cdf();
        assert_eq!(cdf.len(), report.per_as.len());
        assert!(cdf.median().unwrap() > 0.6);
    }

    #[test]
    fn threshold_excludes_small_ases() {
        let (engine, scan) = scan_world(scenarios::entel_like(63));
        let strict =
            HomogeneityReport::analyse(&[&scan], engine.rib(), &builtin_registry(), 1_000_000);
        assert!(strict.per_as.is_empty());
        assert_eq!(strict.excluded_ases, 1);
        assert_eq!(strict.fraction_above(0.5), 0.0);
        let lenient = HomogeneityReport::analyse(&[&scan], engine.rib(), &builtin_registry(), 1);
        assert_eq!(lenient.per_as.len(), 1);
        assert_eq!(lenient.excluded_ases, 0);
    }

    #[test]
    fn empty_input_is_empty_report() {
        let report = HomogeneityReport::default();
        assert!(report.cdf().is_empty());
        assert_eq!(report.fraction_above(0.5), 0.0);
        assert!(report.for_as(Asn(1)).is_none());
    }
}
