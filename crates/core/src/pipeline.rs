//! The end-to-end prefix-rotating-provider discovery pipeline (§4).
//!
//! The pipeline chains the individual steps:
//!
//! 1. a (stale) seed traceroute campaign nominates /32s with EUI-64 periphery,
//! 2. seed expansion & validation probes one target per /48 of those /32s
//!    (§4.1),
//! 3. density inference classifies the validated /48s (§4.2),
//! 4. two snapshots 24 hours apart flag the /48s whose EUI-64 responders
//!    changed (§4.3).
//!
//! Its output is the input of Table 1 (rotating /48s per ASN and per country)
//! and the §4 prose counts (addresses discovered, EUI-64 share, unique IIDs).

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use scent_bgp::{Asn, CountryCode};
use scent_ipv6::{Eui64, Ipv6Prefix};
use scent_prober::{
    ProbeTransport, Scan, Scanner, ScannerConfig, SeedCampaign, TargetGenerator, WorldView,
};
use scent_simnet::{SimDuration, SimTime};

use crate::density::DensityReport;
use crate::rotation_detect::RotationDetection;
use crate::seed_expansion::SeedExpansion;

/// Granularity (prefix length) of the density scan; the paper probes one
/// target per /56 of each candidate /48.
pub const DENSITY_GRANULARITY: u8 = 56;

/// Virtual time of the (stale) seed traceroute campaign.
pub const SEED_TIME: SimTime = SimTime::at(5, 12);

/// Virtual time the expansion step runs; the density scan follows two hours
/// later.
pub const EXPANSION_TIME: SimTime = SimTime::at(400, 8);

/// Pipeline configuration: probe rate, seeds, and the rotation-detection
/// snapshots' granularity and time.
///
/// The seed campaign's and the expansion's times and the density scan's
/// granularity are the fixed schedule [`SEED_TIME`], [`EXPANSION_TIME`] and
/// [`DENSITY_GRANULARITY`], which the batch [`Pipeline`] and the streamed
/// pipeline both read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Seed controlling target generation and scan order.
    pub seed: u64,
    /// Probe rate.
    pub packets_per_second: u64,
    /// Cap on /48s enumerated per seed /32 (bounds cost on huge
    /// announcements).
    pub max_48s_per_seed: u64,
    /// Granularity of the two rotation-detection snapshots. The paper probes
    /// every /64 (granularity 64); scaled-down worlds typically use 56 to
    /// bound probe counts, at the cost of missing /64-allocation customers
    /// that happen not to be hit.
    pub detection_granularity: u8,
    /// Virtual time of the first rotation-detection snapshot (the second is
    /// 24 hours later).
    pub first_snapshot: SimTime,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            seed: 0xf0110,
            packets_per_second: 10_000,
            max_48s_per_seed: 8_192,
            detection_granularity: 56,
            first_snapshot: SimTime::at(401, 8),
        }
    }
}

/// Per-AS and per-country rotating-/48 counts (Table 1's rows).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RotatingCounts {
    /// Rotating /48 count per ASN, descending.
    pub per_asn: Vec<(Asn, u64)>,
    /// Rotating /48 count per country, descending.
    pub per_country: Vec<(CountryCode, u64)>,
    /// Total rotating /48s.
    pub total: u64,
}

impl RotatingCounts {
    /// Build Table 1 from a list of rotating /48s: counts per origin ASN and
    /// per country, sorted descending with deterministic tie-breaks. Shared
    /// by the batch pipeline and the streaming engine.
    pub fn tally(
        rib: &scent_bgp::Rib,
        registry: &scent_bgp::AsRegistry,
        rotating_48s: &[Ipv6Prefix],
    ) -> Self {
        let mut per_asn: HashMap<Asn, u64> = HashMap::new();
        let mut per_country: HashMap<CountryCode, u64> = HashMap::new();
        for prefix in rotating_48s {
            let Some(entry) = rib.lookup(prefix.network()) else {
                continue;
            };
            *per_asn.entry(entry.origin).or_insert(0) += 1;
            if let Some(country) = registry.country(entry.origin) {
                *per_country.entry(country).or_insert(0) += 1;
            }
        }
        let mut per_asn: Vec<_> = per_asn.into_iter().collect();
        per_asn.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.value().cmp(&b.0.value())));
        let mut per_country: Vec<_> = per_country.into_iter().collect();
        per_country.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.as_str().cmp(b.0.as_str())));
        RotatingCounts {
            total: rotating_48s.len() as u64,
            per_asn,
            per_country,
        }
    }
}

/// Everything the pipeline produced.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// /48s in the seed data with a unique EUI-64 last hop.
    pub seed_unique_48s: usize,
    /// Distinct /32s the seed rolls up to.
    pub seed_32s: usize,
    /// /48s probed during expansion.
    pub expansion_probed: u64,
    /// /48s validated as producing EUI-64 responses.
    pub validated_48s: usize,
    /// High-density candidate count.
    pub high_density: usize,
    /// Low-density candidate count.
    pub low_density: usize,
    /// Candidates with no response during the density scan.
    pub no_response: usize,
    /// /48s flagged as rotating by the two-snapshot comparison.
    pub rotating_48s: Vec<Ipv6Prefix>,
    /// Table 1 counts.
    pub rotating_counts: RotatingCounts,
    /// Total distinct addresses observed across all pipeline probing.
    pub total_addresses: usize,
    /// Distinct EUI-64 addresses among them.
    pub eui64_addresses: usize,
    /// Distinct EUI-64 interface identifiers (IIDs).
    pub unique_iids: usize,
    /// ASes with at least one rotating /48.
    pub rotating_ases: usize,
    /// Countries with at least one rotating /48.
    pub rotating_countries: usize,
}

/// The discovery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pipeline {
    /// Configuration.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// Run the full pipeline against any measurement backend.
    ///
    /// The backend enters only through the [`ProbeTransport`] (probing,
    /// traceroutes) and [`WorldView`] (RIB, AS metadata, world seed) traits,
    /// so the same pipeline drives the simulated Internet, a recorded replay,
    /// or any third-party backend.
    pub fn run<B: ProbeTransport + WorldView + ?Sized>(&self, world: &B) -> PipelineReport {
        let cfg = &self.config;

        // Step 0: stale seed traceroute campaign (CAIDA stand-in).
        let seed_campaign = SeedCampaign::run(world, SEED_TIME, cfg.max_48s_per_seed);
        let seed_unique = seed_campaign.unique_eui64_48s();
        let seed_32s = seed_campaign.seed_32s();

        // Step 1: expansion & validation (§4.1).
        let expansion = SeedExpansion::run(
            world,
            &seed_32s,
            EXPANSION_TIME,
            cfg.seed,
            cfg.max_48s_per_seed,
        );

        // Step 2: density inference (§4.2).
        let generator = TargetGenerator::new(cfg.seed ^ 0xdead);
        let scanner = Scanner::new(ScannerConfig {
            packets_per_second: cfg.packets_per_second,
            seed: cfg.seed,
            randomize_order: true,
        });
        let density_targets =
            generator.per_candidate_48(&expansion.validated_48s, DENSITY_GRANULARITY);
        let density_scan = scanner.scan(
            world,
            &density_targets,
            EXPANSION_TIME + SimDuration::from_hours(2),
        );
        let density = DensityReport::measure(&expansion.validated_48s, &density_scan);
        let high = density.high_density();

        // Step 3: rotation detection from two snapshots 24 hours apart (§4.3).
        let detection_targets = generator.per_candidate_48(&high, cfg.detection_granularity);
        let first = scanner.scan(world, &detection_targets, cfg.first_snapshot);
        let second = scanner.scan(
            world,
            &detection_targets,
            cfg.first_snapshot + SimDuration::from_days(1),
        );
        let detection = RotationDetection::compare(&first, &second);

        // Aggregate counts.
        let rotating_counts =
            RotatingCounts::tally(world.rib(), world.as_registry(), &detection.rotating_48s);
        let (total_addresses, eui64_addresses, unique_iids) =
            address_statistics(&[&density_scan, &first, &second]);

        PipelineReport {
            seed_unique_48s: seed_unique.len(),
            seed_32s: seed_32s.len(),
            expansion_probed: expansion.probed_48s,
            validated_48s: expansion.validated_48s.len(),
            high_density: high.len(),
            low_density: density.low_density().len(),
            no_response: density.no_response().len(),
            rotating_ases: rotating_counts.per_asn.len(),
            rotating_countries: rotating_counts.per_country.len(),
            rotating_48s: detection.rotating_48s,
            rotating_counts,
            total_addresses,
            eui64_addresses,
            unique_iids,
        }
    }
}

/// Distinct addresses, distinct EUI-64 addresses and distinct IIDs observed
/// across a set of scans (the §4 prose counts).
pub fn address_statistics(scans: &[&Scan]) -> (usize, usize, usize) {
    let mut addresses = HashSet::new();
    let mut eui_addresses = HashSet::new();
    let mut iids: HashSet<Eui64> = HashSet::new();
    for scan in scans {
        for record in &scan.records {
            let Some(source) = record.source() else {
                continue;
            };
            addresses.insert(source);
            if let Some(eui) = Eui64::from_addr(source) {
                eui_addresses.insert(source);
                iids.insert(eui);
            }
        }
    }
    (addresses.len(), eui_addresses.len(), iids.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_simnet::{scenarios, Engine, WorldScale};

    fn small_pipeline_report() -> (Engine, PipelineReport) {
        let engine = Engine::build(scenarios::paper_world(71, WorldScale::small())).unwrap();
        let config = PipelineConfig {
            max_48s_per_seed: 128,
            ..PipelineConfig::default()
        };
        let report = Pipeline::new(config).run(&engine);
        (engine, report)
    }

    #[test]
    fn pipeline_finds_rotating_48s_in_rotating_ases() {
        let (engine, report) = small_pipeline_report();
        assert!(report.seed_unique_48s > 0, "seed found nothing");
        assert!(report.seed_32s > 0);
        assert!(report.validated_48s > 0);
        assert!(report.high_density > 0);
        assert!(!report.rotating_48s.is_empty(), "no rotation detected");
        assert_eq!(
            report.rotating_counts.total,
            report.rotating_48s.len() as u64
        );
        // Every flagged /48 belongs to an AS whose ground-truth configuration
        // actually rotates.
        for prefix in &report.rotating_48s {
            let asn = engine.rib().origin(prefix.network()).unwrap();
            let provider = engine
                .config()
                .providers
                .iter()
                .find(|p| p.asn == asn)
                .unwrap();
            assert!(
                provider.pools.iter().any(|pool| pool.rotation.rotates()),
                "{asn} flagged but does not rotate"
            );
        }
    }

    #[test]
    fn table1_counts_are_consistent() {
        let (_engine, report) = small_pipeline_report();
        let asn_total: u64 = report.rotating_counts.per_asn.iter().map(|(_, c)| c).sum();
        let country_total: u64 = report
            .rotating_counts
            .per_country
            .iter()
            .map(|(_, c)| c)
            .sum();
        assert_eq!(asn_total, report.rotating_counts.total);
        assert_eq!(country_total, report.rotating_counts.total);
        // Versatel (AS8881) dominates Table 1; at the small test scale it is
        // at worst neck-and-neck with OTE, so it must rank in the top two.
        let rank_8881 = report
            .rotating_counts
            .per_asn
            .iter()
            .position(|(asn, _)| *asn == Asn(8881))
            .expect("AS8881 must be detected as rotating");
        assert!(rank_8881 <= 1, "AS8881 ranked {rank_8881}");
        // Counts are sorted descending.
        for pair in report.rotating_counts.per_asn.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert!(report.rotating_ases >= 2);
        assert!(report.rotating_countries >= 1);
    }

    #[test]
    fn address_statistics_count_unique() {
        let (_engine, report) = small_pipeline_report();
        assert!(report.total_addresses >= report.eui64_addresses);
        assert!(report.eui64_addresses >= report.unique_iids);
        assert!(report.unique_iids > 0);
        // Rotation means the same IID appears under several addresses, so
        // EUI-64 addresses strictly exceed unique IIDs in a rotating world.
        assert!(report.eui64_addresses > report.unique_iids);
    }

    #[test]
    fn address_statistics_empty() {
        assert_eq!(address_statistics(&[]), (0, 0, 0));
        assert_eq!(address_statistics(&[&Scan::default()]), (0, 0, 0));
    }
}
