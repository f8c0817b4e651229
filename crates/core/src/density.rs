//! EUI-64 density inference for candidate /48 networks (§4.2).
//!
//! After the seed /48s are expanded and validated, a probing pass at /56
//! granularity measures how many *unique* EUI-64 responses each candidate /48
//! produces. Candidates with two or fewer unique identifiers are classified
//! *low density* (a /48 delegated to a single device, or a load-balanced
//! pair) and dropped from further probing; the rest are *high density* and go
//! on to rotation detection.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use scent_ipv6::{Eui64, Ipv6Prefix};
use scent_prober::{ProbeRecord, Scan};

use crate::fasthash::FastSet;

/// Density classification of a candidate /48.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum DensityClass {
    /// More than `low_threshold` unique EUI-64 responders: kept for
    /// rotation detection and the daily campaign.
    High,
    /// Responsive, but with too few unique EUI-64 responders to be a
    /// customer-pool prefix.
    Low,
    /// No response at all during the density scan.
    NoResponse,
}

/// Density measurement for one candidate /48.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixDensity {
    /// The candidate /48.
    pub prefix: Ipv6Prefix,
    /// Probes sent into the candidate.
    pub probes: u64,
    /// Unique EUI-64 identifiers observed in responses.
    pub(crate) unique_eui64: u64,
    /// Unique response density: unique identifiers / probes.
    pub density: f64,
    /// The classification.
    pub(crate) class: DensityClass,
}

/// The density report over all candidates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DensityReport {
    /// Per-candidate measurements, in candidate order.
    pub prefixes: Vec<PrefixDensity>,
}

/// Online density state for one candidate /48: the incremental counterpart of
/// [`DensityReport::measure`], consumed one probe record at a time by the
/// streaming engine (`scent-stream`) and mergeable across shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DensityAccumulator {
    /// Probes observed inside the candidate.
    pub probes: u64,
    /// Unique EUI-64 identifiers observed in responses. On the
    /// [`crate::fasthash`] hasher: the monitor's merge thread folds every
    /// churned observation into one of these.
    pub uniques: FastSet<Eui64>,
    /// Whether any probe inside the candidate received any response.
    pub responded: bool,
}

impl DensityAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one probe record (whose target lies inside this candidate) into
    /// the running state.
    pub fn observe(&mut self, record: &ProbeRecord) {
        self.probes += 1;
        self.responded |= record.responded();
        if let Some(eui) = record.eui64() {
            self.uniques.insert(eui);
        }
    }

    /// Merge another accumulator for the same candidate (used when partial
    /// states for one /48 ever need recombining).
    pub fn merge(&mut self, other: DensityAccumulator) {
        self.probes += other.probes;
        self.responded |= other.responded;
        self.uniques.extend(other.uniques);
    }

    /// Finalize into the per-candidate measurement.
    pub fn finish(&self, prefix: Ipv6Prefix) -> PrefixDensity {
        let unique = self.uniques.len() as u64;
        let density = if self.probes == 0 {
            0.0
        } else {
            unique as f64 / self.probes as f64
        };
        let class = if !self.responded {
            DensityClass::NoResponse
        } else if unique <= DensityReport::LOW_THRESHOLD {
            DensityClass::Low
        } else {
            DensityClass::High
        };
        PrefixDensity {
            prefix,
            probes: self.probes,
            unique_eui64: unique,
            density,
            class,
        }
    }
}

impl DensityReport {
    /// The unique-EUI-64 count at or below which a responsive candidate is
    /// classified low density. The paper uses a density threshold of 0.01
    /// over 256 probes per /48, i.e. two or fewer unique responders.
    pub(crate) const LOW_THRESHOLD: u64 = 2;

    /// Measure density per candidate /48 from a scan whose targets were
    /// generated inside those candidates.
    ///
    /// Implemented on top of [`DensityAccumulator`], the same incremental
    /// state the streaming engine folds one record at a time, so the batch
    /// and streaming paths agree by construction.
    pub fn measure(candidates: &[Ipv6Prefix], scan: &Scan) -> Self {
        let members: HashSet<Ipv6Prefix> = candidates.iter().copied().collect();
        let mut states: HashMap<Ipv6Prefix, DensityAccumulator> = HashMap::new();
        for record in &scan.records {
            // Candidates are /48s, so the containing candidate is found by
            // truncating the target. (A hash lookup keeps this O(1) per
            // record rather than scanning the candidate list.)
            let target_48 = Ipv6Prefix::new(record.target, 48).expect("48 is a valid length");
            if !members.contains(&target_48) {
                continue;
            }
            states.entry(target_48).or_default().observe(record);
        }
        Self::from_accumulators(candidates, &states)
    }

    /// Finalize per-candidate accumulators into a report, preserving the
    /// candidate order. Candidates with no accumulated state are classified
    /// [`DensityClass::NoResponse`] with zero probes, matching what a scan
    /// that never reached them would produce. Generic over the map's hasher
    /// so both batch state (std maps) and streaming shard state
    /// ([`crate::fasthash::FastMap`]) finalize through the same code.
    pub(crate) fn from_accumulators<S: std::hash::BuildHasher>(
        candidates: &[Ipv6Prefix],
        states: &HashMap<Ipv6Prefix, DensityAccumulator, S>,
    ) -> Self {
        let empty = DensityAccumulator::new();
        let prefixes = candidates
            .iter()
            .map(|candidate| states.get(candidate).unwrap_or(&empty).finish(*candidate))
            .collect();
        DensityReport { prefixes }
    }

    /// The high-density candidates (kept for further probing).
    pub fn high_density(&self) -> Vec<Ipv6Prefix> {
        self.of_class(DensityClass::High)
    }

    /// The low-density candidates (dropped).
    pub fn low_density(&self) -> Vec<Ipv6Prefix> {
        self.of_class(DensityClass::Low)
    }

    /// The unresponsive candidates (dropped).
    pub fn no_response(&self) -> Vec<Ipv6Prefix> {
        self.of_class(DensityClass::NoResponse)
    }

    fn of_class(&self, class: DensityClass) -> Vec<Ipv6Prefix> {
        self.prefixes
            .iter()
            .filter(|p| p.class == class)
            .map(|p| p.prefix)
            .collect()
    }

    /// Counts per class: `(high, low, no-response)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.high_density().len(),
            self.low_density().len(),
            self.no_response().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::{Scanner, TargetGenerator};
    use scent_simnet::config::{
        ProviderConfig, RotationPolicy, RotationPoolConfig, SlotLayout, WorldConfig,
    };
    use scent_simnet::{Engine, SimTime};

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    /// A provider with one dense /48, one /48 holding a single device and
    /// plenty of empty /48s.
    fn density_world() -> WorldConfig {
        let provider = ProviderConfig::new(
            64496u32,
            "DensityNet",
            "DE",
            vec![p("2001:db8::/40")],
            vec![
                RotationPoolConfig {
                    prefix: p("2001:db8:10::/48"),
                    allocation_len: 56,
                    occupancy: 0.6,
                    layout: SlotLayout::Spread,
                    rotation: RotationPolicy::Static,
                },
                RotationPoolConfig {
                    prefix: p("2001:db8:20::/48"),
                    allocation_len: 56,
                    occupancy: 0.004, // a single occupied /56
                    layout: SlotLayout::Spread,
                    rotation: RotationPolicy::Static,
                },
            ],
        );
        let mut world = WorldConfig::new(vec![provider], 17);
        world.churn_fraction = 0.0;
        world
    }

    fn run_density() -> DensityReport {
        let engine = Engine::build(density_world()).unwrap();
        let candidates = vec![
            p("2001:db8:10::/48"),
            p("2001:db8:20::/48"),
            p("2001:db8:30::/48"),
        ];
        let targets = TargetGenerator::new(4).per_candidate_48(&candidates, 56);
        let scan = Scanner::at_paper_rate(13).scan(&engine, &targets, SimTime::at(1, 8));
        DensityReport::measure(&candidates, &scan)
    }

    #[test]
    fn classifies_high_low_and_silent() {
        let report = run_density();
        assert_eq!(report.prefixes.len(), 3);
        assert_eq!(report.high_density(), vec![p("2001:db8:10::/48")]);
        assert_eq!(report.low_density(), vec![p("2001:db8:20::/48")]);
        assert_eq!(report.no_response(), vec![p("2001:db8:30::/48")]);
        assert_eq!(report.counts(), (1, 1, 1));
    }

    #[test]
    fn density_values_are_consistent() {
        let report = run_density();
        let dense = &report.prefixes[0];
        assert_eq!(dense.probes, 256);
        assert!(dense.unique_eui64 > DensityReport::LOW_THRESHOLD);
        assert!((dense.density - dense.unique_eui64 as f64 / 256.0).abs() < 1e-12);
        let sparse = &report.prefixes[1];
        assert!(sparse.unique_eui64 <= DensityReport::LOW_THRESHOLD);
        let silent = &report.prefixes[2];
        assert_eq!(silent.unique_eui64, 0);
        assert_eq!(silent.density, 0.0);
    }

    #[test]
    fn empty_scan_marks_everything_unresponsive() {
        let candidates = vec![p("2001:db8:10::/48")];
        let report = DensityReport::measure(&candidates, &Scan::default());
        assert_eq!(report.counts(), (0, 0, 1));
    }
}
