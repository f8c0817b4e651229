//! Pathologies in the EUI-64 corpus (§5.5, Figures 11 and 12).
//!
//! Three phenomena complicate (or enrich) EUI-64-based tracking:
//!
//! * identifiers observed in *multiple ASes simultaneously* — almost always a
//!   manufacturer reusing MAC addresses in violation of the IEEE standard
//!   (Figure 11), or the all-zero default MAC;
//! * identifiers that *move* from one AS to another and never return — a
//!   customer switching providers (Figure 12);
//! * the all-zero MAC itself, used by devices without a burned-in address.

use std::collections::{BTreeMap, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use scent_bgp::{Asn, Rib};
use scent_ipv6::{Eui64, MacAddr};
use scent_prober::Scan;

/// Per-identifier, per-scan-day AS observations.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiAsTimeline {
    /// For each day index, the set of ASes the identifier was seen in.
    pub per_day: BTreeMap<u64, Vec<Asn>>,
}

impl MultiAsTimeline {
    /// All ASes the identifier was ever seen in.
    pub fn ases(&self) -> Vec<Asn> {
        let mut all: Vec<Asn> = self.per_day.values().flatten().copied().collect();
        all.sort_by_key(|a| a.value());
        all.dedup();
        all
    }

    /// Whether the identifier was seen in more than one AS on the same day —
    /// the signature of MAC reuse rather than a provider switch.
    pub(crate) fn concurrent_multi_as(&self) -> bool {
        self.per_day.values().any(|ases| ases.len() > 1)
    }

    /// Whether the observations look like a provider switch: the identifier
    /// appears in exactly two ASes, first only in one, later only in the
    /// other, and never again in the first after the switch.
    pub(crate) fn is_provider_switch(&self) -> Option<(Asn, Asn, u64)> {
        let ases = self.ases();
        if ases.len() != 2 || self.concurrent_multi_as() {
            return None;
        }
        let (a, b) = (ases[0], ases[1]);
        // Determine which AS is observed first.
        let first_day_a = self
            .per_day
            .iter()
            .find(|(_, v)| v.contains(&a))
            .map(|(d, _)| *d)?;
        let first_day_b = self
            .per_day
            .iter()
            .find(|(_, v)| v.contains(&b))
            .map(|(d, _)| *d)?;
        let (from, to, switch_day) = if first_day_a < first_day_b {
            (a, b, first_day_b)
        } else {
            (b, a, first_day_a)
        };
        // After the switch day the identifier must never be seen in `from`.
        let relapses = self
            .per_day
            .iter()
            .filter(|(day, ases)| **day >= switch_day && ases.contains(&from))
            .count();
        if relapses == 0 {
            Some((from, to, switch_day))
        } else {
            None
        }
    }
}

/// The pathology analysis over a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathologyReport {
    /// Identifiers observed in more than one AS, with their timelines.
    pub multi_as: HashMap<Eui64, MultiAsTimeline>,
    /// Identifiers whose timeline is consistent with a provider switch:
    /// `(from, to, switch day)`.
    pub provider_switches: HashMap<Eui64, (Asn, Asn, u64)>,
    /// Identifiers that look like vendor MAC reuse (concurrent multi-AS).
    pub mac_reuse: Vec<Eui64>,
    /// Number of ASes the all-zero MAC was observed in.
    pub zero_mac_ases: usize,
}

impl PathologyReport {
    /// Analyse a sequence of daily scans.
    pub fn analyse(scans: &[&Scan], rib: &Rib) -> Self {
        // eui -> day -> set of ASes
        let mut timelines: HashMap<Eui64, BTreeMap<u64, HashSet<Asn>>> = HashMap::new();
        for scan in scans {
            let day = scan.started_at.day();
            for record in &scan.records {
                let Some(eui) = record.eui64() else { continue };
                let source = record.source().expect("eui64 implies response");
                let Some(asn) = rib.origin(source) else {
                    continue;
                };
                timelines
                    .entry(eui)
                    .or_default()
                    .entry(day)
                    .or_default()
                    .insert(asn);
            }
        }

        let mut multi_as = HashMap::new();
        let mut provider_switches = HashMap::new();
        let mut mac_reuse = Vec::new();
        let zero_iid = Eui64::from_mac(MacAddr::ZERO);
        let mut zero_mac_ases = 0usize;

        for (eui, days) in timelines {
            let timeline = MultiAsTimeline {
                per_day: days
                    .into_iter()
                    .map(|(day, ases)| {
                        let mut v: Vec<Asn> = ases.into_iter().collect();
                        v.sort_by_key(|a| a.value());
                        (day, v)
                    })
                    .collect(),
            };
            if eui == zero_iid {
                zero_mac_ases = timeline.ases().len();
            }
            if timeline.ases().len() > 1 {
                if let Some(switch) = timeline.is_provider_switch() {
                    provider_switches.insert(eui, switch);
                } else if timeline.concurrent_multi_as() {
                    mac_reuse.push(eui);
                }
                multi_as.insert(eui, timeline);
            }
        }
        mac_reuse.sort_by_key(|e| e.as_u64());

        PathologyReport {
            multi_as,
            provider_switches,
            mac_reuse,
            zero_mac_ases,
        }
    }

    /// Number of identifiers observed in more than one AS.
    pub fn multi_as_count(&self) -> usize {
        self.multi_as.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::{Scanner, TargetGenerator};
    use scent_simnet::{scenarios, Engine, SimDuration, SimTime};

    /// Daily campaign over every pool of a world, at each pool's allocation
    /// granularity.
    fn run_campaign(world: scent_simnet::WorldConfig, days: u64) -> (Engine, Vec<Scan>) {
        let engine = Engine::build(world).unwrap();
        let generator = TargetGenerator::new(14);
        let mut targets = Vec::new();
        for pool in engine.pools() {
            targets
                .extend(generator.one_per_subnet(&pool.config.prefix, pool.config.allocation_len));
        }
        let scanner = Scanner::at_paper_rate(37);
        let day = SimDuration::from_days(1);
        let scans = scanner.scans(&engine, &targets, SimTime::at(1, 10), days, day);
        (engine, scans)
    }

    #[test]
    fn mac_reuse_is_detected_concurrently_in_many_ases() {
        let (world, reused_mac) = scenarios::pathology_mac_reuse(111);
        let (engine, scans) = run_campaign(world, 5);
        let refs: Vec<&Scan> = scans.iter().collect();
        let report = PathologyReport::analyse(&refs, engine.rib());

        let reused_iid = Eui64::from_mac(reused_mac);
        assert!(report.multi_as_count() >= 2);
        assert!(report.mac_reuse.contains(&reused_iid));
        let timeline = &report.multi_as[&reused_iid];
        assert!(timeline.concurrent_multi_as());
        assert!(timeline.ases().len() >= 5);
        assert!(timeline.is_provider_switch().is_none());
        // The zero MAC appears in several ASes as well.
        assert!(report.zero_mac_ases >= 5);
        // A reused identifier is not misclassified as a provider switch.
        assert!(!report.provider_switches.contains_key(&reused_iid));
    }

    #[test]
    fn provider_switches_are_detected_with_direction_and_day() {
        let (world, [mac_a, mac_b]) = scenarios::pathology_provider_switch(112, 10, 20);
        let (engine, scans) = run_campaign(world, 30);
        let refs: Vec<&Scan> = scans.iter().collect();
        let report = PathologyReport::analyse(&refs, engine.rib());

        let iid_a = Eui64::from_mac(mac_a);
        let iid_b = Eui64::from_mac(mac_b);
        let (from_a, to_a, day_a) = report.provider_switches[&iid_a];
        assert_eq!((from_a, to_a), (Asn(8881), Asn(3320)));
        assert!((10..=12).contains(&day_a), "switch day {day_a}");
        let (from_b, to_b, day_b) = report.provider_switches[&iid_b];
        assert_eq!((from_b, to_b), (Asn(3320), Asn(8881)));
        assert!((20..=22).contains(&day_b), "switch day {day_b}");
        assert!(!report.mac_reuse.contains(&iid_a));
    }

    #[test]
    fn clean_world_has_no_pathologies() {
        let (engine, scans) = run_campaign(scenarios::entel_like(113), 3);
        let refs: Vec<&Scan> = scans.iter().collect();
        let report = PathologyReport::analyse(&refs, engine.rib());
        assert_eq!(report.multi_as_count(), 0);
        assert!(report.provider_switches.is_empty());
        assert!(report.mac_reuse.is_empty());
        assert_eq!(report.zero_mac_ases, 0);
    }
}
