//! Rotation-pool dynamics (§5.4, Figures 9 and 10).
//!
//! Figure 9 follows three AS8881 identifiers over the campaign and shows
//! their delegated /64 prefix incrementing daily, wrapping modulo the /46
//! pool. Figure 10 probes one /46 pool hourly for a week and shows EUI-64
//! address density per constituent /48, with prefix reassignment concentrated
//! in the early-morning hours.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use scent_ipv6::{Eui64, Ipv6Prefix};
use scent_prober::Scan;
use scent_simnet::SimTime;

/// The per-scan observation of one identifier: which /64 it appeared in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IidObservation {
    /// When the observation was made (scan start time).
    pub at: SimTime,
    /// The /64 prefix the identifier's address fell in.
    pub prefix64: Ipv6Prefix,
}

/// Figure 9: the trajectory of selected identifiers across scans.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IidTrajectories {
    /// Observations per identifier, in scan order.
    pub trajectories: HashMap<Eui64, Vec<IidObservation>>,
}

impl IidTrajectories {
    /// Extract trajectories for `iids` (or all identifiers if empty) from a
    /// sequence of scans.
    pub fn extract(scans: &[&Scan], iids: &[Eui64]) -> Self {
        let filter: Option<HashSet<Eui64>> = if iids.is_empty() {
            None
        } else {
            Some(iids.iter().copied().collect())
        };
        let mut trajectories: HashMap<Eui64, Vec<IidObservation>> = HashMap::new();
        for scan in scans {
            // Each identifier may answer several probes in one scan; record
            // it once per scan.
            let mut seen_this_scan: HashMap<Eui64, Ipv6Prefix> = HashMap::new();
            for record in &scan.records {
                let Some(eui) = record.eui64() else { continue };
                if let Some(filter) = &filter {
                    if !filter.contains(&eui) {
                        continue;
                    }
                }
                let source = record.source().expect("eui64 implies response");
                seen_this_scan
                    .entry(eui)
                    .or_insert_with(|| Ipv6Prefix::enclosing_64(source));
            }
            for (eui, prefix64) in seen_this_scan {
                trajectories.entry(eui).or_default().push(IidObservation {
                    at: scan.started_at,
                    prefix64,
                });
            }
        }
        IidTrajectories { trajectories }
    }

    /// The trajectory of one identifier, if observed.
    pub fn for_iid(&self, eui: Eui64) -> Option<&[IidObservation]> {
        self.trajectories.get(&eui).map(|v| v.as_slice())
    }

    /// Identifiers sorted by how many observations they have (most first) —
    /// useful for picking well-observed devices to plot.
    pub fn best_observed(&self, count: usize) -> Vec<Eui64> {
        let mut iids: Vec<(Eui64, usize)> = self
            .trajectories
            .iter()
            .map(|(eui, obs)| (*eui, obs.len()))
            .collect();
        iids.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.as_u64().cmp(&b.0.as_u64())));
        iids.into_iter().take(count).map(|(eui, _)| eui).collect()
    }

    /// Whether an identifier's observed /64 index (within `pool`) advances
    /// monotonically modulo the pool size — the "increments each day, wraps
    /// modulo the pool" behaviour of Figure 9.
    pub fn is_monotone_modulo(&self, eui: Eui64, pool: &Ipv6Prefix) -> Option<bool> {
        let observations = self.trajectories.get(&eui)?;
        let indices: Vec<u128> = observations
            .iter()
            .filter_map(|o| pool.subnet_index(&o.prefix64))
            .collect();
        if indices.len() < 2 {
            return Some(true);
        }
        let n = pool.num_subnets(64).ok()?;
        let mut wraps = 0;
        for pair in indices.windows(2) {
            if pair[1] < pair[0] {
                wraps += 1;
            }
            // Forward distance must be positive and less than the pool size.
            let forward = (pair[1] + n - pair[0]) % n;
            if forward == 0 {
                return Some(false);
            }
        }
        // At most one wrap per traversal of the pool is expected for the
        // observation windows we use.
        Some(wraps <= 1 + indices.len() / 4)
    }
}

/// Figure 10: EUI-64 address density per /48 of a rotation pool over time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PoolDensityTimeline {
    /// The /48 prefixes of the pool, in order.
    pub(crate) subnets_48: Vec<Ipv6Prefix>,
    /// One row per scan: `(scan time, fraction of probed /64-blocks per /48
    /// occupied by an EUI-64 address)`.
    pub rows: Vec<(SimTime, Vec<f64>)>,
}

impl PoolDensityTimeline {
    /// Measure the per-/48 EUI-64 density over a sequence of scans of the
    /// pool. Density is the number of distinct EUI-64 source addresses seen
    /// in the /48 divided by the number of probes aimed into it.
    pub fn measure(pool: &Ipv6Prefix, scans: &[&Scan]) -> Self {
        let subnets_48: Vec<Ipv6Prefix> =
            pool.subnets(48).expect("pool is /48 or shorter").collect();
        let index_of = |prefix: &Ipv6Prefix| -> Option<usize> {
            pool.subnet_index(&prefix.supernet(48).ok()?)
                .map(|i| i as usize)
        };
        let mut rows = Vec::with_capacity(scans.len());
        for scan in scans {
            let mut probes = vec![0u64; subnets_48.len()];
            let mut sources: Vec<HashSet<std::net::Ipv6Addr>> =
                vec![HashSet::new(); subnets_48.len()];
            for record in &scan.records {
                let target_48 = Ipv6Prefix::new(record.target, 48).expect("valid length");
                let Some(idx) = index_of(&target_48) else {
                    continue;
                };
                probes[idx] += 1;
                if let Some(response) = record.response {
                    if Eui64::addr_is_eui64(response.source) {
                        sources[idx].insert(response.source);
                    }
                }
            }
            let densities = probes
                .iter()
                .zip(&sources)
                .map(|(&sent, unique)| {
                    if sent == 0 {
                        0.0
                    } else {
                        unique.len() as f64 / sent as f64
                    }
                })
                .collect();
            rows.push((scan.started_at, densities));
        }
        PoolDensityTimeline { subnets_48, rows }
    }

    /// For each scan, the index of the densest /48.
    pub(crate) fn densest_per_scan(&self) -> Vec<usize> {
        self.rows
            .iter()
            .map(|(_, densities)| {
                densities
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("densities are finite"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// The hours-of-day at which the densest /48 changed from the previous
    /// scan — the reassignment window of Figure 10.
    pub fn reassignment_hours(&self) -> Vec<u64> {
        let densest = self.densest_per_scan();
        let mut hours = Vec::new();
        for i in 1..densest.len() {
            if densest[i] != densest[i - 1] {
                hours.push(self.rows[i].0.hour_of_day());
            }
        }
        hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::{Scanner, TargetGenerator};
    use scent_simnet::{scenarios, Engine, SimDuration};

    /// Daily scans of one /56-allocation Versatel /46 pool.
    fn daily_pool_scans(days: u64) -> (Engine, Ipv6Prefix, Vec<Scan>) {
        let engine = Engine::build(scenarios::versatel_like(91)).unwrap();
        let pool = engine
            .pools()
            .iter()
            .find(|p| p.config.allocation_len == 56)
            .unwrap()
            .config
            .prefix;
        let targets = TargetGenerator::new(12).one_per_subnet(&pool, 56);
        let scanner = Scanner::at_paper_rate(29);
        let day = SimDuration::from_days(1);
        let scans = scanner.scans(&engine, &targets, SimTime::at(1, 9), days, day);
        (engine, pool, scans)
    }

    #[test]
    fn trajectories_increment_modulo_pool() {
        let (_engine, pool, scans) = daily_pool_scans(15);
        let refs: Vec<&Scan> = scans.iter().collect();
        let all = IidTrajectories::extract(&refs, &[]);
        let best = all.best_observed(3);
        assert_eq!(best.len(), 3);
        for eui in best {
            let trajectory = all.for_iid(eui).unwrap();
            assert!(trajectory.len() >= 10, "observations={}", trajectory.len());
            // The prefix changes every day.
            let distinct: HashSet<_> = trajectory.iter().map(|o| o.prefix64).collect();
            assert!(distinct.len() >= trajectory.len() - 1);
            // ...and the movement is a monotone increment modulo the pool.
            assert_eq!(all.is_monotone_modulo(eui, &pool), Some(true));
        }
    }

    #[test]
    fn filtered_extraction_only_keeps_requested_iids() {
        let (_engine, _pool, scans) = daily_pool_scans(3);
        let refs: Vec<&Scan> = scans.iter().collect();
        let all = IidTrajectories::extract(&refs, &[]);
        let pick = all.best_observed(1)[0];
        let filtered = IidTrajectories::extract(&refs, &[pick]);
        assert_eq!(filtered.trajectories.len(), 1);
        assert!(filtered.for_iid(pick).is_some());
        // Unknown IID yields nothing.
        let unknown = Eui64::from_mac("02:00:00:00:00:99".parse().unwrap());
        assert!(filtered.for_iid(unknown).is_none());
        assert_eq!(
            IidTrajectories::default()
                .is_monotone_modulo(unknown, &"2001:db8::/46".parse().unwrap()),
            None
        );
    }

    #[test]
    fn hourly_density_shows_one_dominant_48_and_morning_reassignment() {
        let engine = Engine::build(scenarios::versatel_like(92)).unwrap();
        let pool = engine
            .pools()
            .iter()
            .find(|p| p.config.allocation_len == 56)
            .unwrap()
            .config
            .prefix;
        let targets = TargetGenerator::new(13).one_per_subnet(&pool, 56);
        let scanner = Scanner::at_paper_rate(31);
        // Hourly scans for three days, as in Figure 10's week of hourly data.
        let hour = SimDuration::from_hours(1);
        let scans = scanner.scans(&engine, &targets, SimTime::at(20, 0), 72, hour);
        let refs: Vec<&Scan> = scans.iter().collect();
        let timeline = PoolDensityTimeline::measure(&pool, &refs);
        assert_eq!(timeline.subnets_48.len(), 4);
        assert_eq!(timeline.rows.len(), 72);
        // At any instant one /48 holds the bulk of the devices (contiguous
        // layout), and the total density is non-trivial.
        for (_, densities) in &timeline.rows {
            let max = densities.iter().cloned().fold(0.0f64, f64::max);
            let sum: f64 = densities.iter().sum();
            assert!(max > 0.0);
            assert!(max / sum.max(1e-9) > 0.5, "densities={densities:?}");
        }
        // Reassignment (the densest /48 changing) happens in the configured
        // 00:00–06:00 window.
        let hours = timeline.reassignment_hours();
        assert!(!hours.is_empty());
        for hour in hours {
            assert!(hour <= 7, "reassignment at hour {hour}");
        }
    }
}
