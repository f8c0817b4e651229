//! Seed /48 expansion and validation (§4.1).
//!
//! The CAIDA seed data nominates /32 networks that contained EUI-64 periphery
//! more than a year before the campaign. The expansion step probes one
//! pseudo-random target in a /64 of every /48 of those /32s, both validating
//! that the seed still produces EUI-64 responses and discovering additional
//! /48s inside the same announcement that do.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use scent_ipv6::{Eui64, Ipv6Prefix};
use scent_prober::{ProbeTransport, Scanner, TargetGenerator};
use scent_simnet::SimTime;

use crate::density::{DensityAccumulator, DensityClass};

/// Result of the seed-expansion step.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedExpansion {
    /// Every /48 probed.
    pub probed_48s: u64,
    /// /48s whose probe elicited an EUI-64 response.
    pub validated_48s: Vec<Ipv6Prefix>,
    /// /48s that responded but not with an EUI-64 source.
    pub(crate) non_eui_48s: Vec<Ipv6Prefix>,
}

impl SeedExpansion {
    /// Enumerate the candidate /48s of the given seed /32s, capped at
    /// `max_48s_per_seed` per seed prefix. Shared by the batch run and the
    /// streaming engine (which probes the same candidates as a stream).
    pub fn candidate_48s(seed_32s: &[Ipv6Prefix], max_48s_per_seed: u64) -> Vec<Ipv6Prefix> {
        let mut candidate_48s: Vec<Ipv6Prefix> = Vec::new();
        for seed_prefix in seed_32s {
            let total = seed_prefix
                .num_subnets(48)
                .expect("seed prefixes are /48 or shorter");
            let count = total.min(max_48s_per_seed as u128);
            for i in 0..count {
                candidate_48s.push(
                    seed_prefix
                        .nth_subnet(48, i)
                        .expect("index bounded by count"),
                );
            }
        }
        candidate_48s
    }

    /// Classify one expansion probe outcome: `Some(true)` when the /48
    /// validated (EUI-64 response), `Some(false)` for a non-EUI response,
    /// `None` for silence. The single-record rule both the batch run and the
    /// per-shard streaming classifier apply.
    pub fn classify_record(source: Option<std::net::Ipv6Addr>) -> Option<bool> {
        source.map(Eui64::addr_is_eui64)
    }

    /// Expand the given seed /32 prefixes at time `t`: probe one target per
    /// /48 (capped at `max_48s_per_seed` per /32) and keep the /48s whose
    /// response carries an EUI-64 identifier.
    pub fn run<T: ProbeTransport + ?Sized>(
        transport: &T,
        seed_32s: &[Ipv6Prefix],
        t: SimTime,
        seed: u64,
        max_48s_per_seed: u64,
    ) -> Self {
        Self::run_where(transport, seed_32s, t, seed, max_48s_per_seed, |_| true)
    }

    /// [`SeedExpansion::run`] with a candidate filter: only /48s for which
    /// `keep` returns `true` are probed (the others never reach the scanner,
    /// so a blocklisted /48 produces no probe at all — not a discarded
    /// response). The filter is applied to the deterministic candidate
    /// enumeration, so a filtered run is itself deterministic.
    pub fn run_where<T, F>(
        transport: &T,
        seed_32s: &[Ipv6Prefix],
        t: SimTime,
        seed: u64,
        max_48s_per_seed: u64,
        keep: F,
    ) -> Self
    where
        T: ProbeTransport + ?Sized,
        F: FnMut(&Ipv6Prefix) -> bool,
    {
        let generator = TargetGenerator::new(seed);
        let scanner = Scanner::at_paper_rate(seed ^ 0x9e37);

        let mut candidate_48s = Self::candidate_48s(seed_32s, max_48s_per_seed);
        candidate_48s.retain(keep);
        let mut targets = Vec::with_capacity(candidate_48s.len());
        generator.draw_into(
            candidate_48s
                .iter()
                .map(|candidate| candidate.network_bits()),
            48,
            &mut targets,
        );
        let scan = scanner.scan(transport, &targets, t);

        let mut validated = Vec::new();
        let mut without_eui = Vec::new();
        for record in &scan.records {
            let target_48 = Ipv6Prefix::new(record.target, 48).expect("48 is valid");
            match Self::classify_record(record.source()) {
                Some(true) => validated.push(target_48),
                Some(false) => without_eui.push(target_48),
                None => {}
            }
        }
        validated.sort();
        validated.dedup();
        without_eui.sort();
        without_eui.dedup();
        SeedExpansion {
            probed_48s: candidate_48s.len() as u64,
            validated_48s: validated,
            non_eui_48s: without_eui,
        }
    }
}

/// One revision of a live watch list: what a re-expansion step admitted and
/// what the incremental density state evicted at an epoch boundary.
///
/// Produced by [`SeedExpansion::revise_watch_list`], the entry point the
/// continuous monitor folds its own per-epoch [`DensityAccumulator`] state
/// through to keep watching the space the devices actually occupy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchRevision {
    /// The epoch this revision closed (0-based; the revision takes effect at
    /// the first window of epoch `epoch + 1`).
    pub epoch: u64,
    /// Newly admitted /48s, in deterministic (prefix) order.
    pub admitted: Vec<Ipv6Prefix>,
    /// Evicted /48s, in deterministic (prefix) order.
    pub evicted: Vec<Ipv6Prefix>,
}

impl WatchRevision {
    /// Whether the revision changed the watch list at all.
    pub fn is_noop(&self) -> bool {
        self.admitted.is_empty() && self.evicted.is_empty()
    }
}

impl SeedExpansion {
    /// Fold one epoch of incremental density state through a re-expansion
    /// step and compute the next watch list.
    ///
    /// * `watched` — the /48s probed during the closing epoch.
    /// * `epoch_density` — per-/48 [`DensityAccumulator`] state accumulated
    ///   over that epoch's observations only (not the whole run): watched
    ///   /48s that stayed `DensityClass::High` this epoch survive; the rest
    ///   have gone quiet and are evicted. An epoch of sustained density
    ///   outranks the single-probe expansion signal, so a quiet watched /48
    ///   is evicted even when its expansion probe happened to answer.
    /// * `validated` — the /48s the boundary re-expansion probe validated
    ///   (EUI-64 response), sorted and deduplicated as
    ///   [`SeedExpansion::run`] returns them; candidates not currently
    ///   watched are admitted in that order until `capacity` is reached.
    /// * `capacity` — the bound on the revised watch list. When survivors
    ///   alone exceed it, the densest are kept (unique-EUI-64 count
    ///   descending, ties broken by prefix order, so the outcome is a pure
    ///   function of the inputs — never of map iteration order).
    ///
    /// Returns the next watch list in prefix order plus the
    /// [`WatchRevision`] record for epoch `epoch`.
    pub fn revise_watch_list<S: std::hash::BuildHasher>(
        epoch: u64,
        watched: &[Ipv6Prefix],
        epoch_density: &HashMap<Ipv6Prefix, DensityAccumulator, S>,
        validated: &[Ipv6Prefix],
        capacity: usize,
    ) -> (Vec<Ipv6Prefix>, WatchRevision) {
        assert!(capacity > 0, "watch capacity must be non-zero");
        let empty = DensityAccumulator::new();
        let mut survivors: Vec<(u64, Ipv6Prefix)> = watched
            .iter()
            .map(|prefix| {
                let measured = epoch_density.get(prefix).unwrap_or(&empty).finish(*prefix);
                (measured.unique_eui64, measured.class, *prefix)
            })
            .filter(|(_, class, _)| *class == DensityClass::High)
            .map(|(unique, _, prefix)| (unique, prefix))
            .collect();
        survivors.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        survivors.truncate(capacity);

        let watched_set: BTreeSet<Ipv6Prefix> = watched.iter().copied().collect();
        let mut next: BTreeSet<Ipv6Prefix> = survivors.iter().map(|(_, p)| *p).collect();
        let mut admitted = Vec::new();
        for candidate in validated {
            if next.len() >= capacity {
                break;
            }
            if watched_set.contains(candidate) || !next.insert(*candidate) {
                continue;
            }
            admitted.push(*candidate);
        }
        let evicted: Vec<Ipv6Prefix> = watched_set
            .iter()
            .filter(|p| !next.contains(p))
            .copied()
            .collect();
        let revision = WatchRevision {
            epoch,
            admitted,
            evicted,
        };
        (next.into_iter().collect(), revision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::SeedCampaign;
    use scent_simnet::{scenarios, Engine};

    #[test]
    fn expansion_validates_and_discovers_48s() {
        let engine = Engine::build(scenarios::versatel_like(41)).unwrap();
        // Stale seed collected long before the main campaign.
        let seed = SeedCampaign::run(&engine, SimTime::at(5, 12), 8_192);
        let seed_32s = seed.seed_32s();
        assert!(!seed_32s.is_empty());

        let expansion = SeedExpansion::run(&engine, &seed_32s, SimTime::at(365, 9), 7, 8_192);
        assert!(expansion.probed_48s >= 8_192);
        assert!(!expansion.validated_48s.is_empty());
        // Every validated /48 falls inside a configured pool (that is the
        // only space where CPE live).
        for pfx in &expansion.validated_48s {
            assert!(engine
                .pools()
                .iter()
                .any(|p| p.config.prefix.contains_prefix(pfx)
                    || pfx.contains_prefix(&p.config.prefix)));
        }
    }

    #[test]
    fn privacy_only_provider_yields_non_eui_48s() {
        let mut world = scenarios::versatel_like(42);
        world.providers[0].eui64_fraction = 0.0;
        let engine = Engine::build(world).unwrap();
        let seed_32s = vec!["2001:16b8::/32".parse().unwrap()];
        let expansion = SeedExpansion::run(&engine, &seed_32s, SimTime::at(10, 9), 7, 8_192);
        assert!(expansion.validated_48s.is_empty());
        assert!(!expansion.non_eui_48s.is_empty());
    }

    #[test]
    fn cap_limits_probing() {
        let engine = Engine::build(scenarios::versatel_like(43)).unwrap();
        let seed_32s = vec!["2001:16b8::/32".parse().unwrap()];
        let expansion = SeedExpansion::run(&engine, &seed_32s, SimTime::at(10, 9), 7, 64);
        assert_eq!(expansion.probed_48s, 64);
    }

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    /// An accumulator with `unique` distinct EUI-64 responders.
    fn dense(unique: u64) -> DensityAccumulator {
        let mut acc = DensityAccumulator::new();
        acc.probes = 256;
        acc.responded = unique > 0;
        for i in 0..unique {
            let mac = scent_ipv6::MacAddr::new([0xc8, 0x0e, 0x14, 0, (i >> 8) as u8, i as u8]);
            acc.uniques.insert(Eui64::from_mac(mac));
        }
        acc
    }

    #[test]
    fn revision_evicts_quiet_and_admits_validated() {
        let watched = [p("2001:db8:1::/48"), p("2001:db8:2::/48")];
        let mut density = HashMap::new();
        density.insert(watched[0], dense(8)); // stays dense
        density.insert(watched[1], dense(1)); // went quiet (low density)
        let validated = [p("2001:db8:3::/48"), p("2001:db8:1::/48")];
        let (next, revision) =
            SeedExpansion::revise_watch_list(4, &watched, &density, &validated, 8);
        assert_eq!(next, vec![p("2001:db8:1::/48"), p("2001:db8:3::/48")]);
        assert_eq!(revision.epoch, 4);
        assert_eq!(revision.admitted, vec![p("2001:db8:3::/48")]);
        assert_eq!(revision.evicted, vec![p("2001:db8:2::/48")]);
        assert!(!revision.is_noop());
    }

    #[test]
    fn revision_with_no_changes_is_a_noop() {
        let watched = [p("2001:db8:1::/48")];
        let mut density = HashMap::new();
        density.insert(watched[0], dense(5));
        let (next, revision) = SeedExpansion::revise_watch_list(0, &watched, &density, &watched, 4);
        assert_eq!(next, watched.to_vec());
        assert!(revision.is_noop());
    }

    #[test]
    fn quiet_watched_prefix_is_not_readmitted_by_its_expansion_probe() {
        // A single validating expansion probe must not outrank an epoch of
        // measured low density.
        let watched = [p("2001:db8:1::/48")];
        let mut density = HashMap::new();
        density.insert(watched[0], dense(1));
        let (next, revision) = SeedExpansion::revise_watch_list(0, &watched, &density, &watched, 4);
        assert!(next.is_empty());
        assert_eq!(revision.evicted, watched.to_vec());
    }

    #[test]
    fn capacity_keeps_the_densest_survivors_with_deterministic_ties() {
        let watched = [
            p("2001:db8:3::/48"),
            p("2001:db8:1::/48"),
            p("2001:db8:2::/48"),
        ];
        let mut density = HashMap::new();
        density.insert(watched[0], dense(5)); // tied with :1 — prefix breaks it
        density.insert(watched[1], dense(5));
        density.insert(watched[2], dense(9)); // densest: always kept
        let (next, revision) = SeedExpansion::revise_watch_list(0, &watched, &density, &[], 2);
        assert_eq!(next, vec![p("2001:db8:1::/48"), p("2001:db8:2::/48")]);
        assert_eq!(revision.evicted, vec![p("2001:db8:3::/48")]);
    }

    #[test]
    fn capacity_one_keeps_exactly_one_prefix() {
        let watched = [p("2001:db8:1::/48"), p("2001:db8:2::/48")];
        let mut density = HashMap::new();
        density.insert(watched[0], dense(3));
        density.insert(watched[1], dense(7));
        let validated = [p("2001:db8:9::/48")];
        let (next, revision) =
            SeedExpansion::revise_watch_list(0, &watched, &density, &validated, 1);
        assert_eq!(next, vec![p("2001:db8:2::/48")]);
        assert!(revision.admitted.is_empty(), "no slot left to admit into");
        assert_eq!(revision.evicted, vec![p("2001:db8:1::/48")]);
    }

    #[test]
    fn unmeasured_watched_prefixes_count_as_quiet() {
        // No accumulator at all (an empty epoch) reads as no-response.
        let watched = [p("2001:db8:1::/48")];
        let validated = [p("2001:db8:2::/48")];
        let (next, revision) =
            SeedExpansion::revise_watch_list(0, &watched, &HashMap::new(), &validated, 2);
        assert_eq!(next, vec![p("2001:db8:2::/48")]);
        assert_eq!(revision.evicted, watched.to_vec());
    }

    #[test]
    #[should_panic(expected = "watch capacity")]
    fn zero_capacity_panics() {
        SeedExpansion::revise_watch_list(0, &[], &HashMap::new(), &[], 0);
    }
}
