//! The zmap6-style scanner: one scan, or a multi-day series of them.
//!
//! The scanner visits a target list in the pseudo-random order given by a
//! [`RandomPermutation`] of the scan seed, paces probes at a configurable
//! packets-per-second budget against the virtual clock, and records every
//! `<target, response>` pair. Re-running a scan with the same seed probes the
//! same targets in the same order at the same relative times — the property
//! the paper relies on for its 44 daily snapshots (§5).

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_simnet::{SimDuration, SimTime};

use crate::permutation::RandomPermutation;
use crate::rate::ProbePacer;
use crate::records::{ProbeRecord, ResponseRecord, Scan};
use crate::ProbeTransport;

/// Targets [`Scanner::scan_each`] gathers ahead of their probes: enough
/// independent loads to overlap their cache and TLB misses, in 768 bytes
/// of stack.
const SCAN_BLOCK: usize = 32;

/// Scanner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScannerConfig {
    /// Probe rate in packets per second (the paper uses 10,000).
    pub packets_per_second: u64,
    /// Seed controlling probe order; reusing the seed reproduces the order.
    pub seed: u64,
    /// Whether to randomize probe order (zmap behaviour). Disabling this
    /// probes targets in list order, which is occasionally useful in tests
    /// and in the ordering ablation bench.
    pub randomize_order: bool,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        ScannerConfig {
            packets_per_second: 10_000,
            seed: 0x5eed,
            randomize_order: true,
        }
    }
}

/// The zmap6-style scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scanner {
    config: ScannerConfig,
}

impl Scanner {
    /// Create a scanner with the given configuration.
    pub fn new(config: ScannerConfig) -> Self {
        Scanner { config }
    }

    /// Create a scanner probing at the paper's 10 kpps with the given seed.
    pub fn at_paper_rate(seed: u64) -> Self {
        Scanner::new(ScannerConfig {
            seed,
            ..ScannerConfig::default()
        })
    }

    /// The scanner's configuration.
    pub fn config(&self) -> &ScannerConfig {
        &self.config
    }

    /// Scan `targets` starting at `start`, returning one record per target.
    ///
    /// Records are returned in probing order (the permuted order), so the
    /// same scan re-run later yields records whose targets line up
    /// one-to-one — which is how the rotation-detection step (§4.3) compares
    /// two snapshots taken 24 hours apart.
    pub fn scan<T: ProbeTransport + ?Sized>(
        &self,
        transport: &T,
        targets: &[Ipv6Addr],
        start: SimTime,
    ) -> Scan {
        let mut records = Vec::with_capacity(targets.len());
        let finished_at = self.scan_each(
            transport,
            targets.len(),
            |index| targets[index],
            start,
            |_, record| records.push(record),
        );
        Scan {
            records,
            started_at: start,
            finished_at,
        }
    }

    /// The scanner's one probing loop, in visitor form: probe the `n`
    /// targets `target_at(0..n)` in scan order, paced from `start`, and hand
    /// `visit` each target's list index with its record as it is probed.
    /// Nothing the size of the scan is built — the order is iterated, not
    /// stored — so a caller that only folds the records keeps none of them.
    /// Returns the scan's finish time.
    ///
    /// The order is read 32 probes at a time: the block's indices are
    /// drawn first, then `target_at` runs for all of them before the
    /// block's first probe, so a permuted walk over a large list has the
    /// block's loads in flight together instead of one cache miss waiting
    /// behind each probe. `target_at` runs exactly once per index, in scan
    /// order; being `Fn`, it cannot observe that it runs up to a block
    /// ahead of its probe (short of interior mutability), and send times,
    /// records and the order `visit` sees are what one target at a time
    /// gives.
    pub fn scan_each<T: ProbeTransport + ?Sized>(
        &self,
        transport: &T,
        n: usize,
        target_at: impl Fn(usize) -> Ipv6Addr,
        start: SimTime,
        mut visit: impl FnMut(usize, ProbeRecord),
    ) -> SimTime {
        let pacer = ProbePacer::new(start, self.config.packets_per_second);
        let mut order =
            RandomPermutation::for_scan(n as u64, self.config.seed, self.config.randomize_order)
                .iter();
        let mut indices = [0; SCAN_BLOCK];
        let mut targets = [Ipv6Addr::UNSPECIFIED; SCAN_BLOCK];
        let mut sent = 0;
        loop {
            let mut len = 0;
            while len < SCAN_BLOCK {
                let Some(index) = order.next() else { break };
                indices[len] = index as usize;
                len += 1;
            }
            // Nothing but the loads in this loop, so as many of them as the
            // core can track are in flight before the first is waited for.
            for (target, &index) in targets.iter_mut().zip(&indices[..len]) {
                *target = target_at(index);
            }
            for (&index, &target) in indices[..len].iter().zip(&targets) {
                let sent_at = pacer.send_time(sent);
                sent += 1;
                let response = transport
                    .probe(target, sent_at)
                    .map(|reply| ResponseRecord {
                        source: reply.source,
                        kind: reply.kind,
                    });
                visit(
                    index,
                    ProbeRecord {
                        target,
                        sent_at,
                        response,
                    },
                );
            }
            if len < SCAN_BLOCK {
                return pacer.finish_time(n as u64);
            }
        }
    }

    /// A multi-day campaign: `count` scans of `targets`, the first starting
    /// at `first_start` and each later one exactly `interval` after the one
    /// before (24 hours in the paper), always in the same order — so the
    /// scans' records line up target for target. In chronological order.
    pub fn scans<T: ProbeTransport + ?Sized>(
        &self,
        transport: &T,
        targets: &[Ipv6Addr],
        first_start: SimTime,
        count: u64,
        interval: SimDuration,
    ) -> Vec<Scan> {
        (0..count)
            .map(|k| {
                let start = first_start + SimDuration::from_secs(interval.as_secs() * k);
                self.scan(transport, targets, start)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::TargetGenerator;
    use scent_ipv6::Ipv6Prefix;
    use scent_simnet::{scenarios, Engine};
    use std::cell::RefCell;

    fn engine() -> Engine {
        Engine::build(scenarios::entel_like(5)).unwrap()
    }

    fn pool_prefix(engine: &Engine) -> Ipv6Prefix {
        engine.pools()[0].config.prefix
    }

    #[test]
    fn scan_produces_one_record_per_target_and_finds_cpe() {
        let engine = engine();
        let targets = TargetGenerator::new(1).one_per_subnet(&pool_prefix(&engine), 56);
        let scanner = Scanner::at_paper_rate(7);
        let scan = scanner.scan(&engine, &targets, SimTime::at(1, 9));
        assert_eq!(scan.probes_sent(), 256);
        // Entel-like: 85% occupancy, 92% responsive — most probes answer.
        assert!(scan.responses() > 150, "responses={}", scan.responses());
        assert!(scan.eui64_responses() > 100);
        assert!(scan.finished_at > scan.started_at);
    }

    #[test]
    fn scan_order_is_permuted_but_reproducible() {
        let engine = engine();
        let targets = TargetGenerator::new(1).one_per_subnet(&pool_prefix(&engine), 56);
        let scanner = Scanner::at_paper_rate(7);
        let a = scanner.scan(&engine, &targets, SimTime::at(1, 9));
        let b = scanner.scan(&engine, &targets, SimTime::at(1, 9));
        assert_eq!(a, b, "same seed, same start: identical scan");
        let probed_order: Vec<_> = a.records.iter().map(|r| r.target).collect();
        assert_ne!(probed_order, targets, "order should be permuted");
        // A different seed probes in a different order but the same set.
        let c = Scanner::at_paper_rate(8).scan(&engine, &targets, SimTime::at(1, 9));
        let mut a_sorted: Vec<_> = probed_order.clone();
        a_sorted.sort();
        let mut c_sorted: Vec<_> = c.records.iter().map(|r| r.target).collect();
        c_sorted.sort();
        assert_eq!(a_sorted, c_sorted);
        assert_ne!(
            probed_order,
            c.records.iter().map(|r| r.target).collect::<Vec<_>>()
        );
    }

    #[test]
    fn in_order_scanning_can_be_requested() {
        let engine = engine();
        let targets = TargetGenerator::new(1).one_per_subnet(&pool_prefix(&engine), 60);
        let scanner = Scanner::new(ScannerConfig {
            randomize_order: false,
            ..ScannerConfig::default()
        });
        let scan = scanner.scan(&engine, &targets, SimTime::at(1, 9));
        let probed: Vec<_> = scan.records.iter().map(|r| r.target).collect();
        assert_eq!(probed, targets);
    }

    /// `scan_each` against the one-target-at-a-time loop it reads in
    /// blocks: the same records in the same order with their list indices,
    /// every index gathered once, in scan order, at most a block ahead of
    /// its probe — at the block edges, for list and permuted order, and at
    /// lengths where the permutation's cycle walk skips indices.
    #[test]
    fn scan_each_visits_scans_records_in_scans_order_with_their_list_indices() {
        let engine = engine();
        let all = TargetGenerator::new(1).one_per_subnet(&pool_prefix(&engine), 60);
        assert_eq!(all.len(), 4096);
        let b = SCAN_BLOCK;
        for randomize_order in [true, false] {
            let scanner = Scanner::new(ScannerConfig {
                seed: 7,
                randomize_order,
                ..ScannerConfig::default()
            });
            for n in [0, 1, 7, b - 1, b, b + 1, 2 * b, 2 * b + 1, 1000, 4096] {
                let targets = &all[..n];
                let start = SimTime::at(1, 9);
                let pacer = ProbePacer::new(start, scanner.config.packets_per_second);
                let order = RandomPermutation::for_scan(n as u64, 7, randomize_order);
                let want: Vec<(usize, ProbeRecord)> = (order.iter().enumerate())
                    .map(|(sent, index)| {
                        let target = targets[index as usize];
                        let sent_at = pacer.send_time(sent as u64);
                        let response = engine.probe(target, sent_at).map(|reply| ResponseRecord {
                            source: reply.source,
                            kind: reply.kind,
                        });
                        let record = ProbeRecord {
                            target,
                            sent_at,
                            response,
                        };
                        (index as usize, record)
                    })
                    .collect();
                let gathered = RefCell::new(Vec::new());
                let mut visited = Vec::new();
                let finished_at = scanner.scan_each(
                    &engine,
                    n,
                    |index| {
                        gathered.borrow_mut().push(index);
                        targets[index]
                    },
                    start,
                    |index, record| {
                        let ahead = gathered.borrow().len() - visited.len();
                        assert!((1..=b).contains(&ahead), "gathered {ahead} ahead");
                        visited.push((index, record));
                    },
                );
                let case = format!("n={n} randomize={randomize_order}");
                assert_eq!(visited, want, "{case}");
                assert_eq!(finished_at, pacer.finish_time(n as u64), "{case}");
                let records: Vec<_> = want.iter().map(|&(_, record)| record).collect();
                assert_eq!(scanner.scan(&engine, targets, start).records, records);
                let gathered = gathered.into_inner();
                assert!(
                    gathered.iter().eq(want.iter().map(|(index, _)| index)),
                    "{case}"
                );
                if !randomize_order {
                    assert!(gathered.iter().copied().eq(0..n), "list order");
                }
                let mut indices = gathered;
                indices.sort_unstable();
                assert!(indices.into_iter().eq(0..n), "every index exactly once");
            }
        }
    }

    #[test]
    fn pacing_matches_rate() {
        let engine = engine();
        let targets = TargetGenerator::new(1).one_per_subnet(&pool_prefix(&engine), 56);
        let scanner = Scanner::new(ScannerConfig {
            packets_per_second: 100,
            seed: 1,
            randomize_order: true,
        });
        let scan = scanner.scan(&engine, &targets, SimTime::at(1, 0));
        // 256 targets at 100 pps: finishes ceil(256/100) = 3 seconds later.
        assert_eq!(
            scan.finished_at,
            SimTime::at(1, 0) + scent_simnet::SimDuration::from_secs(3)
        );
        // Send times are non-decreasing and within the window.
        for pair in scan.records.windows(2) {
            assert!(pair[0].sent_at <= pair[1].sent_at);
        }
    }

    #[test]
    fn daily_campaign_runs_every_day_at_same_hour() {
        let engine = engine();
        let targets = TargetGenerator::new(1).one_per_subnet(&pool_prefix(&engine), 56);
        let scanner = Scanner::at_paper_rate(3);
        let day = SimDuration::from_days(1);
        let scans = scanner.scans(&engine, &targets, SimTime::at(10, 6), 5, day);
        assert_eq!(scans.len(), 5);
        assert!(scans.iter().all(|scan| scan.probes_sent() == 256));
        assert!(scans.iter().map(|scan| scan.responses()).sum::<usize>() > 0);
        for (day, scan) in scans.iter().enumerate() {
            assert_eq!(scan.started_at, SimTime::at(10 + day as u64, 6));
            // Same order every day: targets line up across scans.
            assert_eq!(scan.records[0].target, scans[0].records[0].target);
        }
    }
}
