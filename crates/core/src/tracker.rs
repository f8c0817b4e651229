//! The device-tracking case study (§6, Table 2, Figure 13).
//!
//! An attacker who has observed a CPE's EUI-64 identifier once can find the
//! device again after its prefix rotates by probing one target per inferred
//! customer-allocation block across the device's inferred rotation pool,
//! stopping as soon as a response carries the sought identifier. The
//! allocation-size inference (Algorithm 1) shrinks the number of probes per
//! pool; the rotation-pool inference (Algorithm 2) shrinks the pool itself
//! from the announced BGP prefix down to the space the device actually moves
//! within.
//!
//! Two trackers live here. [`Tracker`] is the paper's active experiment: a
//! handful of selected devices, one bounded search per device per day.
//! [`IncrementalTracker`] is its passive counterpart for the continuous
//! monitor: it follows every identifier the observation stream shows, and
//! because it sits on the per-observation path its state is an append-only
//! log. A sighting is one sequential append ([`LoggedSighting`], 32 bytes)
//! to an unfolded tail; a fold sorts the tail and merges it into one
//! canonical run, ascending by identifier and window. There is no
//! identifier-keyed map and no allocation per identifier, so many trackers
//! interleaved on one thread keep a small, contiguous footprint. Readers —
//! compaction, merge, the checkpoint codec — fold first and then walk the
//! one run; the report reads the run and the tail as they stand. The log
//! and the per-/48 probe counts are all it keeps: the report reads nothing
//! else.

use std::collections::HashSet;
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_bgp::{AsRegistry, Asn, CountryCode, Rib};
use scent_ipv6::{addr_to_u128, Eui64, Ipv6Prefix};
use scent_prober::{ProbePacer, ProbeTransport, RandomPermutation, TargetGenerator};
use scent_simnet::SimTime;

use crate::allocation::AllocationInference;
use crate::fasthash::FastMap;
use crate::rotation_pool::RotationPoolInference;
use crate::stats::{mean, std_dev};

/// Hour of day at which each daily tracking round starts.
const START_HOUR: u64 = 12;

/// Probe budget per second of a tracking round (10 kpps in the paper).
const PACKETS_PER_SECOND: u64 = 10_000;

/// Seed controlling device selection, target generation and probing order.
const SEED: u64 = 0x7261c;

/// A device selected for tracking, along with the inferences the attacker
/// uses to find it again.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackedDevice {
    /// The EUI-64 identifier being tracked.
    pub iid: Eui64,
    /// The AS the device was observed in.
    pub asn: Asn,
    /// The country of that AS, if known.
    pub country: Option<CountryCode>,
    /// Length of the encompassing BGP prefix (Table 2's "BGP Prefix").
    pub bgp_prefix_len: Option<u8>,
    /// The address at which the device was first observed.
    pub first_observed: Ipv6Addr,
    /// The inferred per-AS customer allocation length.
    pub allocation_len: u8,
    /// The inferred rotation pool to search, anchored at the first
    /// observation.
    pub pool: Ipv6Prefix,
}

/// The outcome of one daily tracking round for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DailyResult {
    /// Day index within the tracking experiment (0-based).
    pub day: u64,
    /// Whether the device was found.
    pub found: bool,
    /// Probes sent for this device today (all probes if not found).
    pub probes_sent: u64,
    /// The address the device was found at.
    pub address: Option<Ipv6Addr>,
}

/// All tracking rounds for one device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceTrackingResult {
    /// The tracked device.
    pub device: TrackedDevice,
    /// One entry per tracking day.
    pub daily: Vec<DailyResult>,
}

impl DeviceTrackingResult {
    /// Number of days the device was found (Table 2's "# Days").
    pub fn days_found(&self) -> usize {
        self.daily.iter().filter(|d| d.found).count()
    }

    /// Number of distinct /64 prefixes the device was found in (Table 2's
    /// "# /64 Prefixes").
    pub fn distinct_prefixes(&self) -> usize {
        let prefixes: HashSet<Ipv6Prefix> = self
            .daily
            .iter()
            .filter_map(|d| d.address.map(Ipv6Prefix::enclosing_64))
            .collect();
        prefixes.len()
    }

    /// Mean and standard deviation of the daily probe counts (Table 2's
    /// "Mean Probes / StdDev").
    pub fn probe_stats(&self) -> (f64, f64) {
        let counts: Vec<f64> = self.daily.iter().map(|d| d.probes_sent as f64).collect();
        (
            mean(&counts).unwrap_or(0.0),
            std_dev(&counts).unwrap_or(0.0),
        )
    }
}

/// The whole tracking experiment.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackingReport {
    /// Per-device results.
    pub devices: Vec<DeviceTrackingResult>,
}

/// One day of Figure 13: how many devices were found, and of those how many
/// were in the same /64 as first observed versus a different one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DailyCounts {
    /// Day index.
    pub day: u64,
    /// Devices found.
    pub found: usize,
    /// Found devices still in the /64 where they were first observed.
    pub same_prefix: usize,
    /// Found devices in a different /64.
    pub different_prefix: usize,
}

impl TrackingReport {
    /// Figure 13's per-day series.
    pub fn daily_counts(&self) -> Vec<DailyCounts> {
        let days = self
            .devices
            .iter()
            .map(|d| d.daily.len())
            .max()
            .unwrap_or(0);
        (0..days as u64)
            .map(|day| {
                let mut found = 0;
                let mut same = 0;
                let mut different = 0;
                for device in &self.devices {
                    let Some(result) = device.daily.iter().find(|r| r.day == day) else {
                        continue;
                    };
                    if !result.found {
                        continue;
                    }
                    found += 1;
                    let original = Ipv6Prefix::enclosing_64(device.device.first_observed);
                    match result.address.map(Ipv6Prefix::enclosing_64) {
                        Some(prefix) if prefix == original => same += 1,
                        Some(_) => different += 1,
                        None => {}
                    }
                }
                DailyCounts {
                    day,
                    found,
                    same_prefix: same,
                    different_prefix: different,
                }
            })
            .collect()
    }

    /// Fraction of device-days on which the device was found — the 60–90%
    /// re-identification accuracy the paper's abstract cites.
    pub fn overall_accuracy(&self) -> f64 {
        let total: usize = self.devices.iter().map(|d| d.daily.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let found: usize = self.devices.iter().map(|d| d.days_found()).sum();
        found as f64 / total as f64
    }
}

/// The tracker: the paper's §6 experiment, at its 10 kpps budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tracker;

impl Tracker {
    /// Select devices to track from reconnaissance inferences, mirroring the
    /// §6 selection rules: at most one device per AS and per country,
    /// excluding identifiers seen in multiple ASes, and optionally requiring
    /// that the identifier was already observed to rotate.
    #[allow(clippy::too_many_arguments)]
    pub fn select_devices(
        &self,
        allocation: &AllocationInference,
        pools: &RotationPoolInference,
        rib: &Rib,
        registry: &AsRegistry,
        multi_as_iids: &HashSet<Eui64>,
        count: usize,
        require_rotation: bool,
    ) -> Vec<TrackedDevice> {
        let mut candidates: Vec<(Eui64, Asn)> = pools
            .iid_asn
            .iter()
            .filter(|(eui, _)| !multi_as_iids.contains(eui))
            .map(|(eui, asn)| (*eui, *asn))
            .collect();
        // Deterministic ordering, then a seeded shuffle for "random"
        // selection.
        candidates.sort_by_key(|(eui, _)| eui.as_u64());
        scent_prober::permutation::seeded_shuffle(&mut candidates, SEED);

        let mut selected = Vec::new();
        let mut used_as: HashSet<Asn> = HashSet::new();
        let mut used_cc: HashSet<CountryCode> = HashSet::new();
        for (eui, asn) in candidates {
            if selected.len() >= count {
                break;
            }
            if used_as.contains(&asn) {
                continue;
            }
            if require_rotation && pools.per_iid.get(&eui).copied().unwrap_or(64) >= 64 {
                continue;
            }
            let country = registry.country(asn);
            if let Some(cc) = country {
                if used_cc.contains(&cc) {
                    continue;
                }
            }
            let Some(first_observed) = pools.anchor.get(&eui).copied() else {
                continue;
            };
            let Some(pool) = pools.pool_prefix_for(eui) else {
                continue;
            };
            let allocation_len = allocation.allocation_for(asn).max(pool.len());
            selected.push(TrackedDevice {
                iid: eui,
                asn,
                country,
                bgp_prefix_len: rib.encompassing_prefix_len(first_observed),
                first_observed,
                allocation_len,
                pool,
            });
            used_as.insert(asn);
            if let Some(cc) = country {
                used_cc.insert(cc);
            }
        }
        selected
    }

    /// Track the selected devices for `days` daily rounds starting on
    /// `start_day`.
    pub fn track<T: ProbeTransport + ?Sized>(
        &self,
        transport: &T,
        devices: &[TrackedDevice],
        start_day: u64,
        days: u64,
    ) -> TrackingReport {
        let generator = TargetGenerator::new(SEED ^ 0x7472);
        let mut results: Vec<DeviceTrackingResult> = devices
            .iter()
            .map(|device| DeviceTrackingResult {
                device: device.clone(),
                daily: Vec::with_capacity(days as usize),
            })
            .collect();

        for day_index in 0..days {
            let round_start = SimTime::at(start_day + day_index, START_HOUR);
            for result in &mut results {
                let device = &result.device;
                let daily =
                    self.track_one_round(transport, &generator, device, day_index, round_start);
                result.daily.push(daily);
            }
        }
        TrackingReport { devices: results }
    }

    /// One tracking round for one device: probe one target per allocation
    /// block of the device's inferred pool, in seeded random order, until a
    /// response carries the device's identifier.
    fn track_one_round<T: ProbeTransport + ?Sized>(
        &self,
        transport: &T,
        generator: &TargetGenerator,
        device: &TrackedDevice,
        day: u64,
        round_start: SimTime,
    ) -> DailyResult {
        let targets = generator.one_per_subnet(&device.pool, device.allocation_len);
        let order = RandomPermutation::new(targets.len() as u64, SEED ^ device.iid.as_u64() ^ day);
        let pacer = ProbePacer::new(round_start, PACKETS_PER_SECOND);
        let mut probes_sent = 0u64;
        for index in order.iter() {
            let target = targets[index as usize];
            let t = pacer.send_time(probes_sent);
            probes_sent += 1;
            let Some(reply) = transport.probe(target, t) else {
                continue;
            };
            if Eui64::from_addr(reply.source) == Some(device.iid) {
                return DailyResult {
                    day,
                    found: true,
                    probes_sent,
                    address: Some(reply.source),
                };
            }
        }
        DailyResult {
            day,
            found: false,
            probes_sent,
            address: None,
        }
    }
}

/// One passive sighting of an EUI-64 identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sighting {
    /// Probing-order sequence number of the observation within its window
    /// (used to keep merges deterministic: the earliest sighting wins).
    pub seq: u64,
    /// The address the identifier was observed at.
    pub address: Ipv6Addr,
}

/// One entry of the [`IncrementalTracker`]'s log: `eui` sighted in `window`
/// at probing position `seq`, under the /64 `prefix64`. The address is the
/// prefix plus the identifier's interface ID, so 32 bytes lose nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedSighting {
    /// The identifier.
    pub eui: Eui64,
    /// The window it was sighted in.
    pub window: u64,
    /// The observation's probing-order sequence number within the window.
    pub seq: u64,
    /// The network half of the address it was sighted at.
    pub prefix64: u64,
}

impl LoggedSighting {
    /// The entry for `eui`'s `sighting` in `window`, if the sighting's
    /// address carries `eui` as its interface ID.
    pub fn new(eui: Eui64, window: u64, sighting: Sighting) -> Option<Self> {
        let bits = addr_to_u128(sighting.address);
        (bits as u64 == eui.0).then_some(LoggedSighting {
            eui,
            window,
            seq: sighting.seq,
            prefix64: (bits >> 64) as u64,
        })
    }

    /// The address the identifier was sighted at.
    pub fn address(&self) -> Ipv6Addr {
        self.eui.with_prefix64(self.prefix64)
    }

    /// The entry as a [`Sighting`].
    pub fn sighting(&self) -> Sighting {
        Sighting {
            seq: self.seq,
            address: self.address(),
        }
    }

    /// The canonical order: one entry per key.
    fn key(&self) -> (Eui64, u64) {
        (self.eui, self.window)
    }

    /// Of two sightings of one key, the one kept: the lower `seq`, and on an
    /// equal `seq` the one that arrived first (`self`).
    fn earliest(self, later: Self) -> Self {
        if later.seq < self.seq {
            later
        } else {
            self
        }
    }
}

/// Sightings one tail chunk holds (8 KiB).
const CHUNK: usize = 256;
/// A tail shorter than this (1 MiB of sightings) does not fold on its own,
/// so a run that reads its tracker once folds it once.
const FOLD_FLOOR: usize = 1 << 15;
/// The most sightings one fold orders: a pending sighting's arrival
/// ordinal, and an identifier's rank among its own sightings, fit in 16
/// bits.
const FOLD_LIMIT: usize = 1 << 16;
/// The longest tail a fold orders by sorting packed keys in a stack array
/// (16 KiB): on a `tenants_64` session's 1 072 sightings the key sort is
/// about 1.4× faster than the radix passes. A longer tail takes the
/// passes, as its keys (8 B a sighting, 512 KiB at [`FOLD_LIMIT`]) would
/// fit neither a shard thread's stack, where `observe` folds, nor the heap,
/// as a fold allocates only the run's growth.
const KEY_FOLD: usize = 2_048;
/// The `ff:fe` marker of an EUI-64 interface ID: bytes 3 and 4.
const MARKER_SHIFT: u32 = 24;
const MARKER_MASK: u64 = 0xffff << MARKER_SHIFT;
const MARKER: u64 = 0xfffe << MARKER_SHIFT;
/// The shifts of the interface ID's six other bytes, least significant
/// first: a fold's radix passes.
const RADIX_SHIFTS: [u32; 6] = [0, 8, 16, 40, 48, 56];

/// The byte of `entry`'s identifier at `shift`: its bucket in that pass.
#[inline]
fn radix_byte(entry: &LoggedSighting, shift: u32) -> usize {
    (entry.eui.0 >> shift) as u8 as usize
}

/// The key `entry`, the `ordinal`-th pending sighting, sorts by: its
/// identifier's six non-marker bytes in the top 48 bits, most significant
/// first, and the ordinal in the low 16. Every pending identifier carries
/// the same marker, so the keys order identifiers as [`Eui64`] does, and
/// one identifier's sightings by arrival; no two keys are equal.
#[inline]
fn fold_key(entry: &LoggedSighting, ordinal: usize) -> u64 {
    let eui = entry.eui.0;
    eui & !0 << 40 | (eui & 0xff_ffff) << 16 | ordinal as u64
}

/// How many entries open `entries` (not empty) with its first entry's
/// identifier: a forward scan, as an identifier's sightings are a few
/// entries long.
fn identifier_len(entries: &[LoggedSighting]) -> usize {
    let first = entries[0].eui;
    (entries[1..].iter())
        .position(|entry| entry.eui != first)
        .map_or(entries.len(), |at| at + 1)
}

/// Sightings not yet folded, in arrival order, in fixed-size chunks. A fold
/// empties the chunks and frees none, so a tail costs its largest size once.
#[derive(Debug, Clone, Default)]
struct Tail {
    chunks: Vec<Vec<LoggedSighting>>,
    /// Chunks in use: full, but for the last.
    used: usize,
    len: usize,
}

impl Tail {
    #[inline]
    fn push(&mut self, entry: LoggedSighting) {
        if self.len == self.used * CHUNK {
            self.next_chunk();
        }
        self.chunks[self.used - 1].push(entry);
        self.len += 1;
    }

    #[cold]
    fn next_chunk(&mut self) {
        if self.used == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.used += 1;
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = &LoggedSighting> {
        self.chunks[..self.used].iter().flatten()
    }

    /// The `at`-th sighting in arrival order.
    #[inline]
    fn get(&self, at: usize) -> LoggedSighting {
        self.chunks[at / CHUNK][at % CHUNK]
    }

    fn clear(&mut self) {
        for chunk in &mut self.chunks[..self.used] {
            chunk.clear();
        }
        self.used = 0;
        self.len = 0;
    }
}

/// The incremental, passive counterpart of [`Tracker`]: instead of actively
/// searching a pool for one device per day, it follows *every* EUI-64
/// identifier visible in a continuous observation stream and folds its
/// sightings into the same [`TrackingReport`] type the batch experiments
/// consume.
///
/// The tracker is an append-only log. An observation appends one
/// [`LoggedSighting`] to the tail and looks nothing up. A fold sorts the
/// tail and merges it into the canonical run — one entry per `(identifier,
/// window)`, ascending, the earliest `seq` kept. The tail folds when it
/// outgrows the run (amortized, so memory stays proportional to identifiers
/// × windows however often one device answers), and every reader of
/// sightings but the report folds it first, in place.
///
/// State is mergeable across shards: identifiers are routed by announced
/// prefix, so one identifier's history always lives in a single shard, and
/// `merge` is a disjoint union.
#[derive(Debug, Clone, Default)]
pub struct IncrementalTracker {
    /// The canonical run: ascending by `(identifier, window)`, one entry per
    /// pair.
    run: Vec<LoggedSighting>,
    tail: Tail,
    /// Probes observed per (window, /48 network bits) — the attributable
    /// passive cost. On the [`crate::fasthash`] hasher: it is touched once
    /// per detection-phase observation, on the streaming hot path.
    probes: FastMap<(u64, u64), u64>,
}

impl IncrementalTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one probe observation into the running state.
    #[inline]
    pub fn observe(&mut self, window: u64, seq: u64, target: Ipv6Addr, source: Option<Ipv6Addr>) {
        *self
            .probes
            .entry((window, network_48(addr_to_u128(target))))
            .or_insert(0) += 1;
        let Some(source) = source else { return };
        let Some(eui) = Eui64::from_addr(source) else {
            return;
        };
        self.tail.push(LoggedSighting {
            eui,
            window,
            seq,
            prefix64: (addr_to_u128(source) >> 64) as u64,
        });
        if self.tail.len >= self.run.len().clamp(FOLD_FLOOR, FOLD_LIMIT) {
            self.fold();
        }
    }

    /// Identifiers currently followed (sighted in a retained window). Folds
    /// first.
    pub fn identifiers_seen(&mut self) -> usize {
        self.fold();
        self.identifiers().count()
    }

    /// Drop all per-window state older than `window` (exclusive). This is
    /// what keeps a genuinely endless monitor bounded: without compaction,
    /// probes grow by one entry per watched /48 per window and sightings by
    /// one entry per live identifier per window. Identifiers with no
    /// retained sightings are forgotten entirely, so a `finish` after
    /// compaction reports only the retained horizon.
    pub fn compact_before(&mut self, window: u64) {
        self.fold();
        self.probes.retain(|(w, _), _| *w >= window);
        self.run.retain(|entry| entry.window >= window);
    }

    /// Each sighted identifier's sightings, ascending by identifier and
    /// within it by window — the run a checkpoint encodes, borrowed. `None`
    /// while the tail is unfolded.
    pub fn sightings(&self) -> Option<impl Iterator<Item = &[LoggedSighting]> + Clone> {
        (self.tail.len == 0).then(|| self.identifiers())
    }

    /// The probe counts per (window, /48), in no particular order.
    pub fn probe_counts(&self) -> impl Iterator<Item = (u64, Ipv6Prefix, u64)> + '_ {
        self.probes
            .iter()
            .map(|(&(window, net), &count)| (window, prefix_48(net), count))
    }

    /// Rebuild a folded tracker from what [`IncrementalTracker::sightings`]
    /// and [`IncrementalTracker::probe_counts`] read. The run must be
    /// strictly ascending by `(identifier, window)` and every probe prefix a
    /// /48.
    pub fn from_checkpoint_parts(
        run: Vec<LoggedSighting>,
        probes: impl IntoIterator<Item = (u64, Ipv6Prefix, u64)>,
    ) -> Result<Self, &'static str> {
        if run.windows(2).any(|pair| pair[0].key() >= pair[1].key()) {
            return Err("sightings out of order");
        }
        let probes = probes
            .into_iter()
            .map(|(window, prefix, count)| {
                (prefix.len() == 48).then(|| ((window, network_48(prefix.network_bits())), count))
            })
            .collect::<Option<_>>()
            .ok_or("probe prefix is not a /48")?;
        Ok(IncrementalTracker {
            run,
            probes,
            ..Self::default()
        })
    }

    /// Merge another tracker's state (shards hold disjoint identifier sets,
    /// but the merge is written to be correct even when they overlap: on an
    /// equal `seq` this tracker's sighting wins, so its own tail folds
    /// first).
    pub fn merge(&mut self, mut other: IncrementalTracker) {
        self.fold();
        other.fold();
        let len = other.run.len();
        merge_sorted(
            &mut self.run,
            other.run.into_iter(),
            len,
            LoggedSighting::key,
            LoggedSighting::earliest,
        );
        for (key, count) in other.probes {
            *self.probes.entry(key).or_insert(0) += count;
        }
    }

    /// Fold the tail into the run, in place.
    ///
    /// The tail is first copied into the run's spare capacity grouped by
    /// identifier, ascending, each identifier's sightings in arrival order.
    /// A tail of up to [`KEY_FOLD`] sightings gets there by one sort of
    /// packed `u64` keys ([`fold_key`]) in a stack array and one gather; a
    /// longer one by a stable LSD radix sort, one pass per non-marker byte
    /// of the interface ID, least significant first (a pass is skipped when
    /// every pending sighting has the same byte there), the passes
    /// alternating between the run's spare capacity and the tail's chunks
    /// so that the last lands in the run. Each identifier's few sightings
    /// are then ordered in place by window, `seq` and arrival rank, which
    /// the fold writes into their `ff:fe` bits, the first of each window is
    /// kept, and the sorted, unique tail goes back into the tail's chunks
    /// for the merge to read. A fold allocates nothing but the run's
    /// growth.
    pub fn fold(&mut self) {
        let kept = self.run.len();
        let pending = self.tail.len;
        if pending == 0 {
            return;
        }
        assert!(pending <= FOLD_LIMIT, "the tail folds at FOLD_LIMIT");
        self.run.reserve_exact(pending);
        if pending <= KEY_FOLD {
            self.order_by_keys();
        } else {
            self.order_by_radix();
        }
        // Each identifier's sightings go by window, `seq`, then arrival, and
        // the first of each window stays. Every tail identifier came through
        // `Eui64::from_addr`, so the marker it gets back is the one it had.
        let mut unique = kept;
        let mut at = kept;
        while at < kept + pending {
            let len = identifier_len(&self.run[at..kept + pending]);
            let sightings = &mut self.run[at..at + len];
            if len > 1 {
                for (rank, entry) in sightings.iter_mut().enumerate() {
                    entry.eui.0 = entry.eui.0 & !MARKER_MASK | (rank as u64) << MARKER_SHIFT;
                }
                sightings.sort_unstable_by_key(|e| (e.window, e.seq, e.eui.0 & MARKER_MASK));
            }
            let mut window = None;
            for read in at..at + len {
                let entry = self.run[read];
                if window != Some(entry.window) {
                    window = Some(entry.window);
                    self.run[unique] = LoggedSighting {
                        eui: Eui64(entry.eui.0 & !MARKER_MASK | MARKER),
                        ..entry
                    };
                    unique += 1;
                }
            }
            at += len;
        }
        self.tail.clear();
        if kept == 0 {
            // Nothing to merge with: the sorted tail is the run.
            self.run.truncate(unique);
            return;
        }
        for entry in &self.run[kept..unique] {
            self.tail.push(*entry);
        }
        self.run.truncate(kept);
        merge_sorted(
            &mut self.run,
            self.tail.iter().copied(),
            self.tail.len,
            LoggedSighting::key,
            LoggedSighting::earliest,
        );
        self.tail.clear();
    }

    /// Append the tail (at most [`KEY_FOLD`] sightings) to the run by
    /// identifier, each identifier's sightings in arrival order: one
    /// unstable sort of unique keys, so one order, and one gather.
    fn order_by_keys(&mut self) {
        let mut keys = [0u64; KEY_FOLD];
        let keys = &mut keys[..self.tail.len];
        for (ordinal, (key, entry)) in keys.iter_mut().zip(self.tail.iter()).enumerate() {
            *key = fold_key(entry, ordinal);
        }
        keys.sort_unstable();
        let tail = &self.tail;
        (self.run).extend(keys.iter().map(|key| tail.get(*key as u16 as usize)));
    }

    /// Append the tail to the run by identifier, each identifier's
    /// sightings in arrival order: a stable LSD radix sort.
    fn order_by_radix(&mut self) {
        // One read of the tail counts every radix byte into the run's copy,
        // so the passes can start from either side.
        let kept = self.run.len();
        let pending = self.tail.len;
        let mut counts = [[0u32; 256]; RADIX_SHIFTS.len()];
        self.run.extend(self.tail.iter().inspect(|entry| {
            for (count, shift) in counts.iter_mut().zip(RADIX_SHIFTS) {
                count[radix_byte(entry, shift)] += 1;
            }
        }));
        // A byte every pending sighting shares orders nothing. The passes
        // start from whichever copy puts the last of them in the run.
        let first = self.run[kept];
        let passes = || {
            (counts.iter().zip(RADIX_SHIFTS))
                .filter(|(count, shift)| count[radix_byte(&first, *shift)] as usize != pending)
        };
        let mut in_run = passes().count() % 2 == 0;
        for (count, shift) in passes() {
            // Where each byte value's next entry goes: its bucket's start.
            let mut next = [0usize; 256];
            let mut start = 0;
            for (next, &count) in next.iter_mut().zip(count) {
                *next = start;
                start += count as usize;
            }
            let mut place = |entry: &LoggedSighting| {
                let slot = &mut next[radix_byte(entry, shift)];
                *slot += 1;
                *slot - 1
            };
            if in_run {
                for entry in &self.run[kept..] {
                    let at = place(entry);
                    self.tail.chunks[at / CHUNK][at % CHUNK] = *entry;
                }
            } else {
                let run = &mut self.run[kept..];
                self.tail
                    .iter()
                    .for_each(|entry| run[place(entry)] = *entry);
            }
            in_run = !in_run;
        }
        debug_assert!(in_run, "the last pass writes the run");
    }

    /// Each sighted identifier's sightings, ascending by identifier: the
    /// run cut where the identifier changes, found by a forward scan (an
    /// identifier has a sighting per retained window, so its end is a few
    /// entries on).
    fn identifiers(&self) -> impl Iterator<Item = &[LoggedSighting]> + Clone {
        let mut rest = self.run.as_slice();
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let (sightings, after) = rest.split_at(identifier_len(rest));
            rest = after;
            Some(sightings)
        })
    }

    /// The accumulated state in the batch [`TrackingReport`] shape.
    ///
    /// Devices are the up-to-`max_devices` routable identifiers seen in the
    /// most windows (ties broken by identifier, so shard count never changes
    /// the selection). Each device's daily probe count is the number of
    /// passive observations that landed in its inferred pool that window —
    /// the streaming analogue of the active tracker's per-round probe cost.
    ///
    /// The report reads the run and the unfolded tail as they stand, in
    /// three passes: one counts each identifier's windows in a scratch
    /// table (on the stack for up to 768 identifiers, on the heap past them),
    /// a top-k selection ranks the routable ones, and one more gathers the
    /// chosen identifiers' sightings, keeping per window the lowest `seq`
    /// and on an equal `seq` the first arrival, run before tail. Only a
    /// tail in which some identifier's windows go backwards — which a
    /// monitor shard, routed in probing order, never holds — is folded
    /// first, in place.
    pub fn finish(
        &mut self,
        rib: &Rib,
        registry: &AsRegistry,
        windows: u64,
        max_devices: usize,
    ) -> TrackingReport {
        assert!(
            self.run.len() + self.tail.len <= u32::MAX as usize,
            "a sighting's position fits a count slot"
        );
        let mut stack = [Slot::default(); STACK_SLOTS];
        let mut counts = Counts::over(&mut stack);
        if !self.count_windows(&mut counts) {
            self.fold();
            counts.clear();
            let ordered = self.count_windows(&mut counts);
            debug_assert!(ordered, "a run's windows ascend");
        }
        let slots = counts.slots();
        let ranked = self.rank(slots, rib, max_devices);
        let ranked = &mut slots[..ranked];

        let mut devices = Vec::with_capacity(ranked.len());
        for (device, slot) in ranked.iter_mut().enumerate() {
            let first = self.entry(slot.first).address();
            let asn = rib.origin(first).expect("ranked identifiers are routable");
            devices.push(DeviceTrackingResult {
                device: TrackedDevice {
                    iid: Eui64(slot.eui),
                    asn,
                    country: registry.country(asn),
                    bgp_prefix_len: rib.encompassing_prefix_len(first),
                    first_observed: first,
                    allocation_len: 64,
                    // Set once the days are gathered.
                    pool: common_pool(std::iter::once(first)),
                },
                daily: Vec::with_capacity((slot.count as u64).max(windows) as usize),
            });
            slot.last = device as u64;
        }

        // Most sightings are of identifiers not chosen: a bit per chosen
        // identifier's last byte turns nearly all of them away unsearched.
        ranked.sort_unstable_by_key(|slot| slot.eui);
        let mut last_bytes = [0u64; 4];
        for slot in ranked.iter() {
            last_bytes[slot.eui as u8 as usize / 64] |= 1 << (slot.eui % 64);
        }
        let device = |eui: Eui64| {
            let byte = eui.0 as u8 as usize;
            if last_bytes[byte / 64] & 1 << (byte % 64) == 0 {
                return None;
            }
            (ranked.binary_search_by_key(&eui.0, |slot| slot.eui))
                .ok()
                .map(|at| ranked[at].last as usize)
        };
        // Gather each chosen identifier's sightings into its days, a found
        // day per window in window order. Until the device is finished, a
        // day's `probes_sent` holds its kept sighting's `seq`.
        let mut keep = |device: usize, entry: &LoggedSighting| {
            let daily = &mut devices[device].daily;
            match daily.last_mut() {
                Some(day) if day.day == entry.window => {
                    if entry.seq < day.probes_sent {
                        (day.probes_sent, day.address) = (entry.seq, Some(entry.address()));
                    }
                }
                _ => daily.push(DailyResult {
                    day: entry.window,
                    found: true,
                    probes_sent: entry.seq,
                    address: Some(entry.address()),
                }),
            }
        };
        for sightings in self.identifiers() {
            if let Some(device) = device(sightings[0].eui) {
                sightings.iter().for_each(|entry| keep(device, entry));
            }
        }
        for entry in self.tail.iter() {
            if let Some(device) = device(entry.eui) {
                keep(device, entry);
            }
        }

        for result in &mut devices {
            let daily = &mut result.daily;
            let pool = common_pool(daily.iter().filter_map(|day| day.address));
            result.device.pool = pool;
            // Days past the report's windows shape the pool and no more. The
            // found days spread out to their windows from the back, each
            // moving up, and every window gets its probes.
            daily.truncate(daily.partition_point(|day| day.day < windows));
            let mut found = daily.len();
            let unfound = DailyResult {
                day: 0,
                found: false,
                probes_sent: 0,
                address: None,
            };
            daily.resize(windows as usize, unfound);
            for window in (0..windows).rev() {
                let address = (found > 0 && daily[found - 1].day == window).then(|| {
                    found -= 1;
                    daily[found].address
                });
                daily[window as usize] = DailyResult {
                    day: window,
                    found: address.is_some(),
                    probes_sent: self.pool_probes(window, &pool),
                    address: address.flatten(),
                };
            }
        }
        TrackingReport { devices }
    }

    /// Count each identifier's windows into `counts`, reading the run and
    /// then the tail: a slot keeps the identifier's last window and where
    /// its first window's kept sighting is. False, leaving `counts` partly
    /// filled, if some identifier's windows go backwards.
    fn count_windows(&self, counts: &mut Counts) -> bool {
        let mut at = 0;
        for sightings in self.identifiers() {
            *counts.slot(sightings[0].eui.0) = Slot {
                eui: sightings[0].eui.0,
                last: sightings[sightings.len() - 1].window,
                count: sightings.len() as u32,
                first: at as u32,
            };
            at += sightings.len();
        }
        for entry in self.tail.iter() {
            let slot = counts.slot(entry.eui.0);
            if slot.count == 0 {
                *slot = Slot {
                    eui: entry.eui.0,
                    last: entry.window,
                    count: 1,
                    first: at as u32,
                };
            } else if entry.window > slot.last {
                (slot.count, slot.last) = (slot.count + 1, entry.window);
            } else if entry.window < slot.last {
                return false;
            } else if slot.count == 1 && entry.seq < self.entry(slot.first).seq {
                slot.first = at as u32;
            }
            at += 1;
        }
        true
    }

    /// Move the up-to-`max` best routable identifiers of the count table
    /// `slots` to its front, most windows first, then by identifier, and
    /// return how many there are. One pass admits a routable identifier
    /// that beats the bar — the `max`-th best admitted at the last cut —
    /// and cuts the admitted back to the best `max` whenever they reach
    /// twice that, so unroutable identifiers take no place however many
    /// outrank the routable ones.
    fn rank(&self, slots: &mut [Slot], rib: &Rib, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        // The first bar, an empty slot's key, turns away empty slots only.
        // A table is about half empty in no order, so one compare serves
        // both: a branch for emptiness mispredicted every other slot.
        let (mut admitted, mut bar) = (0, Slot::default().rank_key());
        for at in 0..slots.len() {
            let slot = slots[at];
            if slot.rank_key() >= bar || rib.origin(self.entry(slot.first).address()).is_none() {
                continue;
            }
            slots[admitted] = slot;
            admitted += 1;
            if admitted == max.saturating_mul(2) {
                slots[..admitted].select_nth_unstable_by_key(max - 1, Slot::rank_key);
                admitted = max;
                bar = slots[max - 1].rank_key();
            }
        }
        slots[..admitted].sort_unstable_by_key(Slot::rank_key);
        admitted.min(max)
    }

    /// The `at`-th sighting of the run followed by the tail.
    fn entry(&self, at: u32) -> LoggedSighting {
        let at = at as usize;
        match at.checked_sub(self.run.len()) {
            None => self.run[at],
            Some(pending) => self.tail.get(pending),
        }
    }

    /// Passive probes attributable to `pool` during `window`: the probes of
    /// every /48 the pool covers, or — for a pool narrower than /48 — the
    /// probes of the /48 containing it (per-/48 counting is the tracker's
    /// granularity floor).
    fn pool_probes(&self, window: u64, pool: &Ipv6Prefix) -> u64 {
        if pool.len() >= 48 {
            let net = network_48(pool.network_bits());
            self.probes.get(&(window, net)).copied().unwrap_or(0)
        } else {
            self.probes
                .iter()
                .filter(|((w, net), _)| *w == window && pool.contains_prefix(&prefix_48(*net)))
                .map(|(_, count)| count)
                .sum()
        }
    }
}

/// Count slots of the table [`IncrementalTracker::finish`] starts on the
/// stack (24 KiB): 768 identifiers fill it three quarters, against a
/// `tenants_64` session's 268.
const STACK_SLOTS: usize = 1_024;
/// The slots a count takes when it outgrows the stack (384 KiB, 12 288
/// identifiers); past that it grows four times over. A `steady_watch`
/// run's 6 672 identifiers fit, so its finish asks for this one table
/// against the fold's 829 KiB run: growing four times over from the stack
/// asked for 480 KiB and, in two steps each re-inserting the count and
/// touching fresh pages, read that finish 1.3–1.6× slower (the least of 60
/// finishes, builds alternated).
const HEAP_SLOTS: usize = 16_384;

/// One identifier in [`IncrementalTracker::finish`]'s count; empty while
/// its count is 0. Once ranked, `last` is the device it became.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    eui: u64,
    /// The last window read.
    last: u64,
    /// The windows read.
    count: u32,
    /// The position of its first window's kept sighting in the run followed
    /// by the tail.
    first: u32,
}

impl Slot {
    /// The ranking, ascending: most windows first, then by identifier.
    fn rank_key(&self) -> u128 {
        ((u32::MAX - self.count) as u128) << 64 | self.eui as u128
    }
}

/// An open-addressing table of [`Slot`]s keyed by identifier, linearly
/// probed and at most three quarters full: in a stack array until it
/// outgrows it, then on the heap.
struct Counts<'s> {
    stack: &'s mut [Slot],
    heap: Vec<Slot>,
    len: usize,
}

impl<'s> Counts<'s> {
    fn over(stack: &'s mut [Slot]) -> Self {
        Counts {
            stack,
            heap: Vec::new(),
            len: 0,
        }
    }

    #[inline(always)]
    fn slots(&mut self) -> &mut [Slot] {
        if self.heap.is_empty() {
            self.stack
        } else {
            &mut self.heap
        }
    }

    /// `eui`'s slot, claimed with a count of 0 if it had none.
    #[inline(always)]
    fn slot(&mut self, eui: u64) -> &mut Slot {
        let mut at = probe(self.slots(), eui);
        if self.slots()[at].count == 0 {
            if (self.len + 1) * 4 > self.slots().len() * 3 {
                self.grow();
                at = probe(self.slots(), eui);
            }
            self.len += 1;
            self.slots()[at].eui = eui;
        }
        &mut self.slots()[at]
    }

    #[cold]
    fn grow(&mut self) {
        let slots = self.slots();
        let mut grown = vec![Slot::default(); (slots.len() * 4).max(HEAP_SLOTS)];
        for slot in slots.iter().filter(|slot| slot.count > 0) {
            let at = probe(&grown, slot.eui);
            grown[at] = *slot;
        }
        self.heap = grown;
    }

    fn clear(&mut self) {
        self.slots().fill(Slot::default());
        self.len = 0;
    }
}

/// Where `eui` is in `slots` (a power of two long, never full), or the
/// empty slot its probe ends at. An identifier's varying bytes are its low
/// three and its top three: folding the halves and one multiply spreads
/// them over the top bits, which pick the first slot.
#[inline(always)]
fn probe(slots: &[Slot], eui: u64) -> usize {
    let mask = slots.len() - 1;
    let spread = (eui ^ eui >> 32).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let mut at = (spread >> (64 - slots.len().trailing_zeros())) as usize;
    while slots[at].count > 0 && slots[at].eui != eui {
        at = (at + 1) & mask;
    }
    at
}

/// The network bits of the /48 containing the address `bits`, as the top
/// 48 bits of a `u64` — the probe counts' key, a third the size of an
/// [`Ipv6Prefix`].
fn network_48(bits: u128) -> u64 {
    (bits >> 64) as u64 & !0xffff
}

/// The /48 whose network bits [`network_48`] returned.
fn prefix_48(net: u64) -> Ipv6Prefix {
    Ipv6Prefix::from_bits((net as u128) << 64, 48).expect("48 is valid")
}

/// Merge `incoming` — `len` items, ascending and unique by `key` — into
/// `into`, which is too, in place: `into` grows by `len` and is filled from
/// the back, and where a key is in both `resolve(mine, incoming)` is kept.
fn merge_sorted<T: Copy, K: Ord>(
    into: &mut Vec<T>,
    incoming: impl DoubleEndedIterator<Item = T>,
    len: usize,
    key: impl Fn(&T) -> K,
    resolve: impl Fn(T, T) -> T,
) {
    let mut incoming = incoming.rev().peekable();
    let Some(&pad) = incoming.peek() else {
        return;
    };
    let mut read = into.len();
    let end = read + len;
    into.resize(end, pad);
    let mut write = end;
    for next in incoming {
        // Everything of `into` above `next`'s key goes first.
        while read > 0 && key(&into[read - 1]) > key(&next) {
            read -= 1;
            write -= 1;
            into[write] = into[read];
        }
        write -= 1;
        into[write] = if read > 0 && key(&into[read - 1]) == key(&next) {
            read -= 1;
            resolve(into[read], next)
        } else {
            next
        };
    }
    // `into[..read]` never moved; a key found in both left a gap above it.
    into.copy_within(write..end, read);
    into.truncate(end - (write - read));
}
/// The tightest prefix containing every sighted address — the passively
/// inferred rotation pool, clamped to /64 (an address's own subnet) at the
/// narrow end.
fn common_pool<I: Iterator<Item = Ipv6Addr>>(mut addresses: I) -> Ipv6Prefix {
    let first = addresses.next().expect("at least one sighting");
    let first_bits = addr_to_u128(first);
    let mut len: u8 = 64;
    for addr in addresses {
        let differing = (first_bits ^ addr_to_u128(addr)).leading_zeros() as u8;
        len = len.min(differing);
    }
    Ipv6Prefix::from_bits(first_bits, len).expect("length clamped to <= 64")
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_prober::{Scan, Scanner};
    use scent_simnet::{scenarios, Engine, SimDuration};

    /// Reconnaissance: a few daily scans of the Versatel /56 pools to obtain
    /// allocation/pool inferences and candidate identifiers.
    fn reconnaissance(engine: &Engine, days: u64) -> Vec<Scan> {
        let generator = TargetGenerator::new(15);
        let mut targets = Vec::new();
        for pool in engine.pools() {
            if pool.config.allocation_len == 56 {
                targets.extend(generator.one_per_subnet(&pool.config.prefix, 56));
            }
        }
        let scanner = Scanner::at_paper_rate(41);
        let day = SimDuration::from_days(1);
        scanner.scans(engine, &targets, SimTime::at(1, 9), days, day)
    }

    fn build_tracking_setup() -> (Engine, Vec<TrackedDevice>) {
        let engine = Engine::build(scenarios::versatel_like(121)).unwrap();
        // Rotation-pool inference needs observations across days; allocation
        // inference needs a single-day scan at /64 granularity (pooling
        // rotated days would conflate rotation with allocation size).
        let scans = reconnaissance(&engine, 12);
        let refs: Vec<&Scan> = scans.iter().collect();
        let pool56 = engine
            .pools()
            .iter()
            .find(|p| p.config.allocation_len == 56)
            .unwrap()
            .config
            .prefix;
        let alloc_targets = TargetGenerator::new(16).one_per_subnet(&pool56, 64);
        let alloc_scan =
            Scanner::at_paper_rate(43).scan(&engine, &alloc_targets, SimTime::at(2, 9));
        let allocation = AllocationInference::infer(&[&alloc_scan], engine.rib());
        let pools = RotationPoolInference::infer(&refs, engine.rib());
        let tracker = Tracker;
        let devices = tracker.select_devices(
            &allocation,
            &pools,
            engine.rib(),
            engine.as_registry(),
            &HashSet::new(),
            3,
            true,
        );
        (engine, devices)
    }

    #[test]
    fn selection_respects_constraints() {
        let (engine, devices) = build_tracking_setup();
        // Only one AS exists in this world, so at most one device per the
        // one-per-AS rule... except we asked for 3; the constraint caps it.
        assert_eq!(devices.len(), 1);
        let device = &devices[0];
        assert_eq!(device.asn, Asn(8881));
        assert_eq!(device.country.unwrap().as_str(), "DE");
        assert_eq!(device.bgp_prefix_len, Some(32));
        assert_eq!(device.allocation_len, 56);
        assert!(device.pool.len() <= 48, "pool {}", device.pool);
        assert!(device.pool.contains(device.first_observed));
        assert!(engine.rib().origin(device.first_observed).is_some());
    }

    #[test]
    fn tracking_finds_rotating_device_daily_with_bounded_probes() {
        let (engine, devices) = build_tracking_setup();
        let tracker = Tracker;
        let report = tracker.track(&engine, &devices, 10, 7);
        assert_eq!(report.devices.len(), 1);
        let result = &report.devices[0];
        assert_eq!(result.daily.len(), 7);
        // The device rotates daily but is found almost every day.
        assert!(
            result.days_found() >= 6,
            "found {} days",
            result.days_found()
        );
        assert!(result.distinct_prefixes() >= 5);
        let (mean_probes, _std) = result.probe_stats();
        // The inferred pool has at most 2^(56-44) = 4096 allocation blocks;
        // far fewer than the naive 2^32 /64s of the BGP /32.
        assert!(mean_probes > 0.0);
        assert!(mean_probes < 5_000.0, "mean probes {mean_probes}");
        let total: u64 = result.daily.iter().map(|d| d.probes_sent).sum();
        assert!(total < 40_000);

        // Figure 13-style accounting.
        let counts = report.daily_counts();
        assert_eq!(counts.len(), 7);
        for day in &counts {
            assert_eq!(day.found, day.same_prefix + day.different_prefix);
        }
        // A daily-rotating device is almost always in a different /64 than
        // where it was first observed.
        let different_days: usize = counts.iter().map(|c| c.different_prefix).sum();
        assert!(different_days >= 5);
        assert!(report.overall_accuracy() > 0.8);
    }

    #[test]
    fn selection_can_exclude_multi_as_iids_and_non_rotators() {
        let (engine, _devices) = build_tracking_setup();
        let scans = reconnaissance(&engine, 6);
        let refs: Vec<&Scan> = scans.iter().collect();
        let allocation = AllocationInference::infer(&refs, engine.rib());
        let pools = RotationPoolInference::infer(&refs, engine.rib());
        let tracker = Tracker;
        // Excluding every candidate IID leaves nothing to select.
        let all: HashSet<Eui64> = pools.iid_asn.keys().copied().collect();
        let none = tracker.select_devices(
            &allocation,
            &pools,
            engine.rib(),
            engine.as_registry(),
            &all,
            5,
            false,
        );
        assert!(none.is_empty());
        // Without the rotation requirement a device is still selected.
        let any = tracker.select_devices(
            &allocation,
            &pools,
            engine.rib(),
            engine.as_registry(),
            &HashSet::new(),
            5,
            false,
        );
        assert_eq!(any.len(), 1);
    }

    #[test]
    fn empty_report_metrics() {
        let report = TrackingReport::default();
        assert!(report.daily_counts().is_empty());
        assert_eq!(report.overall_accuracy(), 0.0);
    }

    fn incremental_setup() -> (Rib, AsRegistry) {
        let mut rib = Rib::new();
        rib.announce("2001:db8::/32".parse().unwrap(), Asn(64496));
        let mut registry = AsRegistry::new();
        registry.register(64496, "TestNet", "DE");
        (rib, registry)
    }

    fn eui_at(mac_low: u8, prefix64: u64) -> (Eui64, Ipv6Addr) {
        let mac = scent_ipv6::MacAddr::new([0xc8, 0x0e, 0x14, 0, 0, mac_low]);
        let eui = Eui64::from_mac(mac);
        (eui, eui.with_prefix64(prefix64))
    }

    #[test]
    fn incremental_tracker_attributes_probes_to_sub_48_pools() {
        let (rib, registry) = incremental_setup();
        let mut tracker = IncrementalTracker::new();
        // A device sighted twice inside one /56 — the inferred pool is
        // narrower than /48, but per-window probe cost must still be the
        // containing /48's count, not zero.
        let (_eui, addr0) = eui_at(1, 0x2001_0db8_0001_1000);
        let (_eui, addr1) = eui_at(1, 0x2001_0db8_0001_1100);
        for (window, addr) in [(0u64, addr0), (1u64, addr1)] {
            tracker.observe(window, 0, addr, Some(addr));
            tracker.observe(window, 1, "2001:db8:1:2::9".parse().unwrap(), None);
        }
        let report = tracker.finish(&rib, &registry, 2, 4);
        assert_eq!(report.devices.len(), 1);
        let device = &report.devices[0];
        assert!(device.device.pool.len() > 48, "pool {}", device.device.pool);
        for daily in &device.daily {
            assert_eq!(daily.probes_sent, 2, "window {}", daily.day);
        }
    }

    #[test]
    fn incremental_tracker_cap_skips_unroutable_identifiers() {
        let (rib, registry) = incremental_setup();
        let mut tracker = IncrementalTracker::new();
        // Two identifiers in unannounced space, seen in MORE windows than the
        // routable one: they must not consume the single report slot.
        for window in 0..3u64 {
            let (_e, unrouted_a) = eui_at(2, 0x3fff_0000_0000_0000 + window);
            let (_e, unrouted_b) = eui_at(3, 0x3fff_0000_0001_0000 + window);
            tracker.observe(window, 0, unrouted_a, Some(unrouted_a));
            tracker.observe(window, 1, unrouted_b, Some(unrouted_b));
        }
        let (routable_eui, routable_addr) = eui_at(4, 0x2001_0db8_0002_0000);
        tracker.observe(0, 2, routable_addr, Some(routable_addr));
        let report = tracker.finish(&rib, &registry, 3, 1);
        assert_eq!(report.devices.len(), 1);
        assert_eq!(report.devices[0].device.iid, routable_eui);
        assert_eq!(report.devices[0].device.asn, Asn(64496));
    }

    /// One identifier answering every target of its /48, window after
    /// window, is one run entry per window: the tail never holds more than
    /// a fold's worth, and each fold collapses it to the earliest sighting.
    #[test]
    fn a_device_answering_many_targets_keeps_one_entry_per_window() {
        const WINDOWS: u64 = 32;
        for targets in [256u64, 2_048] {
            let mut tracker = IncrementalTracker::new();
            let (eui, _) = eui_at(6, 0);
            let mut folded_early = false;
            for window in 0..WINDOWS {
                for seq in 0..targets {
                    let prefix64 = 0x2001_0db8_0004_0000 + (seq << 8) + window;
                    let target = Ipv6Addr::from((prefix64 as u128) << 64 | 1);
                    tracker.observe(window, seq, target, Some(eui.with_prefix64(prefix64)));
                    assert!(tracker.tail.len <= tracker.run.len().clamp(FOLD_FLOOR, FOLD_LIMIT));
                    folded_early |= !tracker.run.is_empty();
                }
            }
            // 65 536 observations cross the floor once; 8 192 never do.
            assert_eq!(folded_early, targets * WINDOWS > FOLD_FLOOR as u64);
            assert_eq!(tracker.identifiers_seen(), 1);
            assert_eq!(tracker.run.len(), WINDOWS as usize);
            for (window, entry) in tracker.run.iter().enumerate() {
                assert_eq!((entry.window, entry.seq), (window as u64, 0));
                assert_eq!(entry.prefix64, 0x2001_0db8_0004_0000 + window as u64);
            }
        }
    }

    /// A fold orders an identifier's sightings with an unstable sort, so
    /// the tie an equal `seq` leaves is broken by arrival: over thousands of
    /// tied sightings (far past the sizes an unstable sort handles stably by
    /// insertion), each `(identifier, window)` keeps the first of its lowest
    /// `seq` — on a tail the keys order and on one the radix passes do.
    #[test]
    fn a_fold_keeps_the_first_arrival_of_an_equal_seq() {
        for sightings in [KEY_FOLD as u64, 8_192] {
            let mut tracker = IncrementalTracker::new();
            let mut expected = std::collections::BTreeMap::new();
            for i in 0..sightings {
                let (eui, _) = eui_at((i % 61) as u8, 0);
                let (window, seq, prefix64) = (i % 3, (i / 7) % 3, 0x2001_0db8_0005_0000 + i);
                let source = eui.with_prefix64(prefix64);
                tracker.observe(window, seq, source, Some(source));
                let kept = expected.entry((eui, window)).or_insert((seq, prefix64));
                if seq < kept.0 {
                    *kept = (seq, prefix64);
                }
            }
            tracker.fold();
            let folded: std::collections::BTreeMap<_, _> = (tracker.run.iter())
                .map(|e| ((e.eui, e.window), (e.seq, e.prefix64)))
                .collect();
            assert_eq!(tracker.run.len(), expected.len());
            assert_eq!(folded, expected, "{sightings} sightings");
        }
    }

    #[test]
    fn incremental_tracker_compaction_bounds_state() {
        let (rib, registry) = incremental_setup();
        let mut tracker = IncrementalTracker::new();
        for window in 0..10u64 {
            let (_e, addr) = eui_at(5, 0x2001_0db8_0003_0000 + (window << 8));
            tracker.observe(window, 0, addr, Some(addr));
        }
        assert_eq!(tracker.identifiers_seen(), 1);
        tracker.compact_before(8);
        // Only windows 8 and 9 survive.
        let report = tracker.finish(&rib, &registry, 10, 4);
        let found: Vec<u64> = report.devices[0]
            .daily
            .iter()
            .filter(|d| d.found)
            .map(|d| d.day)
            .collect();
        assert_eq!(found, vec![8, 9]);
        // Compacting past everything forgets the identifier entirely.
        tracker.compact_before(100);
        assert_eq!(tracker.identifiers_seen(), 0);
        assert!(tracker.finish(&rib, &registry, 10, 4).devices.is_empty());
    }
}
