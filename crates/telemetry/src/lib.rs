//! Deterministic telemetry for the followscent streaming engine: typed
//! counters, virtual-time traces and a structured event journal, recorded
//! through the [`StreamObserver`] hook points of `scent-stream`.
//!
//! # Why "deterministic" telemetry
//!
//! The engine's reports are pure functions of (config, world seed) —
//! byte-identical across shard counts, producer counts, thread schedules
//! and live-vs-recorded backends. Telemetry follows the same discipline, or
//! it would be the one part of the system that can't be replayed, diffed or
//! regression-tested. The [`Telemetry`] registry therefore splits its state
//! into three tiers (see [`TelemetrySnapshot`]):
//!
//! * the **deterministic tier** ([`DeterministicSnapshot`]) — workload
//!   counters and the [`TelemetryEvent`] journal, recorded exclusively on
//!   the merge side of the engine in deterministic clock order;
//! * the **topology tier** ([`TopologySnapshot`]) — per-shard and
//!   per-producer breakdowns, deterministic in value but keyed by the
//!   configured topology;
//! * the **wall-clock tier** ([`ProfileSnapshot`]) — OS-time spans, channel
//!   stalls and depth high-water marks, explicitly excluded from
//!   determinism checks.
//!
//! # Usage
//!
//! Build a [`Telemetry`], hand it to the engine (the `run_observed` entry
//! points of `scent-stream`, or the `observer` field of its
//! `MonitorControl`), then [`Telemetry::snapshot`] it and render with the
//! [exporters](crate::prometheus):
//!
//! ```
//! use scent_simnet::SimTime;
//! use scent_telemetry::{RoutedRun, StreamObserver, Telemetry};
//!
//! let telemetry = Telemetry::new();
//! // The engine calls the observer hooks; here we stand in for it.
//! telemetry.on_run_start(2, 4);
//! telemetry.on_routed_run(&RoutedRun {
//!     window: 0,
//!     observations: 3,
//!     responses: 1,
//!     first_send: SimTime::from_secs(7),
//!     last_send: SimTime::from_secs(9),
//!     per_shard: &[2, 1],
//! });
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.deterministic.observations, 3);
//! assert!(scent_telemetry::prometheus(&snapshot).contains("scent_observations_total 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod observer;
mod snapshot;

pub use event::{EventKind, TelemetryEvent};
pub use export::{deterministic_text, events_jsonl, profile_text, prometheus, topology_text};
pub use observer::{EpochSummary, RoutedRun, StreamObserver};
pub use snapshot::{
    DeterministicSnapshot, Histogram, ProfileSnapshot, TelemetrySnapshot, TopologySnapshot,
    WindowStats, LATENCY_BOUNDS_SECS,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use scent_simnet::SimTime;

/// The open-window aggregation the registry folds routed runs into.
#[derive(Debug, Clone)]
struct WindowAgg {
    window: u64,
    observations: u64,
    responses: u64,
    first_send: SimTime,
    last_send: SimTime,
}

/// Merge-side (deterministic + topology) state, guarded by one mutex that
/// only the merge thread contends for.
#[derive(Debug, Clone, Default)]
struct Inner {
    shards: usize,
    producers: usize,
    observations: u64,
    responses: u64,
    routed_per_shard: Vec<u64>,
    ingested_per_shard: Vec<u64>,
    /// Wall-clock tier: observations each shard has reported ingested so
    /// far, forwarded by the control thread between its own routes — so it
    /// lives under the lock `on_routed_run` already holds.
    ingested_live: Vec<u64>,
    expansion_probes: u64,
    rate_backoffs: u64,
    rate_recoveries: u64,
    queue_high_water: u64,
    epochs_closed: u64,
    admitted: u64,
    evicted: u64,
    /// The epoch id stamped onto new events (the next epoch to close).
    epoch: u64,
    /// The last routed send time, for stamping window-less events.
    last_send: Option<SimTime>,
    open: Option<WindowAgg>,
    windows: Vec<WindowStats>,
    latency: Histogram,
    events: Vec<TelemetryEvent>,
}

impl Inner {
    /// Close the open window aggregation, if any: push its stats, record
    /// its latency and journal a [`EventKind::WindowClose`].
    fn close_open_window(&mut self) {
        let Some(agg) = self.open.take() else { return };
        self.latency
            .observe(agg.last_send.since(agg.first_send).as_secs());
        self.windows.push(WindowStats {
            window: agg.window,
            observations: agg.observations,
            responses: agg.responses,
            first_send: agg.first_send,
            last_send: agg.last_send,
        });
        self.events.push(TelemetryEvent {
            virtual_time: agg.last_send,
            window: agg.window,
            epoch: self.epoch,
            shard: None,
            kind: EventKind::WindowClose {
                observations: agg.observations,
                responses: agg.responses,
                first_send: agg.first_send,
            },
        });
    }
}

/// Recover the data behind a poisoned lock: every update the registry makes
/// is a plain counter or push, so partially-applied state is still usable
/// diagnostics (and the panicking thread's panic propagates regardless).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn grow_slot(values: &mut Vec<u64>, index: usize) -> &mut u64 {
    if values.len() <= index {
        values.resize(index + 1, 0);
    }
    &mut values[index]
}

/// Producers whose probes the registry counts with one atomic add and no
/// lock: `on_probe_sent` runs once a probe on every producer thread, and is
/// the one hook left that runs once an observation. Producers past these
/// are counted under a lock.
const LOCK_FREE_PRODUCERS: usize = 32;

/// The telemetry registry: one per run.
///
/// Implements [`StreamObserver`]; hand `Some(&telemetry)` to the engine's
/// `run_observed` entry points (or as `MonitorControl::observer`), then read
/// the state back with [`Telemetry::snapshot`]. Interior mutability
/// throughout — the engine shares it by reference across producer, router
/// and shard-worker threads.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Mutex<Inner>,
    /// Probes of producers `0..LOCK_FREE_PRODUCERS`.
    probes: [AtomicU64; LOCK_FREE_PRODUCERS],
    /// Probes of the producers after those, from `LOCK_FREE_PRODUCERS` on.
    more_probes: Mutex<Vec<u64>>,
    stalls: AtomicU64,
    channel_high_water: AtomicU64,
    wall_spans: Mutex<Vec<(&'static str, u64)>>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy out the registry's current state, split into the three
    /// comparison tiers. An open probing window is reported as closed in
    /// the snapshot (without mutating the registry), so an end-of-run
    /// snapshot always includes the final window.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut inner = lock(&self.inner).clone();
        inner.close_open_window();
        TelemetrySnapshot {
            deterministic: DeterministicSnapshot {
                observations: inner.observations,
                responses: inner.responses,
                expansion_probes: inner.expansion_probes,
                rate_backoffs: inner.rate_backoffs,
                rate_recoveries: inner.rate_recoveries,
                queue_high_water: inner.queue_high_water,
                epochs: inner.epochs_closed,
                admitted: inner.admitted,
                evicted: inner.evicted,
                windows: inner.windows,
                window_latency: inner.latency,
                events: inner.events,
            },
            topology: TopologySnapshot {
                shards: inner.shards,
                producers: inner.producers,
                probes_per_producer: self.probes_per_producer(inner.producers),
                routed_per_shard: inner.routed_per_shard,
                ingested_per_shard: inner.ingested_per_shard,
            },
            profile: ProfileSnapshot {
                stalls: self.stalls.load(Ordering::Relaxed),
                channel_high_water: self.channel_high_water.load(Ordering::Relaxed),
                wall_spans: lock(&self.wall_spans)
                    .iter()
                    .map(|(label, nanos)| ((*label).to_string(), *nanos))
                    .collect(),
            },
        }
    }

    /// One count per producer: every producer a run started with, and any
    /// later one that probed.
    fn probes_per_producer(&self, producers: usize) -> Vec<u64> {
        let counted = self
            .probes
            .iter()
            .map(|count| count.load(Ordering::Relaxed));
        let mut probes: Vec<u64> = counted
            .chain(lock(&self.more_probes).iter().copied())
            .collect();
        let probed = probes
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |last| last + 1);
        probes.resize(probed.max(producers), 0);
        probes
    }
}

impl StreamObserver for Telemetry {
    fn on_run_start(&self, shards: usize, producers: usize) {
        let mut inner = lock(&self.inner);
        inner.shards = inner.shards.max(shards);
        inner.producers = inner.producers.max(producers);
        if inner.routed_per_shard.len() < shards {
            inner.routed_per_shard.resize(shards, 0);
        }
        if inner.ingested_per_shard.len() < shards {
            inner.ingested_per_shard.resize(shards, 0);
        }
        if inner.ingested_live.len() < shards {
            inner.ingested_live.resize(shards, 0);
        }
    }

    fn on_probe_sent(&self, producer: usize) {
        match self.probes.get(producer) {
            Some(count) => {
                count.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                let later = producer - LOCK_FREE_PRODUCERS;
                *grow_slot(&mut lock(&self.more_probes), later) += 1;
            }
        }
    }

    /// One lock a run, folded exactly as the run's observations one at a
    /// time would fold (an empty run folds to nothing).
    fn on_routed_run(&self, run: &RoutedRun<'_>) {
        if run.observations == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        inner.observations += run.observations;
        inner.responses += run.responses;
        inner.last_send = Some(run.last_send);
        let starts_new_window = match &mut inner.open {
            Some(agg) if agg.window == run.window => {
                agg.observations += run.observations;
                agg.responses += run.responses;
                agg.last_send = run.last_send;
                false
            }
            Some(agg) => {
                debug_assert!(agg.window < run.window, "windows only advance");
                true
            }
            None => true,
        };
        if starts_new_window {
            inner.close_open_window();
            inner.open = Some(WindowAgg {
                window: run.window,
                observations: run.observations,
                responses: run.responses,
                first_send: run.first_send,
                last_send: run.last_send,
            });
        }
        // Wall-clock tier: channel-depth proxy, routed minus live-ingested
        // per shard, sampled once a run — at its end, where the run's
        // per-observation samples peak.
        let mut high_water = 0;
        for (shard, &routed) in run.per_shard.iter().enumerate() {
            if routed == 0 {
                continue;
            }
            let total = grow_slot(&mut inner.routed_per_shard, shard);
            *total += routed;
            let total = *total;
            let ingested = inner.ingested_live.get(shard).copied().unwrap_or(0);
            high_water = high_water.max(total.saturating_sub(ingested));
        }
        drop(inner);
        self.channel_high_water
            .fetch_max(high_water, Ordering::Relaxed);
    }

    fn on_shard_progress(&self, shard: usize, ingested: u64) {
        *grow_slot(&mut lock(&self.inner).ingested_live, shard) += ingested;
    }

    fn on_shard_final(&self, shard: usize, ingested: u64) {
        *grow_slot(&mut lock(&self.inner).ingested_per_shard, shard) = ingested;
    }

    fn on_stall(&self, _shard: usize) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    fn on_rate_change(&self, at: SimTime, window: u64, from_pps: u64, to_pps: u64) {
        let mut inner = lock(&self.inner);
        let kind = if to_pps < from_pps {
            inner.rate_backoffs += 1;
            EventKind::RateBackoff { from_pps, to_pps }
        } else {
            inner.rate_recoveries += 1;
            EventKind::RateRecovery { from_pps, to_pps }
        };
        let epoch = inner.epoch;
        inner.events.push(TelemetryEvent {
            virtual_time: at,
            window,
            epoch,
            shard: None,
            kind,
        });
    }

    fn on_queue_depth(&self, depth: u64) {
        let mut inner = lock(&self.inner);
        if depth > inner.queue_high_water {
            inner.queue_high_water = depth;
        }
    }

    fn on_phase_close(&self, phase: &'static str, probes: u64) {
        let mut inner = lock(&self.inner);
        inner.close_open_window();
        let event = TelemetryEvent {
            virtual_time: inner.last_send.unwrap_or(SimTime::EPOCH),
            window: inner.windows.last().map_or(0, |w| w.window),
            epoch: inner.epoch,
            shard: None,
            kind: EventKind::PhaseClose { phase, probes },
        };
        inner.events.push(event);
    }

    fn on_epoch_close(&self, summary: &EpochSummary<'_>) {
        let mut inner = lock(&self.inner);
        inner.close_open_window();
        inner.epochs_closed += 1;
        inner.admitted += summary.admitted.len() as u64;
        inner.evicted += summary.evicted.len() as u64;
        inner.expansion_probes += summary.expansion_probes;
        inner.events.push(TelemetryEvent {
            virtual_time: summary.at,
            window: summary.window,
            epoch: summary.epoch,
            shard: None,
            kind: EventKind::EpochClose {
                admitted: summary.admitted.to_vec(),
                evicted: summary.evicted.to_vec(),
                watch_len: summary.watch_len,
                expansion_probes: summary.expansion_probes,
            },
        });
        inner.epoch = summary.epoch + 1;
    }

    fn on_watch_exhausted(&self, at: SimTime, window: u64, epoch: u64) {
        let mut inner = lock(&self.inner);
        inner.close_open_window();
        inner.events.push(TelemetryEvent {
            virtual_time: at,
            window,
            epoch,
            shard: None,
            kind: EventKind::WatchExhausted,
        });
    }

    fn on_wall_span(&self, label: &'static str, nanos: u64) {
        lock(&self.wall_spans).push((label, nanos));
    }

    fn checkpoint_deterministic(&self) -> Option<DeterministicSnapshot> {
        Some(self.snapshot().deterministic)
    }

    /// Restore the deterministic tier from a checkpoint. Only that tier
    /// round-trips: topology breakdowns and wall-clock profiling restart
    /// from zero on resume (they are keyed to a process, not a run, and are
    /// excluded from the byte-identical comparisons).
    fn restore_deterministic(&self, det: &DeterministicSnapshot) {
        let mut inner = lock(&self.inner);
        inner.observations = det.observations;
        inner.responses = det.responses;
        inner.expansion_probes = det.expansion_probes;
        inner.rate_backoffs = det.rate_backoffs;
        inner.rate_recoveries = det.rate_recoveries;
        inner.queue_high_water = det.queue_high_water;
        inner.epochs_closed = det.epochs;
        inner.admitted = det.admitted;
        inner.evicted = det.evicted;
        // New events stamp the next epoch to close; every checkpointed epoch
        // already closed.
        inner.epoch = det.epochs;
        inner.last_send = det.windows.last().map(|w| w.last_send);
        // The capture closed any open window, so the restored registry
        // starts with none; the resumed run's first routed observation opens
        // the next window exactly as the uninterrupted run would.
        inner.open = None;
        inner.windows = det.windows.clone();
        inner.latency = det.window_latency.clone();
        inner.events = det.events.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A run of `observations` in `window` sent from `first` to `last`
    /// seconds.
    fn run(
        window: u64,
        (observations, responses): (u64, u64),
        (first, last): (u64, u64),
        per_shard: &[u64],
    ) -> RoutedRun<'_> {
        RoutedRun {
            window,
            observations,
            responses,
            first_send: t(first),
            last_send: t(last),
            per_shard,
        }
    }

    #[test]
    fn windows_close_on_advance_and_at_snapshot() {
        let telemetry = Telemetry::new();
        telemetry.on_run_start(2, 1);
        telemetry.on_routed_run(&run(0, (2, 1), (10, 11), &[1, 1]));
        telemetry.on_routed_run(&run(1, (1, 1), (100, 100), &[1, 0]));

        let snapshot = telemetry.snapshot();
        let det = &snapshot.deterministic;
        assert_eq!(det.observations, 3);
        assert_eq!(det.responses, 2);
        assert_eq!(det.windows.len(), 2, "open window closed in the snapshot");
        assert_eq!(det.windows[0].window, 0);
        assert_eq!(det.windows[0].observations, 2);
        let window = &det.windows[0];
        assert_eq!(window.last_send.since(window.first_send).as_secs(), 1);
        assert_eq!(det.windows[1].observations, 1);
        assert_eq!(det.window_latency.count(), 2);
        assert!(matches!(
            det.events[0].kind,
            EventKind::WindowClose {
                observations: 2,
                responses: 1,
                ..
            }
        ));
        assert_eq!(snapshot.topology.routed_per_shard, vec![2, 1]);
        // Snapshotting again is idempotent: the registry itself is unchanged.
        assert_eq!(telemetry.snapshot(), snapshot);
    }

    #[test]
    fn rate_changes_split_into_backoffs_and_recoveries() {
        let telemetry = Telemetry::new();
        telemetry.on_rate_change(t(5), 0, 128, 64);
        telemetry.on_rate_change(t(9), 0, 64, 72);
        telemetry.on_queue_depth(40);
        telemetry.on_queue_depth(17);
        let det = telemetry.snapshot().deterministic;
        assert_eq!(det.rate_backoffs, 1);
        assert_eq!(det.rate_recoveries, 1);
        assert_eq!(det.queue_high_water, 40);
        let jsonl = events_jsonl(&det.events);
        assert!(jsonl.contains("\"kind\":\"rate_backoff\",\"from_pps\":128,\"to_pps\":64"));
        assert!(jsonl.contains("\"kind\":\"rate_recovery\",\"from_pps\":64,\"to_pps\":72"));
    }

    #[test]
    fn epoch_close_journals_revisions() {
        let telemetry = Telemetry::new();
        let admitted: Vec<scent_ipv6::Ipv6Prefix> = vec!["2001:db8:1::/48".parse().unwrap()];
        telemetry.on_routed_run(&run(0, (1, 1), (3, 3), &[1]));
        telemetry.on_epoch_close(&EpochSummary {
            epoch: 0,
            at: t(86_400),
            window: 0,
            admitted: &admitted,
            evicted: &[],
            watch_len: 3,
            expansion_probes: 12,
        });
        let det = telemetry.snapshot().deterministic;
        assert_eq!(det.epochs, 1);
        assert_eq!((det.admitted, det.evicted), (1, 0));
        assert_eq!(det.expansion_probes, 12);
        // The epoch's window closed before the epoch-close event.
        assert!(matches!(det.events[0].kind, EventKind::WindowClose { .. }));
        let jsonl = events_jsonl(&det.events);
        assert!(jsonl.contains("\"kind\":\"epoch_close\",\"admitted\":[\"2001:db8:1::/48\"]"));
        assert!(jsonl.contains("\"watch_len\":3,\"expansion_probes\":12"));
    }

    #[test]
    fn exporters_render_every_tier() {
        let telemetry = Telemetry::new();
        telemetry.on_run_start(1, 2);
        telemetry.on_probe_sent(0);
        telemetry.on_probe_sent(1);
        telemetry.on_probe_sent(1);
        telemetry.on_routed_run(&run(0, (1, 1), (1, 1), &[1]));
        telemetry.on_shard_progress(0, 1);
        telemetry.on_shard_final(0, 1);
        telemetry.on_stall(0);
        telemetry.on_wall_span("run", 1_234);
        let snapshot = telemetry.snapshot();
        let text = prometheus(&snapshot);
        assert!(text.contains("scent_observations_total 1"));
        assert!(text.contains("scent_probes_total{producer=\"1\"} 2"));
        assert!(text.contains("scent_ingested_total{shard=\"0\"} 1"));
        assert!(text.contains("scent_backpressure_stalls_total 1"));
        assert!(text.contains("scent_wall_span_nanoseconds{span=\"run\"} 1234"));
        assert!(text.contains("scent_window_latency_virtual_seconds_bucket{le=\"+Inf\"} 1"));
        // The deterministic rendering carries no topology or profile state.
        let det = deterministic_text(&snapshot.deterministic);
        assert!(!det.contains("shard=\""));
        assert!(!det.contains("producer=\""));
        assert!(!det.contains("wall_span"));
    }

    #[test]
    fn restore_deterministic_roundtrips_into_a_fresh_registry() {
        let telemetry = Telemetry::new();
        telemetry.on_run_start(2, 2);
        telemetry.on_routed_run(&run(0, (2, 1), (10, 11), &[1, 1]));
        telemetry.on_rate_change(t(12), 0, 128, 64);
        telemetry.on_epoch_close(&EpochSummary {
            epoch: 0,
            at: t(86_400),
            window: 0,
            admitted: &[],
            evicted: &[],
            watch_len: 1,
            expansion_probes: 3,
        });

        let det = telemetry
            .checkpoint_deterministic()
            .expect("telemetry checkpoints its deterministic tier");
        let restored = Telemetry::new();
        restored.on_run_start(2, 2);
        restored.restore_deterministic(&det);
        assert_eq!(restored.snapshot().deterministic, det);

        // Continuing both registries identically keeps them identical.
        for registry in [&telemetry, &restored] {
            registry.on_routed_run(&run(1, (1, 1), (86_500, 86_500), &[1, 0]));
            registry.on_rate_change(t(86_510), 1, 64, 72);
        }
        assert_eq!(
            restored.snapshot().deterministic,
            telemetry.snapshot().deterministic
        );
        // Epoch stamps on post-restore events continue the sequence.
        let continued = restored.snapshot().deterministic;
        assert_eq!(continued.events.last().map(|e| e.epoch), Some(1));
    }

    /// Every producer a run started with has a count, and so does any
    /// later one that probed — past the lock-free counters too.
    #[test]
    fn probes_are_counted_for_every_producer() {
        let telemetry = Telemetry::new();
        telemetry.on_run_start(1, 3);
        assert_eq!(telemetry.snapshot().topology.probes_per_producer, [0; 3]);
        telemetry.on_probe_sent(1);
        let far = LOCK_FREE_PRODUCERS + 8;
        telemetry.on_probe_sent(far);
        telemetry.on_probe_sent(far);
        let probes = telemetry.snapshot().topology.probes_per_producer;
        assert_eq!(probes.len(), far + 1);
        assert_eq!((probes[1], probes[far]), (1, 2));
        assert_eq!(probes.iter().sum::<u64>(), 3);
    }

    #[test]
    fn histogram_from_parts_roundtrips() {
        let mut histogram = Histogram::new();
        histogram.observe(3);
        histogram.observe(70_000);
        let mut counts = [0u64; LATENCY_BOUNDS_SECS.len() + 1];
        counts.copy_from_slice(histogram.bucket_counts());
        let rebuilt = Histogram::from_parts(counts, histogram.sum(), histogram.count());
        assert_eq!(rebuilt, histogram);
    }

    #[test]
    fn histogram_buckets_are_upper_inclusive() {
        let mut histogram = Histogram::new();
        histogram.observe(1);
        histogram.observe(2);
        histogram.observe(100_000);
        assert_eq!(histogram.count(), 3);
        assert_eq!(histogram.sum(), 100_003);
        assert_eq!(histogram.bucket_counts()[0], 1, "1 <= 1");
        assert_eq!(histogram.bucket_counts()[1], 1, "2 <= 4");
        assert_eq!(
            histogram.bucket_counts()[LATENCY_BOUNDS_SECS.len()],
            1,
            "overflow lands in +Inf"
        );
    }

    /// The per-observation hook that `on_routed_run` replaced, its body
    /// kept verbatim: the reference the run fold is checked against.
    trait PerObservation {
        fn on_routed(&self, shard: usize, window: u64, sent_at: SimTime, responded: bool);
    }

    impl PerObservation for Telemetry {
        fn on_routed(&self, shard: usize, window: u64, sent_at: SimTime, responded: bool) {
            let mut inner = lock(&self.inner);
            inner.observations += 1;
            if responded {
                inner.responses += 1;
            }
            *grow_slot(&mut inner.routed_per_shard, shard) += 1;
            let routed = inner.routed_per_shard[shard];
            inner.last_send = Some(sent_at);
            let starts_new_window = match &mut inner.open {
                Some(agg) if agg.window == window => {
                    agg.observations += 1;
                    if responded {
                        agg.responses += 1;
                    }
                    agg.last_send = sent_at;
                    false
                }
                Some(agg) => {
                    debug_assert!(agg.window < window, "windows only advance");
                    true
                }
                None => true,
            };
            if starts_new_window {
                inner.close_open_window();
                inner.open = Some(WindowAgg {
                    window,
                    observations: 1,
                    responses: u64::from(responded),
                    first_send: sent_at,
                    last_send: sent_at,
                });
            }
            // Wall-clock tier: channel-depth proxy for this shard, sampled at
            // route time as routed minus live-ingested.
            let ingested = inner.ingested_live.get(shard).copied().unwrap_or(0);
            drop(inner);
            self.channel_high_water
                .fetch_max(routed.saturating_sub(ingested), Ordering::Relaxed);
        }
    }

    /// The router's half of the contract in miniature: observations counted
    /// into one pending run until something cuts it, and a window's first
    /// observation reported alone.
    struct Cutter {
        /// The window of the last observation routed (`None` on a fresh
        /// lease): the window-opened marker.
        window: Option<u64>,
        observations: u64,
        responses: u64,
        first_send: SimTime,
        last_send: SimTime,
        per_shard: Vec<u64>,
    }

    impl Cutter {
        fn new(shards: usize) -> Self {
            Cutter {
                window: None,
                observations: 0,
                responses: 0,
                first_send: SimTime::EPOCH,
                last_send: SimTime::EPOCH,
                per_shard: vec![0; shards],
            }
        }

        fn route(
            &mut self,
            registry: &Telemetry,
            shard: usize,
            sent_at: SimTime,
            obs: (u64, bool),
        ) {
            let (window, responded) = obs;
            let opens = self.window != Some(window);
            if opens {
                self.cut(registry);
                self.window = Some(window);
            }
            if self.observations == 0 {
                self.first_send = sent_at;
            }
            self.observations += 1;
            self.responses += u64::from(responded);
            self.last_send = sent_at;
            self.per_shard[shard] += 1;
            if opens {
                self.cut(registry);
            }
        }

        fn cut(&mut self, registry: &Telemetry) {
            if let (Some(window), true) = (self.window, self.observations > 0) {
                registry.on_routed_run(&RoutedRun {
                    window,
                    observations: self.observations,
                    responses: self.responses,
                    first_send: self.first_send,
                    last_send: self.last_send,
                    per_shard: &self.per_shard,
                });
            }
            self.observations = 0;
            self.responses = 0;
            self.per_shard.fill(0);
        }
    }

    use proptest::prelude::*;

    proptest! {
        // Routed sequences whose windows only advance, over 1–4 shards, cut
        // into runs at arbitrary points (each window's first observation a
        // run of its own), with rate changes mid-run, phase and epoch
        // closes, progress reports and checkpoint → restore → continue at
        // run boundaries: the run fold ends in the per-observation
        // reference's deterministic and topology tiers, and its high-water
        // mark.
        #[test]
        fn runs_fold_as_the_per_observation_reference(
            steps in collection::vec((any::<u64>(), any::<u64>()), 1..160),
            shards in 1usize..5,
        ) {
            let fresh = || {
                let registry = Telemetry::new();
                registry.on_run_start(shards, 1);
                registry
            };
            let (mut reference, mut folded) = (fresh(), fresh());
            let mut cutter = Cutter::new(shards);
            let (mut window, mut secs, mut epoch) = (0u64, 0u64, 0u64);
            for (i, &(routed, between)) in steps.iter().enumerate() {
                if i > 0 && routed % 4 == 0 {
                    window += 1 + (routed >> 2) % 2;
                }
                secs += (routed >> 3) % 50;
                let shard = (routed >> 9) as usize % shards;
                let responded = (routed >> 13) & 1 == 1;
                reference.on_routed(shard, window, t(secs), responded);
                cutter.route(&folded, shard, t(secs), (window, responded));
                if between % 7 == 0 {
                    // The merge-side rate replica reports mid-run.
                    for registry in [&reference, &folded] {
                        registry.on_rate_change(t(secs), window, 128, 64 + between % 128);
                    }
                }
                if (between >> 3) % 3 != 0 {
                    continue;
                }
                cutter.cut(&folded);
                match (between >> 5) % 6 {
                    0 => {
                        for registry in [&reference, &folded] {
                            registry.on_phase_close("density", i as u64);
                        }
                    }
                    1 => {
                        for registry in [&reference, &folded] {
                            registry.on_epoch_close(&EpochSummary {
                                epoch,
                                at: t(secs),
                                window,
                                admitted: &[],
                                evicted: &[],
                                watch_len: 1,
                                expansion_probes: between % 5,
                            });
                        }
                        epoch += 1;
                    }
                    2 => {
                        for registry in [&reference, &folded] {
                            registry.on_shard_progress(shard, (between >> 8) % 8);
                        }
                    }
                    3 => {
                        let want = reference.checkpoint_deterministic().expect("checkpoints");
                        let got = folded.checkpoint_deterministic().expect("checkpoints");
                        prop_assert_eq!(&got, &want);
                        reference = fresh();
                        reference.restore_deterministic(&want);
                        folded = fresh();
                        folded.restore_deterministic(&got);
                        // A resumed run routes through a fresh lease.
                        cutter = Cutter::new(shards);
                    }
                    _ => {}
                }
            }
            cutter.cut(&folded);
            let (want, got) = (reference.snapshot(), folded.snapshot());
            prop_assert_eq!(&got.deterministic, &want.deterministic);
            prop_assert_eq!(&got.topology, &want.topology);
            prop_assert_eq!(got.profile.channel_high_water, want.profile.channel_high_water);
        }
    }
}
