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
//! Build a [`Telemetry`], hand it to the engine (via the `followscent`
//! campaign builder's `.telemetry(..)`, or directly to the `run_observed`
//! entry points of `scent-stream`), then [`Telemetry::snapshot`] it and
//! render with the [exporters](crate::prometheus):
//!
//! ```
//! use scent_telemetry::{StreamObserver, Telemetry};
//!
//! let telemetry = Telemetry::new();
//! // The engine calls the observer hooks; here we stand in for it.
//! telemetry.on_run_start(2, 4);
//! telemetry.on_routed(0, 0, scent_simnet::SimTime::from_secs(7), true);
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.deterministic.observations, 1);
//! assert!(scent_telemetry::prometheus(&snapshot).contains("scent_observations_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod observer;
mod snapshot;

pub use event::{EventKind, TelemetryEvent};
pub use export::{deterministic_text, events_jsonl, profile_text, prometheus, topology_text};
pub use observer::{EpochSummary, NoopObserver, StreamObserver};
pub use snapshot::{
    DeterministicSnapshot, Histogram, ProfileSnapshot, TelemetrySnapshot, TopologySnapshot,
    WindowStats, LATENCY_BOUNDS_SECS,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use scent_simnet::SimTime;

/// The open-window aggregation the registry folds `on_routed` calls into.
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
    /// lives under the lock `on_routed` already holds.
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

/// The telemetry registry: one per run.
///
/// Implements [`StreamObserver`]; hand `Some(&telemetry)` to the engine's
/// `run_observed` entry points (or `.telemetry(&telemetry)` on the
/// `followscent` campaign builder), then read the state back with
/// [`Telemetry::snapshot`]. Interior mutability throughout — the engine
/// shares it by reference across producer, router and shard-worker threads.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Mutex<Inner>,
    producer_probes: Mutex<Vec<u64>>,
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
                probes_per_producer: lock(&self.producer_probes).clone(),
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
        drop(inner);
        let mut probes = lock(&self.producer_probes);
        if probes.len() < producers {
            probes.resize(producers, 0);
        }
    }

    fn on_probe_sent(&self, producer: usize) {
        *grow_slot(&mut lock(&self.producer_probes), producer) += 1;
    }

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

    #[test]
    fn windows_close_on_advance_and_at_snapshot() {
        let telemetry = Telemetry::new();
        telemetry.on_run_start(2, 1);
        telemetry.on_routed(0, 0, t(10), true);
        telemetry.on_routed(1, 0, t(11), false);
        telemetry.on_routed(0, 1, t(100), true);

        let snapshot = telemetry.snapshot();
        let det = &snapshot.deterministic;
        assert_eq!(det.observations, 3);
        assert_eq!(det.responses, 2);
        assert_eq!(det.windows.len(), 2, "open window closed in the snapshot");
        assert_eq!(det.windows[0].window, 0);
        assert_eq!(det.windows[0].observations, 2);
        assert_eq!(det.windows[0].latency_secs(), 1);
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
        telemetry.on_routed(0, 0, t(3), true);
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
        telemetry.on_routed(0, 0, t(1), true);
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
        telemetry.on_routed(0, 0, t(10), true);
        telemetry.on_routed(1, 0, t(11), false);
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
            registry.on_routed(0, 1, t(86_500), true);
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
}
