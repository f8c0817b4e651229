//! The unified, backend-agnostic campaign entry point.
//!
//! The workspace grows three ways to run the paper's methodology — the batch
//! [`Pipeline`], the sharded [`StreamPipeline`], and the continuous
//! [`StreamMonitor`]. [`Campaign`] puts one
//! builder in front of all three: pick a backend (anything implementing
//! [`ProbeTransport`] + [`WorldView`], including `&dyn
//! MeasurementBackend` trait objects), set the shared knobs, pick a
//! [`CampaignMode`], and `run()`.
//!
//! ```
//! use followscent::prober::RecordingBackend;
//! use followscent::simnet::{scenarios, Engine, WorldScale};
//! use followscent::{Campaign, CampaignMode, ScentError};
//!
//! fn main() -> Result<(), ScentError> {
//!     let engine = Engine::build(scenarios::paper_world(71, WorldScale::small()))?;
//!     // Record the batch run...
//!     let recorder = RecordingBackend::new(&engine);
//!     let batch = Campaign::builder()
//!         .world(&recorder)
//!         .max_48s_per_seed(128)
//!         .mode(CampaignMode::Batch)
//!         .run()?;
//!     // ...then replay the log through the streamed pipeline: same report,
//!     // different backend, different execution strategy — here with the
//!     // probing side split across four parallel producers merged back into
//!     // one deterministic virtual clock.
//!     let replay = followscent::prober::RecordedBackend::from_log(recorder.finish());
//!     let streamed = Campaign::builder()
//!         .world(&replay)
//!         .max_48s_per_seed(128)
//!         .mode(CampaignMode::Streamed {
//!             shards: 2,
//!             producers: 4,
//!         })
//!         .run()?;
//!     assert_eq!(batch.pipeline(), streamed.pipeline());
//!     Ok(())
//! }
//! ```
//!
//! A queue model with a finite drain rate turns on AIMD rate feedback, and
//! it composes with sharded producers: the virtual-queue model is a pure
//! function of the configuration and virtual time, so every producer replays
//! the same rate trajectory and the run stays bit-reproducible at any
//! producer count:
//!
//! ```
//! use followscent::prober::QueueModel;
//! use followscent::simnet::{scenarios, Engine};
//! use followscent::{Campaign, CampaignMode, ScentError};
//!
//! fn main() -> Result<(), ScentError> {
//!     let engine = Engine::build(scenarios::continuous_world(13))?;
//!     let watched = vec!["2001:16b8:100::/48".parse().unwrap()];
//!     let run = |producers| {
//!         Campaign::builder()
//!             .world(&engine)
//!             .rate_pps(128)
//!             .queue_model(QueueModel {
//!                 drain_rate: Some(16), // adapt to 16 obs/s per shard...
//!                 high_watermark: 64,   // ...backing off at 64 queued...
//!                 low_watermark: 8,     // ...recovering below 8
//!                 ..QueueModel::unbounded()
//!             })
//!             .watch(watched.clone())
//!             .mode(CampaignMode::Monitor {
//!                 windows: 2,
//!                 shards: 2,
//!                 producers, // feedback works at any producer count
//!             })
//!             .run()
//!     };
//!     let single = run(1)?;
//!     let mut sharded = run(4)?.monitor().unwrap().clone();
//!     let single = single.monitor().unwrap();
//!     sharded.backpressure_stalls = single.backpressure_stalls;
//!     assert_eq!(single, &sharded, "byte-identical at any producer count");
//!     assert!(single.final_rate < 128, "the slow consumer throttled probing");
//!     Ok(())
//! }
//! ```
//!
//! The watch list itself can be *live*
//! ([`CampaignBuilder::refresh_every`] / [`CampaignBuilder::watch_capacity`]):
//! the monitor folds its own density state through a re-expansion step on a
//! cadence, evicting /48s that went quiet and admitting newly-dense
//! neighbours — the paper's "scan → find dense prefixes → watch them →
//! re-expand" loop, closed. Churning runs stay byte-identical across
//! producer counts and across live vs. recorded replay:
//!
//! ```
//! use followscent::simnet::{scenarios, Engine, SimTime};
//! use followscent::{Campaign, CampaignMode, ScentError};
//!
//! fn main() -> Result<(), ScentError> {
//!     // A world whose dense /48 migrates daily within a /44 pool.
//!     let engine = Engine::build(scenarios::churn_world(7))?;
//!     let initial = vec![
//!         "2001:16b8:1d0b::/48".parse().unwrap(), // dense on the first day
//!         "2803:9810:100::/48".parse().unwrap(),  // static control
//!     ];
//!     let report = Campaign::builder()
//!         .world(&engine)
//!         .watch(initial.clone())
//!         .refresh_every(1)  // revise the watch list every window...
//!         .watch_capacity(3) // ...keeping at most three /48s
//!         .start(SimTime::at(10, 9))
//!         .mode(CampaignMode::Monitor {
//!             windows: 4,
//!             shards: 2,
//!             producers: 2,
//!         })
//!         .run()?;
//!     let monitor = report.monitor().unwrap();
//!     for revision in &monitor.revisions {
//!         println!(
//!             "epoch {}: +{} admitted, -{} evicted",
//!             revision.epoch,
//!             revision.admitted.len(),
//!             revision.evicted.len()
//!         );
//!     }
//!     let (admitted, evicted) = monitor.churn_counts();
//!     assert!(admitted > 0 && evicted > 0, "the monitor followed the band");
//!     assert_ne!(monitor.final_watch, initial);
//!     Ok(())
//! }
//! ```

use std::path::PathBuf;

use scent_checkpoint::{CheckpointSink, FileCheckpointStore};
use scent_core::{Pipeline, PipelineConfig, PipelineReport};
use scent_discovery::DiscoveryConfig;
use scent_ipv6::Ipv6Prefix;
use scent_prober::{ProbeTransport, QueueModel, WorldView};
use scent_simnet::{SimDuration, SimTime};
use scent_stream::{
    MonitorConfig, MonitorControl, MonitorReport, MonitorSnapshot, StopSignal, StreamConfig,
    StreamMonitor, StreamPipeline, WatchChurn,
};
use scent_telemetry::StreamObserver;

use crate::error::{CampaignError, ScentError};

/// How a campaign executes the methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignMode {
    /// The batch discovery pipeline: whole scans, one thread.
    Batch,
    /// The sharded streaming pipeline: identical report to [`Batch`]
    /// (test-enforced for any shard *and* producer count), observations are
    /// probed by `producers` parallel probe threads, recombined through the
    /// merged deterministic virtual clock, and flow through `shards`
    /// inference workers.
    ///
    /// [`Batch`]: CampaignMode::Batch
    Streamed {
        /// Number of inference shards.
        shards: usize,
        /// Number of probe producers each scan is split across (1 = the
        /// classic single-threaded prober).
        producers: usize,
    },
    /// The continuous rotation monitor over the watched /48s (set with
    /// [`CampaignBuilder::watch`]): endless windows, live rotation events,
    /// passive tracking.
    Monitor {
        /// Number of daily windows to observe.
        windows: u64,
        /// Number of inference shards.
        shards: usize,
        /// Number of probe producers each window's scan is split across.
        /// Composes with [`CampaignBuilder::queue_model`] at any count:
        /// every producer replays the same deterministic virtual-queue rate
        /// trajectory.
        producers: usize,
    },
}

/// What a campaign produced, depending on its [`CampaignMode`].
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignReport {
    /// A discovery-pipeline report ([`CampaignMode::Batch`] and
    /// [`CampaignMode::Streamed`]).
    Pipeline(PipelineReport),
    /// A monitoring report ([`CampaignMode::Monitor`]).
    Monitor(MonitorReport),
}

impl CampaignReport {
    /// The pipeline report, if this campaign ran in batch or streamed mode.
    pub fn pipeline(&self) -> Option<&PipelineReport> {
        match self {
            CampaignReport::Pipeline(report) => Some(report),
            CampaignReport::Monitor(_) => None,
        }
    }

    /// The monitor report, if this campaign ran in monitor mode.
    pub fn monitor(&self) -> Option<&MonitorReport> {
        match self {
            CampaignReport::Pipeline(_) => None,
            CampaignReport::Monitor(report) => Some(report),
        }
    }
}

/// The unified campaign facade. Start with [`Campaign::builder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign;

impl Campaign {
    /// Start configuring a campaign. Attach a backend with
    /// [`CampaignBuilder::world`] before calling `run`.
    pub fn builder() -> CampaignBuilder<'static, ()> {
        CampaignBuilder {
            world: (),
            settings: Settings {
                pipeline: PipelineConfig::default(),
                mode: CampaignMode::Batch,
                channel_capacity: 1024,
                watched: Vec::new(),
                granularity: None,
                window_interval: SimDuration::from_days(1),
                start: None,
                max_tracked: 8,
                queue_model: QueueModel::default(),
                retention_windows: None,
                churn: None,
                discovery: None,
                checkpoint_every: None,
                checkpoint_to: None,
                resume_from: None,
                stop: None,
            },
            telemetry: None,
        }
    }
}

/// Every knob that leaves the builder's type alone — all but the backend
/// and the observer — so attaching either moves this as one field.
#[derive(Debug, Clone)]
struct Settings {
    pipeline: PipelineConfig,
    mode: CampaignMode,
    channel_capacity: usize,
    watched: Vec<Ipv6Prefix>,
    granularity: Option<u8>,
    window_interval: SimDuration,
    start: Option<SimTime>,
    max_tracked: usize,
    queue_model: QueueModel,
    retention_windows: Option<u64>,
    churn: Option<WatchChurn>,
    discovery: Option<DiscoveryConfig>,
    checkpoint_every: Option<u64>,
    checkpoint_to: Option<PathBuf>,
    resume_from: Option<PathBuf>,
    stop: Option<StopSignal>,
}

/// Builder for a [`Campaign`].
///
/// The type parameter tracks whether a backend is attached yet: `run()` only
/// exists once [`CampaignBuilder::world`] has been called, so "forgot the
/// backend" is a compile error, not a runtime one. The lifetime is the
/// telemetry observer's ([`CampaignBuilder::telemetry`]); without one it is
/// `'static`.
#[derive(Clone)]
pub struct CampaignBuilder<'t, W> {
    world: W,
    settings: Settings,
    telemetry: Option<&'t dyn StreamObserver>,
}

impl<W: std::fmt::Debug> std::fmt::Debug for CampaignBuilder<'_, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignBuilder")
            .field("world", &self.world)
            .field("settings", &self.settings)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl<'t, W> CampaignBuilder<'t, W> {
    /// The seed controlling target generation and scan order (the paper
    /// reuses one zmap seed across its daily scans).
    pub fn seed(mut self, seed: u64) -> Self {
        self.settings.pipeline.seed = seed;
        self
    }

    /// The probe budget in packets per second (the paper's 10,000 by
    /// default).
    pub fn rate_pps(mut self, packets_per_second: u64) -> Self {
        self.settings.pipeline.packets_per_second = packets_per_second;
        self
    }

    /// Cap on /48s enumerated per seed /32 (bounds cost on huge
    /// announcements; scaled-down worlds use small caps).
    pub fn max_48s_per_seed(mut self, max_48s_per_seed: u64) -> Self {
        self.settings.pipeline.max_48s_per_seed = max_48s_per_seed;
        self
    }

    /// Replace the whole methodology parameter block (granularities, virtual
    /// times, …) at once.
    pub fn pipeline_config(mut self, pipeline: PipelineConfig) -> Self {
        self.settings.pipeline = pipeline;
        self
    }

    /// How the campaign executes (default: [`CampaignMode::Batch`]).
    pub fn mode(mut self, mode: CampaignMode) -> Self {
        self.settings.mode = mode;
        self
    }

    /// Bounded per-shard queue capacity, in messages of 64 observations
    /// (default: 1024): a shard's queue holds `64 * channel_capacity`
    /// observations, however many the engine packs into a message.
    pub fn channel_capacity(mut self, channel_capacity: usize) -> Self {
        self.settings.channel_capacity = channel_capacity;
        self
    }

    /// The /48s a [`CampaignMode::Monitor`] campaign watches.
    pub fn watch(mut self, watched_48s: Vec<Ipv6Prefix>) -> Self {
        self.settings.watched = watched_48s;
        self
    }

    /// Probing granularity inside each watched /48 in monitor mode
    /// (default: the pipeline's detection granularity).
    pub fn monitor_granularity(mut self, granularity: u8) -> Self {
        self.settings.granularity = Some(granularity);
        self
    }

    /// Virtual time between monitor windows (default: 24 hours).
    pub fn window_interval(mut self, window_interval: SimDuration) -> Self {
        self.settings.window_interval = window_interval;
        self
    }

    /// Virtual time the monitor's first window starts (default: the
    /// pipeline's first-snapshot time).
    pub fn start(mut self, start: SimTime) -> Self {
        self.settings.start = Some(start);
        self
    }

    /// Cap on devices folded into the monitor's tracking report
    /// (default: 8).
    pub fn max_tracked(mut self, max_tracked: usize) -> Self {
        self.settings.max_tracked = max_tracked;
        self
    }

    /// The deterministic virtual-queue model the prober adapts its
    /// virtual-time rate to: per-shard drain rate plus the depth watermarks
    /// for multiplicative back-off and additive recovery. The prober paces
    /// against it exactly when it can throttle
    /// ([`QueueModel::can_throttle`]); the default,
    /// [`QueueModel::unbounded`], cannot and keeps the fixed rate.
    /// Throttling runs are still bit-reproducible — the AIMD signal is a
    /// pure function of the configuration, the target order and virtual
    /// time, never of OS scheduling — and compose with any producer count
    /// in [`CampaignMode::Streamed`] and [`CampaignMode::Monitor`].
    /// [`CampaignMode::Batch`] has no shards to model and never throttles,
    /// though the model is still validated (an inverted-watermark model is
    /// rejected in every mode rather than silently carried).
    pub fn queue_model(mut self, queue_model: QueueModel) -> Self {
        self.settings.queue_model = queue_model;
        self
    }

    /// Shorthand for [`CampaignBuilder::queue_model`] with the given
    /// per-shard drain rate (observations retired per virtual second) and
    /// the default watermarks: the prober adapts its rate to it.
    pub fn drain_rate(mut self, drain_rate: u64) -> Self {
        self.settings.queue_model = QueueModel::with_drain_rate(drain_rate);
        self
    }

    /// Bound the monitor's memory to this many windows of history
    /// (default: retain everything).
    pub fn retention_windows(mut self, retention_windows: u64) -> Self {
        self.settings.retention_windows = Some(retention_windows);
        self
    }

    /// Make the monitor's watch list *live*, revised every `refresh_every`
    /// windows: each revision folds the closing epoch's density state
    /// through a boundary re-expansion probe, admitting newly-dense /48s in
    /// deterministic order and evicting prefixes that went quiet. Zero is a
    /// typed error ([`ConfigError::ZeroRefreshCadence`]) — leave churn off
    /// instead. Churning runs keep every reproducibility guarantee: reports
    /// stay byte-identical across producer counts and across live vs.
    /// recorded-replay backends.
    ///
    /// [`ConfigError::ZeroRefreshCadence`]: scent_stream::ConfigError::ZeroRefreshCadence
    pub fn refresh_every(mut self, refresh_every: u64) -> Self {
        let mut churn = self.settings.churn.unwrap_or_default();
        churn.refresh_every = refresh_every;
        self.settings.churn = Some(churn);
        self
    }

    /// Bound the churning monitor's watch list to this many /48s after each
    /// revision (default: 64 once churn is enabled). Implies churn: setting
    /// a capacity without [`CampaignBuilder::refresh_every`] revises every
    /// window. Zero is a typed error ([`ConfigError::ZeroWatchCapacity`]).
    ///
    /// [`ConfigError::ZeroWatchCapacity`]: scent_stream::ConfigError::ZeroWatchCapacity
    pub fn watch_capacity(mut self, watch_capacity: usize) -> Self {
        let mut churn = self.settings.churn.unwrap_or_default();
        churn.watch_capacity = watch_capacity;
        self.settings.churn = Some(churn);
        self
    }

    /// Replace the whole watch-list churn block at once (re-expansion block
    /// length, per-block candidate cap, cadence, capacity).
    pub fn watch_churn(mut self, churn: WatchChurn) -> Self {
        self.settings.churn = Some(churn);
        self
    }

    /// Enable adaptive hierarchical target discovery: the monitor grows a
    /// confidence-split prefix tree rooted at the world's BGP announcements,
    /// folds every epoch's density evidence into it, sweeps a bounded probe
    /// budget over the most promising frontier at each churn boundary, and
    /// feeds the tree's confidently-dense /48s into the watch-list revision
    /// alongside the seeded re-expansion candidates. With discovery on, an
    /// empty initial watch list is legal — the campaign bootstraps itself
    /// from the announcement topology alone. Requires
    /// [`CampaignMode::Monitor`] and watch-list churn
    /// ([`CampaignBuilder::refresh_every`]); the configuration's blocklist
    /// is honoured by every probe path (detection stream, boundary
    /// re-expansion and the discovery sweep itself).
    pub fn discovery(mut self, discovery: DiscoveryConfig) -> Self {
        self.settings.discovery = Some(discovery);
        self
    }

    /// Write a crash-safe snapshot every `checkpoint_every` windows (and
    /// always at the final epoch and at a graceful stop). Requires a
    /// destination ([`CampaignBuilder::checkpoint_to`]) and monitor mode.
    /// Zero is a typed error ([`ConfigError::ZeroCheckpointCadence`]); with
    /// churn on, the cadence must be a whole multiple of
    /// [`CampaignBuilder::refresh_every`]
    /// ([`ConfigError::MisalignedCheckpointCadence`]). The cadence shapes the
    /// run's epoch layout, so it is part of the snapshot's configuration
    /// fingerprint.
    ///
    /// [`ConfigError::ZeroCheckpointCadence`]: scent_stream::ConfigError::ZeroCheckpointCadence
    /// [`ConfigError::MisalignedCheckpointCadence`]: scent_stream::ConfigError::MisalignedCheckpointCadence
    pub fn checkpoint_every(mut self, checkpoint_every: u64) -> Self {
        self.settings.checkpoint_every = Some(checkpoint_every);
        self
    }

    /// Persist epoch-boundary snapshots to this file, written atomically
    /// (write to a `.tmp` sibling, then rename) so a crash mid-write never
    /// leaves a torn snapshot. Without
    /// [`CampaignBuilder::checkpoint_every`], a snapshot is written at every
    /// epoch boundary.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.settings.checkpoint_to = Some(path.into());
        self
    }

    /// Resume the monitor from a snapshot file previously written via
    /// [`CampaignBuilder::checkpoint_to`] instead of starting fresh. The
    /// run's configuration, initial watch list and world must match the ones
    /// the snapshot was captured under (enforced by fingerprints); the
    /// resumed run's report and deterministic telemetry are byte-identical
    /// to an uninterrupted run.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.settings.resume_from = Some(path.into());
        self
    }

    /// Attach a cooperative stop signal, polled at epoch boundaries: raising
    /// it drains the epoch in flight, applies any pending watch-list
    /// revision, writes a final checkpoint if a sink is attached, and
    /// returns a report covering the completed windows.
    pub fn stop_signal(mut self, stop: StopSignal) -> Self {
        self.settings.stop = Some(stop);
        self
    }

    /// Attach a telemetry observer — typically a
    /// [`Telemetry`](scent_telemetry::Telemetry) registry — to the campaign.
    /// Every streaming hook point reports through it: probe accounting,
    /// deterministic routing order, per-shard ingest, merge-side rate
    /// replay, phase/epoch closes and wall-clock spans. Without an observer
    /// the hooks cost one `None` branch per observation.
    ///
    /// Only the streaming modes ([`CampaignMode::Streamed`] and
    /// [`CampaignMode::Monitor`]) have hook points; a
    /// [`CampaignMode::Batch`] campaign runs unobserved and leaves the
    /// registry empty.
    pub fn telemetry<'u>(self, telemetry: &'u dyn StreamObserver) -> CampaignBuilder<'u, W> {
        CampaignBuilder {
            world: self.world,
            settings: self.settings,
            telemetry: Some(telemetry),
        }
    }
}

impl<'t> CampaignBuilder<'t, ()> {
    /// Attach the measurement backend the campaign probes and reads routing
    /// state from. Any `ProbeTransport + WorldView` implementor works: the
    /// simulated [`Engine`](scent_simnet::Engine), a
    /// [`RecordedBackend`](scent_prober::RecordedBackend) replay, a
    /// `&dyn MeasurementBackend` trait object, or a third-party backend.
    pub fn world<B: ProbeTransport + WorldView + ?Sized>(
        self,
        world: &B,
    ) -> CampaignBuilder<'t, &B> {
        CampaignBuilder {
            world,
            settings: self.settings,
            telemetry: self.telemetry,
        }
    }
}

impl<B: ProbeTransport + WorldView + ?Sized> CampaignBuilder<'_, &B> {
    /// Run the campaign against the attached backend.
    pub fn run(self) -> Result<CampaignReport, ScentError> {
        let settings = self.settings;
        // The facade's own rules: options only a monitor can honour.
        let monitoring = matches!(settings.mode, CampaignMode::Monitor { .. });
        let wants_checkpoint = settings.checkpoint_every.is_some()
            || settings.checkpoint_to.is_some()
            || settings.resume_from.is_some()
            || settings.stop.is_some();
        if wants_checkpoint && !monitoring {
            return Err(CampaignError::CheckpointRequiresMonitor.into());
        }
        if settings.discovery.is_some() && !monitoring {
            return Err(CampaignError::DiscoveryRequiresMonitor.into());
        }
        // Everything else is scent-stream's one statement of a runnable
        // configuration. The shared rules (shards, producers, capacity,
        // queue model) hold in every mode — batch reads them as the
        // one-shard, one-producer plane it is.
        let (shards, producers) = match settings.mode {
            CampaignMode::Batch => (1, 1),
            CampaignMode::Streamed { shards, producers }
            | CampaignMode::Monitor {
                shards, producers, ..
            } => (shards, producers),
        };
        let stream = StreamConfig {
            pipeline: settings.pipeline,
            shards,
            producers,
            channel_capacity: settings.channel_capacity,
            queue_model: settings.queue_model,
        };
        stream.validate()?;
        match settings.mode {
            CampaignMode::Batch => Ok(CampaignReport::Pipeline(
                Pipeline::new(stream.pipeline).run(self.world),
            )),
            CampaignMode::Streamed { .. } => Ok(CampaignReport::Pipeline(
                StreamPipeline::new(stream).run_observed(self.world, self.telemetry)?,
            )),
            CampaignMode::Monitor { windows, .. } => {
                if windows == 0 {
                    return Err(CampaignError::NoWindows.into());
                }
                if settings.watched.is_empty() && settings.discovery.is_none() {
                    // Discovery bootstraps an empty watch list from the
                    // announcement topology; without it, nothing ever would.
                    return Err(CampaignError::EmptyWatchList.into());
                }
                let config = MonitorConfig {
                    shards,
                    producers,
                    channel_capacity: stream.channel_capacity,
                    seed: stream.pipeline.seed,
                    packets_per_second: stream.pipeline.packets_per_second,
                    granularity: settings
                        .granularity
                        .unwrap_or(stream.pipeline.detection_granularity),
                    windows,
                    window_interval: settings.window_interval,
                    start: settings.start.unwrap_or(stream.pipeline.first_snapshot),
                    max_tracked: settings.max_tracked,
                    queue_model: stream.queue_model,
                    retention_windows: settings.retention_windows,
                    churn: settings.churn,
                    discovery: settings.discovery,
                    checkpoint_every: settings.checkpoint_every,
                    inject_shard_panic: None,
                };
                config.validate()?;
                let resume = match &settings.resume_from {
                    Some(path) => {
                        let bytes = FileCheckpointStore::new(path).load()?;
                        Some(MonitorSnapshot::from_bytes(&bytes)?)
                    }
                    None => None,
                };
                let mut file_sink = settings.checkpoint_to.map(FileCheckpointStore::new);
                let control = MonitorControl {
                    observer: self.telemetry,
                    sink: file_sink
                        .as_mut()
                        .map(|store| store as &mut dyn CheckpointSink),
                    resume,
                    stop: settings.stop,
                };
                let report = StreamMonitor::new(config).run_controlled(
                    self.world,
                    &settings.watched,
                    control,
                )?;
                Ok(CampaignReport::Monitor(report))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_simnet::{scenarios, Engine};
    use scent_stream::ConfigError;

    #[test]
    fn invalid_configurations_are_typed_errors() {
        let engine = Engine::build(scenarios::versatel_like(1)).unwrap();
        let err = Campaign::builder()
            .world(&engine)
            .mode(CampaignMode::Streamed {
                shards: 0,
                producers: 1,
            })
            .run()
            .unwrap_err();
        assert_eq!(err, ScentError::from(ConfigError::NoShards));

        let err = Campaign::builder()
            .world(&engine)
            .mode(CampaignMode::Streamed {
                shards: 2,
                producers: 0,
            })
            .run()
            .unwrap_err();
        assert_eq!(err, ScentError::from(ConfigError::NoProducers));

        let err = Campaign::builder()
            .world(&engine)
            .queue_model(scent_prober::QueueModel {
                drain_rate: Some(16),
                high_watermark: 8,
                low_watermark: 8, // inverted: low must be strictly below high
                ..scent_prober::QueueModel::unbounded()
            })
            .run()
            .unwrap_err();
        assert_eq!(err, ScentError::from(ConfigError::InvalidQueueModel));

        let err = Campaign::builder()
            .world(&engine)
            .channel_capacity(0)
            .mode(CampaignMode::Batch)
            .run()
            .unwrap_err();
        assert_eq!(err, ScentError::from(ConfigError::ZeroChannelCapacity));

        let err = Campaign::builder()
            .world(&engine)
            .mode(CampaignMode::Monitor {
                windows: 2,
                shards: 2,
                producers: 1,
            })
            .run()
            .unwrap_err();
        assert_eq!(err, ScentError::Campaign(CampaignError::EmptyWatchList));

        let err = Campaign::builder()
            .world(&engine)
            .watch(vec!["2001:16b8:100::/48".parse().unwrap()])
            .mode(CampaignMode::Monitor {
                windows: 0,
                shards: 2,
                producers: 1,
            })
            .run()
            .unwrap_err();
        assert_eq!(err, ScentError::Campaign(CampaignError::NoWindows));
    }

    #[test]
    fn monitor_mode_runs_through_the_facade() {
        let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
        let watched: Vec<Ipv6Prefix> = engine
            .pools()
            .iter()
            .filter(|p| p.config.prefix.len() <= 48)
            .flat_map(|p| p.config.prefix.subnets(48).unwrap())
            .collect();
        let report = Campaign::builder()
            .world(&engine)
            .seed(0x57ae)
            .mode(CampaignMode::Monitor {
                windows: 2,
                shards: 2,
                producers: 1,
            })
            .watch(watched)
            .monitor_granularity(56)
            .start(SimTime::at(10, 9))
            .max_tracked(4)
            .run()
            .unwrap();
        assert!(report.pipeline().is_none());
        let monitor = report
            .monitor()
            .expect("monitor mode yields a monitor report");
        assert_eq!(monitor.windows, 2);
        assert!(monitor.observations > 0);
        assert!(!monitor.rotating_48s.is_empty());
        assert!(monitor.tracking.devices.len() <= 4);
    }
}
