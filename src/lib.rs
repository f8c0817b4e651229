//! Reproduction of *"Follow the Scent: Defeating IPv6 Prefix Rotation
//! Privacy"* (IMC 2021): a deterministic simulated IPv6 Internet, the
//! paper's scanning tools and inference algorithms, and a streaming
//! monitoring engine.
//!
//! The engines are the entry points, each taking its configuration struct
//! and any backend: the batch [`core::Pipeline`], the sharded
//! [`stream::StreamPipeline`], the continuous [`stream::StreamMonitor`] and
//! the multi-tenant [`Scheduler`]. This crate re-exports the member crates
//! and funnels their errors into one [`ScentError`].
//!
//! # Quickstart
//!
//! Build a world and run the streamed discovery pipeline over it:
//!
//! ```
//! use followscent::core::PipelineConfig;
//! use followscent::simnet::{scenarios, Engine, WorldScale};
//! use followscent::stream::{StreamConfig, StreamPipeline};
//! use followscent::ScentError;
//!
//! fn main() -> Result<(), ScentError> {
//!     // Any backend works: the simulated Internet, a recorded replay, or a
//!     // third-party `ProbeTransport + WorldView` implementor.
//!     let engine = Engine::build(scenarios::paper_world(71, WorldScale::small()))?;
//!
//!     // Two inference shards consume observations probed by four parallel
//!     // producers; the merged virtual clock keeps the run bit-identical to
//!     // a single-threaded one.
//!     let config = StreamConfig {
//!         pipeline: PipelineConfig {
//!             max_48s_per_seed: 128,
//!             ..PipelineConfig::default()
//!         },
//!         shards: 2,
//!         producers: 4,
//!         ..StreamConfig::default()
//!     };
//!     let report = StreamPipeline::new(config).run(&engine)?;
//!     assert!(!report.rotating_48s.is_empty(), "rotation found");
//!     Ok(())
//! }
//! ```
//!
//! The batch [`core::Pipeline`] produces the identical report on one
//! thread — the streamed report is test-enforced equal for *any* shard and
//! producer count, on any backend. Here the batch run is recorded and the
//! streamed run replays the log:
//!
//! ```
//! use followscent::core::{Pipeline, PipelineConfig};
//! use followscent::prober::{RecordedBackend, RecordingBackend};
//! use followscent::simnet::{scenarios, Engine, WorldScale};
//! use followscent::stream::{StreamConfig, StreamPipeline};
//! use followscent::ScentError;
//!
//! fn main() -> Result<(), ScentError> {
//!     let engine = Engine::build(scenarios::paper_world(71, WorldScale::small()))?;
//!     let pipeline = PipelineConfig {
//!         max_48s_per_seed: 128,
//!         ..PipelineConfig::default()
//!     };
//!     let recorder = RecordingBackend::new(&engine);
//!     let batch = Pipeline::new(pipeline.clone()).run(&recorder);
//!     let replay = RecordedBackend::from_log(recorder.finish());
//!     let config = StreamConfig {
//!         pipeline,
//!         shards: 2,
//!         producers: 4,
//!         ..StreamConfig::default()
//!     };
//!     assert_eq!(batch, StreamPipeline::new(config).run(&replay)?);
//!     Ok(())
//! }
//! ```
//!
//! A configuration no run could honour is a typed error, returned before
//! anything probes: [`stream::ConfigError`], carried as
//! [`stream::StreamError::Config`] and [`ScentError::Config`]. Errors are
//! typed end to end: [`ScentError`] wraps the world-building, RIB-parsing,
//! configuration, checkpoint and shard failures of the member crates, all
//! implementing [`std::error::Error`].
//!
//! # Monitoring
//!
//! [`stream::StreamMonitor`] turns a watched /48 list into a continuous
//! rotation monitor with per-window rotation events and passive device
//! tracking. A [`QueueModel`](prober::QueueModel) with a finite drain rate
//! makes the probe rate adapt (AIMD) to a *deterministic virtual-queue*
//! model of consumer capacity — a pure function of the configuration and
//! virtual time, so feedback-on runs stay bit-reproducible at any
//! `shards × producers` configuration:
//!
//! ```
//! use followscent::ipv6::Ipv6Prefix;
//! use followscent::prober::QueueModel;
//! use followscent::simnet::{scenarios, Engine};
//! use followscent::stream::{MonitorConfig, StreamMonitor};
//! use followscent::ScentError;
//!
//! fn main() -> Result<(), ScentError> {
//!     let engine = Engine::build(scenarios::continuous_world(13))?;
//!     let watched: Vec<Ipv6Prefix> = vec!["2001:16b8:100::/48".parse().unwrap()];
//!     let run = |producers| {
//!         StreamMonitor::new(MonitorConfig {
//!             windows: 2,
//!             producers, // feedback works at any producer count
//!             packets_per_second: 128,
//!             queue_model: QueueModel {
//!                 drain_rate: Some(16), // adapt to 16 obs/s per shard...
//!                 high_watermark: 64,   // ...backing off at 64 queued...
//!                 low_watermark: 8,     // ...recovering below 8
//!                 ..QueueModel::unbounded()
//!             },
//!             ..MonitorConfig::default()
//!         })
//!         .run(&engine, &watched)
//!     };
//!     let single = run(1)?;
//!     let mut sharded = run(4)?;
//!     sharded.backpressure_stalls = single.backpressure_stalls;
//!     assert_eq!(single, sharded, "byte-identical at any producer count");
//!     assert!(single.final_rate < 128, "the slow consumer throttled probing");
//!     Ok(())
//! }
//! ```
//!
//! The watch list can be *live* too ([`stream::WatchChurn`]): the monitor
//! folds its own density state through a re-expansion step on a cadence,
//! evicting /48s that went quiet and admitting newly-dense neighbours —
//! the paper's "scan → find dense prefixes → watch them → re-expand" loop,
//! closed. Churning runs stay byte-identical across producer counts and
//! across live vs. recorded replay:
//!
//! ```
//! use followscent::ipv6::Ipv6Prefix;
//! use followscent::simnet::{scenarios, Engine};
//! use followscent::stream::{MonitorConfig, StreamMonitor, WatchChurn};
//! use followscent::ScentError;
//!
//! fn main() -> Result<(), ScentError> {
//!     // A world whose dense /48 migrates daily within a /44 pool.
//!     let engine = Engine::build(scenarios::churn_world(7))?;
//!     let initial: Vec<Ipv6Prefix> = vec![
//!         "2001:16b8:1d0b::/48".parse().unwrap(), // dense on the first day
//!         "2803:9810:100::/48".parse().unwrap(),  // static control
//!     ];
//!     let report = StreamMonitor::new(MonitorConfig {
//!         windows: 4,
//!         producers: 2,
//!         churn: Some(WatchChurn {
//!             refresh_every: 1,  // revise the watch list every window...
//!             watch_capacity: 3, // ...keeping at most three /48s
//!             ..WatchChurn::default()
//!         }),
//!         ..MonitorConfig::default()
//!     })
//!     .run(&engine, &initial)?;
//!     for revision in &report.revisions {
//!         println!(
//!             "epoch {}: +{} admitted, -{} evicted",
//!             revision.epoch,
//!             revision.admitted.len(),
//!             revision.evicted.len()
//!         );
//!     }
//!     let (admitted, evicted) = report.churn_counts();
//!     assert!(admitted > 0 && evicted > 0, "the monitor followed the band");
//!     assert_ne!(report.final_watch, initial);
//!     Ok(())
//! }
//! ```
//!
//! # Checkpoint & resume
//!
//! Long monitoring runs can suspend and resume without losing determinism:
//! [`StreamMonitor::run_controlled`](stream::StreamMonitor::run_controlled)
//! writes a snapshot of every piece of incremental monitor state to a
//! [`CheckpointSink`](checkpoint::CheckpointSink) at epoch boundaries (a
//! [`FileCheckpointStore`](checkpoint::FileCheckpointStore) writes it
//! atomically; the format is versioned and self-validating),
//! `checkpoint_every` sets the cadence, a
//! [`StopSignal`](stream::StopSignal) drains the epoch in flight and halts
//! gracefully, and a [`MonitorSnapshot`](stream::MonitorSnapshot) passed
//! back as `resume` continues where the snapshot left off. The resumed
//! run's report — and its deterministic telemetry — is **byte-identical**
//! to the uninterrupted run, at any shard or producer count:
//!
//! ```
//! use followscent::checkpoint::FileCheckpointStore;
//! use followscent::ipv6::Ipv6Prefix;
//! use followscent::simnet::{scenarios, Engine};
//! use followscent::stream::{
//!     MonitorConfig, MonitorControl, MonitorSnapshot, StopSignal, StreamMonitor,
//! };
//! use followscent::ScentError;
//!
//! fn main() -> Result<(), ScentError> {
//!     let engine = Engine::build(scenarios::continuous_world(13))?;
//!     let watched: Vec<Ipv6Prefix> = vec!["2001:16b8:100::/48".parse().unwrap()];
//!     let path = std::env::temp_dir().join(format!("scent-qs-{}.ckpt", std::process::id()));
//!     let monitor = StreamMonitor::new(MonitorConfig {
//!         windows: 4,
//!         producers: 2,
//!         checkpoint_every: Some(2),
//!         ..MonitorConfig::default()
//!     });
//!     // The uninterrupted run is the reference.
//!     let full = monitor.run(&engine, &watched)?;
//!     // Raise the stop signal up front: the run halts at the first epoch
//!     // boundary (two windows in), leaving a snapshot behind.
//!     let stop = StopSignal::new();
//!     stop.request_stop();
//!     let mut store = FileCheckpointStore::new(&path);
//!     let control = MonitorControl {
//!         sink: Some(&mut store),
//!         stop: Some(stop),
//!         ..MonitorControl::default()
//!     };
//!     let half = monitor.run_controlled(&engine, &watched, control)?;
//!     assert_eq!(half.windows, 2);
//!     // Resuming finishes the remaining windows: same report, byte for byte.
//!     let resume = Some(MonitorSnapshot::from_bytes(&store.load()?)?);
//!     let control = MonitorControl {
//!         resume,
//!         ..MonitorControl::default()
//!     };
//!     let mut resumed = monitor.run_controlled(&engine, &watched, control)?;
//!     std::fs::remove_file(&path).ok();
//!     resumed.backpressure_stalls = full.backpressure_stalls;
//!     assert_eq!(resumed, full);
//!     Ok(())
//! }
//! ```
//!
//! # Telemetry
//!
//! Attach a [`telemetry::Telemetry`] registry to a run
//! ([`StreamPipeline::run_observed`](stream::StreamPipeline::run_observed),
//! [`MonitorControl::observer`](stream::MonitorControl::observer)) and it
//! journals what the run did: typed counters, per-window virtual-time
//! aggregates, rate back-off/recovery events and epoch revisions, exportable
//! as Prometheus text or JSONL. The *deterministic* snapshot tier is — like
//! the reports themselves — a pure function of `(config, world seed)`,
//! byte-identical across shard counts, producer counts and live vs.
//! recorded replay; wall-clock diagnostics live in a separate profile tier.
//!
//! ```
//! use followscent::core::PipelineConfig;
//! use followscent::simnet::{scenarios, Engine, WorldScale};
//! use followscent::stream::{StreamConfig, StreamPipeline};
//! use followscent::telemetry::{self, Telemetry};
//! use followscent::ScentError;
//!
//! fn main() -> Result<(), ScentError> {
//!     let engine = Engine::build(scenarios::paper_world(71, WorldScale::small()))?;
//!     let registry = Telemetry::new();
//!     let config = StreamConfig {
//!         pipeline: PipelineConfig {
//!             max_48s_per_seed: 128,
//!             ..PipelineConfig::default()
//!         },
//!         shards: 2,
//!         producers: 4,
//!         ..StreamConfig::default()
//!     };
//!     StreamPipeline::new(config).run_observed(&engine, Some(&registry))?;
//!     let snapshot = registry.snapshot();
//!     assert!(snapshot.deterministic.observations > 0);
//!     assert_eq!(snapshot.topology.producers, 4);
//!     // Prometheus text exposition and a JSONL event journal, ready to ship.
//!     let text = telemetry::prometheus(&snapshot);
//!     assert!(text.contains("scent_observations_total"));
//!     let journal = telemetry::events_jsonl(&snapshot.deterministic.events);
//!     assert!(journal.lines().all(|l| l.starts_with('{')));
//!     Ok(())
//! }
//! ```
//!
//! # Multi-campaign scheduling
//!
//! One operator, N campaigns, one probe budget: the [`Scheduler`] runs any
//! number of monitoring campaigns — distinct worlds, watch lists, cadences,
//! feedback configurations — over a single global virtual clock, splitting
//! the packets-per-second budget by weighted fair share (largest-remainder
//! rounding: the integer shares always sum to the budget exactly). Tenants
//! that finish, exhaust their watch list or honor a stop signal *park*,
//! releasing their share to the survivors; a shard panic inside one tenant
//! surfaces as a typed error in that tenant's outcome while every neighbor
//! keeps running. A campaign's report and deterministic telemetry depend
//! only on its own configuration and budget trajectory — running among
//! neighbors is byte-identical to running solo at the same share
//! (test-enforced across producer counts and live vs. recorded backends):
//!
//! ```
//! use followscent::sched::SchedError;
//! use followscent::simnet::{scenarios, Engine};
//! use followscent::stream::MonitorConfig;
//! use followscent::Scheduler;
//!
//! fn main() -> Result<(), SchedError> {
//!     let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
//!     let watched = vec!["2001:16b8:100::/48".parse().unwrap()];
//!     let config = MonitorConfig {
//!         windows: 2,
//!         shards: 2,
//!         ..MonitorConfig::default()
//!     };
//!     // Two tenants share 3000 pps at weights 2:1 — 2000 and 1000 pps.
//!     let report = Scheduler::builder()
//!         .global_pps(3_000)
//!         .add(
//!             followscent::sched::Campaign::new(&engine, config.clone(), watched.clone()),
//!             2,
//!         )
//!         .add(followscent::sched::Campaign::new(&engine, config, watched), 1)
//!         .run()?;
//!     assert_eq!(report.allocations[0].shares, vec![(0, 2_000), (1, 1_000)]);
//!     let monitor = report.tenants[0].outcome.as_ref().unwrap();
//!     assert_eq!(monitor.windows, 2);
//!     Ok(())
//! }
//! ```
//!
//! # Workspace map
//!
//! * [`ipv6`] — addresses, prefixes, EUI-64/MAC arithmetic.
//! * [`oui`] — the MAC-vendor (OUI) registry.
//! * [`bgp`] — RIB, longest-prefix table, AS metadata.
//! * [`simnet`] — the deterministic simulated IPv6 Internet.
//! * [`prober`] — zmap6/yarrp-style scanners, pacing, target generation, the
//!   `ProbeTransport` + `WorldView` backend traits, and the record/replay
//!   backends.
//! * [`core`] — the paper's inference and tracking algorithms (batch and
//!   incremental), and the batch [`Pipeline`](core::Pipeline).
//! * [`discovery`] — adaptive hierarchical target discovery: the
//!   confidence-split prefix tree, Wilson-bound density certificates,
//!   probe blocklists and budgeted frontier sweeps.
//! * [`stream`] — the sharded streaming engines built on the incremental
//!   algorithms: the streamed pipeline and the continuous monitor, with the
//!   one statement of a runnable configuration
//!   ([`ConfigError`](stream::ConfigError)).
//! * [`checkpoint`] — the versioned snapshot codec: the
//!   [`Checkpointable`](checkpoint::Checkpointable) trait, the framed
//!   container format with fingerprints and checksum, typed
//!   [`CheckpointError`](checkpoint::CheckpointError)s, and the crash-safe
//!   [`FileCheckpointStore`](checkpoint::FileCheckpointStore).
//! * [`telemetry`] — the deterministic observability layer: the
//!   [`StreamObserver`](telemetry::StreamObserver) hook trait, the
//!   [`Telemetry`](telemetry::Telemetry) registry and its
//!   Prometheus/JSONL exporters.
//! * [`sched`] — the deterministic multi-campaign scheduler: N weighted
//!   tenants over one probe budget, with fair-share allocation, parking,
//!   and per-tenant failure isolation.
//! * [`experiments`] — the table/figure reproduction binaries' library code.
//! * [`error`] — the [`ScentError`] hierarchy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;

pub use error::ScentError;
pub use scent_sched::Scheduler;

pub use scent_bgp as bgp;
pub use scent_checkpoint as checkpoint;
pub use scent_core as core;
pub use scent_discovery as discovery;
pub use scent_experiments as experiments;
pub use scent_ipv6 as ipv6;
pub use scent_oui as oui;
pub use scent_prober as prober;
pub use scent_sched as sched;
pub use scent_simnet as simnet;
pub use scent_stream as stream;
pub use scent_telemetry as telemetry;

// Compile-check (and where runnable, run) every fenced Rust snippet in the
// repo-level documentation as doctests, so the docs can't drift from the API.
// `cargo test --doc` exercises these; CI runs it in the docs leg.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

#[cfg(doctest)]
#[doc = include_str!("../ARCHITECTURE.md")]
mod architecture_doctests {}

#[cfg(doctest)]
#[doc = include_str!("../docs/PERFORMANCE.md")]
mod performance_doctests {}
