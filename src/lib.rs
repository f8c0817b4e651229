//! Reproduction of *"Follow the Scent: Defeating IPv6 Prefix Rotation
//! Privacy"* (IMC 2021): a deterministic simulated IPv6 Internet, the
//! paper's scanning tools and inference algorithms, and a streaming
//! monitoring engine — unified behind one backend-agnostic [`Campaign`]
//! facade.
//!
//! # Quickstart
//!
//! Build a world, attach it as the campaign backend, pick a mode, run:
//!
//! ```
//! use followscent::simnet::{scenarios, Engine, WorldScale};
//! use followscent::{Campaign, CampaignMode, ScentError};
//!
//! fn main() -> Result<(), ScentError> {
//!     // Any backend works: the simulated Internet, a recorded replay, or a
//!     // third-party `ProbeTransport + WorldView` implementor.
//!     let engine = Engine::build(scenarios::paper_world(71, WorldScale::small()))?;
//!
//!     // Two inference shards consume observations probed by four parallel
//!     // producers; the merged virtual clock keeps the run bit-identical to
//!     // a single-threaded one.
//!     let report = Campaign::builder()
//!         .world(&engine)
//!         .seed(0xf0110)
//!         .rate_pps(10_000)
//!         .max_48s_per_seed(128)
//!         .mode(CampaignMode::Streamed { shards: 2, producers: 4 })
//!         .run()?;
//!
//!     let pipeline = report.pipeline().expect("streamed mode yields a pipeline report");
//!     assert!(!pipeline.rotating_48s.is_empty(), "rotation found");
//!     Ok(())
//! }
//! ```
//!
//! Switching `.mode(..)` to [`CampaignMode::Batch`] produces the identical
//! report on one thread — the streamed report is test-enforced equal for
//! *any* shard and producer count — and
//! [`CampaignMode::Monitor`] turns the same builder into a continuous
//! rotation monitor over a watched /48 list (`.watch(..)`) with per-window
//! rotation events and passive device tracking. The watch list can be *live* too:
//! `.refresh_every(k)` + `.watch_capacity(n)` make the monitor revise its
//! own list on a cadence — evicting /48s that went quiet, admitting
//! newly-dense neighbours surfaced by a boundary re-expansion probe — which
//! closes the paper's "scan → find dense prefixes → watch them → re-expand"
//! loop while keeping runs byte-identical at any producer count (see the
//! [`campaign`] module's churn example). Adaptive probing composes with all
//! of it:
//! `.queue_model(..)` with a [`QueueModel`](prober::QueueModel) that has a
//! finite drain rate (or `.drain_rate(n)`) makes the probe rate adapt (AIMD)
//! to a *deterministic virtual-queue* model of consumer capacity — a pure
//! function of the configuration and virtual time, so feedback-on runs stay
//! bit-reproducible at any `shards × producers` configuration (see the
//! [`campaign`] module example). Errors are typed end to end:
//! [`ScentError`] wraps the world-building, RIB-parsing and
//! campaign-configuration failures of the member crates, all implementing
//! [`std::error::Error`].
//!
//! # Checkpoint & resume
//!
//! Long monitoring runs can suspend and resume without losing determinism:
//! `.checkpoint_to(path)` writes a crash-safe snapshot of every piece of
//! incremental monitor state at epoch boundaries (atomic write-then-rename,
//! versioned self-validating format), `.checkpoint_every(k)` sets the
//! cadence, a [`StopSignal`](stream::StopSignal) drains the epoch in flight
//! and halts gracefully, and `.resume_from(path)` continues where the
//! snapshot left off. The resumed run's report — and its deterministic
//! telemetry — is **byte-identical** to the uninterrupted run, at any shard
//! or producer count:
//!
//! ```
//! use followscent::simnet::{scenarios, Engine};
//! use followscent::stream::StopSignal;
//! use followscent::{Campaign, CampaignMode, ScentError};
//!
//! fn main() -> Result<(), ScentError> {
//!     let engine = Engine::build(scenarios::continuous_world(13))?;
//!     let watched = vec!["2001:16b8:100::/48".parse().unwrap()];
//!     let path = std::env::temp_dir().join(format!("scent-qs-{}.ckpt", std::process::id()));
//!     let mode = CampaignMode::Monitor { windows: 4, shards: 2, producers: 2 };
//!     let base = || {
//!         Campaign::builder()
//!             .world(&engine)
//!             .watch(watched.clone())
//!             .checkpoint_every(2)
//!             .mode(mode)
//!     };
//!     // The uninterrupted run is the reference.
//!     let full = base().run()?;
//!     // Raise the stop signal up front: the run halts at the first epoch
//!     // boundary (two windows in), leaving a snapshot behind.
//!     let stop = StopSignal::new();
//!     stop.request_stop();
//!     let half = base().checkpoint_to(&path).stop_signal(stop).run()?;
//!     assert_eq!(half.monitor().unwrap().windows, 2);
//!     // Resuming finishes the remaining windows: same report, byte for byte.
//!     let resumed = base().resume_from(&path).run()?;
//!     std::fs::remove_file(&path).ok();
//!     assert_eq!(resumed.monitor().unwrap(), full.monitor().unwrap());
//!     Ok(())
//! }
//! ```
//!
//! # Telemetry
//!
//! Attach a [`telemetry::Telemetry`] registry with
//! [`CampaignBuilder::telemetry`](crate::campaign::CampaignBuilder::telemetry)
//! and every streaming run journals what it did: typed counters, per-window
//! virtual-time aggregates, rate back-off/recovery events and epoch
//! revisions, exportable as Prometheus text or JSONL. The *deterministic*
//! snapshot tier is — like the reports themselves — a pure function of
//! `(config, world seed)`, byte-identical across shard counts, producer
//! counts and live vs. recorded replay; wall-clock diagnostics live in a
//! separate profile tier.
//!
//! ```
//! use followscent::simnet::{scenarios, Engine, WorldScale};
//! use followscent::telemetry::{self, Telemetry};
//! use followscent::{Campaign, CampaignMode, ScentError};
//!
//! fn main() -> Result<(), ScentError> {
//!     let engine = Engine::build(scenarios::paper_world(71, WorldScale::small()))?;
//!     let registry = Telemetry::new();
//!     Campaign::builder()
//!         .world(&engine)
//!         .max_48s_per_seed(128)
//!         .mode(CampaignMode::Streamed { shards: 2, producers: 4 })
//!         .telemetry(&registry)
//!         .run()?;
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
//! * [`ipv6`] — addresses, prefixes, EUI-64/MAC arithmetic, ICMPv6 wire
//!   formats.
//! * [`oui`] — the MAC-vendor (OUI) registry.
//! * [`bgp`] — RIB, longest-prefix table, AS metadata.
//! * [`simnet`] — the deterministic simulated IPv6 Internet.
//! * [`prober`] — zmap6/yarrp-style scanners, pacing, target generation, the
//!   `ProbeTransport` + `WorldView` backend traits, and the record/replay
//!   backends.
//! * [`core`] — the paper's inference and tracking algorithms (batch and
//!   incremental).
//! * [`discovery`] — adaptive hierarchical target discovery: the
//!   confidence-split prefix tree, Wilson-bound density certificates,
//!   probe blocklists and budgeted frontier sweeps.
//! * [`stream`] — the sharded streaming monitor built on the incremental
//!   algorithms: continuous rotation detection with bounded memory.
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
//! * [`campaign`] — the [`Campaign`] facade unifying batch, streamed and
//!   monitoring runs over any backend.
//! * [`error`] — the [`ScentError`] hierarchy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod error;

pub use campaign::{Campaign, CampaignBuilder, CampaignMode, CampaignReport};
pub use error::{CampaignError, ScentError};
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
