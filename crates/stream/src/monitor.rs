//! The continuous rotation monitor: endless windows, rotation events,
//! passive tracking.
//!
//! Where [`StreamPipeline`](crate::pipeline::StreamPipeline) replays the
//! batch methodology, [`StreamMonitor`] is what the batch pipeline cannot
//! express: a long-running monitor over a set of watched /48s that probes
//! them window after window of virtual time, records a
//! [`RotationEvent`] whenever a target's EUI-64 responder changes
//! (delivered in [`MonitorReport::events`], and readable at every epoch
//! boundary from [`MonitorSession::snapshot`]'s shard states), follows every
//! identifier passively, and applies AIMD rate feedback when the inference
//! shards fall behind the prober.
//!
//! The watch list itself can be **live** ([`MonitorConfig::churn`]): on a
//! configurable cadence the monitor folds its own per-epoch density state
//! through a [`SeedExpansion`] re-expansion step, admitting newly-dense /48s
//! and evicting prefixes that have gone quiet, under a bounded capacity with
//! deterministic admission order. Revisions are computed from merged-clock
//! state only — never from OS timing — so a churning run stays byte-identical
//! across producer counts and across live vs. recorded-replay backends.

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_checkpoint::{CheckpointError, CheckpointSink};
use scent_core::density::DensityAccumulator;
use scent_core::rotation_detect::RotationEvent;
use scent_core::{FastMap, SeedExpansion, TrackingReport, WatchRevision};
use scent_discovery::{DiscoveryConfig, DiscoveryReport, DiscoveryTree};
use scent_ipv6::Ipv6Prefix;
use scent_prober::{ProbeTransport, QueueModel, Scanner, TargetGenerator, TargetStream, WorldView};
use scent_simnet::{SimDuration, SimTime};

use scent_telemetry::{EpochSummary, StreamObserver};

use crate::checkpoint::{config_fingerprint, world_fingerprint, MonitorSnapshot, StopSignal};
use crate::engine::{IngestEngine, IngestOptions, Pass, ShardPool};
use crate::error::{ConfigError, StreamError};
use crate::observation::{Observation, Phase};
use crate::router::{ShardMap, ShardRouter};
use crate::shard::ShardInference;

/// Live watch-list churn configuration: how a continuous monitor revises its
/// own watch list from the density state it accumulates.
///
/// With churn enabled the run is divided into *epochs* of
/// [`WatchChurn::refresh_every`] windows. At each epoch boundary the monitor
/// re-expands the enclosing [`WatchChurn::expansion_len`] block of every
/// watched /48 (one probe per candidate /48 —
/// [`SeedExpansion`] semantics at the boundary's virtual time) and folds the
/// closing epoch's per-/48 density state through
/// [`SeedExpansion::revise_watch_list`]: /48s that stayed dense survive,
/// quiet ones are evicted, and freshly validated candidates are admitted in
/// deterministic order up to [`WatchChurn::watch_capacity`].
///
/// The revision is a pure function of the merged observation sequence and
/// the expansion probes — both deterministic — so churning runs keep every
/// reproducibility guarantee of fixed-list runs: byte-identical reports
/// across producer counts and across live vs. recorded-replay backends.
/// Note that when [`MonitorConfig::queue_model`] can throttle, the
/// virtual-queue trajectory restarts at the configured budget at every epoch
/// boundary (each epoch's revised target set is paced from scratch, its
/// queues empty and their drain clock starting at the epoch's first
/// window).
///
/// The scent can dry up: when every watched /48 goes quiet in one epoch and
/// the boundary expansion validates nothing, the revision leaves the watch
/// list **empty** — and since re-expansion seeds derive from the watched
/// /48s, it could never refill. The monitor treats that as terminal: it
/// emits a deterministic `WatchExhausted` telemetry event and **ends the run
/// at that boundary** instead of spinning empty epochs and charging
/// expansion probes against the budget ([`MonitorReport::exhausted_at`]
/// marks the window; a scheduler-driven session parks instead — see
/// [`MonitorSession`]). The draining revisions are in
/// [`MonitorReport::revisions`]. Give the monitor a wider
/// [`WatchChurn::expansion_len`] when pools may migrate beyond their
/// enclosing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchChurn {
    /// Windows per epoch: the watch list is revised every this many windows.
    /// Must be non-zero.
    pub refresh_every: u64,
    /// Bound on the revised watch list. Must be non-zero. The initial list
    /// may exceed it; the first revision enforces it (densest survivors
    /// kept, ties broken by prefix order).
    pub watch_capacity: usize,
    /// Prefix length of the re-expansion blocks probed at each boundary: the
    /// enclosing block of this length around every watched /48 is
    /// re-expanded, so the monitor can follow pools that migrate between
    /// sibling /48s. At most 48.
    pub expansion_len: u8,
    /// Cap on candidate /48s enumerated per re-expansion block (bounds the
    /// boundary probing cost on short blocks).
    pub max_48s_per_seed: u64,
}

impl Default for WatchChurn {
    fn default() -> Self {
        WatchChurn {
            refresh_every: 1,
            watch_capacity: 64,
            expansion_len: 44,
            max_48s_per_seed: 256,
        }
    }
}

/// Cap on devices folded into a monitor's tracking report.
pub(crate) const MAX_TRACKED: usize = 8;

/// Continuous monitor configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Number of inference shards.
    pub shards: usize,
    /// Number of probe producers each window's scan is split across (1 = one
    /// prober thread). Producers probe concurrently; the merged clock keeps
    /// the observation sequence — and therefore every report — bit-identical
    /// for any count, whatever the [`MonitorConfig::queue_model`] (every
    /// producer replays the same deterministic rate trajectory locally).
    pub producers: usize,
    /// Seed controlling target generation and probe order.
    pub seed: u64,
    /// Probe budget per second (the ceiling the AIMD feedback recovers to).
    pub packets_per_second: u64,
    /// Probing granularity inside each watched /48 (the paper's detection
    /// step probes every /64; scaled-down runs use /56).
    pub granularity: u8,
    /// Number of observation windows to run (the stream itself is infinite;
    /// this is how long the monitor listens).
    pub windows: u64,
    /// Virtual time between window starts (24 hours in the paper).
    pub window_interval: SimDuration,
    /// Virtual time of the first window.
    pub start: SimTime,
    /// The deterministic virtual-queue model the prober's virtual-time rate
    /// adapts to (AIMD): each shard's drain rate plus the depth watermarks that
    /// trigger multiplicative back-off and additive recovery. The prober
    /// paces against it exactly when it can throttle
    /// ([`QueueModel::can_throttle`]). The default
    /// ([`QueueModel::unbounded`]) models an infinitely fast consumer and
    /// keeps the paper's fixed rate; a drain rate is only worth paying for
    /// when consumer capacity should govern the probe budget. Feedback is
    /// bit-reproducible — the signal is a pure function of `(config, target
    /// order, virtual time)`, never of OS scheduling — and works with any
    /// [`MonitorConfig::producers`] count.
    pub queue_model: QueueModel,
    /// When set, shards drop per-window tracker state (sightings, probe
    /// counts, retained events) older than this many windows behind the
    /// current one, keeping a genuinely endless run's memory bounded. The
    /// report then covers only the retained horizon. `None` retains
    /// everything (right for finite runs folded into full reports).
    pub retention_windows: Option<u64>,
    /// When set, the watch list is *live*: revised every
    /// [`WatchChurn::refresh_every`] windows from the monitor's own density
    /// state plus a boundary re-expansion probe. `None` (the default) keeps
    /// the watch list fixed for the whole run.
    pub churn: Option<WatchChurn>,
    /// When set (requires [`MonitorConfig::churn`]), the monitor grows an
    /// adaptive [`DiscoveryTree`] over the announced space: at every epoch
    /// boundary it runs one decay/fold/sweep/rebalance cycle, routes the
    /// sweep probes through the inference shards as expansion-phase
    /// observations, and feeds the tree's confidently dense /48s into the
    /// watch-list revision as admission candidates — so a monitor can start
    /// from an **empty** watch list and discover the occupied bands itself.
    /// The discovery blocklist is also consulted by the detection-phase
    /// target stream and the boundary re-expansion, so no probe of any phase
    /// enters a blocked prefix. `None` (the default) keeps the flat-list
    /// behavior exactly.
    pub discovery: Option<DiscoveryConfig>,
    /// Checkpoint cadence, in windows: when a
    /// [`CheckpointSink`] is attached (via
    /// [`MonitorControl::sink`]), a snapshot is written at every epoch
    /// boundary whose completed-window count is a multiple of this. `None`
    /// writes at every epoch boundary the run has anyway.
    ///
    /// This knob shapes the run's *epoch layout* when churn is off: the run
    /// is split into `checkpoint_every`-window epochs so a boundary exists
    /// to checkpoint at. When [`MonitorConfig::queue_model`] can throttle
    /// that is behavior-relevant (the AIMD trajectory restarts each epoch),
    /// which is why this field participates in the snapshot's config
    /// fingerprint.
    /// With churn on, must be a multiple of [`WatchChurn::refresh_every`].
    pub checkpoint_every: Option<u64>,
    /// Fault injection for the panic-propagation tests: when set, the given
    /// shard's worker panics on its first observation, and the run must
    /// surface [`StreamError::ShardPanicked`]
    /// instead of aborting the process. `None` (the default, and the only
    /// sensible production value) injects nothing.
    pub inject_shard_panic: Option<usize>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            shards: 2,
            producers: 1,
            seed: 0x57ae,
            packets_per_second: 10_000,
            granularity: 56,
            windows: 7,
            window_interval: SimDuration::from_days(1),
            start: SimTime::at(10, 9),
            queue_model: QueueModel::default(),
            retention_windows: None,
            churn: None,
            discovery: None,
            checkpoint_every: None,
            inject_shard_panic: None,
        }
    }
}

impl MonitorConfig {
    /// Whether a monitor can honour this configuration — the one statement
    /// of the rules: the plane a pipeline needs too (shards, producers, a
    /// non-zero [`MonitorConfig::packets_per_second`], the queue model, a
    /// [`MonitorConfig::granularity`] of at most /64), at least one window,
    /// and consistent churn, checkpoint and discovery settings. The
    /// [`StreamMonitor`] runs return the broken rule as
    /// [`StreamError::Config`] before anything starts,
    /// [`MonitorSession::open`] returns it (the scheduler, which opens its
    /// tenants that way, reports it as the tenant's), and
    /// [`MonitorSession::new`] asserts it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError::*;
        ConfigError::check_plane(
            self.shards,
            self.producers,
            self.packets_per_second,
            &self.queue_model,
            self.granularity,
        )?;
        if self.windows == 0 {
            return Err(NoWindows);
        }
        let churn = self.churn.as_ref();
        if let Some(c) = churn {
            ConfigError::first_broken([
                (c.refresh_every == 0, ZeroRefreshCadence),
                (c.watch_capacity == 0, ZeroWatchCapacity),
                (c.expansion_len > 48, ExpansionBlockTooLong),
                (c.max_48s_per_seed == 0, ZeroExpansionBudget),
            ])?;
        }
        if let Some(every) = self.checkpoint_every {
            // Snapshots are taken at epoch boundaries, which churn cuts.
            let misaligned = churn.is_some_and(|c| every % c.refresh_every != 0);
            ConfigError::first_broken([
                (every == 0, ZeroCheckpointCadence),
                (misaligned, MisalignedCheckpointCadence),
            ])?;
        }
        if let Some(d) = &self.discovery {
            ConfigError::first_broken([
                // Tree candidates enter the watch list via churn revisions.
                (churn.is_none(), DiscoveryRequiresChurn),
                (d.probe_budget == 0, ZeroDiscoveryBudget),
                (d.rounds == 0, ZeroDiscoveryRounds),
            ])?;
        }
        Ok(())
    }
}

/// Everything a monitoring run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorReport {
    /// Windows observed.
    pub windows: u64,
    /// Observations ingested across all shards: every probe the monitor
    /// sent — the detection passes', the boundary re-expansions' and the
    /// discovery sweeps'.
    pub observations: u64,
    /// Every rotation event, ordered by `(window, seq)`: each rotation the
    /// run saw, once.
    pub events: Vec<RotationEvent>,
    /// The /48s seen rotating at least once, in prefix order: the /48s of
    /// the events' targets.
    pub rotating_48s: Vec<Ipv6Prefix>,
    /// Passive tracking of the most-seen identifiers, in the batch report
    /// shape (one "day" per window).
    pub tracking: TrackingReport,
    /// Deliveries that had to wait for shard queue space (a wall-clock
    /// scheduling diagnostic — the only report field that is not a pure
    /// function of the configuration).
    pub backpressure_stalls: u64,
    /// The effective probe rate when the run ended: the configured rate
    /// unless the virtual-queue feedback model forced a back-off. A pure
    /// function of `(config, target order, virtual time)` — identical for
    /// any producer count. With churn on, the trajectory restarts each
    /// epoch, so this is the final epoch's end rate.
    pub final_rate: u64,
    /// Every watch-list revision, in epoch order (empty when churn is off).
    /// Each records what the boundary re-expansion admitted and what the
    /// epoch's density state evicted — the monitor's churn telemetry.
    pub revisions: Vec<WatchRevision>,
    /// The watch list when the run ended: the initial list unless a
    /// revision changed it.
    pub final_watch: Vec<Ipv6Prefix>,
    /// Probes spent on boundary re-expansion, one per candidate /48 (also
    /// counted in [`MonitorReport::observations`]).
    pub expansion_probes: u64,
    /// When a churning run's watch list drained to terminal-empty, the
    /// completed-window count at that boundary (the run ended there —
    /// [`MonitorReport::windows`] equals this value). `None` for every run
    /// that kept a non-empty watch list. With discovery on, an empty watch
    /// list is terminal only once the tree's frontier is dead too (every
    /// leaf classified or blocked) — while the frontier is live, discovery
    /// can still refill the list.
    pub exhausted_at: Option<u64>,
    /// Every /48 validated (EUI-64 response) by an expansion-phase
    /// observation — a boundary re-expansion's or a discovery sweep's probe
    /// — in prefix order. Empty without churn.
    pub validated_48s: Vec<Ipv6Prefix>,
    /// The discovery-tree summary, when [`MonitorConfig::discovery`] was on.
    pub discovery: Option<DiscoveryReport>,
}

impl MonitorReport {
    /// Events detected during a given window.
    pub fn events_in_window(&self, window: u64) -> impl Iterator<Item = &RotationEvent> {
        self.events.iter().filter(move |e| e.window == window)
    }

    /// Total /48s admitted and evicted across every revision:
    /// `(admissions, evictions)`.
    pub fn churn_counts(&self) -> (usize, usize) {
        (
            self.revisions.iter().map(|r| r.admitted.len()).sum(),
            self.revisions.iter().map(|r| r.evicted.len()).sum(),
        )
    }
}

/// The continuous monitor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamMonitor {
    /// Configuration.
    pub config: MonitorConfig,
}

impl StreamMonitor {
    /// Create a monitor.
    pub fn new(config: MonitorConfig) -> Self {
        StreamMonitor { config }
    }

    /// Monitor the watched /48s for the configured number of windows,
    /// against any measurement backend.
    ///
    /// Probing, routing and inference overlap: the prober side pulls
    /// observations off the infinite stream and routes them while the shard
    /// threads fold earlier observations into their classifiers. When
    /// [`MonitorConfig::queue_model`] can throttle, every producer paces
    /// against that deterministic virtual-queue model, so the AIMD
    /// trajectory — and
    /// therefore every send time — is reproduced exactly no matter how many
    /// producers probe concurrently; the
    /// [`MergedClock`](crate::clock::MergedClock) reconstructs the
    /// single-producer observation sequence either way.
    ///
    /// With [`MonitorConfig::churn`] set, the run proceeds in epochs: the
    /// producers of each epoch probe that epoch's watch list (their target
    /// streams rebased to the epoch's global window numbers), and the
    /// revision closing the epoch is computed on the merge side from the
    /// deterministic observation sequence plus a boundary re-expansion
    /// probe. Every producer of the next epoch is then built from the same
    /// revision history, which is what keeps churning runs byte-identical
    /// at any producer count.
    ///
    /// A configuration [`MonitorConfig::validate`] refuses, or an empty
    /// watch list with discovery off ([`ConfigError::EmptyWatchList`]), is
    /// [`StreamError::Config`], returned before any hook fires, thread
    /// starts or probe is sent. Once running, the only error a plain run can
    /// produce is [`StreamError::ShardPanicked`]: a shard worker dying no
    /// longer re-raises on the control thread — the run aborts cleanly and
    /// returns the typed error instead.
    pub fn run<B: ProbeTransport + WorldView + ?Sized>(
        &self,
        world: &B,
        watched_48s: &[Ipv6Prefix],
    ) -> Result<MonitorReport, StreamError> {
        self.run_observed(world, watched_48s, None)
    }

    /// [`StreamMonitor::run`] with a telemetry observer attached to every
    /// hook point: producer probe accounting, deterministic routing order,
    /// per-shard ingest progress, merge-side rate replay (when
    /// [`MonitorConfig::queue_model`] can throttle), one
    /// [`StreamObserver::on_epoch_close`] per watch-list revision, and a
    /// wall-clock span for the whole run. `run` is exactly
    /// `run_observed(world, watched_48s, None)`, and the no-observer path
    /// pays one `None` branch per observation over the unobserved code.
    pub fn run_observed<B: ProbeTransport + WorldView + ?Sized>(
        &self,
        world: &B,
        watched_48s: &[Ipv6Prefix],
        observer: Option<&dyn StreamObserver>,
    ) -> Result<MonitorReport, StreamError> {
        self.run_controlled(
            world,
            watched_48s,
            MonitorControl {
                observer,
                ..MonitorControl::default()
            },
        )
    }

    /// [`StreamMonitor::run_observed`] plus crash-safe checkpointing,
    /// restore, and graceful stop — the full control surface.
    ///
    /// * With [`MonitorControl::sink`] set, a [`MonitorSnapshot`] is written
    ///   at every epoch boundary on the [`MonitorConfig::checkpoint_every`]
    ///   cadence, plus unconditionally at the run's final boundary and at a
    ///   stop boundary. Snapshots are captured from flushed shard state on
    ///   the merge side, so they are pure functions of `(config, world
    ///   seed)` like every other deterministic output.
    /// * With [`MonitorControl::resume`] set, the run continues from the
    ///   snapshot's epoch boundary instead of starting fresh. The
    ///   continuation is **byte-identical** to the uninterrupted run —
    ///   reports and deterministic telemetry alike. A snapshot captured
    ///   under a different configuration or world is refused with
    ///   [`CheckpointError::ConfigMismatch`] /
    ///   [`CheckpointError::WorldMismatch`].
    /// * With [`MonitorControl::stop`] set, raising the signal makes the run
    ///   finish its current epoch — draining every in-flight observation
    ///   through the shards — apply that boundary's watch-list revision,
    ///   write a final checkpoint (if a sink is attached) and return a
    ///   report covering the completed windows. Stop granularity is the
    ///   epoch: size epochs via [`MonitorConfig::checkpoint_every`] (or
    ///   [`WatchChurn::refresh_every`]) down to one window when prompt stops
    ///   matter.
    ///
    /// Errors are [`StreamError::Config`] for a configuration the run
    /// refuses (before anything starts, as [`StreamMonitor::run`] says),
    /// [`StreamError::Checkpoint`] for checkpoint plumbing and
    /// [`StreamError::ShardPanicked`] when a shard worker dies; a valid run
    /// with neither sink nor resume state can only fail the last way.
    ///
    /// Internally this opens a [`MonitorSession`] with `control`
    /// ([`MonitorSession::open`]) and drives it one epoch at a time at the
    /// configured budget, every epoch a lease of the one [`ShardPool`] the
    /// run owns (dropped before the report is folded); the snapshots are
    /// the session's own checkpoint stage. The session type is public so an
    /// external scheduler can do the same with interleaved epochs, varying
    /// budgets and a pool shared between sessions.
    pub fn run_controlled<'a, B: ProbeTransport + WorldView + ?Sized>(
        &self,
        world: &'a B,
        watched_48s: &[Ipv6Prefix],
        control: MonitorControl<'a>,
    ) -> Result<MonitorReport, StreamError> {
        let mut session =
            MonitorSession::open(world, self.config.clone(), watched_48s.to_vec(), control)?;
        // The run owns its shard workers: every epoch leases this one pool.
        let mut pool = ShardPool::open(self.config.shards);
        while !session.is_done() {
            session.run_epoch_on(&mut pool, self.config.packets_per_second)?;
        }
        // Release before the fold: the parked workers' batch buffers must
        // not sit under the report merge's peak.
        drop(pool);
        Ok(session.finish())
    }
}

/// A [`StreamMonitor`] run held open between epochs — the engine behind
/// [`StreamMonitor::run_controlled`], exposed so an external scheduler (the
/// `scent-sched` crate) can interleave several campaigns' epochs over one
/// global virtual clock.
///
/// A session owns every piece of incremental run state: the live watch list
/// and revision history, the carried per-shard inference states, the rate
/// trajectory, the stop/exhaustion flags — and, while the watch list stands,
/// the target stream built from it. It owns no thread. Each
/// [`MonitorSession::run_epoch_on`] call advances exactly one epoch at a
/// caller-chosen probe budget on a [`ShardPool`] the caller lends: the
/// workers adopt the carried states for the epoch and hand them back at the
/// boundary, so one pool serves any number of sessions a scheduler
/// multiplexes and between calls none of a session's state lives outside it
/// ([`MonitorSession::run_epoch`] is the same epoch on a pool opened and
/// dropped inside the call). An epoch is a straight line over named stages
/// on the session — the probe pass, the boundary probes (re-expansion, then
/// the discovery cycle, both routed into the shards on the live lease), the
/// release, the watch-list revision, the checkpoint — and only the per-shard
/// states leave it, for the workers and back; the boundary stages run at
/// every boundary but the run's last, at one boundary time, and every epoch
/// stores the rate its pass ended on. Driving a fresh session to
/// completion at a constant budget of [`MonitorConfig::packets_per_second`]
/// reproduces
/// [`StreamMonitor::run`] byte for byte; varying the budget between epochs
/// is how the scheduler implements weighted fair shares.
///
/// The tenant tag ([`MonitorSession::with_tenant`]) rides every observation
/// into the merged clock's key so neighboring tenants' epochs can never
/// alias; it never reaches any report or deterministic-telemetry field,
/// which is what keeps a campaign's output byte-identical whether it runs
/// solo or among neighbors.
pub struct MonitorSession<'a, B: ?Sized> {
    world: &'a B,
    config: MonitorConfig,
    observer: Option<&'a dyn StreamObserver>,
    tenant: u32,
    stop: Option<StopSignal>,
    sink: Option<&'a mut dyn CheckpointSink>,
    shard_map: ShardMap,
    epochs: Vec<(u64, u64)>,
    initial_watched: Vec<Ipv6Prefix>,
    watched: Vec<Ipv6Prefix>,
    revisions: Vec<WatchRevision>,
    discovery: Option<DiscoveryTree>,
    expansion_probes: u64,
    next_epoch: usize,
    current_window: u64,
    final_rate: u64,
    states: Vec<ShardInference>,
    stalls: u64,
    exhausted_at: Option<u64>,
    stopped: bool,
    failed: bool,
    fingerprints: Option<(u64, u64)>,
    started: Option<std::time::Instant>,
    /// The target stream of the standing watch list — a pure function of
    /// the list and the seed, so built once per list, not once per epoch:
    /// one target per granularity block of every watched /48, permuted,
    /// positioned at window 0 (the list is shared storage: an epoch clones
    /// a cursor). Built by the first epoch that probes the list, dropped
    /// when a revision changes it, on [`MonitorSession::resume`] and once
    /// the session is done.
    kept: Option<TargetStream>,
    /// The boundary sweeps' outcome bits ([`BoundaryProbes::sweep`]), kept
    /// so each sweep refills one buffer instead of allocating its own.
    hits: Vec<bool>,
}

impl<'a, B: ProbeTransport + WorldView + ?Sized> MonitorSession<'a, B> {
    /// Open a session with the whole control surface: the configuration is
    /// checked first — [`MonitorConfig::validate`], and an empty watch list
    /// with discovery off is [`ConfigError::EmptyWatchList`], since only
    /// discovery could ever fill it — and a broken rule is
    /// [`StreamError::Config`] before any hook fires. Then the session is
    /// built ([`MonitorSession::new`]) with `control`'s observer, stop
    /// signal and sink, and resumed from its snapshot if one is given (a
    /// refused snapshot is [`StreamError::Checkpoint`]). This is how
    /// [`StreamMonitor::run_controlled`] and the `scent-sched` scheduler
    /// open every session.
    pub fn open(
        world: &'a B,
        config: MonitorConfig,
        watched_48s: Vec<Ipv6Prefix>,
        control: MonitorControl<'a>,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        if watched_48s.is_empty() && config.discovery.is_none() {
            return Err(ConfigError::EmptyWatchList.into());
        }
        let mut session = Self::new(world, config, watched_48s, control.observer);
        session.stop = control.stop;
        session.sink = control.sink;
        match control.resume {
            Some(snapshot) => Ok(session.resume(snapshot)?),
            None => Ok(session),
        }
    }

    /// A session with an observer and nothing else of the control surface:
    /// lay out the epochs and arm the initial watch list. A session spawns
    /// no threads; its epochs run on a [`ShardPool`]. Panics on a
    /// configuration [`MonitorConfig::validate`] refuses;
    /// [`MonitorSession::open`] returns the typed error instead.
    ///
    /// A churn-enabled session whose *initial* watch list is already empty
    /// starts exhausted ([`MonitorReport::exhausted_at`] `= Some(0)`):
    /// there is nothing to probe, and boundary re-expansion — seeded from
    /// the watched /48s — could never refill the list. With
    /// [`MonitorConfig::discovery`] on, the empty start is instead the
    /// *unseeded* mode: the discovery tree's boundary sweeps can refill the
    /// list, so the session starts exhausted only when the blocklist kills
    /// the whole frontier.
    pub fn new(
        world: &'a B,
        config: MonitorConfig,
        watched_48s: Vec<Ipv6Prefix>,
        observer: Option<&'a dyn StreamObserver>,
    ) -> Self {
        let started = observer.is_some().then(std::time::Instant::now);
        if let Some(telemetry) = observer {
            telemetry.on_run_start(config.shards, config.producers);
        }
        let cfg = &config;
        cfg.validate()
            .unwrap_or_else(|rule| panic!("invalid monitor configuration: {rule}"));
        let discovery = cfg.discovery.as_ref().map(|_| {
            DiscoveryTree::from_announcements(
                world.rib().entries().iter().map(|e| e.prefix),
                cfg.seed,
            )
        });
        let shard_map = ShardMap::new(&world.rib().entries(), cfg.shards);
        // Epoch layout: `refresh_every`-window segments when the watch list
        // churns, `checkpoint_every`-window segments when checkpointing
        // alone asks for boundaries (boundaries are where snapshots can be
        // taken: streams and pacers are rebuilt fresh on each one), and a
        // single segment covering every window otherwise.
        let epoch_windows = match (&cfg.churn, cfg.checkpoint_every) {
            (Some(churn), _) => churn.refresh_every,
            (None, Some(every)) => every,
            (None, None) => cfg.windows.max(1),
        };
        let epochs: Vec<(u64, u64)> = (0..cfg.windows)
            .step_by(epoch_windows as usize)
            .map(|start| (start, epoch_windows.min(cfg.windows - start)))
            .collect();
        let states = (0..cfg.shards)
            .map(|_| ShardInference::without_census().detecting_at(cfg.granularity))
            .collect();
        let mut session = MonitorSession {
            world,
            observer,
            tenant: 0,
            stop: None,
            sink: None,
            shard_map,
            epochs,
            initial_watched: watched_48s.clone(),
            watched: watched_48s,
            revisions: Vec::new(),
            discovery,
            expansion_probes: 0,
            next_epoch: 0,
            current_window: 0,
            final_rate: cfg.packets_per_second,
            states,
            stalls: 0,
            exhausted_at: None,
            stopped: false,
            failed: false,
            fingerprints: None,
            started,
            kept: None,
            hits: Vec::new(),
            config,
        };
        // An empty initial watch list is terminal unless a live discovery
        // frontier can refill it (the unseeded-start mode); the frontier is
        // dead from the start only when the blocklist covers the entire
        // announced space.
        session.exhausted_at = session.watch_exhausted().then_some(0);
        session
    }

    /// Tag every observation this session produces with a tenant index —
    /// how a scheduler keeps N sessions' streams disjoint in the merged
    /// clock's key space. The tag never reaches any report or
    /// deterministic-telemetry field. Defaults to 0.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Continue from a snapshot's epoch boundary instead of starting fresh
    /// — [`MonitorControl::resume`], session-shaped. The continuation is
    /// byte-identical to the uninterrupted run, each shard's state taken
    /// back as its worker yielded it. A snapshot captured under a different
    /// configuration, initial watch list or world is refused, and so is one
    /// whose shard list does not match the configured shard count.
    pub fn resume(mut self, snapshot: MonitorSnapshot) -> Result<Self, CheckpointError> {
        let (config_fp, world_fp) = self.fingerprints();
        if snapshot.config_fingerprint != config_fp {
            return Err(CheckpointError::ConfigMismatch {
                found: snapshot.config_fingerprint,
                expected: config_fp,
            });
        }
        if snapshot.world_fingerprint != world_fp {
            return Err(CheckpointError::WorldMismatch {
                found: snapshot.world_fingerprint,
                expected: world_fp,
            });
        }
        if snapshot.next_epoch as usize > self.epochs.len() {
            return Err(CheckpointError::InvalidValue(
                "snapshot epoch beyond the configured run",
            ));
        }
        // Each shard takes its own state back: the fingerprints tie the
        // snapshot to this shard count and shard map.
        if snapshot.shards.len() != self.config.shards {
            return Err(CheckpointError::InvalidValue(
                "snapshot shard count does not match the configuration",
            ));
        }
        self.next_epoch = snapshot.next_epoch as usize;
        self.current_window = snapshot.current_window;
        self.final_rate = snapshot.final_rate;
        self.watched = snapshot.watched;
        self.kept = None;
        self.revisions = snapshot.revisions;
        self.expansion_probes = snapshot.expansion_probes;
        // The config fingerprint already ties the snapshot to this run's
        // discovery configuration; the tree's presence must agree with it.
        if snapshot.discovery.is_some() != self.config.discovery.is_some() {
            return Err(CheckpointError::InvalidValue(
                "snapshot discovery state does not match the configuration",
            ));
        }
        self.discovery = snapshot.discovery;
        if let (Some(telemetry), Some(det)) = (self.observer, &snapshot.telemetry) {
            telemetry.restore_deterministic(det);
        }
        self.states = snapshot.shards;
        // A snapshot taken at an exhaustion boundary restores to a parked
        // session. The `WatchExhausted` event is already in the restored
        // telemetry journal, so it is not re-emitted. An empty watch list
        // with a live discovery frontier is mid-discovery, not exhausted.
        self.exhausted_at = self.watch_exhausted().then_some(self.completed_windows());
        Ok(self)
    }

    /// Whether the discovery tree still has an unblocked, unclassified leaf
    /// — the condition under which an empty watch list is *not* terminal.
    fn discovery_frontier_live(&self) -> bool {
        match (&self.discovery, &self.config.discovery) {
            (Some(tree), Some(discovery)) => tree.frontier_live(discovery),
            _ => false,
        }
    }

    /// Whether the scent has dried up for good: a churning watch list that
    /// is empty with no live discovery frontier to refill it (re-expansion
    /// seeds derive from the watched /48s, so it never refills itself).
    fn watch_exhausted(&self) -> bool {
        self.config.churn.is_some() && self.watched.is_empty() && !self.discovery_frontier_live()
    }

    fn fingerprints(&mut self) -> (u64, u64) {
        if self.fingerprints.is_none() {
            self.fingerprints = Some((
                config_fingerprint(&self.config, &self.initial_watched),
                world_fingerprint(self.world),
            ));
        }
        self.fingerprints.expect("just computed")
    }

    /// Whether the session has nothing left to run: every configured window
    /// completed, a stop honored, the watch list exhausted, or a shard
    /// failure recorded. [`MonitorSession::run_epoch`] must not be called
    /// once this is true.
    pub fn is_done(&self) -> bool {
        self.failed
            || self.stopped
            || self.exhausted_at.is_some()
            || self.next_epoch >= self.epochs.len()
    }

    /// Windows completed so far (the prefix of the run already ingested).
    pub(crate) fn completed_windows(&self) -> u64 {
        (self.epochs[..self.next_epoch].last()).map_or(0, |&(start, len)| start + len)
    }

    /// Index of the next epoch to run — also the key the checkpoint stage
    /// stores boundary snapshots under.
    pub fn next_epoch(&self) -> usize {
        self.next_epoch
    }

    /// The virtual time at which the next epoch would end — the priority
    /// key a scheduler orders runnable sessions by (earliest boundary
    /// first). Once the session is done this is pinned at the final
    /// boundary already reached.
    pub fn next_boundary(&self) -> SimTime {
        self.boundary_time(self.next_epoch)
    }

    /// The virtual time at which `epoch` ends; past the last epoch, the
    /// run's final boundary.
    fn boundary_time(&self, epoch: usize) -> SimTime {
        let (start_window, len) = (self.epochs.get(epoch).or(self.epochs.last()))
            .copied()
            .unwrap_or((0, 0));
        let interval = self.config.window_interval.as_secs();
        self.config.start + SimDuration::from_secs(interval * (start_window + len))
    }

    /// Advance the session by exactly one epoch on a pool of its own:
    /// open a [`ShardPool`] for this configuration,
    /// [`run_epoch_on`](MonitorSession::run_epoch_on) it, drop it (joining
    /// its workers) before returning. Whoever runs more than one epoch
    /// should hold the pool instead — that is what
    /// [`StreamMonitor::run_controlled`] and the `scent-sched` scheduler do.
    pub fn run_epoch(&mut self, pps: u64) -> Result<bool, StreamError> {
        let mut pool = ShardPool::open(self.config.shards);
        self.run_epoch_on(&mut pool, pps)
    }

    /// Advance the session by exactly one epoch on a lent `pool` (one worker
    /// per [`MonitorConfig::shards`]), probing at `pps` packets per second.
    /// Returns whether a [`StopSignal`] was observed (the session is then
    /// done).
    ///
    /// The epoch leases the pool: the workers adopt the carried per-shard
    /// states by move and yield them back at the boundary, so a sequence of
    /// calls — on one pool, on several, or on a pool other sessions use in
    /// between — is observation-for-observation identical to the single
    /// [`StreamMonitor::run`] loop at the same budgets. Producer threads
    /// (with more than one producer) live inside the call.
    ///
    /// A zero `pps` is [`ConfigError::ZeroRate`], returned before the pool
    /// is leased: the session is untouched and can go on at a valid rate.
    ///
    /// A shard worker dying mid-epoch aborts the epoch cleanly — the ingest
    /// loop stops routing, surviving workers drain, the pool's threads are
    /// joined — and surfaces as [`StreamError::ShardPanicked`]. The session
    /// is then failed: [`MonitorSession::is_done`] turns true and no report
    /// can be produced from it. The pool is not: its next lease spawns
    /// fresh workers.
    pub fn run_epoch_on(&mut self, pool: &mut ShardPool, pps: u64) -> Result<bool, StreamError> {
        assert!(!self.is_done(), "run_epoch on a finished session");
        if pps == 0 {
            return Err(StreamError::Config(ConfigError::ZeroRate));
        }
        let epoch = self.next_epoch;
        // A boundary is worked — re-expansion, discovery cycle, revision —
        // only when more windows follow: what a final boundary admitted
        // could never be probed.
        let more_follow = epoch + 1 < self.epochs.len();
        let mut engine = IngestEngine::lease(
            pool,
            self.shard_map.clone(),
            IngestOptions {
                observer: self.observer,
                initial: Some(std::mem::take(&mut self.states)),
                inject_panic: self.config.inject_shard_panic,
            },
        );
        // Per-epoch density state feeding the next revision, keyed by
        // watched /48. Folded on the merge side — the deterministic
        // observation order — so revisions never depend on scheduling.
        // (Fast-hashed: this map is bumped once per churned observation, on
        // the merge side's hot path.)
        let mut epoch_density = FastMap::default();
        let end_rate = self.probe_pass(&mut engine, epoch, pps, &mut epoch_density);
        let stopping = self.stop.as_ref().is_some_and(StopSignal::is_stopped);
        let reexpanded =
            more_follow.then(|| self.boundary_probes(engine.router(), epoch, &epoch_density));
        self.stalls += engine.router().stalls();
        match engine.release() {
            Ok(states) => self.states = states,
            Err(err) => {
                self.failed = true;
                self.kept = None;
                return Err(err);
            }
        }
        if let Some(reexpanded) = reexpanded {
            self.revise_watch(epoch, &epoch_density, reexpanded);
        }
        self.next_epoch = epoch + 1;
        self.stopped = stopping;
        self.final_rate = end_rate;
        if self.is_done() {
            // Nothing will probe it again, and `finish` should not fold the
            // report on top of it.
            self.kept = None;
        }
        self.checkpoint()?;
        Ok(stopping)
    }

    /// The checkpoint stage of an epoch: with a sink attached, store the
    /// boundary's [`MonitorSnapshot`] under [`MonitorSession::next_epoch`]
    /// on the [`MonitorConfig::checkpoint_every`] cadence, plus
    /// unconditionally at the run's effective end — final epoch, stop
    /// boundary or watch exhaustion — the resume points someone will
    /// actually want. The states are the released epoch's, so the snapshot
    /// reflects exactly the observations ingested so far.
    fn checkpoint(&mut self) -> Result<(), StreamError> {
        let on_cadence = (self.config.checkpoint_every)
            .map_or(true, |every| self.completed_windows() % every == 0);
        if self.sink.is_none() || !(on_cadence || self.is_done()) {
            return Ok(());
        }
        let bytes = self.snapshot().to_bytes();
        let sink = self.sink.as_deref_mut().expect("checked above");
        sink.store(self.next_epoch as u64, &bytes)
            .map_err(StreamError::Checkpoint)
    }

    /// The pass stage of an epoch: probe the current watch list for the
    /// epoch's windows at `pps`, through the engine's one pass call. What
    /// the monitor adds to the pass is its per-observation fold on the merge
    /// side — the epoch's per-/48 density state when the watch list churns,
    /// and retention compaction as the window advances. Returns the rate the
    /// pass ended on.
    ///
    /// The target stream is the kept one — built here
    /// ([`Self::target_stream`]) when no earlier epoch of the standing watch
    /// list left one — and the epoch probes a cursor on it, whatever the
    /// producer count.
    fn probe_pass(
        &mut self,
        engine: &mut IngestEngine<'_>,
        epoch: usize,
        pps: u64,
        epoch_density: &mut FastMap<Ipv6Prefix, DensityAccumulator>,
    ) -> u64 {
        if self.kept.is_none() {
            self.kept = Some(self.target_stream());
        }
        let targets = self.kept.clone().expect("built above");
        let (start_window, len) = self.epochs[epoch];
        let cfg = &self.config;
        let current_window = &mut self.current_window;
        let pass = Pass {
            phase: Phase::Detection,
            targets: targets.starting_at_window(start_window),
            windows: len,
            rate_pps: pps,
            start: cfg.start,
            interval: cfg.window_interval,
            tenant: self.tenant,
            // Each epoch's revised target set is paced from scratch.
            queue_model: &cfg.queue_model,
        };
        let (_, end_rate) = engine.run_pass(self.world, cfg.producers, pass, |router, obs| {
            if cfg.churn.is_some() {
                epoch_density
                    .entry(obs.target_48())
                    .or_default()
                    .observe(&obs.record());
            }
            if obs.window > *current_window {
                *current_window = obs.window;
                if let Some(keep) = cfg.retention_windows {
                    if *current_window > keep {
                        router.compact_before(*current_window - keep);
                    }
                }
            }
        });
        end_rate
    }

    /// The boundary's probes, on the live lease (nothing without
    /// [`MonitorConfig::churn`]): the re-expansion of the blocks around the
    /// watched space, then the discovery cycle. Both go through one
    /// [`BoundaryProbes`], so every probe is routed as an expansion-phase
    /// observation — which the router tallies for its shard instead of
    /// shipping it to the worker, so each validated /48 lands in that
    /// shard's state at the epoch's release — and their `seq`s run on from
    /// one to the next.
    /// Merge-side only (every producer has drained), so invariant across
    /// producer counts by construction. Returns what the revision takes from
    /// the re-expansion: its probe count and its validated /48s.
    fn boundary_probes(
        &mut self,
        router: &mut ShardRouter<'_>,
        epoch: usize,
        epoch_density: &FastMap<Ipv6Prefix, DensityAccumulator>,
    ) -> (u64, Vec<Ipv6Prefix>) {
        let churn = match self.config.churn {
            // A dead shard fails the epoch at its release: nothing to revise.
            Some(churn) if router.dead_shard().is_none() => churn,
            _ => return (0, Vec::new()),
        };
        let (start_window, len) = self.epochs[epoch];
        let mut probes = BoundaryProbes {
            world: self.world,
            router,
            at: self.boundary_time(epoch),
            tenant: self.tenant,
            window: start_window + len - 1,
            seq: 0,
            hits: std::mem::take(&mut self.hits),
        };
        let reexpanded = self.reexpand(churn, &mut probes);
        self.discovery_cycle(&mut probes, epoch_density);
        self.hits = probes.hits;
        reexpanded
    }

    /// Re-expand the [`WatchChurn::expansion_len`] block around every
    /// watched /48: one probe per candidate /48 the discovery blocklist does
    /// not cover — the candidates, generator, `seed ^ 0x9e37` order and
    /// boundary start [`SeedExpansion::run_where`] would probe. Returns the
    /// probe count and the validated /48s, in prefix order.
    fn reexpand(
        &self,
        churn: WatchChurn,
        probes: &mut BoundaryProbes<'_, '_, B>,
    ) -> (u64, Vec<Ipv6Prefix>) {
        let mut seeds: Vec<Ipv6Prefix> = self
            .watched
            .iter()
            .map(|p| {
                p.supernet(churn.expansion_len.min(p.len()))
                    .expect("supernet of a watched prefix")
            })
            .collect();
        seeds.sort();
        seeds.dedup();
        let mut candidates = SeedExpansion::candidate_48s(&seeds, churn.max_48s_per_seed);
        if let Some(discovery) = &self.config.discovery {
            candidates.retain(|candidate| !discovery.blocklist.covers(candidate));
        }
        let generator = TargetGenerator::new(self.config.seed);
        let scanner = Scanner::at_paper_rate(self.config.seed ^ 0x9e37);
        let hits = probes.sweep(&scanner, candidates.len(), |index| {
            generator.random_addr_in(&candidates[index])
        });
        let mut validated: Vec<Ipv6Prefix> = (candidates.iter().zip(hits))
            .filter_map(|(candidate, &hit)| hit.then_some(*candidate))
            .collect();
        validated.sort();
        validated.dedup();
        (candidates.len() as u64, validated)
    }

    /// The boundary discovery cycle (nothing without
    /// [`MonitorConfig::discovery`]): decay, fold the closing epoch's
    /// density evidence, sweep, rebalance — after which the tree's
    /// confidently dense /48s are the revision's second source of
    /// candidates.
    fn discovery_cycle(
        &mut self,
        probes: &mut BoundaryProbes<'_, '_, B>,
        epoch_density: &FastMap<Ipv6Prefix, DensityAccumulator>,
    ) {
        let cfg = &self.config;
        let (Some(tree), Some(dcfg)) = (self.discovery.as_mut(), cfg.discovery.as_ref()) else {
            return;
        };
        tree.decay(dcfg);
        // Fold the closing epoch's density evidence, sorted so the fold
        // never depends on the fast-hashed accumulator map's iteration
        // order.
        let mut folded: Vec<(Ipv6Prefix, u64, u64)> = epoch_density
            .iter()
            .map(|(prefix, acc)| (*prefix, acc.probes, acc.uniques.len() as u64))
            .collect();
        folded.sort_by_key(|entry| entry.0);
        tree.fold_density(dcfg, folded);
        let generator = TargetGenerator::new(cfg.seed);
        let scanner = Scanner::at_paper_rate(cfg.seed ^ 0x5c37);
        let rounds = u64::from(dcfg.rounds);
        for round in 0..rounds {
            // The boundary's budget is shared across the rounds: the first
            // `budget % rounds` take the odd probes, and a zero share plans
            // nothing.
            let budget = dcfg.probe_budget / rounds + u64::from(round < dcfg.probe_budget % rounds);
            let plan = tree.plan(dcfg, &generator, cfg.granularity, budget);
            if plan.is_empty() {
                continue;
            }
            // Each probe leaves only its outcome, at its plan index, for the
            // tree.
            let hits = probes.sweep(&scanner, plan.len(), |index| plan.targets()[index]);
            tree.fold_plan(&plan, hits);
            tree.rebalance(dcfg);
        }
    }

    /// Close a churning epoch (nothing without [`MonitorConfig::churn`]):
    /// fold the epoch's density state and the boundary's admission
    /// candidates — the re-expansion's validated /48s, probed on the lease
    /// by [`Self::boundary_probes`], then the discovery tree's dense ones —
    /// through the revision.
    fn revise_watch(
        &mut self,
        epoch: usize,
        epoch_density: &FastMap<Ipv6Prefix, DensityAccumulator>,
        (expansion_probes, reexpanded): (u64, Vec<Ipv6Prefix>),
    ) {
        let Some(churn) = self.config.churn else {
            return;
        };
        let boundary = self.boundary_time(epoch);
        let (start_window, len) = self.epochs[epoch];
        self.expansion_probes += expansion_probes;
        // Admission candidates: the boundary re-expansion's validated /48s
        // first (the flat churn signal), then the /48s the discovery tree
        // holds confidently dense after this boundary's cycle. The revision
        // dedups and enforces capacity either way.
        let mut candidates = reexpanded;
        if let (Some(tree), Some(dcfg)) = (&self.discovery, &self.config.discovery) {
            candidates.extend(tree.dense_48s(dcfg));
        }
        let (next, revision) = SeedExpansion::revise_watch_list(
            epoch as u64,
            &self.watched,
            epoch_density,
            &candidates,
            churn.watch_capacity,
        );
        if let Some(telemetry) = self.observer {
            telemetry.on_epoch_close(&EpochSummary {
                epoch: revision.epoch,
                at: boundary,
                window: start_window + len - 1,
                admitted: &revision.admitted,
                evicted: &revision.evicted,
                watch_len: next.len(),
                expansion_probes,
            });
        }
        if next != self.watched {
            self.kept = None;
            self.watched = next;
        }
        self.revisions.push(revision);
        // Terminal-empty: every watched /48 went quiet and the boundary
        // expansion validated nothing, and no live discovery frontier can
        // refill the list (every leaf classified or blocked). Record the
        // exhaustion (in the deterministic telemetry journal too) and end
        // the run here instead of spinning empty epochs and charging
        // expansion probes.
        if self.watch_exhausted() {
            self.exhausted_at = Some(start_window + len);
            if let Some(telemetry) = self.observer {
                telemetry.on_watch_exhausted(boundary, start_window + len - 1, epoch as u64);
            }
        }
    }

    /// The watch list's target stream, at window 0: one target per
    /// [`MonitorConfig::granularity`] block of every watched /48, minus
    /// whatever the discovery blocklist covers — filtered at enumeration
    /// time, before any probe exists — permuted once.
    fn target_stream(&self) -> TargetStream {
        let cfg = &self.config;
        let mut targets =
            TargetGenerator::new(cfg.seed).per_candidate_48(&self.watched, cfg.granularity);
        if let Some(discovery) = &cfg.discovery {
            targets.retain(|target| !discovery.blocklist.covers_addr(*target));
        }
        TargetStream::over(targets, cfg.seed, true)
    }

    /// Capture the session's state at the current epoch boundary — the same
    /// [`MonitorSnapshot`] the checkpoint stage writes to its sink, pure
    /// function of `(config, world seed)` included. Every
    /// shard's tracker is folded in place first, so the snapshot copies
    /// canonical trackers and the codec writes them as they stand.
    pub fn snapshot(&mut self) -> MonitorSnapshot {
        for state in &mut self.states {
            state.tracker.fold();
        }
        let (config_fp, world_fp) = self.fingerprints();
        MonitorSnapshot {
            config_fingerprint: config_fp,
            world_fingerprint: world_fp,
            next_epoch: self.next_epoch as u64,
            current_window: self.current_window,
            expansion_probes: self.expansion_probes,
            final_rate: self.final_rate,
            watched: self.watched.clone(),
            revisions: self.revisions.clone(),
            discovery: self.discovery.clone(),
            shards: self.states.clone(),
            telemetry: self.observer.and_then(|o| o.checkpoint_deterministic()),
        }
    }

    /// Fold the carried shard states into the final [`MonitorReport`]
    /// covering every window completed so far: several states merge (each
    /// folding first), and the tracker's report reads its run and tail as
    /// they stand, so a one-shard session's tracker is not folded here.
    /// The report reads no move counts, so a one-shard session credits no
    /// events here. Infallible: failures happen in
    /// [`MonitorSession::run_epoch`], never here.
    pub fn finish(self) -> MonitorReport {
        let windows = self.completed_windows();
        for (shard, state) in self.states.iter().enumerate() {
            if let Some(telemetry) = self.observer {
                telemetry.on_shard_final(shard, state.observations);
            }
        }
        let sharded = self.states.len() > 1;
        let mut merged = ShardInference::merge_all(self.states);
        if let (Some(telemetry), Some(started)) = (self.observer, self.started) {
            telemetry.on_wall_span("monitor_run", started.elapsed().as_nanos() as u64);
        }

        // Each shard retained its events in `(window, seq)` order, so one
        // shard's are the report's as they stand; several shards' are
        // sorted. `(window, seq)` names one probe, and a probe yields at
        // most one event, so keys are unique and the unstable sort has
        // exactly one order to produce — without the stable sort's n/2
        // merge buffer.
        let key = |e: &RotationEvent| (e.window, e.seq);
        if sharded {
            merged.events.sort_unstable_by_key(key);
        }
        debug_assert!(merged.events.windows(2).all(|w| key(&w[0]) < key(&w[1])));
        let tracking = merged.tracker.finish(
            self.world.rib(),
            self.world.as_registry(),
            windows,
            MAX_TRACKED,
        );

        let discovery = match (&self.discovery, &self.config.discovery) {
            (Some(tree), Some(discovery)) => Some(tree.report(discovery)),
            _ => None,
        };

        MonitorReport {
            windows,
            observations: merged.observations,
            rotating_48s: merged.rotating_48s(),
            events: merged.events,
            tracking,
            backpressure_stalls: self.stalls,
            final_rate: self.final_rate,
            revisions: self.revisions,
            final_watch: self.watched,
            expansion_probes: self.expansion_probes,
            exhausted_at: self.exhausted_at,
            validated_48s: merged.validated.iter().copied().collect(),
            discovery,
        }
    }
}

/// A boundary's probes on their way to the router: each is sent from the
/// boundary `at` and routed as an expansion-phase observation of the
/// closing epoch's last `window`, its `seq` one past the boundary's
/// previous probe — so the re-expansion and every discovery round share one
/// run of `seq`s. The router tallies each for its shard (a count and the
/// /48 an EUI-64 answer validates); no worker folds them.
struct BoundaryProbes<'r, 'l, B: ?Sized> {
    world: &'r B,
    router: &'r mut ShardRouter<'l>,
    at: SimTime,
    tenant: u32,
    window: u64,
    seq: u64,
    hits: Vec<bool>,
}

impl<B: ProbeTransport + ?Sized> BoundaryProbes<'_, '_, B> {
    /// Probe the `n` targets `target_at(0..n)` in `scanner`'s order
    /// ([`Scanner::scan_each`]) and route each record to its shard's tally.
    /// Returns, by list index, whether each target answered from an EUI-64
    /// source ([`SeedExpansion::classify_record`]), in the session's one
    /// outcome buffer; nothing the size of the sweep is allocated.
    fn sweep(
        &mut self,
        scanner: &Scanner,
        n: usize,
        target_at: impl Fn(usize) -> Ipv6Addr,
    ) -> &[bool] {
        self.hits.clear();
        self.hits.resize(n, false);
        let (tenant, window, seq, router, hits) = (
            self.tenant,
            self.window,
            &mut self.seq,
            &mut *self.router,
            &mut self.hits,
        );
        scanner.scan_each(self.world, n, target_at, self.at, |index, record| {
            hits[index] = SeedExpansion::classify_record(record.source()) == Some(true);
            router.route(Observation {
                phase: Phase::Expansion,
                tenant,
                window,
                seq: *seq,
                target: record.target,
                sent_at: record.sent_at,
                response: record.response,
            });
            *seq += 1;
        });
        &self.hits
    }
}

/// Control surface for [`MonitorSession::open`] (and so for
/// [`StreamMonitor::run_controlled`]): observer, checkpoint sink, resume
/// state and stop signal, all optional. The default value reproduces
/// [`StreamMonitor::run`] exactly.
#[derive(Default)]
pub struct MonitorControl<'a> {
    /// Telemetry observer, as in [`StreamMonitor::run_observed`].
    pub observer: Option<&'a dyn StreamObserver>,
    /// Where the session's checkpoint stage writes epoch-boundary snapshots
    /// (on the [`MonitorConfig::checkpoint_every`] cadence and at the run's
    /// end). `None` disables checkpointing entirely (no fingerprinting, no
    /// encoding).
    pub sink: Option<&'a mut dyn CheckpointSink>,
    /// Resume from this snapshot's epoch boundary instead of starting
    /// fresh. Must have been captured under the same configuration, initial
    /// watch list and world.
    pub resume: Option<MonitorSnapshot>,
    /// Cooperative stop flag, polled at epoch boundaries after the epoch has
    /// fully drained.
    pub stop: Option<StopSignal>,
}

#[cfg(test)]
mod tests {
    use super::*;

    use scent_simnet::{scenarios, Engine};

    fn watched_48s(engine: &Engine) -> Vec<Ipv6Prefix> {
        let mut watched = Vec::new();
        for pool in engine.pools() {
            let pool_prefix = pool.config.prefix;
            if pool_prefix.len() <= 48 {
                for sub in pool_prefix.subnets(48).unwrap() {
                    watched.push(sub);
                }
            }
        }
        watched
    }

    #[test]
    fn monitor_flags_rotating_pools_and_spares_static_ones() {
        let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
        let watched = watched_48s(&engine);
        let monitor = StreamMonitor::new(MonitorConfig {
            windows: 4,
            ..MonitorConfig::default()
        });
        let report = monitor.run(&engine, &watched).unwrap();

        assert_eq!(report.windows, 4);
        assert_eq!(report.observations, watched.len() as u64 * 256 * 4);
        assert!(!report.events.is_empty(), "daily rotation must emit events");
        assert!(!report.rotating_48s.is_empty());
        // Every flagged /48 belongs to a provider that actually rotates; the
        // static control provider stays quiet.
        for prefix in &report.rotating_48s {
            let asn = engine.rib().origin(prefix.network()).unwrap();
            let provider = engine
                .config()
                .providers
                .iter()
                .find(|p| p.asn == asn)
                .unwrap();
            assert!(
                provider.pools.iter().any(|pool| pool.rotation.rotates()),
                "{asn} flagged but does not rotate"
            );
        }
        // Events are deterministically ordered and self-consistent.
        for pair in report.events.windows(2) {
            assert!((pair[0].window, pair[0].seq) <= (pair[1].window, pair[1].seq));
        }
        // The flagged /48s are exactly the events' targets' /48s.
        let mut flagged: Vec<Ipv6Prefix> = report
            .events
            .iter()
            .map(|e| Ipv6Prefix::new(e.change.target, 48).unwrap())
            .collect();
        flagged.sort_unstable();
        flagged.dedup();
        assert_eq!(report.rotating_48s, flagged);
        // Window 0 can never emit (nothing to diff against).
        assert_eq!(report.events_in_window(0).count(), 0);
        assert!(report.events_in_window(1).count() > 0);
        let mut counts = std::collections::HashMap::new();
        for event in &report.events {
            *counts.entry(event.change.kind).or_insert(0usize) += 1;
        }
        assert!(!counts.is_empty());
        assert_eq!(counts.values().sum::<usize>(), report.events.len());
    }

    #[test]
    fn retention_bounds_the_report_to_the_horizon() {
        let world = scenarios::continuous_world(53);
        let engine = Engine::build(world.clone()).unwrap();
        let watched = watched_48s(&engine);
        let full = StreamMonitor::new(MonitorConfig {
            windows: 6,
            ..MonitorConfig::default()
        })
        .run(&engine, &watched)
        .unwrap();

        let engine = Engine::build(world).unwrap();
        let retained = StreamMonitor::new(MonitorConfig {
            windows: 6,
            retention_windows: Some(2),
            ..MonitorConfig::default()
        })
        .run(&engine, &watched)
        .unwrap();

        // Early-window events are compacted away; the retained horizon's
        // events are exactly the full run's tail.
        assert!(retained.events.len() < full.events.len());
        assert_eq!(retained.events_in_window(1).count(), 0);
        let full_tail: Vec<_> = full.events.iter().filter(|e| e.window >= 4).collect();
        let retained_tail: Vec<_> = retained.events.iter().filter(|e| e.window >= 4).collect();
        assert_eq!(full_tail, retained_tail);
        // Tracking covers only retained windows (entering window 5 compacted
        // everything before window 3).
        for device in &retained.tracking.devices {
            for daily in &device.daily {
                if daily.day < 3 {
                    assert!(!daily.found, "window {} should be compacted", daily.day);
                }
            }
        }
    }

    #[test]
    fn throttled_monitor_completes_and_respects_budget() {
        let engine = Engine::build(scenarios::continuous_world(41)).unwrap();
        let watched: Vec<Ipv6Prefix> = watched_48s(&engine).into_iter().take(2).collect();
        let monitor = StreamMonitor::new(MonitorConfig {
            windows: 2,
            shards: 2,
            packets_per_second: 128,
            queue_model: QueueModel {
                drain_rate: Some(16),
                high_watermark: 64,
                low_watermark: 8,
            },
            ..MonitorConfig::default()
        });
        let report = monitor.run(&engine, &watched).unwrap();
        assert_eq!(report.observations, watched.len() as u64 * 256 * 2);
        assert!(report.final_rate <= monitor.config.packets_per_second);
        assert!(report.final_rate >= monitor.config.packets_per_second / 64);
        assert!(
            report.final_rate < monitor.config.packets_per_second,
            "a 16/s-per-shard consumer must throttle a 128 pps prober"
        );
        // The trajectory is a pure function of the config: a second run
        // reproduces the report bit for bit (stall counts aside).
        let mut again = monitor.run(&engine, &watched).unwrap();
        again.backpressure_stalls = report.backpressure_stalls;
        assert_eq!(report, again);
    }

    /// Runs a 2-shard, 128 pps monitor with AIMD feedback at 1 and at 2, 3,
    /// 4 and 8 producers, and asserts that every merged report equals the
    /// single-producer one, `final_rate` included, and that the feedback
    /// did throttle the prober.
    fn assert_throttled_monitor_is_producer_invariant(
        window_interval: SimDuration,
        drain_rate: u64,
    ) {
        let world = scenarios::continuous_world(41);
        let config = |producers: usize| MonitorConfig {
            windows: 3,
            shards: 2,
            producers,
            packets_per_second: 128,
            window_interval,
            queue_model: QueueModel {
                drain_rate: Some(drain_rate),
                high_watermark: 64,
                low_watermark: 8,
            },
            ..MonitorConfig::default()
        };
        let engine = Engine::build(world.clone()).unwrap();
        let watched: Vec<Ipv6Prefix> = watched_48s(&engine).into_iter().take(2).collect();
        let single = StreamMonitor::new(config(1))
            .run(&engine, &watched)
            .unwrap();
        assert!(
            single.final_rate < 128,
            "throttling must be non-vacuous for the equality to prove anything \
             (interval {window_interval:?})"
        );
        // Three does not divide the 512-position window, so the producer
        // that probes the last position is not the last producer.
        for producers in [2usize, 3, 4, 8] {
            let engine = Engine::build(world.clone()).unwrap();
            let mut sharded = StreamMonitor::new(config(producers))
                .run(&engine, &watched)
                .unwrap();
            sharded.backpressure_stalls = single.backpressure_stalls;
            assert_eq!(
                single, sharded,
                "producers={producers} interval={window_interval:?}"
            );
        }
    }

    /// The tentpole contract: AIMD feedback on, any producer count — the
    /// merged run is byte-identical to the single-producer run, including
    /// the deterministic `final_rate`. Windows a day apart, whose idle gaps
    /// drain the virtual queues between windows.
    #[test]
    fn throttled_monitor_is_producer_invariant() {
        assert_throttled_monitor_is_producer_invariant(SimDuration::from_days(1), 16);
    }

    /// The same contract under a slow drain: back-to-back windows (1 s
    /// interval) at 1/s, the rate a one-second-per-observation ingest cost
    /// calibrates to. They deny the idle gaps that would drain the virtual
    /// queues, so the backlog persists from window to window and pins the
    /// rate near the floor — the back-off is non-vacuous wherever the AIMD
    /// oscillation happens to end.
    #[test]
    fn calibrated_feedback_is_producer_invariant() {
        assert_throttled_monitor_is_producer_invariant(SimDuration::from_secs(1), 1);
    }

    /// Each epoch's pacer and virtual queues start at the epoch's own first
    /// window. A window's positions and their shards are the same every
    /// window, so three one-window epochs a day apart each replay the first
    /// one's trajectory and end on its rate. A drain clock started at the
    /// run's start would give the third epoch two days of drain credit, and
    /// it would end unthrottled.
    #[test]
    fn every_epoch_restarts_the_drain_clock() {
        let engine = Engine::build(scenarios::continuous_world(41)).unwrap();
        let watched: Vec<Ipv6Prefix> = watched_48s(&engine).into_iter().take(2).collect();
        let final_rate = |windows: u64| {
            let config = MonitorConfig {
                windows,
                shards: 2,
                packets_per_second: 128,
                queue_model: QueueModel {
                    drain_rate: Some(16),
                    high_watermark: 64,
                    low_watermark: 8,
                },
                checkpoint_every: Some(1),
                ..MonitorConfig::default()
            };
            StreamMonitor::new(config)
                .run(&engine, &watched)
                .unwrap()
                .final_rate
        };
        let one = final_rate(1);
        assert!(one < 128, "non-vacuous: one window throttles");
        assert_eq!(final_rate(3), one);
    }

    #[test]
    fn monitor_tracks_identifiers_across_rotations() {
        let engine = Engine::build(scenarios::continuous_world(29)).unwrap();
        let watched = watched_48s(&engine);
        let monitor = StreamMonitor::new(MonitorConfig {
            windows: 6,
            ..MonitorConfig::default()
        });
        let report = monitor.run(&engine, &watched).unwrap();
        assert!(!report.tracking.devices.is_empty());
        assert!(report.tracking.devices.len() <= MAX_TRACKED);
        for result in &report.tracking.devices {
            assert_eq!(result.daily.len(), 6);
            assert!(result.days_found() > 0);
            // Every recorded address genuinely carries the device identifier.
            for daily in &result.daily {
                if let Some(addr) = daily.address {
                    assert_eq!(scent_ipv6::Eui64::from_addr(addr), Some(result.device.iid));
                }
            }
        }
        // The best-observed devices are found on most windows, and at least
        // one rotating device shows multiple distinct /64s.
        let best = &report.tracking.devices[0];
        assert!(best.days_found() >= 4);
        assert!(
            report
                .tracking
                .devices
                .iter()
                .any(|d| d.distinct_prefixes() > 1),
            "a daily-rotating world must show movement"
        );
        assert!(report.tracking.overall_accuracy() > 0.0);
    }

    #[test]
    fn monitor_is_deterministic_across_shard_counts_and_producers() {
        let world = scenarios::continuous_world(37);
        let mut reports = Vec::new();
        for (shards, producers) in [(1usize, 1usize), (3, 1), (2, 4), (3, 8)] {
            let engine = Engine::build(world.clone()).unwrap();
            let watched = watched_48s(&engine);
            let monitor = StreamMonitor::new(MonitorConfig {
                shards,
                producers,
                windows: 3,
                ..MonitorConfig::default()
            });
            reports.push(monitor.run(&engine, &watched).unwrap());
        }
        let (first, rest) = reports.split_first_mut().expect("reports collected");
        for report in rest {
            // Stall counts are wall-clock scheduling, not inference state —
            // the only field allowed to differ between runs.
            report.backpressure_stalls = first.backpressure_stalls;
            assert_eq!(first, report, "every report field must agree");
        }
    }

    #[test]
    fn sharded_producers_respect_retention_compaction() {
        // The compaction path must behave identically whether observations
        // come from one producer or from the merged clock.
        let world = scenarios::continuous_world(53);
        let engine = Engine::build(world.clone()).unwrap();
        let watched = watched_48s(&engine);
        let single = StreamMonitor::new(MonitorConfig {
            windows: 6,
            retention_windows: Some(2),
            ..MonitorConfig::default()
        })
        .run(&engine, &watched)
        .unwrap();
        let engine = Engine::build(world).unwrap();
        let mut sharded = StreamMonitor::new(MonitorConfig {
            windows: 6,
            retention_windows: Some(2),
            producers: 3,
            ..MonitorConfig::default()
        })
        .run(&engine, &watched)
        .unwrap();
        sharded.backpressure_stalls = single.backpressure_stalls;
        assert_eq!(single, sharded);
        assert!(!sharded.events.is_empty());
    }

    /// `ShardMsg::Compact`'s promise, pinned: under `retention_windows` a
    /// monitor over a rotating pool holds a bounded state however long it
    /// runs. Every shard container is either per-target or compacted with
    /// the window — there is no distinct-address census to grow by a
    /// window's worth of rotated addresses per epoch.
    #[test]
    fn retention_bounds_an_endless_monitors_state() {
        let engine = Engine::build(scenarios::continuous_world(53)).unwrap();
        let config = MonitorConfig {
            windows: 12,
            retention_windows: Some(2),
            checkpoint_every: Some(1),
            ..MonitorConfig::default()
        };
        let mut session = MonitorSession::new(&engine, config, watched_48s(&engine), None);
        let mut sizes = Vec::new();
        while !session.is_done() {
            session.run_epoch(10_000).unwrap();
            sizes.push(session.snapshot().to_bytes().len());
        }
        assert_eq!(sizes.len(), 12);
        // The horizon (the current window and the two before it) is full
        // from the third boundary; from the fourth on the size only follows
        // how many events the retained windows happen to hold.
        for pair in sizes[3..].windows(2) {
            assert!(pair[1] * 10 <= pair[0] * 11, "{sizes:?}");
        }
        assert!(sizes[11] * 10 <= sizes[3] * 11, "{sizes:?}");
        assert!(session.finish().events.len() > 100);
    }

    use scenarios::churn_world_dense_48 as dense_48_at;

    /// The tentpole behaviour: on a world whose dense space migrates between
    /// /48s, a churning monitor follows the band — evicting the /48 that
    /// went quiet, admitting the newly dense sibling via the boundary
    /// re-expansion, and ending on a different watch list than it started
    /// with, while the static control /48 stays watched throughout.
    #[test]
    fn churn_follows_a_migrating_pool() {
        let engine = Engine::build(scenarios::churn_world(11)).unwrap();
        let start = SimTime::at(10, 9);
        let initial_dense = dense_48_at(&engine, start);
        let control: Ipv6Prefix = engine.pools()[1].config.prefix;
        assert_eq!(control.len(), 48);
        let initial = vec![initial_dense, control];
        let monitor = StreamMonitor::new(MonitorConfig {
            windows: 6,
            start,
            churn: Some(WatchChurn {
                refresh_every: 1,
                watch_capacity: 3,
                ..WatchChurn::default()
            }),
            ..MonitorConfig::default()
        });
        let report = monitor.run(&engine, &initial).unwrap();

        // One revision closes each epoch but the last.
        assert_eq!(report.revisions.len(), 5);
        for (index, revision) in report.revisions.iter().enumerate() {
            assert_eq!(revision.epoch, index as u64);
        }
        let (admitted, evicted) = report.churn_counts();
        assert!(admitted > 0, "the migrated band must be admitted");
        assert!(evicted > 0, "the abandoned /48 must be evicted");
        assert!(report.expansion_probes > 0);
        assert_ne!(report.final_watch, initial, "churn must actually churn");
        assert!(
            report.final_watch.contains(&control),
            "the static control /48 stays dense and stays watched"
        );
        // The band marches daily, so the /48 dense during the final window
        // is not the initial one — and it is being watched by then.
        let final_dense = dense_48_at(&engine, start + SimDuration::from_days(5));
        assert_ne!(final_dense, initial_dense);
        assert!(
            report.final_watch.contains(&final_dense),
            "the monitor must have followed the band to {final_dense}"
        );
        assert!(!report.final_watch.contains(&initial_dense));
        // Churn telemetry is self-consistent: replaying the revision history
        // over the initial list reproduces the final watch list.
        let mut replayed: std::collections::BTreeSet<Ipv6Prefix> =
            initial.iter().copied().collect();
        for revision in &report.revisions {
            for evicted in &revision.evicted {
                assert!(replayed.remove(evicted), "evicted {evicted} was watched");
            }
            for admitted in &revision.admitted {
                assert!(replayed.insert(*admitted), "admitted {admitted} was new");
            }
        }
        assert_eq!(replayed.into_iter().collect::<Vec<_>>(), report.final_watch);
    }

    /// Drive `session` to the end on one pool, checking at every boundary
    /// that the kept target stream is exactly what a rebuild from the watch
    /// list would be, and that it survives a boundary if and only if the
    /// watch list did. Returns how many boundaries kept it and how many
    /// dropped it.
    fn check_kept_stream(mut session: MonitorSession<'_, Engine>) -> (usize, usize) {
        let mut pool = ShardPool::open(session.config.shards);
        let (mut kept, mut dropped) = (0, 0);
        assert!(session.kept.is_none(), "nothing is built before an epoch");
        while !session.is_done() {
            let before = session.watched.clone();
            session.run_epoch_on(&mut pool, 10_000).unwrap();
            if session.is_done() {
                assert!(session.kept.is_none(), "a done session keeps nothing");
                break;
            }
            match &session.kept {
                Some(targets) => {
                    assert_eq!(session.watched, before, "kept across a changed list");
                    let rebuilt = session.target_stream();
                    assert_eq!(targets.window_len(), rebuilt.window_len());
                    for pos in 0..rebuilt.window_len() {
                        assert_eq!(targets.target_at(pos), rebuilt.target_at(pos));
                    }
                    kept += 1;
                }
                None => {
                    assert_ne!(session.watched, before, "dropped though the list stands");
                    dropped += 1;
                }
            }
        }
        (kept, dropped)
    }

    /// The kept target stream is a per-epoch rebuild, minus the rebuilding:
    /// a revision that changes the watch list invalidates it, one that does
    /// not leaves it, and a resumed session builds its own.
    #[test]
    fn kept_target_stream_equals_a_per_epoch_rebuild() {
        // `churn_follows_a_migrating_pool`'s run: the band marches, so
        // revisions change the list.
        let engine = Engine::build(scenarios::churn_world(11)).unwrap();
        let start = SimTime::at(10, 9);
        let initial = vec![dense_48_at(&engine, start), engine.pools()[1].config.prefix];
        let config = MonitorConfig {
            windows: 6,
            start,
            churn: Some(WatchChurn {
                refresh_every: 1,
                watch_capacity: 3,
                ..WatchChurn::default()
            }),
            ..MonitorConfig::default()
        };
        let session = MonitorSession::new(&engine, config.clone(), initial.clone(), None);
        let (kept, dropped) = check_kept_stream(session);
        assert!(dropped > 0, "a migrating band must invalidate the stream");
        assert_eq!(kept + dropped, 5, "one boundary per epoch but the last");

        // Resumed mid-run: the snapshot's watch list, not the initial one.
        let mut half = MonitorSession::new(&engine, config.clone(), initial.clone(), None);
        for _ in 0..3 {
            half.run_epoch(10_000).unwrap();
        }
        let resumed = MonitorSession::new(&engine, config, initial, None)
            .resume(half.snapshot())
            .unwrap();
        assert_ne!(resumed.watched, resumed.initial_watched);
        let (kept, dropped) = check_kept_stream(resumed);
        assert_eq!(kept + dropped, 2);

        // A static world (and no churn at all): every boundary keeps it.
        let engine = Engine::build(scenarios::entel_like(13)).unwrap();
        let watched = watched_48s(&engine);
        for (shards, churn) in [(1, true), (2, true), (2, false)] {
            let config = MonitorConfig {
                windows: 4,
                shards,
                checkpoint_every: Some(1),
                churn: churn.then_some(WatchChurn {
                    refresh_every: 1,
                    watch_capacity: watched.len(),
                    ..WatchChurn::default()
                }),
                ..MonitorConfig::default()
            };
            let session = MonitorSession::new(&engine, config, watched.clone(), None);
            assert_eq!(check_kept_stream(session), (3, 0), "shards={shards}");
        }
    }

    /// A churning run with a fixed-point world (nothing migrates, everything
    /// stays dense) must keep its watch list and report the revisions as
    /// no-ops — and the inference output must equal the churn-off run's.
    #[test]
    fn churn_on_a_static_world_is_a_noop() {
        let world = scenarios::entel_like(13);
        let engine = Engine::build(world.clone()).unwrap();
        let watched = watched_48s(&engine);
        assert_eq!(watched.len(), 1, "entel is a single static /48 pool");
        let plain = StreamMonitor::new(MonitorConfig {
            windows: 4,
            ..MonitorConfig::default()
        })
        .run(&engine, &watched)
        .unwrap();

        let engine = Engine::build(world).unwrap();
        let mut churned = StreamMonitor::new(MonitorConfig {
            windows: 4,
            churn: Some(WatchChurn {
                refresh_every: 2,
                watch_capacity: watched.len(),
                ..WatchChurn::default()
            }),
            ..MonitorConfig::default()
        })
        .run(&engine, &watched)
        .unwrap();
        assert!(churned.revisions.iter().all(|r| r.is_noop()));
        // Revisions canonicalize the list to prefix order; the content is
        // unchanged.
        let mut want = watched.clone();
        want.sort();
        assert_eq!(churned.final_watch, want);
        assert!(churned.expansion_probes > 0);
        // The re-expansion probes went through the shards: they are
        // observations, and the one /48 they validated is the watched one.
        assert_eq!(churned.validated_48s, want);
        assert!(plain.validated_48s.is_empty());
        // Inference output (events, rotating /48s, tracking, the pass's
        // observations) is identical to the fixed-list run.
        churned.backpressure_stalls = plain.backpressure_stalls;
        churned.revisions.clear();
        churned.observations -= churned.expansion_probes;
        churned.expansion_probes = 0;
        churned.validated_48s.clear();
        churned.final_watch = plain.final_watch.clone();
        assert_eq!(plain, churned);
    }

    /// Every probe a monitor sends is an observation: the detection pass's,
    /// the boundary re-expansion's and the discovery sweep's all reach the
    /// shards through the epoch's lease, so a recording backend logs exactly
    /// as many probes as the report counts observations.
    #[test]
    fn every_probe_is_an_observation() {
        let engine = Engine::build(scenarios::churn_world(11)).unwrap();
        let start = SimTime::at(10, 9);
        // The static control /48 alone: its density certifies only its own
        // announcement, so the tree still sweeps the migrating band's.
        let initial = vec![engine.pools()[1].config.prefix];
        let churn = Some(WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        });
        let discovery = Some(DiscoveryConfig {
            probe_budget: 512,
            ..DiscoveryConfig::paper_scale()
        });
        for discovery in [None, discovery] {
            let world = scent_prober::RecordingBackend::new(&engine);
            let report = StreamMonitor::new(MonitorConfig {
                windows: 3,
                start,
                churn,
                discovery: discovery.clone(),
                ..MonitorConfig::default()
            })
            .run(&world, &initial)
            .unwrap();
            let log = world.finish();
            let swept = report.discovery.as_ref().map_or(0, |d| d.probes);
            assert_eq!(
                discovery.is_some(),
                swept > 0,
                "non-vacuous: the tree swept"
            );
            assert!(
                report.expansion_probes > 0,
                "non-vacuous: boundaries re-expanded"
            );
            assert_eq!(log.probes.len() as u64, report.observations);
        }
    }

    /// The boundary re-expansion probes what [`SeedExpansion::run`] probes
    /// over the same seed blocks — the same targets at the same send times,
    /// answered the same — and validates what that scan validates.
    #[test]
    fn boundary_reexpansion_probes_what_seed_expansion_probes() {
        let engine = Engine::build(scenarios::churn_world(11)).unwrap();
        let start = SimTime::at(10, 9);
        let initial = vec![dense_48_at(&engine, start), engine.pools()[1].config.prefix];
        let churn = WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        };
        let config = MonitorConfig {
            windows: 2, // one worked boundary
            start,
            churn: Some(churn),
            ..MonitorConfig::default()
        };
        let world = scent_prober::RecordingBackend::new(&engine);
        let report = StreamMonitor::new(config.clone())
            .run(&world, &initial)
            .unwrap();
        let probes = world.finish().probes;

        let mut seeds: Vec<Ipv6Prefix> = (initial.iter())
            .map(|prefix| prefix.supernet(churn.expansion_len).unwrap())
            .collect();
        seeds.sort();
        seeds.dedup();
        let reference = scent_prober::RecordingBackend::new(&engine);
        let expansion = SeedExpansion::run(
            &reference,
            &seeds,
            start + config.window_interval,
            config.seed,
            churn.max_48s_per_seed,
        );
        let reexpanded = reference.finish().probes;
        assert!(reexpanded.iter().all(|probe| probes.contains(probe)));
        assert_eq!(expansion.probed_48s, report.expansion_probes);
        assert!(!expansion.validated_48s.is_empty(), "non-vacuous");
        assert_eq!(report.validated_48s, expansion.validated_48s);
    }

    /// Churned runs keep the producer-invariance contract: any producer
    /// count reproduces the single-producer report byte for byte, revisions
    /// and final watch list included.
    #[test]
    fn churn_is_producer_invariant() {
        let world = scenarios::churn_world(23);
        let engine = Engine::build(world.clone()).unwrap();
        let start = SimTime::at(10, 9);
        let initial = vec![dense_48_at(&engine, start), engine.pools()[1].config.prefix];
        let config = |producers: usize| MonitorConfig {
            windows: 5,
            producers,
            start,
            churn: Some(WatchChurn {
                refresh_every: 1,
                watch_capacity: 2,
                ..WatchChurn::default()
            }),
            ..MonitorConfig::default()
        };
        let single = StreamMonitor::new(config(1))
            .run(&engine, &initial)
            .unwrap();
        assert!(
            !single.revisions.iter().all(|r| r.is_noop()),
            "the equality must not be vacuous: churn must occur"
        );
        for producers in [2usize, 4, 8] {
            let engine = Engine::build(world.clone()).unwrap();
            let mut sharded = StreamMonitor::new(config(producers))
                .run(&engine, &initial)
                .unwrap();
            sharded.backpressure_stalls = single.backpressure_stalls;
            assert_eq!(single, sharded, "producers={producers}");
        }
    }

    /// Watch capacity 1 degenerates gracefully: the list never exceeds one
    /// /48 and every revision stays deterministic.
    #[test]
    fn churn_with_capacity_one() {
        let engine = Engine::build(scenarios::churn_world(31)).unwrap();
        let start = SimTime::at(10, 9);
        let initial = vec![dense_48_at(&engine, start)];
        let monitor = StreamMonitor::new(MonitorConfig {
            windows: 4,
            start,
            churn: Some(WatchChurn {
                refresh_every: 1,
                watch_capacity: 1,
                ..WatchChurn::default()
            }),
            ..MonitorConfig::default()
        });
        let report = monitor.run(&engine, &initial).unwrap();
        assert_eq!(report.final_watch.len(), 1);
        for revision in &report.revisions {
            assert!(revision.admitted.len() <= 1);
        }
        // The band marched every window, so the watch moved at least once.
        assert!(report.revisions.iter().any(|r| !r.is_noop()));
    }

    /// An unbounded queue model must leave the report identical to
    /// feedback-off — the `drain_rate = ∞` compatibility guarantee, at the
    /// whole-monitor level. The watermarks are not the default's: whether a
    /// run paces against its model rests on the drain rates alone.
    #[test]
    fn unbounded_feedback_equals_feedback_off() {
        let world = scenarios::continuous_world(41);
        let engine = Engine::build(world.clone()).unwrap();
        let watched: Vec<Ipv6Prefix> = watched_48s(&engine).into_iter().take(2).collect();
        let off = StreamMonitor::new(MonitorConfig {
            windows: 2,
            ..MonitorConfig::default()
        })
        .run(&engine, &watched)
        .unwrap();
        let engine = Engine::build(world).unwrap();
        let unbounded = QueueModel {
            high_watermark: 7,
            low_watermark: 3,
            ..QueueModel::unbounded()
        };
        assert_ne!(unbounded, QueueModel::default());
        let mut on = StreamMonitor::new(MonitorConfig {
            windows: 2,
            queue_model: unbounded,
            ..MonitorConfig::default()
        })
        .run(&engine, &watched)
        .unwrap();
        on.backpressure_stalls = off.backpressure_stalls;
        assert_eq!(off, on);
    }

    /// The terminal-empty regression: a churning monitor watching only a
    /// quiet /48 drains its list at the first boundary and must *end the
    /// run there* — windows, revisions and probes all stop — instead of
    /// spinning empty epochs and charging expansion probes.
    #[test]
    fn exhausted_watch_ends_the_run_early() {
        let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
        // A /48 no simulated provider announces pool space in: every probe
        // goes unanswered, so the first revision evicts it and validates
        // nothing.
        let quiet: Ipv6Prefix = "3fff:aaaa::/48".parse().unwrap();
        let monitor = StreamMonitor::new(MonitorConfig {
            windows: 6,
            churn: Some(WatchChurn {
                refresh_every: 1,
                watch_capacity: 2,
                ..WatchChurn::default()
            }),
            ..MonitorConfig::default()
        });
        let report = monitor.run(&engine, &[quiet]).unwrap();
        assert_eq!(
            report.exhausted_at,
            Some(1),
            "drained at the first boundary"
        );
        assert_eq!(report.windows, 1, "the run must end where the scent dried");
        assert!(report.final_watch.is_empty());
        assert_eq!(report.revisions.len(), 1);
        assert_eq!(report.revisions[0].evicted, vec![quiet]);
        // Exactly one boundary was probed for re-expansion; five more epochs
        // would have multiplied this.
        let one_boundary = report.expansion_probes;
        assert!(one_boundary > 0);
        // Determinism: the exhausted run reproduces bit for bit.
        let again = monitor.run(&engine, &[quiet]).unwrap();
        assert_eq!(report.exhausted_at, again.exhausted_at);
        assert_eq!(report.windows, again.windows);
        assert_eq!(one_boundary, again.expansion_probes);
    }

    /// The panic-path regression: a poisoned shard worker must surface as
    /// `StreamError::ShardPanicked` on the control thread — not re-raise —
    /// with every surviving worker joined.
    #[test]
    fn injected_shard_panic_surfaces_as_typed_error() {
        let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
        let watched = watched_48s(&engine);
        let monitor = StreamMonitor::new(MonitorConfig {
            windows: 2,
            shards: 3,
            inject_shard_panic: Some(1),
            ..MonitorConfig::default()
        });
        match monitor.run(&engine, &watched) {
            Err(StreamError::ShardPanicked { shard }) => assert_eq!(shard, 1),
            other => panic!("expected ShardPanicked, got {other:?}"),
        }
        // Multi-producer path takes the merged-clock ingest loop; same
        // contract.
        let monitor = StreamMonitor::new(MonitorConfig {
            windows: 2,
            shards: 3,
            producers: 4,
            inject_shard_panic: Some(2),
            ..MonitorConfig::default()
        });
        match monitor.run(&engine, &watched) {
            Err(StreamError::ShardPanicked { shard }) => assert_eq!(shard, 2),
            other => panic!("expected ShardPanicked, got {other:?}"),
        }
    }

    /// Counts the routed runs an observer is handed.
    #[derive(Default)]
    struct RunCounter {
        calls: std::sync::atomic::AtomicU64,
        observations: std::sync::atomic::AtomicU64,
    }

    impl StreamObserver for RunCounter {
        fn on_routed_run(&self, run: &scent_telemetry::RoutedRun<'_>) {
            use std::sync::atomic::Ordering::Relaxed;
            self.calls.fetch_add(1, Relaxed);
            self.observations.fetch_add(run.observations, Relaxed);
        }
    }

    /// An observed run pays for telemetry per batch: a 1 × 1 monitor epoch
    /// of N observations over W windows hands its observer at most
    /// ⌈N / [`OBSERVATION_BATCH`]⌉ + W + 4 runs, holding N observations
    /// between them. Targets at /60 make N several batches.
    ///
    /// [`OBSERVATION_BATCH`]: crate::engine::OBSERVATION_BATCH
    #[test]
    fn an_observed_epoch_reports_runs_not_observations() {
        let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
        let watched = watched_48s(&engine);
        let windows = 4;
        let counter = RunCounter::default();
        let report = StreamMonitor::new(MonitorConfig {
            shards: 1,
            windows,
            granularity: 60,
            ..MonitorConfig::default()
        })
        .run_observed(&engine, &watched, Some(&counter))
        .unwrap();
        let n = report.observations;
        let batch = crate::engine::OBSERVATION_BATCH as u64;
        assert!(n > 4 * batch, "{n} observations: too few batches to tell");
        assert_eq!(counter.observations.into_inner(), n);
        let calls = counter.calls.into_inner();
        assert!(
            calls <= n.div_ceil(batch) + windows + 4,
            "{calls} runs for {n} observations over {windows} windows"
        );
    }
}
