//! The observer trait the streaming engine calls into.
//!
//! Every hook has an empty default body, and the engine holds the observer
//! as `Option<&dyn StreamObserver>`: a disabled run pays one predictable
//! `None` branch per hook site and nothing else. The
//! [`Telemetry`](crate::Telemetry) registry is the canonical implementor;
//! custom implementors (a live TUI, a log shipper) only override the hooks
//! they care about.
//!
//! # Determinism contract
//!
//! Hooks split into two tiers, and implementors must keep them separate:
//!
//! * **Deterministic tier** — called from the merge side of the engine, in
//!   deterministic clock order: [`StreamObserver::on_routed_run`],
//!   [`StreamObserver::on_rate_change`], [`StreamObserver::on_queue_depth`],
//!   [`StreamObserver::on_phase_close`], [`StreamObserver::on_epoch_close`],
//!   [`StreamObserver::on_shard_final`]. What these calls fold to is a pure
//!   function of (config, world seed).
//! * **Wall-clock tier** — called from producer or shard-worker threads, or
//!   reporting OS time: [`StreamObserver::on_probe_sent`],
//!   [`StreamObserver::on_shard_progress`], [`StreamObserver::on_stall`],
//!   [`StreamObserver::on_wall_span`]. Totals are deterministic, but the
//!   interleaving is whatever the scheduler did.
//!
//! Routed observations arrive in **runs** ([`RoutedRun`]): consecutive
//! observations of one window, counted by the router in plain integers and
//! handed over at once, so an observed run pays for telemetry per batch and
//! not per observation. Where a run ends follows the engine's batch
//! deliveries and is *not* part of the contract — an implementor must fold
//! runs associatively, so that any cut of the same observation sequence
//! folds to the same state as one observation at a time. Two boundaries
//! are fixed, because the journal's order depends on them:
//!
//! * a window's first observation is a run of its own, reported as it is
//!   routed — so the previous window closes where a per-observation fold
//!   would close it, before the rate changes of the new window's later
//!   observations are journaled (rate changes arrive mid-run; they carry
//!   no routed counts, so a run pending across one folds the same);
//! * the pending run is reported before a drive returns and before the
//!   shards compact, yield their state or shut down — so a phase close,
//!   an epoch close or a checkpoint has seen every routed observation. It
//!   is also reported before every batch delivery.
//!
//! Batching may therefore change the deterministic *call sequence*, never
//! the folded state. Two hooks report marks rather than streams: the
//! wall-clock channel high-water mark is sampled once per run (per batch
//! delivered), against the ingest progress forwarded at the same point, and
//! [`StreamObserver::on_queue_depth`] reports only each new high-water mark
//! of a pass's virtual queue.

use scent_ipv6::Ipv6Prefix;
use scent_simnet::SimTime;

use crate::snapshot::DeterministicSnapshot;

/// Everything the engine reports about one closed watch-list churn epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSummary<'a> {
    /// The epoch's index (0-based, in revision order).
    pub epoch: u64,
    /// The epoch's boundary in virtual time (when the re-expansion ran).
    pub at: SimTime,
    /// The last window of the epoch.
    pub window: u64,
    /// /48s admitted to the watch list by the epoch's revision.
    pub admitted: &'a [Ipv6Prefix],
    /// /48s evicted from the watch list by the epoch's revision.
    pub evicted: &'a [Ipv6Prefix],
    /// Size of the revised watch list.
    pub watch_len: usize,
    /// Probes spent by the epoch's boundary re-expansion.
    pub expansion_probes: u64,
}

/// A run of consecutive routed observations, all of one window, in merged
/// deterministic clock order (see [`StreamObserver::on_routed_run`] for
/// where runs end). Never empty when the engine reports one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedRun<'a> {
    /// The probing window every observation of the run belongs to.
    pub window: u64,
    /// Observations in the run.
    pub observations: u64,
    /// Observations of the run that drew a response.
    pub responses: u64,
    /// Send time of the run's first observation.
    pub first_send: SimTime,
    /// Send time of the run's last observation.
    pub last_send: SimTime,
    /// Observations of the run per shard, indexed by shard; sums to
    /// `observations`.
    pub per_shard: &'a [u64],
}

/// Hook points the streaming engine calls while it runs.
///
/// See the [crate docs](crate) for the three tiers: the routing hook, the
/// rate, queue-depth, phase, epoch, exhaustion and shard-final hooks are
/// the deterministic tier, called from the merge side in clock order;
/// probe, progress, stall and wall-span hooks are the wall-clock tier,
/// called from producer and worker threads or reporting OS time. The `Sync`
/// supertrait is what lets one observer be shared by reference across
/// producer, router and shard-worker threads.
///
/// The engine's allocation-free hot path (batched channel payloads, buffer
/// recycling, one shard lookup per observation) is invisible from here
/// by design: deterministic-tier hooks fold the identical observation
/// sequence in merged clock order whatever the batching — it only decides
/// where [`RoutedRun`]s are cut, which an implementor folds associatively.
/// Only wall-clock-tier hooks (stalls, shard progress granularity) can
/// observe batching at all, and they carry no determinism promise to begin
/// with.
pub trait StreamObserver: Sync {
    /// A streamed run is starting with the given shard and producer counts.
    fn on_run_start(&self, _shards: usize, _producers: usize) {}

    /// A producer pulled one probe observation from its slice.
    /// Producer-thread (wall-clock tier): per-producer totals are
    /// deterministic, the interleaving is not.
    fn on_probe_sent(&self, _producer: usize) {}

    /// The router routed a run of observations, in merged deterministic
    /// clock order (deterministic tier). Fold it as the same observations
    /// one at a time would fold: where runs are cut follows the engine's
    /// batch deliveries and is not contractual, so a fold must be
    /// associative. Two cuts are: a window's first observation is a run of
    /// its own, reported as it is routed — so the previous window closes
    /// where a per-observation fold would close it, before the rate changes
    /// of the new window's later observations — and no routed observation
    /// is held past the end of a drive, a compaction, a yield or a shutdown
    /// — so a phase or epoch close has seen them all.
    fn on_routed_run(&self, _run: &RoutedRun<'_>) {}

    /// A shard worker ingested `ingested` more observations (one channel
    /// message's worth). Worker-thread (wall-clock tier).
    fn on_shard_progress(&self, _shard: usize, _ingested: u64) {}

    /// A shard worker finished with `ingested` observations ingested in
    /// total. Called from the merge side after the join, shard by shard in
    /// index order (deterministic tier).
    fn on_shard_final(&self, _shard: usize, _ingested: u64) {}

    /// The router hit a full shard channel and fell back to a blocking
    /// send (wall-clock tier — a scheduling fact, not engine state).
    fn on_stall(&self, _shard: usize) {}

    /// The AIMD rate feedback changed the probe rate at virtual time `at`
    /// (deterministic tier; backed by the virtual-queue model, so the
    /// trajectory is a pure function of config and target order).
    fn on_rate_change(&self, _at: SimTime, _window: u64, _from_pps: u64, _to_pps: u64) {}

    /// A new high-water mark of this pass's virtual queue: its modelled
    /// depth after pacing an observation, reported only when it exceeds
    /// every depth the pass reported before (deterministic tier).
    fn on_queue_depth(&self, _depth: u64) {}

    /// A discovery-pipeline phase finished having routed `probes`
    /// observations (deterministic tier).
    fn on_phase_close(&self, _phase: &'static str, _probes: u64) {}

    /// A watch-list churn epoch closed (deterministic tier).
    fn on_epoch_close(&self, _summary: &EpochSummary<'_>) {}

    /// A churning monitor's watch list drained to terminal-empty at the
    /// epoch boundary `at`: the revision closing `window` left nothing
    /// watched and re-expansion could never refill it, so the run ends (or
    /// the scheduler parks the session) there. Called once per run at most,
    /// right after the draining revision's
    /// [`StreamObserver::on_epoch_close`] (deterministic tier).
    fn on_watch_exhausted(&self, _at: SimTime, _window: u64, _epoch: u64) {}

    /// An OS-time span measurement, in nanoseconds (wall-clock tier;
    /// explicitly excluded from determinism checks).
    fn on_wall_span(&self, _label: &'static str, _nanos: u64) {}

    /// The observer's deterministic-tier state, for inclusion in a monitor
    /// checkpoint — or `None` (the default) for observers that carry no
    /// checkpointable state. Called from the merge side at epoch boundaries
    /// (deterministic tier).
    fn checkpoint_deterministic(&self) -> Option<DeterministicSnapshot> {
        None
    }

    /// Restore the observer's deterministic-tier state from a monitor
    /// checkpoint, before a resumed run replays its remaining epochs. The
    /// default does nothing. Only the deterministic tier round-trips:
    /// topology and wall-clock tiers restart from zero on resume.
    fn restore_deterministic(&self, _det: &DeterministicSnapshot) {}
}
