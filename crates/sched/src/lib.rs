//! Deterministic multi-campaign scheduling: N tenants, one probe budget.
//!
//! A measurement operator rarely runs one campaign at a time. This crate
//! multiplexes N independent monitoring [`Campaign`]s — distinct worlds,
//! watch lists, cadences and feedback configurations — over a single global
//! virtual clock and one probe budget, split by weighted fair share:
//!
//! * **Time-division at epoch granularity.** Tenant sessions execute one
//!   epoch at a time, in global virtual-time order (earliest next epoch
//!   boundary first, tenant index breaking ties). The scheduler owns the
//!   shard worker threads — one [`ShardPool`] per distinct shard count
//!   among its tenants, never one per tenant — and lends a pool to the
//!   tenant that holds the step: the workers adopt that tenant's inference
//!   state for the epoch and hand it back at the boundary. A step
//!   therefore costs what its observations cost (no thread is spawned or
//!   joined, no channel allocated), N campaigns cost the threads of one,
//!   and no thread outlives [`SchedulerBuilder::run`].
//! * **Weighted fair share, exactly.** At every step the global
//!   packets-per-second budget is divided over the *active* tenants in
//!   proportion to their weights using largest-remainder rounding — the
//!   integer shares sum to the global budget exactly, every time
//!   ([`AllocationRecord`] is the audit trail).
//! * **Park and release.** A tenant whose watch list drains to
//!   terminal-empty, whose [`StopSignal`] is raised, or whose windows are
//!   complete leaves the active set; subsequent allocations split the
//!   budget over the remaining tenants only, so idle tenants release their
//!   share instead of wasting it.
//! * **Failure isolation.** A shard panic inside one tenant surfaces as a
//!   typed [`StreamError::ShardPanicked`] in that tenant's
//!   [`TenantOutcome`]; its session is dropped, the pool it ran on respawns
//!   its workers at the next step, and every neighbor keeps running,
//!   byte-identical to a run where the sick tenant never existed.
//! * **Byte-identity.** A campaign's report and deterministic telemetry
//!   are pure functions of `(config, world seed, budget trajectory)` —
//!   never of who its neighbors are. Running solo at budget `b` and
//!   running among any number of neighbors whose fair share works out to
//!   the same `b` produce byte-identical output (test-enforced across
//!   producer counts and live-vs-recorded backends).
//!
//! # Quickstart
//!
//! ```
//! use scent_sched::{Campaign, Scheduler};
//! use scent_simnet::{scenarios, Engine};
//! use scent_stream::MonitorConfig;
//!
//! let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
//! let watched: Vec<_> = engine
//!     .pools()
//!     .iter()
//!     .filter(|p| p.config.prefix.len() <= 48)
//!     .flat_map(|p| p.config.prefix.subnets(48).unwrap())
//!     .collect();
//! let config = MonitorConfig {
//!     windows: 2,
//!     shards: 2,
//!     ..MonitorConfig::default()
//! };
//! // Two tenants over one 3000 pps budget, 2:1 — 2000 and 1000 pps.
//! let report = Scheduler::builder()
//!     .global_pps(3_000)
//!     .add(Campaign::new(&engine, config.clone(), watched.clone()), 2)
//!     .add(Campaign::new(&engine, config, watched), 1)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.tenants.len(), 2);
//! for allocation in &report.allocations {
//!     let split: u64 = allocation.shares.iter().map(|&(_, pps)| pps).sum();
//!     assert_eq!(split, 3_000, "shares sum to the global budget exactly");
//! }
//! let monitor = report.tenants[0].outcome.as_ref().unwrap();
//! assert_eq!(monitor.windows, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

use scent_checkpoint::CheckpointError;
use scent_ipv6::Ipv6Prefix;
use scent_prober::{ProbeTransport, WorldView};
use scent_simnet::SimTime;
use scent_stream::{
    ConfigError, MonitorConfig, MonitorReport, MonitorSession, MonitorSnapshot, ShardPool,
    StopSignal, StreamError,
};
use scent_telemetry::StreamObserver;

/// One tenant: a monitoring campaign the scheduler runs against its own
/// backend, with its own watch list, configuration, and (optionally) its own
/// telemetry observer, stop signal and resume snapshot.
///
/// `config.packets_per_second` does not set the tenant's rate while
/// scheduled — the tenant probes at whatever fair share the scheduler
/// allocates it. It is still validated (zero is
/// [`SchedError::InvalidConfig`] with [`ConfigError::ZeroRate`], as for a
/// standalone run) and still participates in the configuration fingerprint,
/// so resume snapshots remain interchangeable with standalone runs.
pub struct Campaign<'a, B: ?Sized> {
    world: &'a B,
    config: MonitorConfig,
    watched: Vec<Ipv6Prefix>,
    observer: Option<&'a dyn StreamObserver>,
    stop: Option<StopSignal>,
    resume: Option<MonitorSnapshot>,
}

impl<'a, B: ProbeTransport + WorldView + ?Sized> Campaign<'a, B> {
    /// A campaign over `world`, watching `watched_48s` under `config`.
    pub fn new(world: &'a B, config: MonitorConfig, watched_48s: Vec<Ipv6Prefix>) -> Self {
        Campaign {
            world,
            config,
            watched: watched_48s,
            observer: None,
            stop: None,
            resume: None,
        }
    }

    /// Attach a telemetry observer to this tenant. Each tenant observes
    /// through its own registry; the scheduler never mixes tenants' hooks,
    /// which is what keeps per-tenant deterministic telemetry byte-identical
    /// to a solo run.
    pub fn observer(mut self, observer: &'a dyn StreamObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attach a cooperative stop signal: raising it parks this tenant at
    /// its next epoch boundary (in-flight observations drain first) and
    /// releases its budget share to the neighbors.
    pub fn stop_signal(mut self, stop: StopSignal) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Resume this tenant from a [`MonitorSnapshot`] instead of starting
    /// fresh — the same crash-safe snapshots a standalone
    /// [`StreamMonitor`](scent_stream::StreamMonitor) run writes. The
    /// snapshot must match this campaign's configuration, initial watch
    /// list and world (enforced by fingerprints at
    /// [`SchedulerBuilder::run`]).
    pub fn resume(mut self, snapshot: MonitorSnapshot) -> Self {
        self.resume = Some(snapshot);
        self
    }
}

impl<B: ?Sized> fmt::Debug for Campaign<'_, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("config", &self.config)
            .field("watched", &self.watched.len())
            .field("observer", &self.observer.is_some())
            .field("stop", &self.stop.is_some())
            .field("resume", &self.resume.is_some())
            .finish()
    }
}

/// A scheduling failure. Configuration errors are reported before any
/// tenant probes; per-tenant *runtime* failures are not errors of the
/// scheduler — they surface in the affected tenant's [`TenantOutcome`]
/// while the neighbors keep running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// `run()` was called with no tenants added.
    NoTenants,
    /// A tenant was added with weight zero (it could never probe; leave it
    /// out instead).
    ZeroWeight {
        /// Index of the offending tenant, in add order.
        tenant: usize,
    },
    /// The global probe budget is zero.
    ZeroBudget,
    /// The global budget cannot give every tenant a non-zero share at the
    /// configured weights: the named tenant's fair share rounds to zero
    /// packets per second even with largest-remainder top-up. Raise the
    /// budget or rebalance the weights.
    StarvedTenant {
        /// Index of the starved tenant, in add order.
        tenant: usize,
    },
    /// A tenant's [`MonitorConfig`] cannot be run
    /// ([`MonitorConfig::validate`]). Every tenant is validated before any
    /// session is opened.
    InvalidConfig {
        /// Index of the offending tenant, in add order.
        tenant: usize,
        /// The rule the configuration breaks.
        error: ConfigError,
    },
    /// A tenant's resume snapshot was refused (wrong configuration, watch
    /// list or world).
    Resume {
        /// Index of the offending tenant, in add order.
        tenant: usize,
        /// Why the snapshot was refused.
        error: CheckpointError,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoTenants => write!(f, "scheduler has no tenants; call add(..)"),
            SchedError::ZeroWeight { tenant } => {
                write!(f, "tenant {tenant} has weight zero")
            }
            SchedError::ZeroBudget => write!(f, "global probe budget is zero"),
            SchedError::StarvedTenant { tenant } => {
                write!(
                    f,
                    "tenant {tenant}'s fair share rounds to zero packets per second"
                )
            }
            SchedError::InvalidConfig { tenant, error } => {
                write!(f, "tenant {tenant} configuration: {error}")
            }
            SchedError::Resume { tenant, error } => {
                write!(f, "tenant {tenant} resume snapshot refused: {error}")
            }
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::InvalidConfig { error, .. } => Some(error),
            SchedError::Resume { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// One budget decision: before each scheduled epoch, the global budget is
/// re-split over the tenants still active. The shares always sum to the
/// global packets-per-second exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationRecord {
    /// Virtual time of the epoch boundary the scheduled step ran to.
    pub at: SimTime,
    /// The tenant that ran this step.
    pub tenant: usize,
    /// `(tenant, packets_per_second)` for every tenant active at this step,
    /// in tenant order.
    pub shares: Vec<(usize, u64)>,
}

/// What one tenant produced.
#[derive(Debug)]
pub struct TenantOutcome {
    /// The tenant's index, in add order — also the tag its observations
    /// carried through the merged clock.
    pub tenant: usize,
    /// The tenant's configured weight.
    pub weight: u64,
    /// The tenant's report, or the typed error that killed it. A failed
    /// tenant never corrupts a neighbor: every other outcome is
    /// byte-identical to a run without the failure.
    pub outcome: Result<MonitorReport, StreamError>,
}

/// Everything a scheduler run produced: one outcome per tenant plus the
/// complete budget audit trail.
#[derive(Debug)]
pub struct SchedulerReport {
    /// Per-tenant outcomes, in add order.
    pub tenants: Vec<TenantOutcome>,
    /// Every budget split the scheduler made, in execution order.
    pub allocations: Vec<AllocationRecord>,
}

impl SchedulerReport {
    /// The report of `tenant`, if it completed.
    pub fn report(&self, tenant: usize) -> Option<&MonitorReport> {
        self.tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .and_then(|t| t.outcome.as_ref().ok())
    }
}

/// The deterministic multi-campaign scheduler. Start with
/// [`Scheduler::builder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduler;

impl Scheduler {
    /// Start assembling a scheduler run: set the global budget, add
    /// weighted tenants, then [`SchedulerBuilder::run`].
    pub fn builder<'a, B: ?Sized>() -> SchedulerBuilder<'a, B> {
        SchedulerBuilder {
            global_pps: 10_000,
            tenants: Vec::new(),
        }
    }
}

/// Builder for a scheduler run over tenants that share a backend type `B`
/// (each tenant still brings its own backend *instance* — distinct worlds
/// multiplex fine).
#[derive(Debug)]
pub struct SchedulerBuilder<'a, B: ?Sized> {
    global_pps: u64,
    tenants: Vec<(Campaign<'a, B>, u64)>,
}

impl<'a, B: ProbeTransport + WorldView + ?Sized> SchedulerBuilder<'a, B> {
    /// The global probe budget in packets per second, split over the active
    /// tenants by weight (default: the paper's 10,000).
    pub fn global_pps(mut self, global_pps: u64) -> Self {
        self.global_pps = global_pps;
        self
    }

    /// Add a tenant with the given fair-share weight. Tenants are indexed
    /// in add order; the index is the tag their observations carry through
    /// the merged clock.
    pub fn add(mut self, campaign: Campaign<'a, B>, weight: u64) -> Self {
        self.tenants.push((campaign, weight));
        self
    }

    /// Run every tenant to completion (or failure) and return the outcomes
    /// plus the budget audit trail.
    ///
    /// Steps execute in global virtual-time order: the active session with
    /// the earliest next epoch boundary runs one epoch at its current fair
    /// share, then the budget is re-evaluated. A tenant that finishes,
    /// parks (exhausted watch list, stop signal) or fails leaves the active
    /// set and its share flows to the survivors.
    pub fn run(self) -> Result<SchedulerReport, SchedError> {
        if self.tenants.is_empty() {
            return Err(SchedError::NoTenants);
        }
        if self.global_pps == 0 {
            return Err(SchedError::ZeroBudget);
        }
        let weights: Vec<u64> = self.tenants.iter().map(|&(_, weight)| weight).collect();
        for (tenant, &weight) in weights.iter().enumerate() {
            if weight == 0 {
                return Err(SchedError::ZeroWeight { tenant });
            }
        }
        // Starvation is checked over the full tenant set: the active set
        // only ever shrinks, so per-tenant shares only grow from here.
        let all: Vec<(usize, u64)> = weights.iter().copied().enumerate().collect();
        for &(tenant, share) in &allocate(self.global_pps, &all) {
            if share == 0 {
                return Err(SchedError::StarvedTenant { tenant });
            }
        }
        for (tenant, (campaign, _)) in self.tenants.iter().enumerate() {
            campaign
                .config
                .validate()
                .map_err(|error| SchedError::InvalidConfig { tenant, error })?;
        }

        let mut sessions: Vec<Option<MonitorSession<'a, B>>> =
            Vec::with_capacity(self.tenants.len());
        let mut failures: Vec<Option<StreamError>> = Vec::with_capacity(self.tenants.len());
        // Which pool a tenant's epochs run on: tenants with as many shards
        // share one.
        let shard_counts: Vec<usize> = (self.tenants.iter())
            .map(|(campaign, _)| campaign.config.shards)
            .collect();
        let mut pools: BTreeMap<usize, ShardPool> = BTreeMap::new();
        for (tenant, (campaign, _)) in self.tenants.into_iter().enumerate() {
            let mut session = MonitorSession::new(
                campaign.world,
                campaign.config,
                campaign.watched,
                campaign.observer,
            )
            .with_tenant(tenant as u32);
            if let Some(stop) = campaign.stop {
                session = session.with_stop(stop);
            }
            if let Some(snapshot) = campaign.resume {
                session = session
                    .resume(snapshot)
                    .map_err(|error| SchedError::Resume { tenant, error })?;
            }
            sessions.push(Some(session));
            failures.push(None);
        }

        let mut allocations = Vec::new();
        loop {
            // The active set: sessions that still have epochs to run.
            let active: Vec<usize> = sessions
                .iter()
                .enumerate()
                .filter(|(_, s)| s.as_ref().is_some_and(|s| !s.is_done()))
                .map(|(tenant, _)| tenant)
                .collect();
            if active.is_empty() {
                break;
            }
            let entries: Vec<(usize, u64)> = active.iter().map(|&t| (t, weights[t])).collect();
            let shares = allocate(self.global_pps, &entries);
            // Global virtual-time order: earliest next boundary first,
            // tenant index breaking ties.
            let chosen = *active
                .iter()
                .min_by_key(|&&t| {
                    (
                        sessions[t]
                            .as_ref()
                            .expect("active session")
                            .next_boundary(),
                        t,
                    )
                })
                .expect("active set is non-empty");
            let share = shares
                .iter()
                .find(|&&(t, _)| t == chosen)
                .map(|&(_, pps)| pps)
                .expect("chosen tenant is active");
            allocations.push(AllocationRecord {
                at: sessions[chosen]
                    .as_ref()
                    .expect("active session")
                    .next_boundary(),
                tenant: chosen,
                shares,
            });
            let session = sessions[chosen].as_mut().expect("active session");
            let shards = shard_counts[chosen];
            let pool = pools
                .entry(shards)
                .or_insert_with(|| ShardPool::open(shards));
            if let Err(error) = session.run_epoch_on(pool, share) {
                // Isolate the failure: record it, drop the poisoned
                // session, keep every neighbor running (the pool's next
                // lease starts from fresh workers).
                failures[chosen] = Some(error);
                sessions[chosen] = None;
            }
        }
        // Join the workers before the reports are folded: their parked
        // batch buffers are not part of any report's peak.
        drop(pools);

        let tenants = sessions
            .into_iter()
            .zip(failures)
            .enumerate()
            .map(|(tenant, (session, failure))| TenantOutcome {
                tenant,
                weight: weights[tenant],
                outcome: match failure {
                    Some(error) => Err(error),
                    None => Ok(session.expect("unfailed session survives").finish()),
                },
            })
            .collect();
        Ok(SchedulerReport {
            tenants,
            allocations,
        })
    }
}

/// Split `global_pps` over `(tenant, weight)` entries by weighted fair
/// share with largest-remainder rounding: shares are
/// `floor(global_pps * w_i / Σw)`, and the remaining units go one each to
/// the largest fractional remainders (tenant index breaking ties), so the
/// result always sums to `global_pps` exactly. Pure integer arithmetic
/// (u128 intermediates), fully deterministic.
fn allocate(global_pps: u64, tenants: &[(usize, u64)]) -> Vec<(usize, u64)> {
    let total: u128 = tenants.iter().map(|&(_, w)| u128::from(w)).sum();
    debug_assert!(total > 0, "allocate over zero total weight");
    let mut shares: Vec<(usize, u64)> = Vec::with_capacity(tenants.len());
    let mut remainders: Vec<(u128, usize, usize)> = Vec::with_capacity(tenants.len());
    let mut allocated = 0u64;
    for (slot, &(tenant, weight)) in tenants.iter().enumerate() {
        let exact = u128::from(global_pps) * u128::from(weight);
        let share = (exact / total) as u64;
        allocated += share;
        shares.push((tenant, share));
        remainders.push((exact % total, tenant, slot));
    }
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = global_pps - allocated;
    for &(_, _, slot) in &remainders {
        if leftover == 0 {
            break;
        }
        shares[slot].1 += 1;
        leftover -= 1;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scent_simnet::{scenarios, Engine};
    use scent_stream::StreamMonitor;

    fn watched_48s(engine: &Engine) -> Vec<Ipv6Prefix> {
        engine
            .pools()
            .iter()
            .filter(|p| p.config.prefix.len() <= 48)
            .flat_map(|p| p.config.prefix.subnets(48).unwrap())
            .collect()
    }

    #[test]
    fn allocate_sums_exactly_and_respects_weights() {
        let shares = allocate(10_000, &[(0, 3), (1, 1)]);
        assert_eq!(shares, vec![(0, 7_500), (1, 2_500)]);
        // Indivisible remainders go to the largest fractional parts.
        let shares = allocate(100, &[(0, 1), (1, 1), (2, 1)]);
        assert_eq!(shares.iter().map(|&(_, s)| s).sum::<u64>(), 100);
        assert_eq!(shares, vec![(0, 34), (1, 33), (2, 33)]);
        // Huge weights don't overflow: the arithmetic is u128.
        let shares = allocate(u64::MAX, &[(0, u64::MAX), (1, u64::MAX)]);
        assert_eq!(shares.iter().map(|&(_, s)| s).sum::<u64>(), u64::MAX);
    }

    proptest! {
        #[test]
        fn allocate_always_sums_to_the_budget(
            pps in 1u64..=1_000_000,
            weights in proptest::collection::vec(1u64..=1_000, 1..9),
        ) {
            let entries: Vec<(usize, u64)> =
                weights.iter().copied().enumerate().collect();
            let shares = allocate(pps, &entries);
            prop_assert_eq!(shares.iter().map(|&(_, s)| s).sum::<u64>(), pps);
            // Largest-remainder never strays more than one unit from the
            // exact proportional share.
            let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
            for &(tenant, share) in &shares {
                let exact = u128::from(pps) * u128::from(weights[tenant]) / total;
                prop_assert!(u128::from(share) >= exact);
                prop_assert!(u128::from(share) <= exact + 1);
            }
        }
    }

    #[test]
    fn misconfigurations_are_typed_errors() {
        let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
        let watched = watched_48s(&engine);
        let config = MonitorConfig {
            windows: 1,
            ..MonitorConfig::default()
        };
        let err = Scheduler::builder::<Engine>().run().unwrap_err();
        assert_eq!(err, SchedError::NoTenants);
        let err = Scheduler::builder()
            .global_pps(0)
            .add(Campaign::new(&engine, config.clone(), watched.clone()), 1)
            .run()
            .unwrap_err();
        assert_eq!(err, SchedError::ZeroBudget);
        let err = Scheduler::builder()
            .add(Campaign::new(&engine, config.clone(), watched.clone()), 0)
            .run()
            .unwrap_err();
        assert_eq!(err, SchedError::ZeroWeight { tenant: 0 });
        // 100 pps split 1:1000 rounds tenant 0 to zero even after the
        // largest-remainder top-up.
        let err = Scheduler::builder()
            .global_pps(100)
            .add(Campaign::new(&engine, config.clone(), watched.clone()), 1)
            .add(Campaign::new(&engine, config, watched), 1_000)
            .run()
            .unwrap_err();
        assert_eq!(err, SchedError::StarvedTenant { tenant: 0 });
    }

    /// A tenant configuration no monitor could run is a typed error naming
    /// that tenant — reported before any session opens, so no neighbour has
    /// probed and nothing panics. (At the parent commit each of these
    /// aborted the whole scheduler with an assertion failure.)
    #[test]
    fn invalid_tenant_configurations_are_typed_errors_before_any_probe() {
        use scent_stream::WatchChurn;
        let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
        // Every tenant probes through one recorder: an empty log at the end
        // means nobody probed.
        let world = scent_prober::RecordingBackend::new(&engine);
        let watched = watched_48s(&engine);
        let good = MonitorConfig {
            windows: 1,
            ..MonitorConfig::default()
        };
        let churn = |refresh_every| {
            Some(WatchChurn {
                refresh_every,
                ..WatchChurn::default()
            })
        };
        let cases = [
            (
                MonitorConfig {
                    shards: 0,
                    ..good.clone()
                },
                ConfigError::NoShards,
            ),
            (
                MonitorConfig {
                    producers: 0,
                    ..good.clone()
                },
                ConfigError::NoProducers,
            ),
            (
                MonitorConfig {
                    churn: churn(0),
                    ..good.clone()
                },
                ConfigError::ZeroRefreshCadence,
            ),
            (
                MonitorConfig {
                    churn: churn(2),
                    checkpoint_every: Some(3),
                    ..good.clone()
                },
                ConfigError::MisalignedCheckpointCadence,
            ),
        ];
        for (bad, rule) in cases {
            // The broken tenant is added last: a scheduler that opened
            // sessions in order would already have set its neighbours up.
            let err = Scheduler::builder()
                .add(Campaign::new(&world, good.clone(), watched.clone()), 1)
                .add(Campaign::new(&world, good.clone(), watched.clone()), 1)
                .add(Campaign::new(&world, bad, watched.clone()), 1)
                .run()
                .unwrap_err();
            assert_eq!(
                err,
                SchedError::InvalidConfig {
                    tenant: 2,
                    error: rule
                }
            );
            assert!(std::error::Error::source(&err).is_some());
            assert!(err.to_string().contains("tenant 2"));
        }
        let log = world.finish();
        assert!(
            log.probes.is_empty() && log.traces.is_empty(),
            "no neighbour probed"
        );
    }

    /// The sanity anchor: a single tenant at the full budget is
    /// byte-identical to the standalone monitor at the same rate.
    #[test]
    fn single_tenant_matches_standalone_monitor() {
        let engine = Engine::build(scenarios::continuous_world(29)).unwrap();
        let watched = watched_48s(&engine);
        let config = MonitorConfig {
            windows: 3,
            shards: 2,
            packets_per_second: 10_000,
            ..MonitorConfig::default()
        };
        let solo = StreamMonitor::new(config.clone())
            .run(&engine, &watched)
            .unwrap();
        let scheduled = Scheduler::builder()
            .global_pps(10_000)
            .add(Campaign::new(&engine, config, watched), 7)
            .run()
            .unwrap();
        let mut tenant = scheduled.tenants.into_iter().next().unwrap();
        let report = tenant.outcome.as_mut().unwrap();
        report.backpressure_stalls = solo.backpressure_stalls;
        assert_eq!(&solo, report);
        assert_eq!(tenant.weight, 7);
        // One epoch (no churn, no checkpoint cadence), one allocation.
        assert_eq!(scheduled.allocations.len(), 1);
        assert_eq!(scheduled.allocations[0].shares, vec![(0, 10_000)]);
    }

    /// Park-and-release: when the short tenant finishes, the long tenant's
    /// share grows to the full budget.
    #[test]
    fn finished_tenants_release_their_share() {
        let engine = Engine::build(scenarios::continuous_world(31)).unwrap();
        let watched = watched_48s(&engine);
        let short = MonitorConfig {
            windows: 1,
            checkpoint_every: Some(1),
            ..MonitorConfig::default()
        };
        let long = MonitorConfig {
            windows: 3,
            checkpoint_every: Some(1),
            ..MonitorConfig::default()
        };
        let report = Scheduler::builder()
            .global_pps(8_000)
            .add(Campaign::new(&engine, short, watched.clone()), 1)
            .add(Campaign::new(&engine, long, watched), 1)
            .run()
            .unwrap();
        assert!(report.tenants.iter().all(|t| t.outcome.is_ok()));
        let first = &report.allocations[0];
        assert_eq!(first.shares, vec![(0, 4_000), (1, 4_000)]);
        let last = report.allocations.last().unwrap();
        assert_eq!(last.tenant, 1);
        assert_eq!(last.shares, vec![(1, 8_000)], "the survivor gets it all");
        for allocation in &report.allocations {
            let split: u64 = allocation.shares.iter().map(|&(_, pps)| pps).sum();
            assert_eq!(split, 8_000, "every split sums to the global budget");
        }
    }

    /// Park on stop: a signal raised before the run lets its tenant finish
    /// the epoch it is in and no more, and from then on its neighbour holds
    /// the whole budget. The neighbour's report is what a solo session
    /// replaying its shares of the audit trail produces.
    #[test]
    fn a_stopped_tenant_parks_and_releases_its_share() {
        let engine = Engine::build(scenarios::continuous_world(31)).unwrap();
        let watched = watched_48s(&engine);
        let config = MonitorConfig {
            windows: 3,
            checkpoint_every: Some(1), // three one-window epochs
            ..MonitorConfig::default()
        };
        let stop = StopSignal::new();
        stop.request_stop();
        let report = Scheduler::builder()
            .global_pps(8_000)
            .add(
                Campaign::new(&engine, config.clone(), watched.clone()).stop_signal(stop),
                1,
            )
            .add(Campaign::new(&engine, config.clone(), watched.clone()), 1)
            .run()
            .unwrap();
        assert_eq!(
            report.report(0).expect("a parked tenant reports").windows,
            1
        );
        let parked_at = (report.allocations.iter())
            .position(|allocation| allocation.tenant == 0)
            .expect("the stopped tenant ran its first epoch");
        assert_eq!(
            report.allocations[parked_at].shares,
            vec![(0, 4_000), (1, 4_000)]
        );
        let later = &report.allocations[parked_at + 1..];
        assert_eq!(later.len(), 3, "tenant 1 ran all three of its epochs after");
        for allocation in later {
            assert_eq!(allocation.tenant, 1);
            assert_eq!(
                allocation.shares,
                vec![(1, 8_000)],
                "the survivor gets it all"
            );
        }

        let mut pool = ShardPool::open(config.shards);
        let mut solo = MonitorSession::new(&engine, config, watched, None);
        for allocation in report.allocations.iter().filter(|a| a.tenant == 1) {
            let (_, share) = allocation.shares.iter().find(|&&(t, _)| t == 1).unwrap();
            solo.run_epoch_on(&mut pool, *share).unwrap();
        }
        assert!(solo.is_done());
        let mut solo = solo.finish();
        let scheduled = report.report(1).expect("tenant 1 completes");
        solo.backpressure_stalls = scheduled.backpressure_stalls;
        assert_eq!(&solo, scheduled);
    }
}
