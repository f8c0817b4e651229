//! The lent-pool contract: a monitoring session's reports, boundary
//! snapshots and deterministic telemetry do not depend on whose shard
//! workers ran its epochs. Two sessions over different worlds, seeds and
//! watch lists alternate epochs on **one** `ShardPool` — each worker adopts
//! one tenant's state, folds an epoch, hands it back and adopts the other's
//! — and every output equals what each session produces alone, on a pool
//! per epoch (`run_epoch`) and through `StreamMonitor::run`. A session
//! resumed from a mid-run snapshot continues on a pool the other tenant has
//! just used.

use followscent::ipv6::Ipv6Prefix;
use followscent::simnet::{scenarios, Engine, SimTime};
use followscent::stream::{
    MonitorConfig, MonitorReport, MonitorSession, MonitorSnapshot, ShardPool, StreamMonitor,
    WatchChurn,
};
use followscent::telemetry::{self, Telemetry};
use proptest::prelude::*;

/// The deterministic telemetry tier rendered for byte comparison (mirrors
/// `tests/telemetry.rs`).
fn deterministic_dump(registry: &Telemetry) -> String {
    let snapshot = registry.snapshot();
    let mut out = telemetry::deterministic_text(&snapshot.deterministic);
    out.push_str(&telemetry::events_jsonl(&snapshot.deterministic.events));
    out
}

/// One tenant: its world, what it watches and how.
struct Tenant {
    engine: Engine,
    watched: Vec<Ipv6Prefix>,
    config: MonitorConfig,
}

/// Everything a tenant's run produces that must not depend on the pool:
/// the report (stall diagnostic zeroed), every boundary snapshot's bytes
/// and the deterministic telemetry dump.
struct Outputs {
    report: MonitorReport,
    snapshots: Vec<Vec<u8>>,
    telemetry: String,
}

impl Outputs {
    /// Which output differs from `want`'s, if any — named, because a report
    /// or a snapshot is too large to print.
    fn difference(&self, want: &Outputs) -> Option<String> {
        if self.report != want.report {
            return Some("the report".into());
        }
        if self.telemetry != want.telemetry {
            return Some("the deterministic telemetry".into());
        }
        if self.snapshots.len() != want.snapshots.len() {
            return Some("the number of boundaries".into());
        }
        let differs = |(got, want): (&Vec<u8>, &Vec<u8>)| got != want;
        let boundary = self
            .snapshots
            .iter()
            .zip(&want.snapshots)
            .position(differs)?;
        Some(format!("the snapshot at boundary {boundary}"))
    }
}

impl Tenant {
    fn session<'a>(&'a self, registry: &'a Telemetry, tag: u32) -> MonitorSession<'a, Engine> {
        MonitorSession::new(
            &self.engine,
            self.config.clone(),
            self.watched.clone(),
            Some(registry),
        )
        .with_tenant(tag)
    }

    /// The reference: every epoch on a pool of its own.
    fn solo(&self) -> Outputs {
        let registry = Telemetry::new();
        let mut session = self.session(&registry, 0);
        let mut snapshots = Vec::new();
        while !session.is_done() {
            session
                .run_epoch(self.config.packets_per_second)
                .expect("solo epoch");
            snapshots.push(session.snapshot().to_bytes());
        }
        finish(session, snapshots, &registry)
    }
}

fn finish(
    session: MonitorSession<'_, Engine>,
    snapshots: Vec<Vec<u8>>,
    registry: &Telemetry,
) -> Outputs {
    let mut report = session.finish();
    report.backpressure_stalls = 0;
    Outputs {
        report,
        snapshots,
        telemetry: deterministic_dump(registry),
    }
}

/// One epoch of `session` on the shared pool, keeping the boundary snapshot.
fn step(
    session: &mut MonitorSession<'_, Engine>,
    pool: &mut ShardPool,
    pps: u64,
    snapshots: &mut Vec<Vec<u8>>,
) {
    session.run_epoch_on(pool, pps).expect("lent epoch");
    snapshots.push(session.snapshot().to_bytes());
}

proptest! {
    #[test]
    fn sessions_alternating_on_one_pool_equal_their_solo_runs(
        shards_pick in 0usize..3,
        many_producers in any::<bool>(),
        churn in any::<bool>(),
        retention in any::<bool>(),
        seeds in (1u64..1_000, 1u64..1_000, any::<u64>()),
    ) {
        let shards = [1usize, 2, 4][shards_pick];
        let producers = if many_producers { 4 } else { 1 };
        let (world_a, world_b, monitor_seed) = seeds;
        let start = SimTime::at(10, 9);
        let config = |seed: u64, windows: u64, pps: u64| MonitorConfig {
            shards,
            producers,
            seed,
            windows,
            packets_per_second: pps,
            start,
            // One-window epochs, so the tenants genuinely interleave.
            checkpoint_every: Some(1),
            churn: churn.then_some(WatchChurn {
                refresh_every: 1,
                watch_capacity: 3,
                ..WatchChurn::default()
            }),
            retention_windows: retention.then_some(1),
            ..MonitorConfig::default()
        };
        // Different worlds, seeds, watch lists, lengths and budgets; only
        // the shard count is shared (it is the pool's).
        let a = {
            let engine = Engine::build(scenarios::continuous_world(world_a)).unwrap();
            let watched: Vec<Ipv6Prefix> = engine
                .pools()
                .iter()
                .filter(|p| p.config.prefix.len() <= 48)
                .flat_map(|p| p.config.prefix.subnets(48).unwrap())
                .collect();
            Tenant { engine, watched, config: config(monitor_seed, 4, 10_000) }
        };
        let b = {
            let engine = Engine::build(scenarios::churn_world(world_b)).unwrap();
            let watched = vec![
                scenarios::churn_world_dense_48(&engine, start),
                engine.pools()[1].config.prefix,
            ];
            Tenant { engine, watched, config: config(!monitor_seed, 3, 700) }
        };
        let (solo_a, solo_b) = (a.solo(), b.solo());
        prop_assert!(solo_a.report.observations > 0 && solo_b.report.observations > 0);
        prop_assert_eq!(solo_a.snapshots.len(), 4);

        // `StreamMonitor::run` is the same run again.
        for (tenant, solo) in [(&a, &solo_a), (&b, &solo_b)] {
            let mut run = StreamMonitor::new(tenant.config.clone())
                .run(&tenant.engine, &tenant.watched)
                .expect("plain run");
            run.backpressure_stalls = 0;
            prop_assert_eq!(&run, &solo.report);
        }

        // Alternate the two on one pool: A, B, A, B, A, B, A.
        let mut pool = ShardPool::open(shards, a.config.channel_capacity);
        let (registry_a, registry_b) = (Telemetry::new(), Telemetry::new());
        let (mut lent_a, mut lent_b) = (a.session(&registry_a, 0), b.session(&registry_b, 1));
        let (mut snapshots_a, mut snapshots_b) = (Vec::new(), Vec::new());
        while !(lent_a.is_done() && lent_b.is_done()) {
            if !lent_a.is_done() {
                step(&mut lent_a, &mut pool, 10_000, &mut snapshots_a);
            }
            if !lent_b.is_done() {
                step(&mut lent_b, &mut pool, 700, &mut snapshots_b);
            }
        }
        prop_assert_eq!(finish(lent_a, snapshots_a, &registry_a).difference(&solo_a), None);
        prop_assert_eq!(finish(lent_b, snapshots_b, &registry_b).difference(&solo_b), None);

        // Resume A from its second boundary onto the pool B has just used:
        // the continuation is the uninterrupted run. (Its later snapshots are
        // not taken: a resume gathers the merged state into shard 0, so they
        // hold the same state in another per-shard layout.)
        let registry_b = Telemetry::new();
        let mut warm = b.session(&registry_b, 1);
        warm.run_epoch_on(&mut pool, 700).expect("lent epoch");
        let registry = Telemetry::new();
        let snapshot = MonitorSnapshot::from_bytes(&solo_a.snapshots[1]).expect("decodes");
        let mut resumed = a.session(&registry, 0).resume(snapshot).expect("same run");
        while !resumed.is_done() {
            resumed.run_epoch_on(&mut pool, 10_000).expect("lent epoch");
        }
        let resumed = finish(resumed, Vec::new(), &registry);
        prop_assert!(resumed.report == solo_a.report, "the resumed report differs");
        prop_assert!(resumed.telemetry == solo_a.telemetry, "the resumed telemetry differs");
    }
}
