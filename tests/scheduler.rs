//! Integration tests for the multi-campaign scheduler's headline
//! invariant: a campaign's report and deterministic telemetry are pure
//! functions of `(config, world seed, budget trajectory)` — running solo at
//! budget `b` and running among 100 neighbors whose fair share works out to
//! the same `b` are byte-identical, across producer counts {1, 2, 4, 8} and
//! on the live simnet backend as well as the recorded replay. Failure
//! isolation rides the same invariant: a shard panic in one tenant
//! surfaces as a typed error in that tenant's outcome while every neighbor
//! stays byte-identical to a solo run at its realized share.

use followscent::checkpoint::MemorySink;
use followscent::ipv6::Ipv6Prefix;
use followscent::prober::{ProbeTransport, RecordedBackend, RecordingBackend, WorldView};
use followscent::sched::{Campaign, Scheduler, SchedulerReport};
use followscent::simnet::{scenarios, Engine, SimTime};
use followscent::stream::{
    MonitorConfig, MonitorControl, MonitorReport, MonitorSession, MonitorSnapshot, ShardPool,
    StopSignal, StreamError, StreamMonitor,
};
use followscent::telemetry::{self, Telemetry, TelemetrySnapshot};
use proptest::prelude::*;

/// The fair share the campaign under test receives in every scenario: solo
/// it IS the global budget; among [`NEIGHBORS`] equal-weight neighbors the
/// global budget is `(NEIGHBORS + 1) * SHARE` and fair share hands each
/// tenant exactly this much.
const SHARE: u64 = 500;

/// Equal-weight neighbors multiplexed alongside the campaign under test.
const NEIGHBORS: usize = 100;

/// The deterministic telemetry tier rendered for byte comparison:
/// Prometheus text plus the JSONL event journal (mirrors
/// `tests/telemetry.rs`).
fn deterministic_dump(snapshot: &TelemetrySnapshot) -> String {
    let mut out = telemetry::deterministic_text(&snapshot.deterministic);
    out.push_str(&telemetry::events_jsonl(&snapshot.deterministic.events));
    out
}

fn pool_48s(engine: &Engine) -> Vec<Ipv6Prefix> {
    engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect()
}

/// The campaign under test: two windows across two shards at the producer
/// count under scrutiny, in one-window epochs (`checkpoint_every: 1`) so
/// tenants genuinely interleave instead of running back to back.
/// `packets_per_second` is the solo ceiling only — while scheduled, the
/// fair share governs.
fn monitor_config(producers: usize) -> MonitorConfig {
    MonitorConfig {
        windows: 2,
        shards: 2,
        producers,
        packets_per_second: SHARE,
        checkpoint_every: Some(1),
        start: SimTime::at(10, 9),
        ..MonitorConfig::default()
    }
}

/// The neighbors' campaign: one window longer than the target's, so every
/// epoch of the target runs while all 101 tenants are still active and its
/// fair share stays exactly [`SHARE`] for the whole run. (Tenants park the
/// moment their last window completes — equal-length neighbors with lower
/// indices would park before the target's final window, inflating its
/// share.)
fn neighbor_config(producers: usize) -> MonitorConfig {
    MonitorConfig {
        windows: 3,
        ..monitor_config(producers)
    }
}

/// Run the campaign as a one-tenant scheduler at global budget [`SHARE`]
/// and return its report plus its deterministic telemetry dump.
fn scheduled_solo<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    watched: &[Ipv6Prefix],
    producers: usize,
) -> (MonitorReport, String) {
    let registry = Telemetry::new();
    let report = Scheduler::builder()
        .global_pps(SHARE)
        .add(
            Campaign::new(world, monitor_config(producers), watched.to_vec()).observer(&registry),
            1,
        )
        .run()
        .expect("valid solo scheduler run");
    let outcome = report
        .tenants
        .into_iter()
        .next()
        .unwrap()
        .outcome
        .expect("solo tenant completes");
    (outcome, deterministic_dump(&registry.snapshot()))
}

/// Run the identical campaign as tenant `target` among [`NEIGHBORS`]
/// equal-weight clones at global budget `(NEIGHBORS + 1) * SHARE`, so its
/// fair share is exactly [`SHARE`] again. Returns the target's report and
/// telemetry dump plus the full scheduler report for allocation audits.
fn scheduled_among_neighbors<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    watched: &[Ipv6Prefix],
    producers: usize,
    target: usize,
) -> (MonitorReport, String, SchedulerReport) {
    let registry = Telemetry::new();
    let mut builder = Scheduler::builder().global_pps((NEIGHBORS as u64 + 1) * SHARE);
    for tenant in 0..=NEIGHBORS {
        let config = if tenant == target {
            monitor_config(producers)
        } else {
            neighbor_config(producers)
        };
        let mut campaign = Campaign::new(world, config, watched.to_vec());
        if tenant == target {
            campaign = campaign.observer(&registry);
        }
        builder = builder.add(campaign, 1);
    }
    let report = builder.run().expect("valid multiplexed scheduler run");
    let outcome = report.tenants[target]
        .outcome
        .as_ref()
        .expect("target tenant completes")
        .clone();
    (outcome, deterministic_dump(&registry.snapshot()), report)
}

/// Solo vs among-100-neighbors byte-identity for one backend across all
/// producer counts, anchored against the recorded reference dump.
fn assert_solo_matches_multiplexed<B: ProbeTransport + WorldView + ?Sized>(
    backend: &B,
    watched: &[Ipv6Prefix],
    reference_dump: &str,
    label: &str,
) {
    for producers in [1usize, 2, 4, 8] {
        let (mut solo, solo_dump) = scheduled_solo(backend, watched, producers);
        let (mut multi, multi_dump, audit) =
            scheduled_among_neighbors(backend, watched, producers, 37);

        // Reports are byte-identical modulo the wall-clock-only
        // backpressure diagnostic.
        solo.backpressure_stalls = 0;
        multi.backpressure_stalls = 0;
        assert_eq!(
            solo, multi,
            "report solo vs among neighbors, producers={producers}, {label}"
        );
        // Deterministic telemetry is byte-identical, full stop.
        assert_eq!(
            solo_dump, multi_dump,
            "telemetry solo vs among neighbors, producers={producers}, {label}"
        );
        // And both match the producers=1 recording reference.
        assert_eq!(
            reference_dump, multi_dump,
            "telemetry vs recorded reference, producers={producers}, {label}"
        );

        // Budget audit: every split sums to the global budget exactly, and
        // with all 101 tenants active each share is exactly SHARE.
        let global = (NEIGHBORS as u64 + 1) * SHARE;
        for allocation in &audit.allocations {
            let split: u64 = allocation.shares.iter().map(|&(_, pps)| pps).sum();
            assert_eq!(split, global, "shares sum to the global budget");
        }
        let first = &audit.allocations[0];
        assert_eq!(first.shares.len(), NEIGHBORS + 1);
        assert!(first.shares.iter().all(|&(_, pps)| pps == SHARE));
        // The target's realized trajectory is exactly SHARE for both of
        // its windows — the premise of the solo comparison.
        let trajectory: Vec<u64> = audit
            .allocations
            .iter()
            .filter(|a| a.tenant == 37)
            .map(|a| a.shares.iter().find(|&&(t, _)| t == 37).unwrap().1)
            .collect();
        assert_eq!(trajectory, vec![SHARE, SHARE], "target share never drifts");
        // Every neighbor completed too.
        assert!(audit.tenants.iter().all(|t| t.outcome.is_ok()));
    }
}

/// The headline invariant, live and replayed: the campaign's report and
/// deterministic telemetry among 100 neighbors are byte-identical to the
/// solo run at the same share, for every producer count — and the recorded
/// replay of the solo run is enough to feed all 101 tenants, because
/// identical campaigns probe identical `(target, virtual time)` keys.
#[test]
fn a_campaign_among_100_neighbors_is_byte_identical_to_solo() {
    let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
    let watched: Vec<Ipv6Prefix> = pool_48s(&engine).into_iter().take(1).collect();

    // Record the solo run once; the replay backend is keyed by
    // (target, time), so it serves every later scenario.
    let recorder = RecordingBackend::new(&engine);
    let (reference, reference_dump) = scheduled_solo(&recorder, &watched, 1);
    let replay = RecordedBackend::from_log(recorder.finish());
    assert_eq!(
        reference.windows, 2,
        "the reference run must be non-vacuous"
    );

    assert_solo_matches_multiplexed(&engine, &watched, &reference_dump, "live");
    assert_solo_matches_multiplexed(&replay, &watched, &reference_dump, "replay");
}

/// A scheduled tenant checkpoints: a one-tenant fleet whose budget is the
/// campaign's own rate stores the standalone `run_controlled` run's
/// snapshot bytes, at the same epochs — and a standalone run resumed from
/// the first of them reports what the uninterrupted run did.
#[test]
fn a_scheduled_tenant_stores_the_standalone_snapshots() {
    let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
    let watched: Vec<Ipv6Prefix> = pool_48s(&engine).into_iter().take(1).collect();
    let config = MonitorConfig {
        windows: 3,
        ..monitor_config(1)
    };

    let mut standalone = MemorySink::new();
    let alone = StreamMonitor::new(config.clone())
        .run_controlled(
            &engine,
            &watched,
            MonitorControl {
                sink: Some(&mut standalone),
                ..MonitorControl::default()
            },
        )
        .expect("standalone run");

    let mut scheduled = MemorySink::new();
    let report = Scheduler::builder()
        .global_pps(config.packets_per_second)
        .add(
            Campaign::new(&engine, config.clone(), watched.clone()).sink(&mut scheduled),
            1,
        )
        .run()
        .expect("one-tenant fleet");
    let outcome = report.tenants[0]
        .outcome
        .as_ref()
        .expect("tenant completes");

    assert_eq!(alone.windows, 3, "the run is non-vacuous");
    assert_eq!(outcome, &alone);
    assert_eq!(standalone.all().len(), 3, "a snapshot at every boundary");
    assert_eq!(scheduled.all(), standalone.all());
    let (_, bytes) = &scheduled.all()[0];
    let mut resumed = StreamMonitor::new(config)
        .run_controlled(
            &engine,
            &watched,
            MonitorControl {
                resume: Some(MonitorSnapshot::from_bytes(bytes).expect("stored bytes decode")),
                ..MonitorControl::default()
            },
        )
        .expect("resumed run");
    let mut alone = alone;
    (resumed.backpressure_stalls, alone.backpressure_stalls) = (0, 0);
    assert_eq!(resumed, alone);
}

/// Failure isolation: an injected shard panic in one tenant surfaces as a
/// typed [`StreamError::ShardPanicked`] in that tenant's outcome only. The
/// neighbors' reports are byte-identical to solo runs at their realized
/// shares — the panic neither corrupts them nor leaks into their budget
/// accounting (the dead tenant's share flows to the survivors).
#[test]
fn a_shard_panic_is_isolated_to_its_tenant() {
    let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
    // The full pool list: with a single watched /48 the router would send
    // every observation to one shard and the injected panic in shard 1
    // could never fire.
    let watched = pool_48s(&engine);
    let healthy = monitor_config(2);
    let sick = MonitorConfig {
        inject_shard_panic: Some(1),
        ..healthy.clone()
    };

    let report = Scheduler::builder()
        .global_pps(3_000)
        .add(Campaign::new(&engine, healthy.clone(), watched.clone()), 1)
        .add(Campaign::new(&engine, sick, watched.clone()), 1)
        .add(Campaign::new(&engine, healthy.clone(), watched.clone()), 1)
        .run()
        .unwrap();

    // The sick tenant's outcome is the typed error — nothing panicked the
    // scheduler itself.
    match &report.tenants[1].outcome {
        Err(StreamError::ShardPanicked { shard }) => assert_eq!(*shard, 1),
        other => panic!("expected ShardPanicked {{ shard: 1 }}, got {other:?}"),
    }

    // Deterministic execution order (one-window epochs, earliest boundary
    // first): tenant 0's window 1 at the 3-way split, then tenant 1 panics
    // at its first window, then the survivors split 2-ways and the last
    // window standing inherits the whole budget.
    assert_eq!(report.allocations.len(), 5);
    assert_eq!(
        report.allocations[0].shares,
        vec![(0, 1_000), (1, 1_000), (2, 1_000)]
    );
    assert_eq!(report.allocations[1].tenant, 1);
    assert_eq!(report.allocations[4].shares, vec![(2, 3_000)]);
    for allocation in &report.allocations {
        let split: u64 = allocation.shares.iter().map(|&(_, pps)| pps).sum();
        assert_eq!(split, 3_000, "every split sums to the global budget");
    }

    // Each surviving neighbor is byte-identical to a standalone session
    // driven with the budget trajectory it actually received — the panic
    // never touched them, it only freed budget.
    for tenant in [0usize, 2] {
        let trajectory: Vec<u64> = report
            .allocations
            .iter()
            .filter(|a| a.tenant == tenant)
            .map(|a| a.shares.iter().find(|&&(t, _)| t == tenant).unwrap().1)
            .collect();
        assert_eq!(trajectory.len(), 2, "one epoch per window");
        let mut session = MonitorSession::new(&engine, healthy.clone(), watched.clone(), None);
        for &pps in &trajectory {
            session.run_epoch(pps).expect("healthy solo epoch");
        }
        let mut solo = session.finish();
        let mut neighbor = report.tenants[tenant].outcome.as_ref().unwrap().clone();
        solo.backpressure_stalls = 0;
        neighbor.backpressure_stalls = 0;
        assert_eq!(solo, neighbor, "neighbor {tenant} at {trajectory:?}");
    }
}

// Random tenant mixes: 1..=8 campaigns with random weights and cadences
// multiplexed over one budget. Every budget split sums to the global
// packets-per-second exactly, and every tenant's report is byte-identical
// to a standalone session driven with the same budget trajectory the
// scheduler gave it — solo ≡ multiplexed, whatever the mix.
proptest! {
    #[test]
    fn random_tenant_mixes_stay_fair_and_byte_identical(
        mix in proptest::collection::vec((1u64..=9, 1u64..=2), 1..9),
    ) {
        let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
        let watched: Vec<Ipv6Prefix> = pool_48s(&engine).into_iter().take(1).collect();
        let total_weight: u64 = mix.iter().map(|&(weight, _)| weight).sum();
        // 240 pps per unit of weight: divisible enough that no mix starves.
        let global = 240 * total_weight;
        let config_for = |windows: u64| MonitorConfig {
            windows,
            // One-window epochs, so multi-window tenants interleave and
            // shares genuinely shift as shorter tenants park.
            checkpoint_every: Some(1),
            start: SimTime::at(10, 9),
            ..MonitorConfig::default()
        };

        let mut builder = Scheduler::builder().global_pps(global);
        for &(weight, windows) in &mix {
            builder = builder.add(
                Campaign::new(&engine, config_for(windows), watched.clone()),
                weight,
            );
        }
        let report = builder.run().expect("valid random mix");

        for allocation in &report.allocations {
            let split: u64 = allocation.shares.iter().map(|&(_, pps)| pps).sum();
            prop_assert_eq!(split, global);
        }

        for tenant in &report.tenants {
            let (weight, windows) = mix[tenant.tenant];
            prop_assert_eq!(tenant.weight, weight);
            // The budget trajectory the scheduler actually gave this
            // tenant, one entry per epoch it ran.
            let trajectory: Vec<u64> = report
                .allocations
                .iter()
                .filter(|a| a.tenant == tenant.tenant)
                .map(|a| {
                    a.shares
                        .iter()
                        .find(|&&(t, _)| t == tenant.tenant)
                        .expect("scheduled tenant holds a share")
                        .1
                })
                .collect();
            prop_assert_eq!(trajectory.len() as u64, windows);

            // Replay the trajectory on a standalone session: byte-identical.
            let mut session =
                MonitorSession::new(&engine, config_for(windows), watched.clone(), None);
            for &pps in &trajectory {
                session.run_epoch(pps).expect("solo epoch");
            }
            let mut solo = session.finish();
            let mut scheduled = tenant
                .outcome
                .as_ref()
                .expect("random mixes never fail")
                .clone();
            solo.backpressure_stalls = 0;
            scheduled.backpressure_stalls = 0;
            prop_assert_eq!(solo, scheduled);
        }
    }
}

/// Park on stop (`Campaign::stop_signal`): a signal raised before the run
/// lets its tenant finish the epoch it is in and no more, and from then on
/// its neighbour holds the whole budget. Every allocation still splits
/// exactly `global_pps`, and the neighbour's report is what a solo session
/// replaying its shares of the audit trail produces.
#[test]
fn a_stopped_tenant_parks_and_releases_its_share() {
    let engine = Engine::build(scenarios::continuous_world(31)).unwrap();
    let watched = pool_48s(&engine);
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
    for allocation in &report.allocations {
        let total: u64 = allocation.shares.iter().map(|&(_, share)| share).sum();
        assert_eq!(total, 8_000, "every allocation splits the whole budget");
    }
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
