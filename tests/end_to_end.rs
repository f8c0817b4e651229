//! Cross-crate integration tests: the full methodology running end-to-end
//! against the simulated Internet, through the umbrella `followscent` crate.

use std::collections::HashSet;

use followscent::bgp::Asn;
use followscent::core::{
    AllocationInference, Pipeline, PipelineConfig, RotationPoolInference, Tracker, TrackerConfig,
};
use followscent::ipv6::Eui64;
use followscent::prober::{Scan, Scanner, TargetGenerator};
use followscent::simnet::{scenarios, Engine, SimDuration, SimTime, WorldScale};

/// Reconnaissance + inference + tracking against the Versatel-like world:
/// the headline attack of the paper, end to end.
#[test]
fn end_to_end_tracking_defeats_prefix_rotation() {
    let engine = Engine::build(scenarios::versatel_like(2024)).unwrap();
    let generator = TargetGenerator::new(1);
    let pool56 = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 56)
        .unwrap()
        .config
        .prefix;

    // Daily recon for twelve days at /56 granularity.
    let targets = generator.one_per_subnet(&pool56, 56);
    let scanner = Scanner::at_paper_rate(3);
    let day = SimDuration::from_days(1);
    let recon = scanner.scans(&engine, &targets, SimTime::at(1, 9), 12, day);
    let refs: Vec<&Scan> = recon.iter().collect();

    // One-day /64-granularity scan of the whole pool for Algorithm 1 (the
    // occupied region moves through the pool as it rotates, so scanning a
    // single /48 can miss every customer on a given day).
    let alloc_scan = scanner.scan(
        &engine,
        &generator.one_per_subnet(&pool56, 64),
        SimTime::at(2, 12),
    );

    let allocation = AllocationInference::infer(&[&alloc_scan], engine.rib());
    let pools = RotationPoolInference::infer(&refs, engine.rib());
    assert_eq!(allocation.allocation_for(Asn(8881)), 56);
    assert!(pools.rotates(Asn(8881)));

    // Track three devices for five days; they must be re-identified despite
    // daily prefix rotation.
    let tracker = Tracker::new(TrackerConfig::default());
    let mut devices = tracker.select_devices(
        &allocation,
        &pools,
        engine.rib(),
        engine.as_registry(),
        &HashSet::new(),
        1,
        true,
    );
    assert_eq!(devices.len(), 1);
    // Manufacture two more tracked devices from other observed IIDs in the
    // same AS (the paper's one-per-AS rule is a selection policy, not a
    // technical limitation).
    let template = devices[0].clone();
    for eui in pools.per_iid.keys().take(20) {
        if devices.len() >= 3 {
            break;
        }
        if devices.iter().any(|d| d.iid == *eui) {
            continue;
        }
        if let Some(pool) = pools.pool_prefix_for(*eui) {
            let mut clone = template.clone();
            clone.iid = *eui;
            clone.pool = pool;
            clone.first_observed = pools.anchor[eui];
            devices.push(clone);
        }
    }
    assert_eq!(devices.len(), 3);
    let report = tracker.track(&engine, &devices, 20, 5);
    assert!(
        report.overall_accuracy() > 0.8,
        "accuracy {}",
        report.overall_accuracy()
    );
    for result in &report.devices {
        assert!(result.days_found() >= 4);
        assert!(result.distinct_prefixes() >= 3, "device did not rotate");
        // The ground truth agrees with every address the tracker found.
        let truth = engine.find_by_mac(result.device.iid.to_mac());
        assert!(!truth.is_empty());
        for daily in &result.daily {
            if let Some(addr) = daily.address {
                let t = SimTime::at(20 + daily.day, 12);
                let expected: Vec<_> = truth
                    .iter()
                    .filter_map(|&id| engine.current_wan_address(id, t))
                    .collect();
                assert!(expected.contains(&addr), "tracker found a wrong address");
            }
        }
    }
}

/// The discovery pipeline overwhelmingly flags ASes that really rotate (the
/// paper notes the two-snapshot comparison is also sensitive to customers
/// joining or leaving, so occasional false positives from churn are
/// expected), and the privacy-extension counterfactual world produces
/// nothing to track.
#[test]
fn pipeline_has_no_false_positives_and_privacy_extensions_stop_the_attack() {
    let engine = Engine::build(scenarios::paper_world(9, WorldScale::small())).unwrap();
    let report = Pipeline::new(PipelineConfig::default()).run(&engine);
    assert!(!report.rotating_48s.is_empty());
    let mut true_positives = 0usize;
    let mut flagged_8881 = false;
    for prefix in &report.rotating_48s {
        let asn = engine.rib().origin(prefix.network()).unwrap();
        let provider = engine
            .config()
            .providers
            .iter()
            .find(|p| p.asn == asn)
            .unwrap();
        if provider.pools.iter().any(|p| p.rotation.rotates()) {
            true_positives += 1;
        }
        if asn == Asn(8881) {
            flagged_8881 = true;
        }
    }
    assert!(flagged_8881, "the canonical daily rotator must be detected");
    // §5.3 of the paper finds that the two-snapshot filter over-triggers
    // (over half the "likely rotating" ASes later infer a /64 pool, i.e. no
    // rotation) because any appearance/disappearance — churn, loss, devices
    // powering off — flags the /48. The reproduction shows the same
    // behaviour, so we only require that genuinely rotating ASes make up at
    // least half of the flagged set.
    assert!(
        true_positives * 2 >= report.rotating_48s.len(),
        "rotating ASes should dominate the flagged set: {true_positives}/{}",
        report.rotating_48s.len()
    );

    // Counterfactual: the same world where every CPE uses privacy extensions
    // (the remediation of §8). The methodology observes nothing trackable.
    let mut remediated = scenarios::versatel_like(10);
    remediated.providers[0].eui64_fraction = 0.0;
    let engine = Engine::build(remediated).unwrap();
    let pool = engine.pools()[0].config.prefix;
    let targets = TargetGenerator::new(2).one_per_subnet(&pool, 60);
    let scanner = Scanner::at_paper_rate(5);
    let day = SimDuration::from_days(1);
    let scans = scanner.scans(&engine, &targets, SimTime::at(1, 9), 3, day);
    let refs: Vec<&Scan> = scans.iter().collect();
    let pools = RotationPoolInference::infer(&refs, engine.rib());
    assert!(
        pools.per_iid.is_empty(),
        "no EUI-64 IIDs should be observable"
    );
    // Responses still arrive — the devices are reachable — but they carry
    // rotating, pseudo-random IIDs that cannot be linked across days.
    assert!(scans.iter().any(|scan| scan.responses() > 0));
}

/// Seed data, OUI registry and RIB plumbing work together through the
/// umbrella crate's re-exports.
#[test]
fn umbrella_reexports_work_together() {
    let engine = Engine::build(scenarios::versatel_like(55)).unwrap();
    let registry = followscent::oui::builtin_registry();
    let t = SimTime::at(1, 12);
    let pool = engine.pools()[0].config.prefix;
    let target = TargetGenerator::new(9).random_addr_in(&pool.nth_subnet(64, 42).unwrap());
    if let Some(reply) = engine.probe(target, t) {
        // RIB maps the response to AS8881, and the OUI registry identifies
        // the vendor of the embedded MAC.
        assert_eq!(engine.rib().origin(reply.source), Some(Asn(8881)));
        if let Some(eui) = Eui64::from_addr(reply.source) {
            assert!(registry.lookup_eui64(eui).is_some());
        }
    }
    // The AS registry knows the provider's country.
    assert_eq!(
        engine.as_registry().country(Asn(8881)).unwrap().as_str(),
        "DE"
    );
}

/// `WindowedRotationDetector::collect` orders events by `(window, seq)` with
/// an unstable sort, which is the same order only while that key names one
/// event. It names one probe, so it must: checked on the monitor scenarios of
/// the determinism harness (throttled steady watch, churn, unseeded
/// discovery), at two shards and four producers.
#[test]
fn a_rotation_event_key_names_one_event() {
    use followscent::ipv6::Ipv6Prefix;
    use followscent::prober::QueueModel;
    use followscent::stream::{MonitorConfig, StreamMonitor, WatchChurn};

    fn events_are_unique(engine: &Engine, watched: &[Ipv6Prefix], config: MonitorConfig) {
        let config = MonitorConfig {
            shards: 2,
            producers: 4,
            ..config
        };
        let report = StreamMonitor::new(config).run(engine, watched).unwrap();
        let events = &report.events;
        let keys: HashSet<(u64, u64)> = events.iter().map(|e| (e.window, e.seq)).collect();
        assert!(!events.is_empty());
        assert_eq!(keys.len(), events.len());
    }
    let throttled = MonitorConfig {
        packets_per_second: 128,
        queue_model: QueueModel {
            drain_rate: Some(16),
            high_watermark: 64,
            low_watermark: 8,
            ..QueueModel::unbounded()
        },
        ..MonitorConfig::default()
    };
    let churn = Some(WatchChurn {
        refresh_every: 1,
        watch_capacity: 3,
        ..WatchChurn::default()
    });

    let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
    let watched: Vec<Ipv6Prefix> = (engine.pools().iter())
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .take(2)
        .collect();
    let steady = MonitorConfig {
        windows: 2,
        ..throttled.clone()
    };
    events_are_unique(&engine, &watched, steady);

    let engine = Engine::build(scenarios::churn_world(17)).unwrap();
    let dense = scenarios::churn_world_dense_48(&engine, SimTime::at(10, 9));
    let churning = MonitorConfig {
        windows: 4,
        churn,
        ..throttled
    };
    events_are_unique(&engine, &[dense, engine.pools()[1].config.prefix], churning);
    let discovering = MonitorConfig {
        windows: 3,
        churn,
        discovery: Some(followscent::discovery::DiscoveryConfig {
            probe_budget: 262_144,
            ..followscent::discovery::DiscoveryConfig::paper_scale()
        }),
        ..MonitorConfig::default()
    };
    events_are_unique(&engine, &[], discovering);
}
