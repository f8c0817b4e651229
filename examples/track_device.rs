//! The §6 case study in miniature: select devices by their EUI-64 IIDs, then
//! re-find them every day after their prefixes rotate, using the inferred
//! allocation size and rotation pool to bound the search space.
//!
//! Run with: `cargo run --release --example track_device`

use std::collections::HashSet;

use followscent::core::{AllocationInference, RotationPoolInference, Tracker};
use followscent::prober::{Scanner, TargetGenerator};
use followscent::simnet::{scenarios, Engine, SimDuration, SimTime};

fn main() {
    let engine = Engine::build(scenarios::tracking_world(7)).expect("world builds");
    println!(
        "tracking world: {} providers, {} CPE devices",
        engine.config().providers.len(),
        engine.total_cpes()
    );

    // Reconnaissance: a week of daily scans at each pool's allocation
    // granularity (capped at /60), plus a one-day /64-granularity scan for
    // the allocation-size inference.
    let generator = TargetGenerator::new(3);
    let mut daily_targets = Vec::new();
    let mut alloc_targets = Vec::new();
    for pool in engine.pools() {
        let granularity = pool.config.allocation_len.min(60);
        daily_targets.extend(generator.one_per_subnet(&pool.config.prefix, granularity));
        let first_48 = followscent::ipv6::Ipv6Prefix::from_bits(
            pool.config.prefix.network_bits(),
            pool.config.prefix.len().max(48),
        )
        .unwrap();
        alloc_targets.extend(generator.one_per_subnet(&first_48, 64));
    }
    let scanner = Scanner::at_paper_rate(11);
    let day = SimDuration::from_days(1);
    let recon = scanner.scans(&engine, &daily_targets, SimTime::at(1, 9), 7, day);
    let alloc_scan = scanner.scan(&engine, &alloc_targets, SimTime::at(2, 14));

    let refs: Vec<_> = recon.iter().collect();
    let allocation = AllocationInference::infer(&[&alloc_scan], engine.rib());
    let pools = RotationPoolInference::infer(&refs, engine.rib());
    println!(
        "reconnaissance observed {} distinct EUI-64 devices across {} ASes",
        pools.per_iid.len(),
        pools.per_as.len()
    );

    // Select up to ten devices (one per AS/country, rotating ones preferred)
    // and track them for a week.
    let tracker = Tracker;
    let devices = tracker.select_devices(
        &allocation,
        &pools,
        engine.rib(),
        engine.as_registry(),
        &HashSet::new(),
        10,
        true,
    );
    println!("selected {} devices to track:", devices.len());
    for device in &devices {
        println!(
            "  {} in {} ({})  allocation /{}  search pool {}",
            device.iid,
            device.asn,
            device
                .country
                .map(|c| c.to_string())
                .unwrap_or_else(|| "??".into()),
            device.allocation_len,
            device.pool
        );
    }

    let report = tracker.track(&engine, &devices, 10, 7);
    println!("\nper-day results:");
    for counts in report.daily_counts() {
        println!(
            "  day {}: found {:>2}   same /64: {:>2}   different /64: {:>2}",
            counts.day, counts.found, counts.same_prefix, counts.different_prefix
        );
    }
    for result in &report.devices {
        let (mean, std) = result.probe_stats();
        println!(
            "  {}: found {}/7 days in {} distinct /64s, {:.0}±{:.0} probes/day",
            result.device.iid,
            result.days_found(),
            result.distinct_prefixes(),
            mean,
            std
        );
    }
    println!(
        "\noverall re-identification accuracy: {:.0}% (paper reports 60–90%)",
        report.overall_accuracy() * 100.0
    );
}
