//! Quickstart: build a small simulated Internet, scan one provider, and show
//! how EUI-64 CPE addressing survives prefix rotation.
//!
//! Run with: `cargo run --release --example quickstart`

use followscent::core::{AllocationInference, RotationPoolInference};
use followscent::prober::{Scanner, TargetGenerator};
use followscent::simnet::{scenarios, Engine, SimDuration, SimTime};

fn main() {
    // A Versatel-like provider: /46 rotation pools, daily rotation, mostly
    // AVM CPE still using EUI-64 SLAAC on their WAN interfaces.
    let engine = Engine::build(scenarios::versatel_like(42)).expect("world builds");
    println!(
        "simulated AS8881 with {} CPE devices ({} using EUI-64 addressing)",
        engine.total_cpes(),
        engine.total_eui64_cpes()
    );

    // Probe one target per /56 of one rotation pool, daily for a week.
    let pool = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 56)
        .expect("a /56 pool exists")
        .config
        .prefix;
    let targets = TargetGenerator::new(1).one_per_subnet(&pool, 56);
    let scanner = Scanner::at_paper_rate(7);
    let day = SimDuration::from_days(1);
    let scans = scanner.scans(&engine, &targets, SimTime::at(1, 9), 7, day);
    println!(
        "scanned {} targets/day for {} days: {} probes, {} responses",
        targets.len(),
        scans.len(),
        scans.iter().map(|scan| scan.probes_sent()).sum::<usize>(),
        scans.iter().map(|scan| scan.responses()).sum::<usize>()
    );

    // The paper's two inferences: allocation size (Algorithm 1, one day at
    // /64 granularity) and rotation pool size (Algorithm 2, across days).
    let first_48 = followscent::ipv6::Ipv6Prefix::from_bits(pool.network_bits(), 48).unwrap();
    let alloc_scan = scanner.scan(
        &engine,
        &TargetGenerator::new(2).one_per_subnet(&first_48, 64),
        SimTime::at(1, 12),
    );
    let allocation = AllocationInference::infer(&[&alloc_scan], engine.rib());
    let refs: Vec<_> = scans.iter().collect();
    let pools = RotationPoolInference::infer(&refs, engine.rib());

    let asn = followscent::bgp::Asn(8881);
    println!(
        "inferred customer allocation: /{}   inferred rotation pool: /{}",
        allocation.allocation_for(asn),
        pools.pool_for(asn)
    );

    // Pick one device and show that its EUI-64 IID pins it down even though
    // its prefix changes every day.
    let eui = *pools
        .per_iid
        .keys()
        .min_by_key(|e| e.as_u64())
        .expect("at least one EUI-64 device observed");
    println!("\nfollowing {eui} (MAC {}):", eui.to_mac());
    for scan in &scans {
        let seen = scan
            .records
            .iter()
            .find(|r| r.eui64() == Some(eui))
            .and_then(|r| r.source());
        match seen {
            Some(addr) => println!("  day {:>2}: {}", scan.started_at.day(), addr),
            None => println!("  day {:>2}: not observed", scan.started_at.day()),
        }
    }
    println!("\nthe prefix rotates daily, but the low 64 bits never change — that is the scent.");
}
