//! Continuous rotation monitoring with [`StreamMonitor`] — with a *live*,
//! churning watch list.
//!
//! Instead of the batch "two snapshots 24 hours apart" comparison, this
//! example points the continuous monitor at a world whose dense /48
//! migrates daily within a /44 pool (plus a static control provider), runs
//! it for two weeks of virtual time with every-window watch-list churn
//! ([`WatchChurn`]), and prints the rotation events the engine flagged, the
//! per-epoch admissions/evictions the churning watch list went through, and
//! the passive device tracks that fall out of the same stream. The discovery
//! pipeline runs over the same backend through
//! [`StreamPipeline`](followscent::stream::StreamPipeline) (sharded) or
//! [`Pipeline`](followscent::core::Pipeline) (batch) instead.
//!
//! The per-epoch narration comes from an attached [`Telemetry`] registry:
//! the monitor journals every epoch revision as it happens (in virtual
//! time), so the example reads the structured event journal instead of
//! post-processing the final report — the same journal a deployment would
//! ship as JSONL next to its Prometheus scrape.
//!
//! Run with: `cargo run --release --example rotation_monitor`

use followscent::checkpoint::FileCheckpointStore;
use followscent::ipv6::Ipv6Prefix;
use followscent::simnet::{scenarios, Engine, SimDuration, SimTime};
use followscent::stream::{
    MonitorConfig, MonitorControl, MonitorSnapshot, StopSignal, StreamMonitor, WatchChurn,
};
use followscent::telemetry::{EventKind, Telemetry};
use followscent::ScentError;

fn main() {
    if let Err(error) = run() {
        // Typed errors print a human-readable cause via `Display`.
        eprintln!("rotation_monitor: {error}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), ScentError> {
    let engine = Engine::build(scenarios::churn_world(21))?;
    let start = SimTime::at(10, 9);

    // Seed the watch list with the /48 the migrating pool occupies on day
    // one plus the static control pool (a deployment would seed it with the
    // high-density output of the discovery pipeline); the churning monitor
    // revises it from there on its own.
    let watched: Vec<Ipv6Prefix> = vec![
        engine.pools()[1].config.prefix,
        scenarios::churn_world_dense_48(&engine, start),
    ];
    println!(
        "monitoring {} seed /48s across {} providers, 4 producers -> 2 shards, \
         14 daily windows, watch list revised every window\n",
        watched.len(),
        engine.config().providers.len()
    );

    // Four probe producers split every window's scan between them and are
    // recombined through the merged deterministic clock, so this report —
    // revision history and telemetry journal included — is bit-identical to
    // a single-threaded run's.
    let config = MonitorConfig {
        shards: 2,
        producers: 4,
        seed: 0x57ae,
        packets_per_second: 10_000,
        granularity: 56,
        windows: 14,
        window_interval: SimDuration::from_days(1),
        start,
        churn: Some(WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        }),
        ..MonitorConfig::default()
    };
    let registry = Telemetry::new();
    let report =
        StreamMonitor::new(config.clone()).run_observed(&engine, &watched, Some(&registry))?;

    println!(
        "{} observations ingested ({} of them re-expansion probes), {} rotation events, \
         {} /48s flagged rotating",
        report.observations,
        report.expansion_probes,
        report.events.len(),
        report.rotating_48s.len()
    );

    // Narrate the churn from the telemetry event journal: each epoch's
    // revision was recorded the moment the monitor made it, stamped with
    // the virtual time and window it happened in.
    let snapshot = registry.snapshot();
    println!("\nwatch-list churn per epoch (from the telemetry journal):");
    for event in &snapshot.deterministic.events {
        let EventKind::EpochClose {
            admitted,
            evicted,
            watch_len,
            expansion_probes,
        } = &event.kind
        else {
            continue;
        };
        print!(
            "  epoch {:>2} (window {:>2}, day {:>2} {:02}h): \
             +{} admitted  -{} evicted  watching {watch_len}",
            event.epoch,
            event.window,
            event.virtual_time.day(),
            event.virtual_time.hour_of_day(),
            admitted.len(),
            evicted.len(),
        );
        if let Some(first) = admitted.first() {
            print!("   (now watching {first})");
        }
        println!("   [{expansion_probes} re-expansion probes]");
    }
    println!(
        "  total: {} admissions, {} evictions; final watch list: {:?}",
        snapshot.deterministic.admitted,
        snapshot.deterministic.evicted,
        report
            .final_watch
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
    );
    println!("\nrotation events per window:");
    for window in 0..report.windows {
        let count = report.events_in_window(window).count();
        let bar: String = "#".repeat(count.min(60));
        println!("  window {window:>2}: {count:>4} {bar}");
    }

    println!("\nflagged /48s by origin AS:");
    let mut per_asn: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    for prefix in &report.rotating_48s {
        if let Some(asn) = engine.rib().origin(prefix.network()) {
            *per_asn.entry(asn.value()).or_insert(0) += 1;
        }
    }
    for (asn, count) in per_asn {
        let name = engine
            .as_registry()
            .name(followscent::bgp::Asn(asn))
            .unwrap_or("?");
        println!("  AS{asn} ({name}): {count} rotating /48s");
    }

    println!("\npassively tracked devices (found/windows, distinct /64s):");
    for result in &report.tracking.devices {
        println!(
            "  {}  AS{}  {:>2}/{} windows  {:>3} /64s",
            result.device.iid,
            result.device.asn.value(),
            result.days_found(),
            report.windows,
            result.distinct_prefixes()
        );
    }
    println!(
        "\nre-identification accuracy across the run: {:.0}%",
        report.tracking.overall_accuracy() * 100.0
    );

    // A real deployment can't promise 14 uninterrupted days of uptime, so
    // the monitor is crash-safe: re-run the same campaign but suspend it
    // gracefully partway through (the stop signal is raised up front, so it
    // drains and snapshots at the first epoch boundary), then restore from
    // the on-disk snapshot and let it finish. The resumed report — churn
    // history, rotation events and device tracks included — is
    // byte-identical to the uninterrupted run above.
    let path = std::env::temp_dir().join(format!("rotation-monitor-{}.ckpt", std::process::id()));
    let monitor = StreamMonitor::new(MonitorConfig {
        checkpoint_every: Some(7),
        ..config
    });
    let stop = StopSignal::new();
    stop.request_stop();
    let mut store = FileCheckpointStore::new(&path);
    let half = monitor.run_controlled(
        &engine,
        &watched,
        MonitorControl {
            sink: Some(&mut store),
            stop: Some(stop),
            ..MonitorControl::default()
        },
    )?;
    let resume = Some(MonitorSnapshot::from_bytes(&store.load()?)?);
    let mut resumed = monitor.run_controlled(
        &engine,
        &watched,
        MonitorControl {
            resume,
            ..MonitorControl::default()
        },
    )?;
    std::fs::remove_file(&path).ok();
    let mut reference = report.clone();
    // The stall counter is a wall-clock diagnostic, not monitor state.
    resumed.backpressure_stalls = 0;
    reference.backpressure_stalls = 0;
    println!(
        "\ncrash-safe resume: suspended after {} of {} windows, restored from \
         the on-disk snapshot and finished; resumed report matches the \
         uninterrupted run: {}",
        half.windows,
        resumed.windows,
        resumed == reference
    );
    assert_eq!(
        resumed, reference,
        "resumed run must be byte-identical to the uninterrupted run"
    );
    Ok(())
}
