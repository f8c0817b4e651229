//! Deterministic telemetry dump: run representative observed campaigns,
//! self-check the deterministic telemetry tier across producer counts, and
//! print it.
//!
//! Two layers of checking stack on this binary:
//!
//! * **In-process**: every scenario runs at multiple producer counts and the
//!   binary itself asserts the deterministic dumps (Prometheus text plus the
//!   JSONL event journal) are byte-equal before printing them once. A
//!   producer-count dependence aborts the run with a diff-sized panic.
//! * **Cross-process**: the CI determinism job runs the binary twice and
//!   byte-compares the outputs, exactly like `determinism_check` does for
//!   reports. Everything printed by default is deterministic-tier or
//!   topology-tier state; wall-clock profile telemetry (stalls, channel
//!   high-water, elapsed spans) is printed only under `--profile`, which CI
//!   never passes.

use followscent::core::PipelineConfig;
use followscent::prober::QueueModel;
use followscent::simnet::{scenarios, Engine, SimTime, WorldScale};
use followscent::stream::{MonitorConfig, StreamConfig, StreamMonitor, StreamPipeline, WatchChurn};
use followscent::telemetry::{self, Telemetry, TelemetrySnapshot};
use followscent::ScentError;

/// The deterministic tier rendered for comparison and printing: Prometheus
/// text followed by the JSONL event journal.
fn deterministic_dump(snapshot: &TelemetrySnapshot) -> String {
    let mut out = telemetry::deterministic_text(&snapshot.deterministic);
    out.push_str(&telemetry::events_jsonl(&snapshot.deterministic.events));
    out
}

/// Assert every producer count produced the same deterministic dump, print
/// it once, then print the (producer-count-shaped) topology tier per count.
fn emit(section: &str, runs: &[(usize, TelemetrySnapshot)], profile: bool) {
    let (first_producers, first) = &runs[0];
    let reference = deterministic_dump(first);
    for (producers, snapshot) in &runs[1..] {
        assert_eq!(
            reference,
            deterministic_dump(snapshot),
            "{section}: deterministic telemetry differs between \
             producers={first_producers} and producers={producers}"
        );
    }
    println!("== {section}: deterministic tier (all producer counts) ==");
    print!("{reference}");
    for (producers, snapshot) in runs {
        println!("== {section}: topology tier, producers={producers} ==");
        print!("{}", telemetry::topology_text(&snapshot.topology));
    }
    if profile {
        for (producers, snapshot) in runs {
            println!("== {section}: profile tier (wall clock), producers={producers} ==");
            print!("{}", telemetry::profile_text(&snapshot.profile));
        }
    }
}

fn main() -> Result<(), ScentError> {
    let profile = std::env::args().any(|arg| arg == "--profile");

    // Streamed discovery with virtual-queue feedback, across producer
    // counts.
    let world = scenarios::paper_world(2024, WorldScale::small());
    let mut runs = Vec::new();
    for producers in [1usize, 4] {
        let engine = Engine::build(world.clone())?;
        let registry = Telemetry::new();
        StreamPipeline::new(StreamConfig {
            pipeline: PipelineConfig {
                max_48s_per_seed: 128,
                ..PipelineConfig::default()
            },
            shards: 2,
            producers,
            queue_model: QueueModel {
                drain_rate: Some(2_000),
                high_watermark: 4_096,
                low_watermark: 512,
                ..QueueModel::unbounded()
            },
            ..StreamConfig::default()
        })
        .run_observed(&engine, Some(&registry))?;
        runs.push((producers, registry.snapshot()));
    }
    emit("streamed feedback-on", &runs, profile);

    // The churning monitor with a throttling queue model, across producer
    // counts: window aggregates, rate back-off/recovery events and epoch
    // revisions all land in the journal.
    let world = scenarios::churn_world(17);
    let engine = Engine::build(world)?;
    let start = SimTime::at(10, 9);
    let watched = vec![
        scenarios::churn_world_dense_48(&engine, start),
        engine.pools()[1].config.prefix,
    ];
    let mut runs = Vec::new();
    for producers in [1usize, 4] {
        let registry = Telemetry::new();
        StreamMonitor::new(MonitorConfig {
            shards: 2,
            producers,
            packets_per_second: 128,
            windows: 4,
            start,
            queue_model: QueueModel {
                drain_rate: Some(16),
                high_watermark: 64,
                low_watermark: 8,
                ..QueueModel::unbounded()
            },
            churn: Some(WatchChurn {
                refresh_every: 1,
                watch_capacity: 3,
                ..WatchChurn::default()
            }),
            ..MonitorConfig::default()
        })
        .run_observed(&engine, &watched, Some(&registry))?;
        runs.push((producers, registry.snapshot()));
    }
    emit("monitor churn-on feedback-on", &runs, profile);
    Ok(())
}
