//! CI determinism cross-check: run representative feedback-on campaigns and
//! print their full reports.
//!
//! The CI job runs this binary twice and asserts the outputs are byte-equal.
//! Each run spawns real producer and shard threads, so the OS interleaves
//! the two processes differently on its own — any reintroduced dependence of
//! campaign results on scheduling or wall-clock timing shows up as a diff.
//! Everything printed is `Vec`-shaped report state (no hash-map iteration
//! order), and the one wall-clock diagnostic in a monitor report
//! (`backpressure_stalls`) is zeroed before printing.

use followscent::checkpoint::FileCheckpointStore;
use followscent::core::PipelineConfig;
use followscent::discovery::DiscoveryConfig;
use followscent::prober::QueueModel;
use followscent::simnet::{scenarios, Engine, SimTime, WorldScale};
use followscent::stream::{
    MonitorConfig, MonitorControl, MonitorSnapshot, StopSignal, StreamConfig, StreamMonitor,
    StreamPipeline, WatchChurn,
};
use followscent::{ScentError, Scheduler};

/// The throttling virtual-queue model of the feedback-on monitors.
fn throttling_model() -> QueueModel {
    QueueModel {
        drain_rate: Some(16),
        high_watermark: 64,
        low_watermark: 8,
    }
}

fn main() -> Result<(), ScentError> {
    // Streamed discovery with virtual-queue feedback, across producer
    // counts: reports must be identical to each other and across process
    // runs.
    let world = scenarios::paper_world(2024, WorldScale::small());
    for producers in [1usize, 4] {
        let engine = Engine::build(world.clone())?;
        let report = StreamPipeline::new(StreamConfig {
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
            },
        })
        .run(&engine)?;
        println!("== streamed feedback-on, producers={producers} ==");
        println!("{report:#?}");
    }

    // The continuous monitor with a throttling queue model, across producer
    // counts.
    let world = scenarios::continuous_world(13);
    let engine = Engine::build(world)?;
    let watched: Vec<followscent::ipv6::Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .take(2)
        .collect();
    let feedback = MonitorConfig {
        shards: 2,
        packets_per_second: 128,
        queue_model: throttling_model(),
        start: SimTime::at(10, 9),
        ..MonitorConfig::default()
    };
    for producers in [1usize, 4] {
        let mut report = StreamMonitor::new(MonitorConfig {
            windows: 2,
            producers,
            ..feedback.clone()
        })
        .run(&engine, &watched)?;
        report.backpressure_stalls = 0; // wall-clock diagnostic, not state
        println!("== monitor feedback-on, producers={producers} ==");
        println!("{report:#?}");
    }

    // The churning monitor with feedback on, across producer counts: the
    // revision history (admissions/evictions per epoch) and the final watch
    // list are part of the printed report, so any scheduling dependence in
    // the epoch machinery shows up as a byte diff.
    let world = scenarios::churn_world(17);
    let engine = Engine::build(world)?;
    let start = SimTime::at(10, 9);
    let watched = vec![
        scenarios::churn_world_dense_48(&engine, start),
        engine.pools()[1].config.prefix,
    ];
    let churn = Some(WatchChurn {
        refresh_every: 1,
        watch_capacity: 3,
        ..WatchChurn::default()
    });
    let churning = MonitorConfig {
        windows: 4,
        start,
        churn,
        ..feedback
    };
    for producers in [1usize, 4] {
        let mut report = StreamMonitor::new(MonitorConfig {
            producers,
            ..churning.clone()
        })
        .run(&engine, &watched)?;
        report.backpressure_stalls = 0; // wall-clock diagnostic, not state
        println!("== monitor churn-on feedback-on, producers={producers} ==");
        println!("{report:#?}");
    }

    // Checkpoint/resume on the churning feedback-on monitor: run it
    // uninterrupted, run it again suspended at the first epoch boundary (the
    // stop signal is raised up front, so the halt point is deterministic)
    // with a snapshot written to disk, then resume from the snapshot. The
    // resumed report must be byte-identical to the uninterrupted one — both
    // are printed, so a mismatch shows up in-process *and* any scheduling
    // dependence shows up as a cross-run diff.
    let monitor = StreamMonitor::new(MonitorConfig {
        producers: 2,
        checkpoint_every: Some(2),
        ..churning
    });
    let path = std::env::temp_dir().join(format!("scent-determinism-{}.ckpt", std::process::id()));
    let full = monitor.run(&engine, &watched)?;
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
    resumed.backpressure_stalls = full.backpressure_stalls;
    assert_eq!(
        resumed, full,
        "resumed run must be byte-identical to the uninterrupted run"
    );
    resumed.backpressure_stalls = 0;
    println!(
        "== monitor checkpoint-resume: suspended after {} of {} windows, resumed ==",
        half.windows, resumed.windows
    );
    println!("{resumed:#?}");

    // Unseeded adaptive discovery on the churn world, across producer
    // counts: the monitor starts with an *empty* watch list and grows its
    // confidence-split prefix tree from the announcement topology alone.
    // The printed report includes the tree's final state (splits, merges,
    // dense certificates), the revision history its candidates drove, and
    // the validated-/48 set its Phase::Expansion probes populated — so any
    // scheduling dependence anywhere in the plan→sweep→fold→rebalance
    // boundary cycle shows up as a byte diff.
    for producers in [1usize, 4] {
        let mut report = StreamMonitor::new(MonitorConfig {
            shards: 2,
            producers,
            windows: 3,
            start,
            churn,
            discovery: Some(DiscoveryConfig {
                probe_budget: 262_144,
                ..DiscoveryConfig::paper_scale()
            }),
            ..MonitorConfig::default()
        })
        .run(&engine, &[])?;
        report.backpressure_stalls = 0; // wall-clock diagnostic, not state
        println!("== monitor adaptive-discovery unseeded, producers={producers} ==");
        println!("{report:#?}");
    }

    // A 3-tenant scheduler run over one probe budget: distinct weights,
    // cadences and feedback configurations multiplexed by time-division.
    // Both the per-tenant reports and the full budget audit trail are
    // printed, so any scheduling dependence in the fair-share allocator,
    // the park/release machinery or the per-epoch session engine shows up
    // as a cross-run byte diff.
    let world = scenarios::continuous_world(13);
    let engine = Engine::build(world)?;
    let watched: Vec<followscent::ipv6::Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect();
    let base = MonitorConfig {
        windows: 2,
        shards: 2,
        producers: 2,
        granularity: 56,
        start: SimTime::at(10, 9),
        checkpoint_every: Some(1),
        ..MonitorConfig::default()
    };
    let feedback = MonitorConfig {
        windows: 3,
        producers: 4,
        packets_per_second: 128,
        queue_model: throttling_model(),
        ..base.clone()
    };
    let single_window = MonitorConfig {
        windows: 1,
        ..base.clone()
    };
    let scheduled = Scheduler::builder()
        .global_pps(6_000)
        .add(
            followscent::sched::Campaign::new(&engine, base, watched.clone()),
            3,
        )
        .add(
            followscent::sched::Campaign::new(&engine, feedback, watched.clone()),
            2,
        )
        .add(
            followscent::sched::Campaign::new(&engine, single_window, watched),
            1,
        )
        .run()
        .expect("valid scheduler configuration");
    println!("== scheduler 3-tenant, weights 3:2:1 over 6000 pps ==");
    println!("{:#?}", scheduled.allocations);
    for tenant in &scheduled.tenants {
        let mut report = tenant
            .outcome
            .as_ref()
            .expect("all tenants complete")
            .clone();
        report.backpressure_stalls = 0; // wall-clock diagnostic, not state
        println!(
            "== scheduler tenant {} (weight {}) ==",
            tenant.tenant, tenant.weight
        );
        println!("{report:#?}");
    }
    Ok(())
}
