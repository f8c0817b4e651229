//! The scheduler owns its shard workers and takes them with it: after
//! `Scheduler::run` returns — with a tenant's worker having panicked on the
//! pool its neighbours share — the process has exactly the threads it had
//! before. Alone in its test binary on purpose: the thread census is
//! process-wide, and a concurrently running test would show up in it.

#![cfg(target_os = "linux")]

use followscent::ipv6::Ipv6Prefix;
use followscent::sched::{Campaign, Scheduler};
use followscent::simnet::{scenarios, Engine, SimTime};
use followscent::stream::{MonitorConfig, MonitorSession, StreamError};

/// Threads of this process, as the kernel counts them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Whether the process is back to `want` threads. A joined thread has
/// exited but may not be reaped yet — the kernel wakes its joiner first —
/// so the census gets a moment to settle.
fn settles_at(want: usize) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads() != want {
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn a_panicked_tenant_leaves_no_thread_and_no_mark_on_its_pool_mates() {
    let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
    // Every pool /48: with one the router would feed a single shard and the
    // injected panic in shard 1 could never fire.
    let watched: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect();
    // Three tenants of one shape: one pool serves all three, so the sick
    // tenant's dead worker is a worker its neighbours had used and would
    // have used again.
    let healthy = MonitorConfig {
        windows: 3,
        shards: 2,
        producers: 2,
        checkpoint_every: Some(1),
        start: SimTime::at(10, 9),
        ..MonitorConfig::default()
    };
    let sick = MonitorConfig {
        inject_shard_panic: Some(1),
        ..healthy.clone()
    };

    let before = threads();
    let report = Scheduler::builder()
        .global_pps(3_000)
        .add(Campaign::new(&engine, healthy.clone(), watched.clone()), 1)
        .add(Campaign::new(&engine, sick, watched.clone()), 1)
        .add(Campaign::new(&engine, healthy.clone(), watched.clone()), 1)
        .run()
        .unwrap();
    assert!(settles_at(before), "no thread outlives Scheduler::run");

    match &report.tenants[1].outcome {
        Err(StreamError::ShardPanicked { shard }) => assert_eq!(*shard, 1),
        other => panic!("expected ShardPanicked {{ shard: 1 }}, got {other:?}"),
    }
    // The neighbours ran on the pool before the panic and on its respawned
    // workers after (`tests/scheduler.rs` holds them equal to their solo
    // runs); here, that they finished at all.
    for tenant in [0usize, 2] {
        let report = report.tenants[tenant].outcome.as_ref().expect("healthy");
        assert_eq!(report.windows, 3);
    }

    // A session's own pool (`run_epoch`) goes with the call that opened it.
    let mut session = MonitorSession::new(&engine, healthy, watched, None);
    session.run_epoch(1_000).expect("healthy solo epoch");
    assert!(settles_at(before), "nor a solo epoch");
}
