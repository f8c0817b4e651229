//! Integration tests for the deterministic telemetry tier: the
//! [`Telemetry`] registry's deterministic snapshot (counters, window
//! aggregates and the event journal) must be — like the reports themselves —
//! a pure function of `(config, world seed)`: byte-identical across producer
//! counts, shard counts, live vs. recorded-replay backends and OS
//! scheduling. The wall-clock profile tier is explicitly excluded from every
//! comparison.

use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use followscent::bgp::{AsRegistry, Rib};
use followscent::core::PipelineConfig;
use followscent::ipv6::Ipv6Prefix;
use followscent::prober::{
    ProbeTransport, QueueModel, RecordedBackend, RecordingBackend, WorldView,
};
use followscent::simnet::{scenarios, Engine, ProbeReply, SimTime, TraceHop, WorldScale};
use followscent::stream::{MonitorConfig, StreamConfig, StreamMonitor, StreamPipeline, WatchChurn};
use followscent::telemetry::{self, Telemetry, TelemetrySnapshot};
use proptest::prelude::*;

/// The deterministic tier rendered for byte comparison: Prometheus text
/// plus the JSONL event journal.
fn deterministic_dump(snapshot: &TelemetrySnapshot) -> String {
    let mut out = telemetry::deterministic_text(&snapshot.deterministic);
    out.push_str(&telemetry::events_jsonl(&snapshot.deterministic.events));
    out
}

/// A queue model that genuinely throttles the 128 pps feedback runs in
/// these tests (mirrors `tests/streaming.rs`).
fn throttling_model() -> QueueModel {
    QueueModel {
        drain_rate: Some(16),
        high_watermark: 64,
        low_watermark: 8,
        ..QueueModel::unbounded()
    }
}

/// Run an observed feedback-on monitor campaign and return its telemetry.
fn observed_monitor<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    watched: &[Ipv6Prefix],
    shards: usize,
    producers: usize,
    windows: u64,
) -> TelemetrySnapshot {
    let registry = Telemetry::new();
    StreamMonitor::new(MonitorConfig {
        shards,
        producers,
        packets_per_second: 128,
        windows,
        queue_model: throttling_model(),
        ..MonitorConfig::default()
    })
    .run_observed(world, watched, Some(&registry))
    .expect("valid monitor configuration");
    registry.snapshot()
}

fn pool_48s(engine: &Engine) -> Vec<Ipv6Prefix> {
    engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect()
}

/// The tentpole acceptance contract: deterministic telemetry of a
/// feedback-on monitor run is byte-identical across producers {1, 2, 4, 8},
/// on the live simnet backend and on the recorded replay — and non-vacuously
/// (windows closed, rate events journaled, observations counted). The
/// topology tier is producer-count-*shaped*, but for a fixed shape it is
/// value-deterministic across backends.
#[test]
fn deterministic_telemetry_is_producer_invariant_on_live_and_recorded_backends() {
    let world = scenarios::continuous_world(13);
    let engine = Engine::build(world).unwrap();
    let watched: Vec<Ipv6Prefix> = pool_48s(&engine).into_iter().take(2).collect();

    let recorder = RecordingBackend::new(&engine);
    let reference = observed_monitor(&recorder, &watched, 2, 1, 2);
    let replay = RecordedBackend::from_log(recorder.finish());
    let reference_dump = deterministic_dump(&reference);

    // Non-vacuity: the reference run really exercised every deterministic
    // hook family.
    let det = &reference.deterministic;
    assert!(det.observations > 0);
    assert!(det.responses > 0);
    assert!(det.rate_backoffs > 0, "the throttling model must back off");
    assert!(det.queue_high_water > 0);
    assert_eq!(det.windows.len(), 2, "one aggregate per closed window");
    assert!(!det.events.is_empty());

    for producers in [1usize, 2, 4, 8] {
        let live = observed_monitor(&engine, &watched, 2, producers, 2);
        assert_eq!(
            reference_dump,
            deterministic_dump(&live),
            "live telemetry, producers={producers}"
        );
        let replayed = observed_monitor(&replay, &watched, 2, producers, 2);
        assert_eq!(
            reference_dump,
            deterministic_dump(&replayed),
            "replayed telemetry, producers={producers}"
        );
        // Same topology shape ⇒ same topology values, live or replayed.
        assert_eq!(
            telemetry::topology_text(&live.topology),
            telemetry::topology_text(&replayed.topology),
            "topology tier, producers={producers}"
        );
    }
}

/// Deterministic telemetry of the streamed discovery pipeline is
/// shard-count-invariant (feedback off: the pacing trajectory is then
/// shard-independent), exactly like the report it accompanies.
#[test]
fn deterministic_telemetry_is_shard_invariant() {
    let world = scenarios::paper_world(2024, WorldScale::small());
    let dumps: Vec<String> = [1usize, 2, 3]
        .iter()
        .map(|&shards| {
            let engine = Engine::build(world.clone()).unwrap();
            let registry = Telemetry::new();
            StreamPipeline::new(StreamConfig {
                pipeline: PipelineConfig {
                    max_48s_per_seed: 128,
                    ..PipelineConfig::default()
                },
                shards,
                producers: 2,
                ..StreamConfig::default()
            })
            .run_observed(&engine, Some(&registry))
            .expect("valid stream configuration");
            let snapshot = registry.snapshot();
            assert_eq!(snapshot.topology.shards, shards);
            deterministic_dump(&snapshot)
        })
        .collect();
    assert!(dumps[0].contains("scent_observations_total"));
    assert_eq!(dumps[0], dumps[1]);
    assert_eq!(dumps[0], dumps[2]);
}

/// The registry's counters agree with the authoritative campaign report:
/// telemetry is an observation of the run, not a second bookkeeping that
/// can drift.
#[test]
fn telemetry_counters_match_the_monitor_report() {
    let engine = Engine::build(scenarios::churn_world(17)).unwrap();
    let start = SimTime::at(10, 9);
    let watched = vec![
        scenarios::churn_world_dense_48(&engine, start),
        engine.pools()[1].config.prefix,
    ];
    let registry = Telemetry::new();
    let report = StreamMonitor::new(MonitorConfig {
        shards: 2,
        producers: 4,
        packets_per_second: 128,
        windows: 4,
        start,
        queue_model: throttling_model(),
        churn: Some(WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        }),
        ..MonitorConfig::default()
    })
    .run_observed(&engine, &watched, Some(&registry))
    .expect("valid monitor configuration");
    let snapshot = registry.snapshot();
    let det = &snapshot.deterministic;

    assert_eq!(det.observations, report.observations);
    assert_eq!(det.epochs, report.revisions.len() as u64);
    let (admitted, evicted) = report.churn_counts();
    assert_eq!(det.admitted, admitted as u64);
    assert_eq!(det.evicted, evicted as u64);
    assert_eq!(det.expansion_probes, report.expansion_probes);
    assert_eq!(det.windows.len(), 4, "every window closed an aggregate");
    assert_eq!(
        det.windows.iter().map(|w| w.observations).sum::<u64>(),
        report.observations,
        "window aggregates partition the observation count"
    );

    // Topology totals agree with the deterministic totals: every probe was
    // produced by some producer and ingested by some shard.
    let topo = &snapshot.topology;
    assert_eq!(topo.producers, 4);
    // Boundary re-expansion probes are sent from the control thread and
    // routed into the shards, so producers count exactly the windowed
    // observations and the shards every observation.
    assert!(
        report.expansion_probes > 0,
        "non-vacuous: a boundary re-expanded"
    );
    assert_eq!(
        topo.probes_per_producer.iter().sum::<u64>(),
        det.observations - report.expansion_probes
    );
    assert_eq!(topo.routed_per_shard.iter().sum::<u64>(), det.observations);
    assert_eq!(
        topo.ingested_per_shard.iter().sum::<u64>(),
        det.observations
    );
}

/// A backend wrapper that perturbs *OS* scheduling on every probe — salted
/// pseudo-random micro-sleeps on the producer threads — while leaving
/// virtual time untouched. Deterministic telemetry must not see the
/// difference.
struct JitterBackend<'e> {
    inner: &'e Engine,
    state: AtomicU64,
}

impl<'e> JitterBackend<'e> {
    fn new(inner: &'e Engine, salt: u64) -> Self {
        JitterBackend {
            inner,
            state: AtomicU64::new(salt),
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ProbeTransport for JitterBackend<'_> {
    fn probe(&self, target: Ipv6Addr, t: SimTime) -> Option<ProbeReply> {
        let draw = splitmix(
            self.state
                .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed),
        );
        if draw % 3 == 0 {
            std::thread::sleep(std::time::Duration::from_micros(draw % 40));
        }
        self.inner.probe(target, t)
    }

    fn trace(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Vec<TraceHop> {
        self.inner.trace(target, t, max_hops)
    }
}

impl WorldView for JitterBackend<'_> {
    fn vantage(&self) -> Ipv6Addr {
        self.inner.vantage()
    }

    fn rib(&self) -> &Rib {
        self.inner.rib()
    }

    fn as_registry(&self) -> &AsRegistry {
        self.inner.as_registry()
    }

    fn world_seed(&self) -> u64 {
        self.inner.world_seed()
    }
}

proptest! {
    // The deterministic tier never observes OS time: two runs whose probe
    // paths sleep on *different* pseudo-random schedules — shifting thread
    // interleavings, channel backpressure and wall-clock spans — produce
    // byte-identical deterministic dumps for any producer count.
    #[test]
    fn deterministic_telemetry_ignores_os_time(
        world_seed in 1u64..1_000_000,
        salt_a in any::<u64>(),
        salt_b in any::<u64>(),
        producers in 2usize..=4,
    ) {
        let world = scenarios::continuous_world(world_seed);
        let engine = Engine::build(world).unwrap();
        let watched: Vec<Ipv6Prefix> = pool_48s(&engine).into_iter().take(1).collect();
        let jittered_a = JitterBackend::new(&engine, salt_a);
        let a = observed_monitor(&jittered_a, &watched, 2, producers, 2);
        let jittered_b = JitterBackend::new(&engine, salt_b);
        let b = observed_monitor(&jittered_b, &watched, 2, producers, 2);
        prop_assert!(a.deterministic.observations > 0);
        prop_assert_eq!(deterministic_dump(&a), deterministic_dump(&b));
        prop_assert_eq!(
            telemetry::topology_text(&a.topology),
            telemetry::topology_text(&b.topology)
        );
    }
}
