//! Cross-crate integration tests for the streaming engines: streaming/batch
//! equivalence, shard-merge determinism
//! and producer-merge determinism — the three contracts the subsystem is
//! built around — parameterized over measurement backends (live simnet and
//! recorded replay) and property-tested over random worlds, target lists and
//! producer counts.

use followscent::core::rotation_detect::{rotating_48s, ChangedTarget, RotationEvent};
use followscent::core::{Pipeline, PipelineConfig, PipelineReport, RotationDetection};
use followscent::ipv6::Ipv6Prefix;
use followscent::prober::{
    ProbeRecord, ProbeTransport, QueueModel, RecordedBackend, RecordingBackend, Scan,
    TargetGenerator, TargetStream, WorldView,
};
use followscent::simnet::{scenarios, Engine, SimTime, WorldScale};
use followscent::stream::{
    spawn_producers, ContinuousStream, LimitedSource, MergedClock, MonitorConfig, MonitorReport,
    MonitorSession, MonitorSnapshot, Observation, ObservationSource, StreamConfig, StreamMonitor,
    StreamPipeline, WatchChurn,
};
use proptest::prelude::*;

fn small_config() -> PipelineConfig {
    PipelineConfig {
        max_48s_per_seed: 128,
        ..PipelineConfig::default()
    }
}

/// Run the batch discovery pipeline against any backend.
fn batch<B: ProbeTransport + WorldView + ?Sized>(world: &B) -> PipelineReport {
    Pipeline::new(small_config()).run(world)
}

/// Run the streamed discovery pipeline against any backend.
fn streamed<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    shards: usize,
    producers: usize,
) -> PipelineReport {
    StreamPipeline::new(StreamConfig {
        pipeline: small_config(),
        shards,
        producers,
        ..StreamConfig::default()
    })
    .run(world)
    .expect("valid stream configuration")
}

/// The headline contract: a streamed run over a simulated
/// world produces the same report — in particular the same set of rotating
/// /48s — as the batch pipeline, while processing observations incrementally
/// across two shards.
#[test]
fn streaming_equals_batch_on_the_paper_world() {
    let world = scenarios::paper_world(2024, WorldScale::small());
    let reference = batch(&Engine::build(world.clone()).unwrap());
    let report = streamed(&Engine::build(world).unwrap(), 2, 1);
    assert_eq!(reference.rotating_48s, report.rotating_48s);
    assert_eq!(reference, report, "every report field must agree");
    assert!(
        !report.rotating_48s.is_empty(),
        "equivalence must not be vacuous"
    );
}

/// The same equivalence holds on the recorded backend: capture one batch run
/// against the simulated Internet, then replay the log — the batch and
/// streamed pipelines over the *replay* both reproduce the live report.
#[test]
fn streaming_equals_batch_on_the_recorded_backend() {
    let world = scenarios::paper_world(2024, WorldScale::small());
    let engine = Engine::build(world).unwrap();

    let recorder = RecordingBackend::new(&engine);
    let live = batch(&recorder);
    let replay = RecordedBackend::from_log(recorder.finish());

    let replayed_batch = batch(&replay);
    let replayed_stream = streamed(&replay, 3, 1);
    assert_eq!(live, replayed_batch, "replay must reproduce the live run");
    assert_eq!(live, replayed_stream, "streamed replay must agree too");
    assert!(
        !live.rotating_48s.is_empty(),
        "vacuous equality proves nothing"
    );
}

/// Same world seed + any shard count ⇒ identical merged report.
#[test]
fn shard_merge_is_deterministic() {
    let world = scenarios::paper_world(99, WorldScale::small());
    let reports: Vec<PipelineReport> = [1usize, 2, 4]
        .iter()
        .map(|&shards| streamed(&Engine::build(world.clone()).unwrap(), shards, 1))
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
}

/// Run the continuous monitor under `config` against any backend.
fn monitor_run<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    watched: &[Ipv6Prefix],
    config: MonitorConfig,
) -> MonitorReport {
    let mut report = StreamMonitor::new(config)
        .run(world, watched)
        .expect("valid monitor configuration");
    // Stall counts are wall-clock scheduling, not inference state; zero them
    // so reports from different runs compare on inference output alone.
    report.backpressure_stalls = 0;
    report
}

/// Run the continuous monitor against any backend.
fn monitor_with<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    watched: &[Ipv6Prefix],
    shards: usize,
    producers: usize,
    windows: u64,
) -> MonitorReport {
    let config = MonitorConfig {
        shards,
        producers,
        windows,
        ..MonitorConfig::default()
    };
    monitor_run(world, watched, config)
}

/// The /48s of every pool of an engine's world.
fn pool_48s(engine: &Engine) -> Vec<Ipv6Prefix> {
    engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect()
}

/// The acceptance contract of the producer-sharding work: for any
/// `producers ∈ {1, 2, 4, 8}`, batch ≡ streamed ≡ monitor reports are
/// byte-equal on both the live simnet backend and the recorded replay
/// backend.
#[test]
fn producer_count_is_invariant_on_live_and_recorded_backends() {
    let world = scenarios::paper_world(2024, WorldScale::small());
    let engine = Engine::build(world).unwrap();
    let recorder = RecordingBackend::new(&engine);
    let reference = batch(&recorder);
    let replay = RecordedBackend::from_log(recorder.finish());
    assert!(
        !reference.rotating_48s.is_empty(),
        "vacuous equality proves nothing"
    );

    for producers in [1usize, 2, 4, 8] {
        let live = streamed(&engine, 2, producers);
        assert_eq!(reference, live, "live streamed, producers={producers}");
        let replayed = streamed(&replay, 3, producers);
        assert_eq!(
            reference, replayed,
            "replayed streamed, producers={producers}"
        );
    }

    // The same invariance for the continuous monitor: record a single-producer
    // run, then check every producer count reproduces it on both backends.
    let world = scenarios::continuous_world(13);
    let engine = Engine::build(world).unwrap();
    let watched = pool_48s(&engine);
    let recorder = RecordingBackend::new(&engine);
    let reference = monitor_with(&recorder, &watched, 2, 1, 2);
    let replay = RecordedBackend::from_log(recorder.finish());
    assert!(!reference.events.is_empty(), "rotation must emit events");
    for producers in [1usize, 2, 4, 8] {
        let live = monitor_with(&engine, &watched, 2, producers, 2);
        assert_eq!(reference, live, "live monitor, producers={producers}");
        let replayed = monitor_with(&replay, &watched, 3, producers, 2);
        assert_eq!(
            reference, replayed,
            "replayed monitor, producers={producers}"
        );
    }
}

/// Run the continuous monitor with the virtual-queue AIMD feedback on.
fn monitor_feedback<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    watched: &[Ipv6Prefix],
    shards: usize,
    producers: usize,
    model: QueueModel,
) -> MonitorReport {
    let config = MonitorConfig {
        shards,
        producers,
        packets_per_second: 128,
        windows: 2,
        queue_model: model,
        ..MonitorConfig::default()
    };
    monitor_run(world, watched, config)
}

/// A queue model that genuinely throttles the 128 pps feedback runs in these
/// tests: each shard retires 16 observations per virtual second and backs
/// off at 64 queued.
fn throttling_model() -> QueueModel {
    QueueModel {
        drain_rate: Some(16),
        high_watermark: 64,
        low_watermark: 8,
    }
}

/// The tentpole acceptance contract: with AIMD rate feedback **on**,
/// monitor reports are byte-identical across producers {1, 2, 4, 8}, on the
/// live simnet backend and on the recorded replay backend — and the
/// throttling is non-vacuous (the final rate really backed off).
#[test]
fn feedback_on_monitor_is_producer_invariant_on_live_and_recorded_backends() {
    let world = scenarios::continuous_world(13);
    let engine = Engine::build(world).unwrap();
    let watched: Vec<Ipv6Prefix> = pool_48s(&engine).into_iter().take(2).collect();
    let recorder = RecordingBackend::new(&engine);
    let reference = monitor_feedback(&recorder, &watched, 2, 1, throttling_model());
    let replay = RecordedBackend::from_log(recorder.finish());
    assert!(
        reference.final_rate < 128,
        "the virtual queue must throttle, or the equality proves nothing"
    );
    assert!(!reference.events.is_empty(), "rotation must emit events");
    for producers in [1usize, 2, 4, 8] {
        let live = monitor_feedback(&engine, &watched, 2, producers, throttling_model());
        assert_eq!(reference, live, "live feedback, producers={producers}");
        let replayed = monitor_feedback(&replay, &watched, 2, producers, throttling_model());
        assert_eq!(
            reference, replayed,
            "replayed feedback, producers={producers}"
        );
    }
}

/// The same contract for the streamed discovery pipeline: feedback on,
/// producers {1, 2, 4, 8}, live and recorded backends, identical reports.
#[test]
fn feedback_on_pipeline_is_producer_invariant_on_live_and_recorded_backends() {
    let world = scenarios::paper_world(2024, WorldScale::small());
    let engine = Engine::build(world).unwrap();
    let feedback_discover =
        |world: &dyn followscent::prober::MeasurementBackend, shards: usize, producers: usize| {
            StreamPipeline::new(StreamConfig {
                pipeline: small_config(),
                shards,
                producers,
                queue_model: QueueModel {
                    drain_rate: Some(2_000),
                    high_watermark: 4_096,
                    low_watermark: 512,
                },
            })
            .run(world)
            .expect("valid stream configuration")
        };
    let recorder = RecordingBackend::new(&engine);
    let reference = feedback_discover(&recorder, 2, 1);
    let replay = RecordedBackend::from_log(recorder.finish());
    assert!(!reference.rotating_48s.is_empty(), "non-vacuous equality");
    for producers in [2usize, 4, 8] {
        let live = feedback_discover(&engine, 2, producers);
        assert_eq!(reference, live, "live feedback, producers={producers}");
        let replayed = feedback_discover(&replay, 2, producers);
        assert_eq!(
            reference, replayed,
            "replayed feedback, producers={producers}"
        );
    }
}

/// Run the continuous monitor with live watch-list churn.
fn monitor_churn<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    watched: &[Ipv6Prefix],
    shards: usize,
    producers: usize,
    windows: u64,
    churn: WatchChurn,
) -> MonitorReport {
    let config = MonitorConfig {
        shards,
        producers,
        windows,
        churn: Some(churn),
        ..MonitorConfig::default()
    };
    monitor_run(world, watched, config)
}

use followscent::simnet::scenarios::churn_world_dense_48;

/// The acceptance contract of the watch-list-churn work: churn-enabled
/// monitor runs are byte-identical across producers {1, 2, 4, 8} on the live
/// simnet backend and on the recorded replay backend — and on
/// `scenarios::churn_world` the final watch list genuinely differs from the
/// initial one (the equality is not proved on a run where churn never
/// fired).
#[test]
fn churn_on_monitor_is_producer_invariant_on_live_and_recorded_backends() {
    let world = scenarios::churn_world(13);
    let engine = Engine::build(world).unwrap();
    let initial = vec![
        churn_world_dense_48(&engine, SimTime::at(10, 9)),
        engine.pools()[1].config.prefix,
    ];
    let churn = WatchChurn {
        refresh_every: 1,
        watch_capacity: 3,
        ..WatchChurn::default()
    };
    let recorder = RecordingBackend::new(&engine);
    let reference = monitor_churn(&recorder, &initial, 2, 1, 4, churn);
    let replay = RecordedBackend::from_log(recorder.finish());

    assert_ne!(
        reference.final_watch, initial,
        "churn must actually be observed for the equalities to prove anything"
    );
    let (admitted, evicted) = reference.churn_counts();
    assert!(
        admitted > 0 && evicted > 0,
        "admissions and evictions occur"
    );
    assert!(reference.expansion_probes > 0);
    assert!(!reference.events.is_empty(), "rotation must emit events");

    for producers in [1usize, 2, 4, 8] {
        let live = monitor_churn(&engine, &initial, 2, producers, 4, churn);
        assert_eq!(reference, live, "live churn, producers={producers}");
        let replayed = monitor_churn(&replay, &initial, 3, producers, 4, churn);
        assert_eq!(reference, replayed, "replayed churn, producers={producers}");
    }
}

/// Run a churning monitor with the throttling AIMD feedback on, two shards.
fn monitor_churn_feedback<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    watched: &[Ipv6Prefix],
    producers: usize,
    windows: u64,
    churn: WatchChurn,
) -> MonitorReport {
    let config = MonitorConfig {
        shards: 2,
        producers,
        packets_per_second: 128,
        windows,
        queue_model: throttling_model(),
        churn: Some(churn),
        ..MonitorConfig::default()
    };
    monitor_run(world, watched, config)
}

/// Churn composes with AIMD rate feedback: the revision history and the
/// virtual-queue trajectory are both pure functions of the configuration, so
/// the combined run stays producer-invariant on both backends.
#[test]
fn churn_with_feedback_is_producer_invariant_on_live_and_recorded_backends() {
    let world = scenarios::churn_world(29);
    let engine = Engine::build(world).unwrap();
    let initial = vec![
        churn_world_dense_48(&engine, SimTime::at(10, 9)),
        engine.pools()[1].config.prefix,
    ];
    let churn = WatchChurn {
        refresh_every: 1,
        watch_capacity: 2,
        ..WatchChurn::default()
    };
    let run = |world: &dyn followscent::prober::MeasurementBackend, producers: usize| {
        monitor_churn_feedback(world, &initial, producers, 3, churn)
    };
    let recorder = RecordingBackend::new(&engine);
    let reference = run(&recorder, 1);
    let replay = RecordedBackend::from_log(recorder.finish());
    // The churned pacer restarts each epoch, its drain clock at the epoch's
    // own first window, so the *final* epoch throttles too. Every window's
    // AIMD back-off stretches its send times, and the recorded replay is
    // keyed on (target, send second), so any producer diverging from the
    // single-producer trajectory would make the replay lookups miss and the
    // reports differ below.
    assert!(reference.final_rate < 128, "the final epoch throttled");
    assert!(
        reference.revisions.iter().any(|r| !r.is_noop()),
        "churn must fire under feedback too"
    );
    for producers in [2usize, 4, 8] {
        let live = run(&engine, producers);
        assert_eq!(
            reference, live,
            "live churn+feedback, producers={producers}"
        );
        let replayed = run(&replay, producers);
        assert_eq!(
            reference, replayed,
            "replayed churn+feedback, producers={producers}"
        );
    }
}

/// The run can end where the scent dries up, and `final_rate` is the rate the
/// run *ended* on there too: a feedback-on churning monitor whose only /48
/// answers nothing exhausts its watch list at the first boundary of six, and
/// the whole report — the throttled end rate included — is the
/// single-producer run's for any producer count.
#[test]
fn final_rate_at_an_exhaustion_boundary_is_producer_invariant() {
    let engine = Engine::build(scenarios::continuous_world(13)).unwrap();
    // A /48 no simulated provider announces pool space in.
    let quiet: Ipv6Prefix = "3fff:aaaa::/48".parse().unwrap();
    let churn = WatchChurn {
        refresh_every: 1,
        ..WatchChurn::default()
    };
    let run = |producers: usize| monitor_churn_feedback(&engine, &[quiet], producers, 6, churn);
    let single = run(1);
    assert_eq!(single.exhausted_at, Some(1), "drained mid-run");
    assert_eq!(single.windows, 1);
    assert!(
        single.final_rate < 128,
        "the one window must end throttled for the equality to prove anything"
    );
    for producers in [2usize, 4] {
        assert_eq!(single, run(producers), "producers={producers}");
    }
}

proptest! {
    // Watch-list churn keeps the producer-invariance property under random
    // cadences, capacities and worlds: the churn-enabled monitor report —
    // revisions and final watch list included — is byte-identical for any
    // producer count.
    #[test]
    fn churn_on_monitor_report_equals_single_producer(
        world_seed in 1u64..1_000_000,
        producers in 2usize..=8,
        shards in 1usize..=3,
        refresh_every in 1u64..=2,
        watch_capacity in 1usize..=3,
    ) {
        let world = scenarios::churn_world(world_seed);
        let engine = Engine::build(world.clone()).unwrap();
        let initial = vec![
            churn_world_dense_48(&engine, SimTime::at(10, 9)),
            engine.pools()[1].config.prefix,
        ];
        let churn = WatchChurn {
            refresh_every,
            watch_capacity,
            ..WatchChurn::default()
        };
        let single = monitor_churn(&engine, &initial, shards, 1, 3, churn);
        let engine = Engine::build(world).unwrap();
        let sharded = monitor_churn(&engine, &initial, shards, producers, 3, churn);
        prop_assert_eq!(single, sharded);
    }

    // The tentpole property: with rate feedback on and a random queue model,
    // the monitor report is byte-identical for any producer count — the
    // AIMD trajectory is a pure function of the configuration that every
    // strided slice replays locally.
    #[test]
    fn feedback_on_monitor_report_equals_single_producer(
        world_seed in 1u64..1_000_000,
        producers in 2usize..=8,
        shards in 1usize..=3,
        drain_rate in 1u64..64,
        watch_count in 1usize..=4,
    ) {
        let model = QueueModel {
            drain_rate: Some(drain_rate),
            high_watermark: 64,
            low_watermark: 8,
        };
        let world = scenarios::continuous_world(world_seed);
        let engine = Engine::build(world.clone()).unwrap();
        let mut watched = pool_48s(&engine);
        watched.truncate(watch_count);
        let single = monitor_feedback(&engine, &watched, shards, 1, model.clone());
        let engine = Engine::build(world).unwrap();
        let sharded = monitor_feedback(&engine, &watched, shards, producers, model);
        prop_assert_eq!(single, sharded);
    }

    // Producer-merge determinism at the observation level: for random
    // worlds, random target lists and any producer count, the merged
    // observation sequence — inline or through actual producer threads — is
    // bit-identical to the single-producer scan stream.
    #[test]
    fn merged_observation_sequence_equals_single_producer(
        world_seed in 1u64..1_000_000,
        scan_seed in any::<u64>(),
        len in 1usize..400,
        producers in 1usize..=8,
        randomize in any::<bool>(),
    ) {
        let engine = Engine::build(scenarios::entel_like(world_seed)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let mut targets = TargetGenerator::new(scan_seed).one_per_subnet(&pool, 60);
        targets.truncate(len);
        let start = SimTime::at(2, 7);
        let drain = |source: &mut dyn ObservationSource| {
            let mut all = Vec::new();
            while let Some(obs) = source.next_observation() {
                all.push(obs);
            }
            all
        };
        let build = |k: usize, of: usize| {
            let order = TargetStream::over(targets.clone(), scan_seed ^ 0x5eed, randomize);
            let stream = ContinuousStream::builder(&engine, order)
                .start(start)
                .slice(k, of)
                .build();
            // One scan pass: a single window of the stream.
            let window = stream.slice_len() as u64;
            LimitedSource::new(stream, window)
        };
        let want: Vec<Observation> = drain(&mut build(0, 1));
        prop_assert_eq!(want.len(), targets.len());

        // Inline k-way merge...
        let mut merged = MergedClock::new((0..producers).map(|k| build(k, producers)).collect());
        prop_assert_eq!(&drain(&mut merged), &want);

        // ...and through real producer threads feeding bounded channels.
        let threaded = std::thread::scope(|scope| {
            let mut clock =
                spawn_producers(scope, (0..producers).map(|k| build(k, producers)).collect());
            drain(&mut clock)
        });
        prop_assert_eq!(&threaded, &want);
    }

    // Producer-merge determinism at the report level: a streamed discovery
    // pipeline over a random world produces the identical
    // [`PipelineReport`] for any producer count.
    #[test]
    fn sharded_producer_pipeline_report_equals_single_producer(
        world_seed in 1u64..1_000_000,
        producers in 2usize..=8,
        shards in 1usize..=3,
    ) {
        let world = scenarios::versatel_like(world_seed);
        let single = streamed(&Engine::build(world.clone()).unwrap(), shards, 1);
        let sharded = streamed(&Engine::build(world).unwrap(), shards, producers);
        prop_assert_eq!(single, sharded);
    }

    // Producer-merge determinism for the continuous monitor: random worlds,
    // random watch lists, any producer count — the full
    // [`MonitorReport`] (events, rotating /48s, `TrackingReport`, observation
    // counts) equals the single-producer run's.
    #[test]
    fn sharded_monitor_report_equals_single_producer(
        world_seed in 1u64..1_000_000,
        producers in 2usize..=8,
        shards in 1usize..=3,
        watch_count in 1usize..=6,
    ) {
        let world = scenarios::continuous_world(world_seed);
        let engine = Engine::build(world.clone()).unwrap();
        let mut watched = pool_48s(&engine);
        watched.truncate(watch_count);
        let single = monitor_with(&engine, &watched, shards, 1, 2);
        let engine = Engine::build(world).unwrap();
        let sharded = monitor_with(&engine, &watched, shards, producers, 2);
        prop_assert_eq!(single, sharded);
    }
}

/// The continuous monitor sees the changes and the rotating /48s the batch
/// pipeline's two-snapshot comparison reports when pointed at the same
/// candidates over the same two days: the probes the monitor sent, split at
/// its second window's start, are the two scans the batch comparison diffs.
#[test]
fn continuous_monitor_agrees_with_batch_detection() {
    let world = scenarios::versatel_like(7);
    let engine = Engine::build(world).unwrap();

    // The /48s of every pool, monitored for two daily windows.
    let watched: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect();
    let recorder = RecordingBackend::new(&engine);
    let report = monitor_with(&recorder, &watched, 3, 1, 2);
    assert!(!report.rotating_48s.is_empty());
    // Versatel rotates daily: every watched pool /48 with occupied space
    // must produce events, and all flagged /48s are watched ones.
    for prefix in &report.rotating_48s {
        assert!(watched.contains(prefix));
    }
    assert_eq!(report.windows, 2);
    assert!(report.observations > 0);
    assert!(!report.tracking.devices.is_empty());

    // The batch path over the same probes, window by window.
    let config = MonitorConfig::default();
    let second_window = config.start + config.window_interval;
    let (first, second): (Vec<ProbeRecord>, Vec<ProbeRecord>) = recorder
        .finish()
        .probes
        .into_iter()
        .partition(|probe| probe.sent_at < second_window);
    assert_eq!(first.len(), second.len(), "one probe a target a window");
    let scan = |records| Scan {
        records,
        ..Scan::default()
    };
    let batch = RotationDetection::compare(&scan(first), &scan(second));
    let mut streamed: Vec<ChangedTarget> = report.events_in_window(1).map(|e| e.change).collect();
    streamed.sort_by_key(|change| change.target);
    let mut batched = batch.changes.clone();
    batched.sort_by_key(|change| change.target);
    assert!(!batched.is_empty(), "non-vacuous agreement");
    assert_eq!(streamed, batched);
    assert_eq!(report.rotating_48s, batch.rotating_48s);
}

/// Two /48s of each of the first eight pools of `engine`'s world: a watch
/// list over several announcements, so a sharded monitor's events come
/// from more than one shard.
fn spread_watch(engine: &Engine) -> Vec<Ipv6Prefix> {
    (engine.pools().iter())
        .filter(|pool| pool.config.prefix.len() <= 48)
        .take(8)
        .flat_map(|pool| pool.config.prefix.subnets(48).unwrap().take(2))
        .collect()
}

/// What a monitor report promises whoever reads its events: they are
/// strictly ascending by `(window, seq)` — one shard's as the shard
/// retained them, several shards' merged — and `rotating_48s` is exactly
/// the /48s they flag, however the shards kept them.
fn assert_events_in_order(report: &MonitorReport, at: &str) {
    assert!(!report.events.is_empty(), "{at}: rotation must emit events");
    let key = |e: &RotationEvent| (e.window, e.seq);
    assert!(
        report.events.windows(2).all(|w| key(&w[0]) < key(&w[1])),
        "{at}: events out of order"
    );
    assert_eq!(report.rotating_48s, rotating_48s(&report.events), "{at}");
}

/// The event-order contract across topologies: the monitor on the paper
/// world and on the churn world at shards 1–3 × producers 1–3, with
/// retention compacting the kept events, and the streamed pipeline's
/// rotating /48s — read off its shards' kept sets — equal to the batch
/// pipeline's.
#[test]
fn events_stay_in_order_and_flag_the_rotating_48s_at_every_topology() {
    let paper = Engine::build(scenarios::paper_world(2024, WorldScale::small())).unwrap();
    let paper_watch = spread_watch(&paper);
    let churning = Engine::build(scenarios::churn_world(13)).unwrap();
    let churn_watch = vec![
        churn_world_dense_48(&churning, SimTime::at(10, 9)),
        churning.pools()[1].config.prefix,
    ];
    let churn = WatchChurn {
        refresh_every: 1,
        watch_capacity: 3,
        ..WatchChurn::default()
    };
    let reference = batch(&paper);
    assert!(!reference.rotating_48s.is_empty(), "non-vacuous equality");
    for shards in 1..=3usize {
        for producers in 1..=3usize {
            let at = format!("shards={shards} producers={producers}");
            let report = monitor_with(&paper, &paper_watch, shards, producers, 3);
            assert_events_in_order(&report, &format!("paper world, {at}"));
            let report = monitor_churn(&churning, &churn_watch, shards, producers, 4, churn);
            assert_events_in_order(&report, &format!("churn world, {at}"));
            assert_eq!(streamed(&paper, shards, producers), reference, "{at}");
        }
    }

    // Retention drops the oldest windows' events, and the /48s only they
    // flagged with them: entering the last of five windows compacts
    // everything before window 2.
    let config = MonitorConfig {
        shards: 2,
        windows: 5,
        ..MonitorConfig::default()
    };
    let full = monitor_run(&paper, &paper_watch, config.clone());
    let retained = monitor_run(
        &paper,
        &paper_watch,
        MonitorConfig {
            retention_windows: Some(2),
            ..config
        },
    );
    assert_events_in_order(&retained, "retention");
    let tail: Vec<RotationEvent> = (full.events.iter())
        .filter(|e| e.window >= 2)
        .copied()
        .collect();
    assert!(tail.len() < full.events.len(), "retention dropped events");
    assert_eq!(retained.events, tail);
}

/// The contract holds across a checkpoint: a session suspended at a
/// boundary, encoded, decoded and resumed reports the uninterrupted run's
/// events and rotating /48s, in order — the decoded shards rebuild what
/// they keep beside their events, which the snapshot does not carry.
#[test]
fn events_stay_in_order_across_checkpoint_and_resume() {
    let engine = Engine::build(scenarios::paper_world(2024, WorldScale::small())).unwrap();
    let watched = spread_watch(&engine);
    for shards in 1..=2usize {
        let config = MonitorConfig {
            shards,
            windows: 4,
            checkpoint_every: Some(1),
            ..MonitorConfig::default()
        };
        let mut whole = MonitorSession::new(&engine, config.clone(), watched.clone(), None);
        let mut first = MonitorSession::new(&engine, config.clone(), watched.clone(), None);
        for _ in 0..2 {
            whole.run_epoch(10_000).unwrap();
            first.run_epoch(10_000).unwrap();
        }
        let bytes = first.snapshot().to_bytes();
        let resume = || {
            let snapshot = MonitorSnapshot::from_bytes(&bytes).expect("snapshot parses");
            MonitorSession::new(&engine, config.clone(), watched.clone(), None)
                .resume(snapshot)
                .expect("snapshot resumes")
        };
        // Finished at once, the decoded shards report what the suspended
        // ones would have.
        let (mut suspended, mut decoded) = (first.finish(), resume().finish());
        (suspended.backpressure_stalls, decoded.backpressure_stalls) = (0, 0);
        assert_events_in_order(&decoded, &format!("decoded, shards={shards}"));
        assert_eq!(decoded, suspended, "shards={shards}");
        let mut resumed = resume();
        while !whole.is_done() {
            whole.run_epoch(10_000).unwrap();
            resumed.run_epoch(10_000).unwrap();
        }
        assert!(resumed.is_done());
        let (mut whole, mut resumed) = (whole.finish(), resumed.finish());
        (whole.backpressure_stalls, resumed.backpressure_stalls) = (0, 0);
        assert_events_in_order(&resumed, &format!("resumed, shards={shards}"));
        assert_eq!(resumed, whole, "shards={shards}");
    }
}
