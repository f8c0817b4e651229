//! The checkpoint/restore acceptance contract: a monitoring run suspended at
//! any epoch boundary and resumed from its snapshot produces a report — and
//! deterministic telemetry — byte-identical to the uninterrupted run, across
//! shard counts, producer counts, churn on/off, feedback on/off, and on both
//! the live simnet backend and the recorded replay backend. Graceful stop is
//! covered too: a raised [`StopSignal`] drains the epoch in flight without
//! deadlock at any `shards × producers` topology.

use followscent::checkpoint::{CheckpointSink, FileCheckpointStore, MemorySink};
use followscent::ipv6::Ipv6Prefix;
use followscent::prober::{
    ProbeTransport, QueueModel, RecordedBackend, RecordingBackend, WorldView,
};
use followscent::simnet::{scenarios, Engine, SimTime};
use followscent::stream::{
    MonitorConfig, MonitorControl, MonitorReport, MonitorSession, MonitorSnapshot, ShardPool,
    StopSignal, StreamMonitor, WatchChurn,
};
use followscent::telemetry::{self, EpochSummary, StreamObserver, Telemetry};
use proptest::prelude::*;

/// A queue model that genuinely throttles the 128 pps feedback runs below.
fn throttling_model() -> QueueModel {
    QueueModel {
        drain_rate: Some(16),
        high_watermark: 64,
        low_watermark: 8,
    }
}

/// The churn world and its watch list: one dense /48 plus a pool prefix.
fn churn_setup() -> (Engine, SimTime, Vec<Ipv6Prefix>) {
    let engine = Engine::build(scenarios::churn_world(17)).expect("world builds");
    let start = SimTime::at(10, 9);
    let watched = vec![
        scenarios::churn_world_dense_48(&engine, start),
        engine.pools()[1].config.prefix,
    ];
    (engine, start, watched)
}

/// One monitor campaign over any backend, parameterized over every dimension
/// the checkpoint contract quantifies over. `stop`/`checkpoint`/`resume`
/// select the suspend/resume role of the run.
#[allow(clippy::too_many_arguments)]
fn run_monitor<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    watched: &[Ipv6Prefix],
    start: SimTime,
    churn: bool,
    feedback: bool,
    shards: usize,
    producers: usize,
    stop: Option<StopSignal>,
    checkpoint: Option<&std::path::Path>,
    resume: Option<&std::path::Path>,
) -> MonitorReport {
    let config = MonitorConfig {
        shards,
        producers,
        packets_per_second: 128,
        windows: 4,
        start,
        checkpoint_every: Some(2),
        churn: churn.then(|| WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        }),
        queue_model: if feedback {
            throttling_model()
        } else {
            QueueModel::default()
        },
        ..MonitorConfig::default()
    };
    let resume = resume.map(|path| {
        let bytes = FileCheckpointStore::new(path)
            .load()
            .expect("the suspended run left a snapshot");
        MonitorSnapshot::from_bytes(&bytes).expect("snapshot parses")
    });
    let mut store = checkpoint.map(FileCheckpointStore::new);
    let control = MonitorControl {
        observer: None,
        sink: store.as_mut().map(|store| store as &mut dyn CheckpointSink),
        resume,
        stop,
    };
    let mut report = StreamMonitor::new(config)
        .run_controlled(world, watched, control)
        .expect("valid monitor configuration");
    // Stall counts are wall-clock scheduling, not inference state.
    report.backpressure_stalls = 0;
    report
}

/// A temp checkpoint path unique to this test and process.
fn temp_ckpt(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("scent-test-{tag}-{}.ckpt", std::process::id()))
}

/// The headline matrix: suspend at the first epoch boundary, resume, and the
/// report is byte-identical to the uninterrupted run — for churn on/off,
/// feedback on/off, and producers {1, 2, 4, 8}. The uninterrupted reference
/// is the single-producer run, so the assertion folds producer invariance
/// and resume fidelity into one equality.
#[test]
fn suspended_and_resumed_runs_are_byte_identical_across_the_matrix() {
    let (engine, start, watched) = churn_setup();
    for (churn, feedback) in [(false, false), (false, true), (true, false), (true, true)] {
        let reference = run_monitor(
            &engine, &watched, start, churn, feedback, 2, 1, None, None, None,
        );
        assert!(
            !reference.events.is_empty(),
            "rotation must emit events, or the equalities below are vacuous"
        );
        for producers in [1usize, 2, 4, 8] {
            let path = temp_ckpt(&format!("matrix-{churn}-{feedback}-{producers}"));
            let stop = StopSignal::new();
            stop.request_stop();
            let half = run_monitor(
                &engine,
                &watched,
                start,
                churn,
                feedback,
                2,
                producers,
                Some(stop),
                Some(&path),
                None,
            );
            assert!(
                half.windows < reference.windows,
                "the stop must actually suspend the run mid-way"
            );
            let resumed = run_monitor(
                &engine,
                &watched,
                start,
                churn,
                feedback,
                2,
                producers,
                None,
                None,
                Some(&path),
            );
            std::fs::remove_file(&path).ok();
            assert_eq!(
                resumed, reference,
                "churn={churn} feedback={feedback} producers={producers}"
            );
        }
    }
}

/// Resume fidelity on the recorded backend: a replayed run can be suspended
/// and resumed too, and a snapshot captured against the *live* simnet resumes
/// against the replay (the world fingerprint covers the RIB, which the
/// recorder replays faithfully).
#[test]
fn resume_works_on_and_across_the_recorded_backend() {
    let (engine, start, watched) = churn_setup();
    let recorder = RecordingBackend::new(&engine);
    let reference = run_monitor(
        &recorder, &watched, start, true, false, 2, 2, None, None, None,
    );
    let replay = RecordedBackend::from_log(recorder.finish());
    assert!(!reference.events.is_empty(), "rotation must emit events");

    // Suspend + resume entirely on the replay backend.
    let path = temp_ckpt("replay");
    let stop = StopSignal::new();
    stop.request_stop();
    run_monitor(
        &replay,
        &watched,
        start,
        true,
        false,
        2,
        2,
        Some(stop),
        Some(&path),
        None,
    );
    let resumed = run_monitor(
        &replay,
        &watched,
        start,
        true,
        false,
        2,
        2,
        None,
        None,
        Some(&path),
    );
    assert_eq!(resumed, reference, "replayed suspend/resume");

    // Suspend live, resume against the replay of the full run.
    let stop = StopSignal::new();
    stop.request_stop();
    run_monitor(
        &engine,
        &watched,
        start,
        true,
        false,
        2,
        2,
        Some(stop),
        Some(&path),
        None,
    );
    let resumed = run_monitor(
        &replay,
        &watched,
        start,
        true,
        false,
        2,
        2,
        None,
        None,
        Some(&path),
    );
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed, reference, "live snapshot, replayed resume");
}

/// The stream-layer contract, quantified over *every* epoch boundary: a full
/// run checkpointing every window leaves one snapshot per boundary; resuming
/// from each of them reproduces the full run's report *and* its
/// deterministic telemetry (counters, per-window aggregates, event journal)
/// byte for byte, and the per-shard ingest counts of a run whose every /48
/// is watched, so both shards ingest.
#[test]
fn resume_from_every_epoch_boundary_matches_report_and_telemetry() {
    let engine = Engine::build(scenarios::continuous_world(13)).expect("world builds");
    let watched: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect();
    let config = MonitorConfig {
        shards: 2,
        producers: 2,
        seed: 0x57ae,
        granularity: 56,
        windows: 4,
        start: SimTime::at(10, 9),
        checkpoint_every: Some(1),
        ..MonitorConfig::default()
    };

    let full_registry = Telemetry::new();
    let mut sink = MemorySink::new();
    let mut full = StreamMonitor::new(config.clone())
        .run_controlled(
            &engine,
            &watched,
            MonitorControl {
                observer: Some(&full_registry),
                sink: Some(&mut sink),
                ..MonitorControl::default()
            },
        )
        .expect("sink writes cannot fail in memory");
    full.backpressure_stalls = 0;
    assert!(!full.events.is_empty(), "rotation must emit events");
    let full_snapshot = full_registry.snapshot();
    let full_text = telemetry::deterministic_text(&full_snapshot.deterministic);
    let full_journal = telemetry::events_jsonl(&full_snapshot.deterministic.events);
    let full_ingested = full_snapshot.topology.ingested_per_shard;
    assert!(
        full_ingested.len() == 2 && !full_ingested.contains(&0),
        "both shards ingest: {full_ingested:?}"
    );
    assert_eq!(
        sink.all().len(),
        4,
        "one snapshot per epoch boundary at cadence 1"
    );

    for (boundary, bytes) in sink.all() {
        let snapshot = MonitorSnapshot::from_bytes(bytes).expect("snapshot parses");
        let registry = Telemetry::new();
        let mut resumed = StreamMonitor::new(config.clone())
            .run_controlled(
                &engine,
                &watched,
                MonitorControl {
                    observer: Some(&registry),
                    resume: Some(snapshot),
                    ..MonitorControl::default()
                },
            )
            .expect("a fingerprint-matched snapshot resumes");
        resumed.backpressure_stalls = 0;
        assert_eq!(resumed, full, "resumed from boundary {boundary}");
        let snapshot = registry.snapshot();
        assert_eq!(
            telemetry::deterministic_text(&snapshot.deterministic),
            full_text,
            "deterministic telemetry resumed from boundary {boundary}"
        );
        assert_eq!(
            telemetry::events_jsonl(&snapshot.deterministic.events),
            full_journal,
            "telemetry event journal resumed from boundary {boundary}"
        );
        assert_eq!(
            snapshot.topology.ingested_per_shard, full_ingested,
            "per-shard ingest counts resumed from boundary {boundary}"
        );
    }
}

/// A run that ends early — its watch list exhausted at the first boundary of
/// six, feedback on, two producers — stores its last snapshot at that
/// boundary, and resuming from it yields the uninterrupted run's report:
/// nothing is left to probe, so every field, the throttled `final_rate`
/// included, is what the snapshot carried.
#[test]
fn exhaustion_boundary_snapshot_resumes_to_the_same_report() {
    let engine = Engine::build(scenarios::continuous_world(13)).expect("world builds");
    // A /48 no simulated provider announces pool space in.
    let watched: Vec<Ipv6Prefix> = vec!["3fff:aaaa::/48".parse().unwrap()];
    let monitor = StreamMonitor::new(MonitorConfig {
        shards: 2,
        producers: 2,
        seed: 0x57ae,
        packets_per_second: 128,
        granularity: 56,
        windows: 6,
        start: SimTime::at(10, 9),
        queue_model: throttling_model(),
        churn: Some(WatchChurn {
            refresh_every: 1,
            ..WatchChurn::default()
        }),
        ..MonitorConfig::default()
    });
    let mut sink = MemorySink::new();
    let mut full = monitor
        .run_controlled(
            &engine,
            &watched,
            MonitorControl {
                sink: Some(&mut sink),
                ..MonitorControl::default()
            },
        )
        .expect("sink writes cannot fail in memory");
    full.backpressure_stalls = 0;
    assert_eq!(full.exhausted_at, Some(1), "drained mid-run");
    assert!(full.final_rate < 128, "the one window ends throttled");

    let (boundary, bytes) = sink.latest().expect("the run's end is always stored");
    assert_eq!(
        *boundary, 1,
        "the exhaustion boundary is the last one stored"
    );
    let snapshot = MonitorSnapshot::from_bytes(bytes).expect("snapshot parses");
    let mut resumed = monitor
        .run_controlled(
            &engine,
            &watched,
            MonitorControl {
                resume: Some(snapshot),
                ..MonitorControl::default()
            },
        )
        .expect("a fingerprint-matched snapshot resumes");
    resumed.backpressure_stalls = 0;
    assert_eq!(resumed, full);
}

/// Graceful stop without a checkpoint in sight: a stop raised up front halts
/// at the first epoch boundary (draining every in-flight observation, no
/// deadlock) for every `shards × producers` in {1, 2, 4}².
#[test]
fn graceful_stop_drains_at_any_topology() {
    let (engine, start, watched) = churn_setup();
    for shards in [1usize, 2, 4] {
        for producers in [1usize, 2, 4] {
            let stop = StopSignal::new();
            stop.request_stop();
            let report = run_monitor(
                &engine,
                &watched,
                start,
                false,
                false,
                shards,
                producers,
                Some(stop),
                None,
                None,
            );
            assert_eq!(
                report.windows, 2,
                "stop lands on the first boundary, shards={shards} producers={producers}"
            );
            assert!(report.observations > 0, "the suspended epoch drained");
        }
    }
}

/// A stop raised *mid-run* from another thread, with a sink attached: the
/// monitor halts at whatever boundary comes next, force-writes a snapshot
/// there, and resuming from it still reproduces the uninterrupted report —
/// whatever the race decided the halt point was.
#[test]
fn asynchronous_stop_leaves_a_resumable_snapshot() {
    let (engine, start, watched) = churn_setup();
    let reference = run_monitor(
        &engine, &watched, start, false, false, 2, 2, None, None, None,
    );
    let path = temp_ckpt("async-stop");
    let stop = StopSignal::new();
    let raiser = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            stop.request_stop();
        })
    };
    let half = run_monitor(
        &engine,
        &watched,
        start,
        false,
        false,
        2,
        2,
        Some(stop),
        Some(&path),
        None,
    );
    raiser.join().expect("stop raiser joins");
    assert!(half.windows <= reference.windows);
    let resumed = run_monitor(
        &engine,
        &watched,
        start,
        false,
        false,
        2,
        2,
        None,
        None,
        Some(&path),
    );
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed, reference, "halted after {} windows", half.windows);
}

/// Raises its stop signal when the revision closing `epoch` is observed —
/// inside a run, at a point fixed by the run itself.
struct StopAfter {
    stop: StopSignal,
    epoch: u64,
}

impl StreamObserver for StopAfter {
    fn on_epoch_close(&self, summary: &EpochSummary<'_>) {
        if summary.epoch == self.epoch {
            self.stop.request_stop();
        }
    }
}

/// Checkpointing is a session stage: a session opened with a sink and driven
/// epoch by epoch on a lent pool writes the same `(epoch, bytes)` list as
/// `run_controlled`, on a churned run checkpointing every two windows whose
/// stop is raised mid-run — one snapshot on the cadence, one at the stop
/// boundary off it.
#[test]
fn the_checkpoint_stage_writes_what_run_controlled_writes() {
    let (engine, start, watched) = churn_setup();
    let config = MonitorConfig {
        shards: 2,
        producers: 2,
        packets_per_second: 128,
        windows: 6,
        start,
        checkpoint_every: Some(2),
        churn: Some(WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        }),
        ..MonitorConfig::default()
    };

    // Raised while epoch 1 closes, the stop is seen by epoch 2.
    let stop = StopSignal::new();
    let raiser = StopAfter {
        stop: stop.clone(),
        epoch: 1,
    };
    let mut controlled = MemorySink::new();
    let report = StreamMonitor::new(config.clone())
        .run_controlled(
            &engine,
            &watched,
            MonitorControl {
                observer: Some(&raiser),
                sink: Some(&mut controlled),
                stop: Some(stop),
                ..MonitorControl::default()
            },
        )
        .expect("valid monitor configuration");
    assert_eq!(report.windows, 3, "stopped at the third boundary");

    let stop = StopSignal::new();
    let mut staged = MemorySink::new();
    let control = MonitorControl {
        sink: Some(&mut staged),
        stop: Some(stop.clone()),
        ..MonitorControl::default()
    };
    let mut session = MonitorSession::open(&engine, config.clone(), watched, control)
        .expect("valid monitor configuration");
    let mut pool = ShardPool::open(config.shards);
    while !session.is_done() {
        session.run_epoch_on(&mut pool, 128).unwrap();
        if session.next_epoch() == 2 {
            stop.request_stop();
        }
    }
    drop(pool);
    assert_eq!(session.finish().windows, 3);

    let keys: Vec<u64> = controlled.all().iter().map(|&(epoch, _)| epoch).collect();
    assert_eq!(keys, [2, 3], "the cadence boundary, then the stop boundary");
    assert_eq!(staged.all(), controlled.all());
}

proptest! {
    // The randomized kill: over random worlds, topologies and kill points,
    // resuming the snapshot a killed run left at a random epoch boundary
    // always reproduces the uninterrupted report. The full run's sink keeps
    // every boundary snapshot, so "killed after `kill` epochs" is exactly
    // "resume from the sink's `kill`-th snapshot".
    #[test]
    fn killed_at_a_random_epoch_and_resumed_equals_uninterrupted(
        world_seed in 1u64..100_000,
        kill in 1u64..4,
        shards in 1usize..=3,
        producers in 1usize..=4,
    ) {
        let engine = Engine::build(scenarios::continuous_world(world_seed)).unwrap();
        let watched: Vec<Ipv6Prefix> = engine
            .pools()
            .iter()
            .filter(|p| p.config.prefix.len() <= 48)
            .flat_map(|p| p.config.prefix.subnets(48).unwrap())
            .take(2)
            .collect();
        let config = MonitorConfig {
            shards,
            producers,
            seed: 0x57ae,
            granularity: 56,
            windows: 4,
            start: SimTime::at(10, 9),
            checkpoint_every: Some(1),
            ..MonitorConfig::default()
        };
        let mut sink = MemorySink::new();
        let mut full = StreamMonitor::new(config.clone())
            .run_controlled(&engine, &watched, MonitorControl {
                sink: Some(&mut sink),
                ..MonitorControl::default()
            })
            .unwrap();
        full.backpressure_stalls = 0;
        let bytes = sink.at_epoch(kill).expect("a snapshot at every boundary");
        let snapshot = MonitorSnapshot::from_bytes(bytes).unwrap();
        let mut resumed = StreamMonitor::new(config)
            .run_controlled(&engine, &watched, MonitorControl {
                resume: Some(snapshot),
                ..MonitorControl::default()
            })
            .unwrap();
        resumed.backpressure_stalls = 0;
        prop_assert_eq!(resumed, full);
    }
}
