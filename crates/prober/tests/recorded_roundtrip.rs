//! Round-trip property tests for the record/replay backends: recording a
//! deterministic run, replaying it, and re-recording the replay must yield an
//! identical [`ProbeLog`] — including when the probing side is sharded across
//! concurrent producer threads, whose wall-clock capture order the canonical
//! log ordering must erase.

use proptest::prelude::*;

use scent_prober::{
    slice_bounds, ProbeLog, ProbeTransport, RecordedBackend, RecordingBackend, Scanner,
    ScannerConfig, TargetGenerator,
};
use scent_simnet::{scenarios, Engine, SimTime};

/// Record one scan (and a couple of traceroutes) against `backend`.
fn record_run<B: ProbeTransport + scent_prober::WorldView + ?Sized>(
    backend: &B,
    targets: &[std::net::Ipv6Addr],
    scan_seed: u64,
    start: SimTime,
) -> ProbeLog {
    let recorder = RecordingBackend::new(backend);
    let config = ScannerConfig {
        seed: scan_seed,
        ..ScannerConfig::default()
    };
    Scanner::new(config).scan(&recorder, targets, start);
    for target in targets.iter().take(3) {
        recorder.trace(*target, start, 32);
    }
    recorder.finish()
}

/// Record the same probe set from `producers` concurrent threads, each
/// probing its contiguous slice of the paced schedule — the transport-level
/// shape of the streaming engine's sharded producers.
fn record_sharded<B: ProbeTransport + scent_prober::WorldView + ?Sized + Sync>(
    backend: &B,
    targets: &[std::net::Ipv6Addr],
    producers: usize,
    start: SimTime,
) -> ProbeLog {
    let recorder = RecordingBackend::new(backend);
    std::thread::scope(|scope| {
        for k in 0..producers {
            let (lo, hi) = slice_bounds(targets.len(), k, producers);
            let recorder = &recorder;
            scope.spawn(move || {
                for (pos, target) in targets[lo..hi].iter().enumerate() {
                    // The paced schedule of `Scanner` at 10 kpps in list
                    // order: position / rate seconds after start.
                    let at =
                        start + scent_simnet::SimDuration::from_secs((lo + pos) as u64 / 10_000);
                    recorder.probe(*target, at);
                }
            });
        }
    });
    recorder.finish()
}

proptest! {
    // record → replay → re-record is the identity on canonical logs.
    #[test]
    fn replaying_and_rerecording_is_identity(
        world_seed in 1u64..1_000_000,
        scan_seed in any::<u64>(),
        len in 1usize..300,
    ) {
        let engine = Engine::build(scenarios::entel_like(world_seed)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let mut targets = TargetGenerator::new(scan_seed).one_per_subnet(&pool, 60);
        targets.truncate(len);
        let start = SimTime::at(1, 9);

        let first = record_run(&engine, &targets, scan_seed, start);
        prop_assert_eq!(first.len(), targets.len());

        let replay = RecordedBackend::from_log(first.clone());
        let second = record_run(&replay, &targets, scan_seed, start);
        // Re-recording the replay must reproduce the log.
        prop_assert_eq!(&first, &second);

        // And a third generation, to rule out one-shot fixed points.
        let replay = RecordedBackend::from_log(second.clone());
        let third = record_run(&replay, &targets, scan_seed, start);
        prop_assert_eq!(&second, &third);
    }

    // The same identity holds when the recording run probes from concurrent
    // sharded producers: canonical ordering erases thread interleaving.
    #[test]
    fn sharded_producer_recording_is_canonical(
        world_seed in 1u64..1_000_000,
        scan_seed in any::<u64>(),
        len in 1usize..300,
        producers in 2usize..=8,
    ) {
        let engine = Engine::build(scenarios::entel_like(world_seed)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let mut targets = TargetGenerator::new(scan_seed).one_per_subnet(&pool, 60);
        targets.truncate(len);
        let start = SimTime::at(1, 9);

        let single = record_sharded(&engine, &targets, 1, start);
        let sharded = record_sharded(&engine, &targets, producers, start);
        // Canonical order must erase the thread interleaving.
        prop_assert_eq!(&single, &sharded);

        // Replaying the sharded capture and re-recording it — again through
        // sharded producers — still reproduces the log bit for bit.
        let replay = RecordedBackend::from_log(sharded.clone());
        let rerecorded = record_sharded(&replay, &targets, producers, start);
        prop_assert_eq!(&sharded, &rerecorded);
    }
}

/// A duplicate `(target, second)` pair keeps its last-recorded outcome after
/// the canonical sort (the sort is stable), so replay semantics survive the
/// reordering.
#[test]
fn canonical_order_preserves_replay_of_duplicates() {
    let engine = Engine::build(scenarios::entel_like(5)).unwrap();
    let pool = engine.pools()[0].config.prefix;
    let target = TargetGenerator::new(1).random_addr_in(&pool);
    let t = SimTime::at(1, 9);

    let recorder = RecordingBackend::new(&engine);
    let live_first = recorder.probe(target, t);
    let live_second = recorder.probe(target, t);
    assert_eq!(live_first, live_second, "deterministic world, same outcome");
    let log = recorder.finish();
    assert_eq!(log.len(), 2);

    let replay = RecordedBackend::from_log(log);
    let replayed = replay.probe(target, t);
    assert_eq!(
        replayed.map(|r| (r.source, r.kind)),
        live_second.map(|r| (r.source, r.kind))
    );
}
