//! Error-path coverage: every variant of the workspace error hierarchy —
//! [`ScentError`], [`ConfigError`], [`WorldError`], [`PoolError`],
//! [`RibParseError`] — is constructible from a *public entry point*
//! (`Engine::build`, config `validate`, `Rib::from_table_text`, the
//! streaming runs and the scheduler), and every error renders a non-empty
//! `Display` chain through [`std::error::Error::source`].

use std::error::Error;

use followscent::bgp::{Rib, RibParseError, RibParseErrorKind};
use followscent::checkpoint::{
    decode_snapshot, encode_snapshot, CheckpointError, FileCheckpointStore, FORMAT_VERSION,
};
use followscent::core::PipelineConfig;
use followscent::discovery::DiscoveryConfig;
use followscent::ipv6::Ipv6Prefix;
use followscent::prober::{ProbeTransport, QueueModel, RecordingBackend, WorldView};
use followscent::sched::{self, SchedError};
use followscent::simnet::{
    scenarios, Engine, PlantedCpe, PoolError, ProviderConfig, RotationPoolConfig, SlotLayout,
    WorldConfig, WorldError,
};
use followscent::stream::{
    ConfigError, MonitorConfig, MonitorControl, MonitorReport, MonitorSession, MonitorSnapshot,
    ShardPool, StopSignal, StreamConfig, StreamError, StreamMonitor, StreamPipeline, WatchChurn,
};
use followscent::telemetry::{self, Telemetry};
use followscent::{ScentError, Scheduler};

fn p(s: &str) -> Ipv6Prefix {
    s.parse().unwrap()
}

/// A world expected to fail paired with the variant check it must trip.
type WorldCase = (WorldConfig, fn(&WorldError) -> bool);

/// A pool config expected to fail paired with its variant check.
type PoolCase = (RotationPoolConfig, fn(&PoolError) -> bool);

fn pool(prefix: &str, allocation_len: u8) -> RotationPoolConfig {
    RotationPoolConfig {
        prefix: p(prefix),
        allocation_len,
        occupancy: 0.5,
        layout: SlotLayout::Contiguous,
        rotation: followscent::simnet::RotationPolicy::Static,
    }
}

fn provider(asn: u32) -> ProviderConfig {
    ProviderConfig::new(
        asn,
        "Test",
        "DE",
        vec![p("2001:db8::/32")],
        vec![pool("2001:db8:100::/46", 56)],
    )
}

/// Walk the `source` chain, asserting every level renders something.
fn assert_chain(err: &(dyn Error + 'static), min_depth: usize) {
    let mut depth = 0;
    let mut cursor: Option<&(dyn Error + 'static)> = Some(err);
    while let Some(e) = cursor {
        assert!(
            !e.to_string().trim().is_empty(),
            "level {depth} of the chain renders an empty Display"
        );
        depth += 1;
        cursor = e.source();
    }
    assert!(
        depth >= min_depth,
        "expected a chain of at least {min_depth} errors, got {depth}"
    );
}

/// Build a world expected to fail, returning the typed error via the
/// umbrella's `ScentError` conversion (the same path `Engine::build(..)?`
/// takes in a `fn main() -> Result<(), ScentError>`).
fn build_err(config: WorldConfig) -> (WorldError, ScentError) {
    let world = Engine::build(config).expect_err("world must be rejected");
    (world.clone(), ScentError::from(world))
}

#[test]
fn every_world_error_variant_is_reachable_and_renders() {
    let cases: Vec<WorldCase> = vec![
        (WorldConfig::new(vec![], 1), |e| {
            matches!(e, WorldError::NoProviders)
        }),
        (
            WorldConfig::new(vec![provider(64500), provider(64500)], 1),
            |e| matches!(e, WorldError::DuplicateAsn),
        ),
        (
            {
                let mut config = WorldConfig::new(vec![provider(64500)], 1);
                config.churn_fraction = 1.5;
                config
            },
            |e| matches!(e, WorldError::ChurnOutOfRange { .. }),
        ),
        (
            WorldConfig::new(
                vec![{
                    let mut bad = provider(64500);
                    bad.announced.clear();
                    bad
                }],
                1,
            ),
            |e| matches!(e, WorldError::NoAnnouncedPrefixes { .. }),
        ),
        (
            WorldConfig::new(
                vec![{
                    let mut bad = provider(64500);
                    bad.pools = vec![pool("2001:db8:100::/48", 40)];
                    bad
                }],
                1,
            ),
            |e| {
                matches!(
                    e,
                    WorldError::Pool {
                        error: PoolError::AllocationShorterThanPool { .. },
                        ..
                    }
                )
            },
        ),
        (
            WorldConfig::new(
                vec![{
                    let mut bad = provider(64500);
                    bad.pools = vec![pool("2001:db8:100::/48", 72)];
                    bad
                }],
                1,
            ),
            |e| {
                matches!(
                    e,
                    WorldError::Pool {
                        error: PoolError::AllocationTooLong { .. },
                        ..
                    }
                )
            },
        ),
        (
            WorldConfig::new(
                vec![{
                    let mut bad = provider(64500);
                    bad.announced = vec![p("2001:db8::/20")];
                    bad.pools = vec![pool("2001:db8::/20", 64)];
                    bad
                }],
                1,
            ),
            |e| {
                matches!(
                    e,
                    WorldError::Pool {
                        error: PoolError::TooManySlots { .. },
                        ..
                    }
                )
            },
        ),
        (
            WorldConfig::new(
                vec![{
                    let mut bad = provider(64500);
                    bad.pools[0].occupancy = 1.5;
                    bad
                }],
                1,
            ),
            |e| {
                matches!(
                    e,
                    WorldError::Pool {
                        error: PoolError::OccupancyOutOfRange { .. },
                        ..
                    }
                )
            },
        ),
        (
            WorldConfig::new(
                vec![{
                    let mut bad = provider(64500);
                    bad.pools = vec![pool("2001:db9:100::/46", 56)];
                    bad
                }],
                1,
            ),
            |e| matches!(e, WorldError::PoolNotCovered { .. }),
        ),
        (
            WorldConfig::new(
                vec![provider(64500).with_planted(PlantedCpe::always(
                    3,
                    "c8:0e:14:01:02:03".parse().unwrap(),
                    0,
                ))],
                1,
            ),
            |e| matches!(e, WorldError::PlantedPoolMissing { .. }),
        ),
        (
            WorldConfig::new(
                vec![provider(64500).with_planted(PlantedCpe::always(
                    0,
                    "c8:0e:14:01:02:03".parse().unwrap(),
                    5_000, // the /46 pool of /56 allocations has 1024 slots
                ))],
                1,
            ),
            |e| matches!(e, WorldError::PlantedSlotOutOfRange { .. }),
        ),
        (
            WorldConfig::new(vec![provider(64500).with_vendor_mix(vec![(999, 1.0)])], 1),
            |e| matches!(e, WorldError::VendorIndexOutOfRange { .. }),
        ),
        (
            WorldConfig::new(vec![provider(64500).with_eui64_fraction(1.5)], 1),
            |e| matches!(e, WorldError::ProbabilityOutOfRange { .. }),
        ),
        (
            WorldConfig::new(
                vec![{
                    let mut bad = provider(64500);
                    bad.pools = vec![pool("2001:db8:100::/46", 56), pool("2001:db8:100::/46", 56)];
                    bad
                }],
                1,
            ),
            |e| matches!(e, WorldError::DuplicatePoolPrefix { .. }),
        ),
    ];

    for (config, expected) in cases {
        let (world, scent) = build_err(config);
        assert!(expected(&world), "unexpected variant: {world:?}");
        // The umbrella error prefixes context and exposes the member error
        // as its source; a Pool variant chains one level deeper.
        let min_depth = if matches!(world, WorldError::Pool { .. }) {
            3
        } else {
            2
        };
        assert_chain(&scent, min_depth);
        assert!(scent.to_string().contains("world configuration"));
    }
}

#[test]
fn every_pool_error_variant_is_reachable_from_validate() {
    let cases: Vec<PoolCase> = vec![
        (pool("2001:db8:100::/48", 40), |e| {
            matches!(e, PoolError::AllocationShorterThanPool { .. })
        }),
        (pool("2001:db8:100::/48", 72), |e| {
            matches!(e, PoolError::AllocationTooLong { .. })
        }),
        (pool("2001:db8::/20", 64), |e| {
            matches!(e, PoolError::TooManySlots { .. })
        }),
        (
            {
                let mut bad = pool("2001:db8:100::/46", 56);
                bad.occupancy = -0.25;
                bad
            },
            |e| matches!(e, PoolError::OccupancyOutOfRange { .. }),
        ),
    ];
    for (config, expected) in cases {
        let err = config.validate().expect_err("pool must be rejected");
        assert!(expected(&err), "unexpected variant: {err:?}");
        assert_chain(&err, 1);
    }
}

#[test]
fn every_rib_parse_error_variant_is_reachable_and_carries_its_line() {
    let bad_prefix = Rib::from_table_text("# comment\nnot-a-prefix 64500\n")
        .expect_err("bad prefix must be rejected");
    assert_eq!(
        bad_prefix,
        RibParseError {
            line: 2,
            kind: RibParseErrorKind::BadPrefix
        }
    );
    assert_chain(&bad_prefix, 1);
    assert!(bad_prefix.to_string().contains("line 2"));

    let bad_asn = Rib::from_table_text("2001:db8::/32 64500\n2001:db8::/32 not-an-asn\n")
        .expect_err("bad ASN must be rejected");
    assert_eq!(
        bad_asn,
        RibParseError {
            line: 2,
            kind: RibParseErrorKind::BadAsn
        }
    );
    assert_chain(&ScentError::from(bad_asn), 2);
}

/// A configuration handed to the run that meets it.
enum Run {
    /// A streamed discovery pipeline.
    Stream(StreamConfig),
    /// A monitor over a watch list.
    Monitor(Box<MonitorConfig>, Vec<Ipv6Prefix>),
}

/// Run `run` observed by `registry`, expecting it refused.
fn refuse<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    run: Run,
    registry: &Telemetry,
) -> StreamError {
    match run {
        Run::Stream(config) => StreamPipeline::new(config)
            .run_observed(world, Some(registry))
            .expect_err("a broken pipeline configuration is refused"),
        Run::Monitor(config, watched) => StreamMonitor::new(*config)
            .run_controlled(
                world,
                &watched,
                MonitorControl {
                    observer: Some(registry),
                    ..MonitorControl::default()
                },
            )
            .expect_err("a broken monitor configuration is refused"),
    }
}

/// Every configuration rule is refused as [`StreamError::Config`] by the run
/// that meets it, before anything starts: every broken configuration runs
/// over one recorder whose log must stay empty, observed by a registry whose
/// deterministic and topology tiers must equal an untouched registry's. The
/// scheduler refuses the rules a tenant carries the same way.
#[test]
fn every_config_error_is_refused_before_anything_probes() {
    use ConfigError::*;
    let engine = Engine::build(scenarios::versatel_like(1)).unwrap();
    let recorder = RecordingBackend::new(&engine);
    let watched = vec![p("2001:16b8:100::/48")];
    let stream = StreamConfig::default();
    let monitor = MonitorConfig {
        windows: 2,
        ..MonitorConfig::default()
    };
    let on = |config: MonitorConfig| Run::Monitor(Box::new(config), watched.clone());
    let churning = |churn: WatchChurn| MonitorConfig {
        churn: Some(churn),
        ..monitor.clone()
    };
    let discovering = |discovery: DiscoveryConfig| MonitorConfig {
        discovery: Some(discovery),
        ..churning(WatchChurn::default())
    };
    let inverted = |drain_rate| QueueModel {
        drain_rate,
        high_watermark: 4,
        low_watermark: 4,
    };
    let cases = vec![
        (
            Run::Stream(StreamConfig {
                shards: 0,
                ..stream.clone()
            }),
            NoShards,
        ),
        (
            Run::Stream(StreamConfig {
                producers: 0,
                ..stream.clone()
            }),
            NoProducers,
        ),
        (
            Run::Stream(StreamConfig {
                pipeline: PipelineConfig {
                    packets_per_second: 0,
                    ..PipelineConfig::default()
                },
                ..stream.clone()
            }),
            ZeroRate,
        ),
        // Inverted watermarks are refused whether or not the model can
        // throttle: an unbounded one is never run, but never carried either.
        (
            Run::Stream(StreamConfig {
                queue_model: inverted(Some(8)),
                ..stream.clone()
            }),
            InvalidQueueModel,
        ),
        (
            on(MonitorConfig {
                producers: 4,
                queue_model: inverted(None),
                ..monitor.clone()
            }),
            InvalidQueueModel,
        ),
        (
            on(MonitorConfig {
                packets_per_second: 0,
                ..monitor.clone()
            }),
            ZeroRate,
        ),
        // Finer than /64 the target lists blow up (2^(g - 48) targets a
        // /48), and past /128 they are no prefixes at all.
        (
            Run::Stream(StreamConfig {
                pipeline: PipelineConfig {
                    detection_granularity: 65,
                    ..PipelineConfig::default()
                },
                ..stream.clone()
            }),
            GranularityTooFine,
        ),
        (
            on(MonitorConfig {
                granularity: 65,
                ..monitor.clone()
            }),
            GranularityTooFine,
        ),
        (
            Run::Stream(StreamConfig {
                pipeline: PipelineConfig {
                    detection_granularity: 129,
                    ..PipelineConfig::default()
                },
                ..stream.clone()
            }),
            GranularityTooFine,
        ),
        (
            on(MonitorConfig {
                granularity: 129,
                ..monitor.clone()
            }),
            GranularityTooFine,
        ),
        (
            on(MonitorConfig {
                windows: 0,
                ..monitor.clone()
            }),
            NoWindows,
        ),
        (
            on(churning(WatchChurn {
                refresh_every: 0,
                ..WatchChurn::default()
            })),
            ZeroRefreshCadence,
        ),
        (
            on(churning(WatchChurn {
                watch_capacity: 0,
                ..WatchChurn::default()
            })),
            ZeroWatchCapacity,
        ),
        (
            on(churning(WatchChurn {
                expansion_len: 52, // longer than a /48: cannot enclose one
                ..WatchChurn::default()
            })),
            ExpansionBlockTooLong,
        ),
        (
            on(churning(WatchChurn {
                max_48s_per_seed: 0, // expansion could never admit anything
                ..WatchChurn::default()
            })),
            ZeroExpansionBudget,
        ),
        (
            on(MonitorConfig {
                checkpoint_every: Some(0),
                ..monitor.clone()
            }),
            ZeroCheckpointCadence,
        ),
        (
            on(MonitorConfig {
                checkpoint_every: Some(3),
                ..churning(WatchChurn {
                    refresh_every: 2,
                    ..WatchChurn::default()
                })
            }),
            MisalignedCheckpointCadence,
        ),
        // Without churn the tree's candidates would have no way into the
        // watch list.
        (
            on(MonitorConfig {
                discovery: Some(DiscoveryConfig::paper_scale()),
                ..monitor.clone()
            }),
            DiscoveryRequiresChurn,
        ),
        (
            on(discovering(DiscoveryConfig {
                probe_budget: 0,
                ..DiscoveryConfig::paper_scale()
            })),
            ZeroDiscoveryBudget,
        ),
        (
            on(discovering(DiscoveryConfig {
                rounds: 0,
                ..DiscoveryConfig::paper_scale()
            })),
            ZeroDiscoveryRounds,
        ),
        // Only discovery could ever fill an empty watch list.
        (
            Run::Monitor(Box::new(monitor.clone()), Vec::new()),
            EmptyWatchList,
        ),
    ];
    // The table names every rule: a rule added without a case stops this
    // match compiling.
    let slot = |rule: &ConfigError| match rule {
        NoShards => 0,
        NoProducers => 1,
        ZeroRate => 2,
        InvalidQueueModel => 3,
        NoWindows => 4,
        ZeroRefreshCadence => 5,
        ZeroWatchCapacity => 6,
        ExpansionBlockTooLong => 7,
        ZeroExpansionBudget => 8,
        ZeroCheckpointCadence => 9,
        MisalignedCheckpointCadence => 10,
        DiscoveryRequiresChurn => 11,
        ZeroDiscoveryBudget => 12,
        ZeroDiscoveryRounds => 13,
        EmptyWatchList => 14,
        GranularityTooFine => 15,
    };
    let mut covered = [false; 16];
    for (_, rule) in &cases {
        covered[slot(rule)] = true;
    }
    assert!(covered.iter().all(|&c| c), "every rule has a case");

    let tiers = |registry: &Telemetry| {
        let snapshot = registry.snapshot();
        let mut tiers = telemetry::deterministic_text(&snapshot.deterministic);
        tiers.push_str(&telemetry::events_jsonl(&snapshot.deterministic.events));
        tiers.push_str(&telemetry::topology_text(&snapshot.topology));
        tiers
    };
    let untouched = tiers(&Telemetry::new());
    for (run, rule) in cases {
        let registry = Telemetry::new();
        let err = refuse(&recorder, run, &registry);
        assert_eq!(err, StreamError::Config(rule));
        assert_chain(&err, 2);
        let err = ScentError::from(err);
        assert_eq!(err, ScentError::Config(rule));
        assert_chain(&err, 2);
        assert!(err.to_string().contains("configuration"));
        assert_eq!(tiers(&registry), untouched, "{rule:?}: no hook fired");
    }
    let log = recorder.finish();
    assert!(
        log.probes.is_empty() && log.traces.is_empty(),
        "no refused run probed"
    );

    // A scheduled tenant carries the monitor's rules, the empty-list one
    // included: refused before any tenant probes.
    for (config, list, rule) in [
        (
            MonitorConfig {
                windows: 0,
                ..monitor.clone()
            },
            watched.clone(),
            NoWindows,
        ),
        (
            MonitorConfig {
                packets_per_second: 0,
                ..monitor.clone()
            },
            watched.clone(),
            ZeroRate,
        ),
        (monitor.clone(), Vec::new(), EmptyWatchList),
    ] {
        let err = Scheduler::builder()
            .add(sched::Campaign::new(&engine, config, list), 1)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SchedError::InvalidConfig {
                tenant: 0,
                error: rule
            }
        );
    }
}

/// A session driven at a zero rate by an external scheduler refuses the
/// epoch as [`ConfigError::ZeroRate`] before leasing the pool — through
/// `run_epoch_on` and `run_epoch` alike — and is left untouched: finished
/// at the configured rate, it reports exactly what [`StreamMonitor::run`]
/// does.
#[test]
fn a_zero_rate_epoch_is_refused_and_leaves_the_session_intact() {
    let engine = Engine::build(scenarios::versatel_like(1)).unwrap();
    let config = MonitorConfig {
        windows: 3,
        checkpoint_every: Some(1),
        ..MonitorConfig::default()
    };
    let watched = vec![p("2001:16b8:100::/48")];
    let mut pool = ShardPool::open(config.shards);
    let mut session = MonitorSession::new(&engine, config.clone(), watched.clone(), None);
    let refused = StreamError::Config(ConfigError::ZeroRate);
    for epoch in 0..2 {
        assert_eq!(session.run_epoch_on(&mut pool, 0), Err(refused.clone()));
        assert_eq!(session.run_epoch(0), Err(refused.clone()));
        assert!(!session.is_done());
        assert_eq!(session.next_epoch(), epoch);
        session
            .run_epoch_on(&mut pool, config.packets_per_second)
            .expect("the session goes on at its configured rate");
    }
    while !session.is_done() {
        session
            .run_epoch_on(&mut pool, config.packets_per_second)
            .unwrap();
    }
    let solo = StreamMonitor::new(config).run(&engine, &watched).unwrap();
    assert_eq!(session.finish(), solo);
}

/// The one /48 the checkpoint tests watch.
fn checkpoint_watch() -> Vec<Ipv6Prefix> {
    vec![p("2001:16b8:100::/48")]
}

/// A monitor shaped like the checkpoint tests use it: one shard, two
/// windows, checkpointing every window.
fn checkpoint_monitor(producers: usize) -> StreamMonitor {
    StreamMonitor::new(MonitorConfig {
        shards: 1,
        producers,
        windows: 2,
        checkpoint_every: Some(1),
        ..MonitorConfig::default()
    })
}

/// Write a genuine snapshot file by suspending a monitor run at its first
/// epoch boundary.
fn write_snapshot(engine: &Engine, path: &std::path::Path) {
    let stop = StopSignal::new();
    stop.request_stop();
    let mut store = FileCheckpointStore::new(path);
    let control = MonitorControl {
        sink: Some(&mut store),
        stop: Some(stop),
        ..MonitorControl::default()
    };
    checkpoint_monitor(1)
        .run_controlled(engine, &checkpoint_watch(), control)
        .expect("the suspended run itself succeeds");
}

/// Resume the checkpoint monitor from the snapshot file at `path` the way a
/// restarted process would: load, parse, run.
fn resume_from(
    engine: &Engine,
    producers: usize,
    path: &std::path::Path,
) -> Result<MonitorReport, ScentError> {
    let snapshot = MonitorSnapshot::from_bytes(&FileCheckpointStore::new(path).load()?)?;
    let control = MonitorControl {
        resume: Some(snapshot),
        ..MonitorControl::default()
    };
    Ok(checkpoint_monitor(producers).run_controlled(engine, &checkpoint_watch(), control)?)
}

/// Corrupt snapshots yield the matching typed [`CheckpointError`] — never a
/// panic: truncation, junk magic, a bumped version byte, single bit flips at
/// every offset, and structurally hostile but well-framed containers.
#[test]
fn corrupt_snapshots_fail_typed_and_never_panic() {
    let engine = Engine::build(scenarios::versatel_like(1)).unwrap();
    let path = std::env::temp_dir().join(format!("scent-corrupt-{}.ckpt", std::process::id()));
    write_snapshot(&engine, &path);
    let valid = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(MonitorSnapshot::from_bytes(&valid).is_ok());

    // Truncation below the magic is Truncated; non-magic bytes are BadMagic.
    assert_eq!(
        MonitorSnapshot::from_bytes(b"SCENT").err(),
        Some(CheckpointError::Truncated)
    );
    assert_eq!(
        MonitorSnapshot::from_bytes(b"not a checkpoint").err(),
        Some(CheckpointError::BadMagic)
    );

    // A bumped version byte reports VersionMismatch — *before* the now-stale
    // checksum gets a chance to mislead.
    let mut bumped = valid.clone();
    bumped[8] = bumped[8].wrapping_add(1);
    assert_eq!(
        MonitorSnapshot::from_bytes(&bumped).err(),
        Some(CheckpointError::VersionMismatch {
            found: FORMAT_VERSION + 1,
            expected: FORMAT_VERSION
        })
    );
    // So does a snapshot of the format before: no older reader is kept.
    let mut older = valid.clone();
    older[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
    assert_eq!(
        MonitorSnapshot::from_bytes(&older).err(),
        Some(CheckpointError::VersionMismatch {
            found: FORMAT_VERSION - 1,
            expected: FORMAT_VERSION
        })
    );

    // Any single bit flip past the version field trips the checksum (or, in
    // the trailer itself, a checksum mismatch from the other side).
    for offset in [12, valid.len() / 2, valid.len() - 1] {
        let mut flipped = valid.clone();
        flipped[offset] ^= 0x40;
        assert!(
            matches!(
                MonitorSnapshot::from_bytes(&flipped),
                Err(CheckpointError::ChecksumMismatch { .. })
            ),
            "bit flip at {offset}"
        );
    }

    // Chopping the tail shifts the trailer: still a typed error, never a
    // panic — and an empty tail is plain truncation.
    assert_eq!(
        MonitorSnapshot::from_bytes(&valid[..valid.len() - 3]).err(),
        Some(CheckpointError::ChecksumMismatch {
            found: followscent::checkpoint::fnv1a64(&valid[..valid.len() - 11]),
            expected: u64::from_le_bytes(
                valid[valid.len() - 11..valid.len() - 3].try_into().unwrap()
            )
        })
    );

    // Well-framed containers with hostile bodies: an empty body is
    // Truncated, and a valid body with one byte more is refused after it.
    assert_eq!(
        MonitorSnapshot::from_bytes(&seal(&[])).err(),
        Some(CheckpointError::Truncated)
    );
    let mut longer = body_of(&valid).to_vec();
    longer.push(0);
    assert_eq!(
        MonitorSnapshot::from_bytes(&seal(&longer)).err(),
        Some(CheckpointError::InvalidValue("trailing bytes"))
    );
}

/// `body` framed as a snapshot with a valid checksum (fingerprints zero).
fn seal(body: &[u8]) -> Vec<u8> {
    encode_snapshot(0, 0, |w| body.iter().for_each(|&byte| w.put_u8(byte)))
}

/// The body of a valid snapshot.
fn body_of(snapshot: &[u8]) -> &[u8] {
    decode_snapshot(snapshot).expect("a valid snapshot").1
}

/// Every prefix of a real body — two shards, churn, discovery and telemetry,
/// so every field of the layout is populated — sealed with a valid checksum
/// decodes to a typed error: the checksum cannot vouch for a body cut short,
/// and the body decoder must not panic or accept it.
#[test]
fn every_cut_of_a_sealed_body_is_a_typed_error() {
    let engine = Engine::build(scenarios::churn_world(17)).unwrap();
    let config = MonitorConfig {
        shards: 2,
        windows: 3,
        granularity: 52,
        churn: Some(WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        }),
        discovery: Some(DiscoveryConfig {
            probe_budget: 64,
            ..DiscoveryConfig::paper_scale()
        }),
        ..MonitorConfig::default()
    };
    let registry = Telemetry::new();
    let start = config.start;
    let watched = vec![
        scenarios::churn_world_dense_48(&engine, start),
        engine.pools()[1].config.prefix,
    ];
    let mut session = MonitorSession::new(&engine, config, watched, Some(&registry));
    session.run_epoch(128).unwrap();
    session.run_epoch(128).unwrap();
    let snapshot = session.snapshot();
    assert!(snapshot.telemetry.is_some() && snapshot.discovery.is_some());
    assert!(!snapshot.revisions.is_empty() && snapshot.shards.len() == 2);
    assert!(snapshot.shards.iter().all(|s| s.observations > 0));
    assert!(snapshot.shards.iter().any(|s| !s.events().is_empty()));
    let bytes = snapshot.to_bytes();
    let body = body_of(&bytes);
    assert!(MonitorSnapshot::from_bytes(&seal(body)).is_ok());
    for k in 0..body.len() {
        let result = MonitorSnapshot::from_bytes(&seal(&body[..k]));
        assert!(
            matches!(
                result,
                Err(CheckpointError::Truncated) | Err(CheckpointError::InvalidValue(_))
            ),
            "body cut at {k} of {}: {:?}",
            body.len(),
            result.map(|_| ())
        );
    }
}

/// A snapshot whose shard list does not match the configured shard count —
/// one shard popped, re-encoded under its own fingerprints — is refused on
/// resume with a typed error, never a panic in the lease.
#[test]
fn a_snapshot_short_of_a_shard_is_refused_on_resume() {
    let engine = Engine::build(scenarios::versatel_like(1)).unwrap();
    let config = MonitorConfig {
        shards: 2,
        windows: 2,
        checkpoint_every: Some(1),
        ..MonitorConfig::default()
    };
    let mut session = MonitorSession::new(&engine, config.clone(), checkpoint_watch(), None);
    session.run_epoch(config.packets_per_second).unwrap();
    let mut snapshot = session.snapshot();
    assert_eq!(snapshot.shards.len(), 2);
    snapshot.shards.pop();
    let popped = MonitorSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
    let resumed = MonitorSession::new(&engine, config, checkpoint_watch(), None).resume(popped);
    assert!(matches!(
        resumed.err(),
        Some(CheckpointError::InvalidValue(_))
    ));
}

/// Resuming wraps checkpoint failures as [`ScentError::Checkpoint`] with the
/// right variant: missing files, damaged files, fingerprint mismatches
/// against the wrong run or wrong world.
#[test]
fn campaign_checkpoint_errors_are_typed_end_to_end() {
    let engine = Engine::build(scenarios::versatel_like(1)).unwrap();
    let path = std::env::temp_dir().join(format!("scent-ckpt-err-{}.ckpt", std::process::id()));

    // Resuming from a file that does not exist.
    let missing = resume_from(&engine, 1, &path).unwrap_err();
    assert_eq!(
        missing,
        ScentError::Checkpoint(CheckpointError::Io {
            kind: std::io::ErrorKind::NotFound,
            path: path.display().to_string(),
        })
    );
    assert_chain(&missing, 2);
    assert!(missing.to_string().contains("checkpoint"));

    write_snapshot(&engine, &path);

    // Resuming under a different configuration (producer count changed).
    let config = resume_from(&engine, 2, &path).unwrap_err();
    assert!(
        matches!(
            config,
            ScentError::Checkpoint(CheckpointError::ConfigMismatch { .. })
        ),
        "{config:?}"
    );
    assert_chain(&config, 2);

    // Resuming against a different world — different *routing table*, since
    // the world fingerprint covers the RIB (a reseeded world with identical
    // announcements resumes fine by design).
    let other = Engine::build(WorldConfig::new(vec![provider(64500)], 1)).unwrap();
    let world = resume_from(&other, 1, &path).unwrap_err();
    assert!(
        matches!(
            world,
            ScentError::Checkpoint(CheckpointError::WorldMismatch { .. })
        ),
        "{world:?}"
    );
    assert_chain(&world, 2);

    // Resuming from a damaged file.
    let mut damaged = std::fs::read(&path).unwrap();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x01;
    std::fs::write(&path, &damaged).unwrap();
    let corrupt = resume_from(&engine, 1, &path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            corrupt,
            ScentError::Checkpoint(CheckpointError::ChecksumMismatch { .. })
        ),
        "{corrupt:?}"
    );
    assert_chain(&corrupt, 2);
}
