//! Error-path coverage: every variant of the workspace error hierarchy —
//! [`ScentError`], [`CampaignError`], [`WorldError`], [`PoolError`],
//! [`RibParseError`] — is constructible from a *public entry point*
//! (`Engine::build`, config `validate`, `Rib::from_table_text`, the
//! [`Campaign`] builder), and every error renders a non-empty `Display`
//! chain through [`std::error::Error::source`].

use std::error::Error;

use followscent::bgp::{Rib, RibParseError, RibParseErrorKind};
use followscent::checkpoint::{encode_snapshot, CheckpointError};
use followscent::ipv6::Ipv6Prefix;
use followscent::simnet::{
    scenarios, Engine, PlantedCpe, PoolError, ProviderConfig, RotationPoolConfig, SlotLayout,
    WorldConfig, WorldError,
};
use followscent::stream::{ConfigError, MonitorSnapshot, StopSignal};
use followscent::{Campaign, CampaignError, CampaignMode, ScentError};

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

#[test]
fn every_campaign_error_variant_is_reachable_from_the_builder() {
    let engine = Engine::build(scenarios::versatel_like(1)).unwrap();
    let watched = vec![p("2001:16b8:100::/48")];

    let cases: Vec<(ScentError, CampaignError)> = vec![
        (
            Campaign::builder()
                .world(&engine)
                .mode(CampaignMode::Streamed {
                    shards: 0,
                    producers: 1,
                })
                .run()
                .unwrap_err(),
            ConfigError::NoShards.into(),
        ),
        (
            Campaign::builder()
                .world(&engine)
                .mode(CampaignMode::Streamed {
                    shards: 2,
                    producers: 0,
                })
                .run()
                .unwrap_err(),
            ConfigError::NoProducers.into(),
        ),
        (
            Campaign::builder()
                .world(&engine)
                .channel_capacity(0)
                .run()
                .unwrap_err(),
            ConfigError::ZeroChannelCapacity.into(),
        ),
        (
            Campaign::builder()
                .world(&engine)
                .mode(CampaignMode::Monitor {
                    windows: 2,
                    shards: 2,
                    producers: 1,
                })
                .run()
                .unwrap_err(),
            CampaignError::EmptyWatchList,
        ),
        (
            Campaign::builder()
                .world(&engine)
                .watch(watched.clone())
                .mode(CampaignMode::Monitor {
                    windows: 0,
                    shards: 2,
                    producers: 1,
                })
                .run()
                .unwrap_err(),
            CampaignError::NoWindows,
        ),
        (
            Campaign::builder()
                .world(&engine)
                .watch(watched.clone())
                .refresh_every(0)
                .mode(CampaignMode::Monitor {
                    windows: 2,
                    shards: 2,
                    producers: 1,
                })
                .run()
                .unwrap_err(),
            ConfigError::ZeroRefreshCadence.into(),
        ),
        (
            Campaign::builder()
                .world(&engine)
                .watch(watched.clone())
                .watch_capacity(0)
                .mode(CampaignMode::Monitor {
                    windows: 2,
                    shards: 2,
                    producers: 1,
                })
                .run()
                .unwrap_err(),
            ConfigError::ZeroWatchCapacity.into(),
        ),
        (
            Campaign::builder()
                .world(&engine)
                .watch(watched.clone())
                .watch_churn(followscent::stream::WatchChurn {
                    expansion_len: 52, // longer than a /48: cannot enclose one
                    ..followscent::stream::WatchChurn::default()
                })
                .mode(CampaignMode::Monitor {
                    windows: 2,
                    shards: 2,
                    producers: 1,
                })
                .run()
                .unwrap_err(),
            ConfigError::ExpansionBlockTooLong.into(),
        ),
        (
            Campaign::builder()
                .world(&engine)
                .watch(watched.clone())
                .watch_churn(followscent::stream::WatchChurn {
                    max_48s_per_seed: 0, // expansion could never admit anything
                    ..followscent::stream::WatchChurn::default()
                })
                .mode(CampaignMode::Monitor {
                    windows: 2,
                    shards: 2,
                    producers: 1,
                })
                .run()
                .unwrap_err(),
            ConfigError::ZeroExpansionBudget.into(),
        ),
    ];
    // Inverted watermarks are refused whether or not the model can
    // throttle: an unbounded one is never run, but never carried either.
    let inverted = [Some(8), None].map(|drain_rate| {
        let err = Campaign::builder()
            .world(&engine)
            .watch(watched.clone())
            .queue_model(followscent::prober::QueueModel {
                drain_rate,
                high_watermark: 4,
                low_watermark: 4,
                ..followscent::prober::QueueModel::unbounded()
            })
            .mode(CampaignMode::Monitor {
                windows: 2,
                shards: 2,
                producers: 4,
            })
            .run()
            .unwrap_err();
        (err, ConfigError::InvalidQueueModel.into())
    });
    let cases = cases.into_iter().chain(inverted);

    for (err, expected) in cases {
        assert_eq!(err, ScentError::Campaign(expected));
        assert_chain(&err, 2);
        assert!(err.to_string().contains("campaign configuration"));
    }
}

/// A monitor campaign builder over `engine`, shaped like the checkpoint
/// tests use it: one watched /48, two windows, checkpointing every window.
fn checkpoint_campaign(
    engine: &Engine,
    producers: usize,
) -> followscent::CampaignBuilder<'_, &Engine> {
    Campaign::builder()
        .world(engine)
        .seed(0x57ae)
        .watch(vec![p("2001:16b8:100::/48")])
        .checkpoint_every(1)
        .monitor_granularity(56)
        .mode(CampaignMode::Monitor {
            windows: 2,
            shards: 1,
            producers,
        })
}

/// Write a genuine snapshot file by suspending a monitor run at its first
/// epoch boundary.
fn write_snapshot(engine: &Engine, path: &std::path::Path) {
    let stop = StopSignal::new();
    stop.request_stop();
    checkpoint_campaign(engine, 1)
        .checkpoint_to(path)
        .stop_signal(stop)
        .run()
        .expect("the suspended run itself succeeds");
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
    assert!(matches!(
        MonitorSnapshot::from_bytes(&bumped),
        Err(CheckpointError::VersionMismatch {
            found: 2,
            expected: 1
        })
    ));

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

    // Well-framed containers with hostile structure: unknown and missing
    // sections are InvalidValue / Truncated.
    let unknown = encode_snapshot(0, 0, &[(9999, b"?")]);
    assert_eq!(
        MonitorSnapshot::from_bytes(&unknown).err(),
        Some(CheckpointError::InvalidValue("unknown snapshot section"))
    );
    let empty = encode_snapshot(0, 0, &[]);
    assert_eq!(
        MonitorSnapshot::from_bytes(&empty).err(),
        Some(CheckpointError::Truncated)
    );
}

/// The campaign surface wraps checkpoint failures as
/// [`ScentError::Checkpoint`] with the right variant: missing files, damaged
/// files, fingerprint mismatches against the wrong run or wrong world — plus
/// the three builder validations guarding the checkpoint options themselves.
#[test]
fn campaign_checkpoint_errors_are_typed_end_to_end() {
    let engine = Engine::build(scenarios::versatel_like(1)).unwrap();
    let path = std::env::temp_dir().join(format!("scent-ckpt-err-{}.ckpt", std::process::id()));

    // Resuming from a file that does not exist.
    let missing = checkpoint_campaign(&engine, 1)
        .resume_from(&path)
        .run()
        .unwrap_err();
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
    let config = checkpoint_campaign(&engine, 2)
        .resume_from(&path)
        .run()
        .unwrap_err();
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
    let world = checkpoint_campaign(&other, 1)
        .resume_from(&path)
        .run()
        .unwrap_err();
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
    let corrupt = checkpoint_campaign(&engine, 1)
        .resume_from(&path)
        .run()
        .unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            corrupt,
            ScentError::Checkpoint(CheckpointError::ChecksumMismatch { .. })
        ),
        "{corrupt:?}"
    );
    assert_chain(&corrupt, 2);

    // The builder validations guarding the checkpoint options.
    let cases: Vec<(ScentError, CampaignError)> = vec![
        (
            checkpoint_campaign(&engine, 1)
                .checkpoint_every(0)
                .run()
                .unwrap_err(),
            ConfigError::ZeroCheckpointCadence.into(),
        ),
        (
            checkpoint_campaign(&engine, 1)
                .refresh_every(2)
                .checkpoint_every(3)
                .run()
                .unwrap_err(),
            ConfigError::MisalignedCheckpointCadence.into(),
        ),
        (
            Campaign::builder()
                .world(&engine)
                .checkpoint_every(1)
                .mode(CampaignMode::Streamed {
                    shards: 2,
                    producers: 1,
                })
                .run()
                .unwrap_err(),
            CampaignError::CheckpointRequiresMonitor,
        ),
    ];
    for (err, expected) in cases {
        assert_eq!(err, ScentError::Campaign(expected));
        assert_chain(&err, 2);
        assert!(err.to_string().contains("campaign configuration"));
    }
}
