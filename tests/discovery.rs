//! Acceptance tests for adaptive hierarchical target discovery: an
//! *unseeded* monitor — empty initial watch list, nothing but the world's
//! BGP announcements — grows a confidence-split prefix tree that converges
//! onto `scenarios::churn_world`'s marching dense /48 band, stays
//! byte-identical across shard counts, producer counts, live vs. recorded
//! backends and checkpoint suspend/resume, and never emits a probe into
//! blocklisted space.

use followscent::checkpoint::FileCheckpointStore;
use followscent::discovery::{Blocklist, DiscoveryConfig};
use followscent::ipv6::Ipv6Prefix;
use followscent::prober::{ProbeTransport, RecordedBackend, RecordingBackend, WorldView};
use followscent::simnet::{scenarios, Engine, SimTime};
use followscent::stream::{
    ConfigError, MonitorConfig, MonitorControl, MonitorReport, MonitorSnapshot, StopSignal,
    StreamError, StreamMonitor, WatchChurn,
};
use followscent::telemetry::{self, Telemetry, TelemetrySnapshot};

/// A discovery configuration whose per-boundary budget fully sweeps both of
/// [`scenarios::churn_world`]'s announced /32s at /48 granularity in *each*
/// of the two rounds (2 × 65536 /48s per round): round one's coarse sweep is
/// guaranteed to land a probe in the band /48, and round two probes the
/// split-off /48 to a dense certificate within the same boundary.
fn full_sweep_discovery() -> DiscoveryConfig {
    DiscoveryConfig {
        probe_budget: 262_144,
        ..DiscoveryConfig::paper_scale()
    }
}

/// An *unseeded* discovery monitor's configuration: churn every window, the
/// tree as the only candidate source.
fn discovery_config(
    discovery: DiscoveryConfig,
    shards: usize,
    producers: usize,
    windows: u64,
) -> MonitorConfig {
    MonitorConfig {
        shards,
        producers,
        windows,
        churn: Some(WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        }),
        discovery: Some(discovery),
        ..MonitorConfig::default()
    }
}

/// Run an *unseeded* discovery monitor over any backend: no initial watch
/// list, churn every window, the tree as the only candidate source.
fn discover_unseeded<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    discovery: DiscoveryConfig,
    shards: usize,
    producers: usize,
    windows: u64,
) -> MonitorReport {
    let mut report = StreamMonitor::new(discovery_config(discovery, shards, producers, windows))
        .run(world, &[])
        .expect("valid discovery monitor configuration");
    report.backpressure_stalls = 0;
    report
}

/// The headline acceptance contract: started with an **empty watch list**,
/// the monitor converges onto the churn world's marching /48 band from the
/// announcement topology alone. The tree does the bootstrap — the first
/// boundary's admissions can only come from it, because an empty watch list
/// gives the seeded re-expansion nothing to expand — and once the band is
/// watched, the established churn loop (density survivors + boundary
/// re-expansion, now alongside the tree) keeps following the march.
#[test]
fn unseeded_discovery_converges_onto_the_marching_band() {
    let engine = Engine::build(scenarios::churn_world(13)).unwrap();
    let report = discover_unseeded(&engine, full_sweep_discovery(), 2, 1, 3);

    // Three windows at refresh_every=1 revise the list after windows 0 and
    // 1; the boundaries fall one and two days after the start.
    let band_found = scenarios::churn_world_dense_48(&engine, SimTime::at(11, 9));
    let band_final = scenarios::churn_world_dense_48(&engine, SimTime::at(12, 9));
    let control: Ipv6Prefix = "2803:9810:100::/48".parse().unwrap();

    // Boundary 0: the tree alone surfaced the band and the control pool.
    assert_eq!(report.revisions[0].epoch, 0);
    assert!(
        report.revisions[0].admitted.contains(&band_found),
        "the first revision must admit the band the tree split down to"
    );
    assert!(report.revisions[0].admitted.contains(&control));

    // The run converged: the final watch list holds the band where it
    // marched to, plus the static control.
    assert!(
        report.final_watch.contains(&band_final),
        "final watch {:?} must contain the band {band_final}",
        report.final_watch
    );
    assert!(
        report.final_watch.contains(&control),
        "the static control pool is dense too"
    );

    let tree = report.discovery.as_ref().expect("discovery report present");
    assert!(tree.splits > 0, "the tree split toward the band");
    assert!(
        tree.dense_48s.contains(&band_found),
        "the tree certifies the band it found dense: {:?}",
        tree.dense_48s
    );
    assert!(tree.dense_48s.contains(&control));
    assert!(tree.probes > 0);
    assert!(
        !report.validated_48s.is_empty(),
        "discovery probes flow through Phase::Expansion into validated state"
    );
    assert_eq!(
        report.exhausted_at, None,
        "a live frontier is not exhaustion"
    );
}

/// The deterministic tier rendered for byte comparison: Prometheus text
/// plus the JSONL event journal (mirrors `tests/telemetry.rs`).
fn deterministic_dump(snapshot: &TelemetrySnapshot) -> String {
    let mut out = telemetry::deterministic_text(&snapshot.deterministic);
    out.push_str(&telemetry::events_jsonl(&snapshot.deterministic.events));
    out
}

/// [`discover_unseeded`] with a telemetry registry attached: returns the
/// report plus the deterministic telemetry dump.
fn discover_observed<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    shards: usize,
    producers: usize,
    windows: u64,
) -> (MonitorReport, String) {
    let registry = Telemetry::new();
    let config = discovery_config(full_sweep_discovery(), shards, producers, windows);
    let mut report = StreamMonitor::new(config)
        .run_observed(world, &[], Some(&registry))
        .expect("valid discovery monitor configuration");
    report.backpressure_stalls = 0;
    (report, deterministic_dump(&registry.snapshot()))
}

/// The determinism matrix the tree must survive: report **and**
/// deterministic telemetry of an unseeded discovery run — tree evolution,
/// splits, dense certificates, watch-list revisions included — are
/// byte-identical across shard counts, producer counts, and live simnet vs.
/// recorded replay.
#[test]
fn discovery_is_invariant_across_shards_producers_and_backends() {
    let engine = Engine::build(scenarios::churn_world(13)).unwrap();
    let recorder = RecordingBackend::new(&engine);
    let (reference, reference_dump) = discover_observed(&recorder, 2, 1, 3);
    let replay = RecordedBackend::from_log(recorder.finish());

    // Non-vacuity: the reference run discovered, split, certified, churned.
    let tree = reference.discovery.as_ref().expect("discovery on");
    assert!(tree.splits > 0 && !tree.dense_48s.is_empty());
    assert!(reference.revisions.iter().any(|r| !r.admitted.is_empty()));
    assert!(!reference.final_watch.is_empty());

    for (shards, producers) in [(1, 1), (1, 8), (2, 2), (4, 4), (8, 2), (8, 8)] {
        let (live, live_dump) = discover_observed(&engine, shards, producers, 3);
        assert_eq!(
            reference, live,
            "live discovery, shards={shards} producers={producers}"
        );
        assert_eq!(
            reference_dump, live_dump,
            "live telemetry, shards={shards} producers={producers}"
        );
        let (replayed, replayed_dump) = discover_observed(&replay, shards, producers, 3);
        assert_eq!(
            reference, replayed,
            "replayed discovery, shards={shards} producers={producers}"
        );
        assert_eq!(
            reference_dump, replayed_dump,
            "replayed telemetry, shards={shards} producers={producers}"
        );
    }
}

/// Suspend/resume mid-discovery is invisible: a run stopped at an epoch
/// boundary (tree state checkpointed alongside every other piece of
/// incremental monitor state) and resumed from the snapshot produces a
/// report byte-identical to the uninterrupted run.
#[test]
fn checkpoint_resume_mid_discovery_is_byte_identical() {
    let engine = Engine::build(scenarios::churn_world(13)).unwrap();
    let path = std::env::temp_dir().join(format!("scent-disc-{}.ckpt", std::process::id()));
    let monitor = StreamMonitor::new(MonitorConfig {
        checkpoint_every: Some(1),
        ..discovery_config(full_sweep_discovery(), 2, 2, 4)
    });
    let normalize = |result: Result<MonitorReport, StreamError>| {
        let mut report = result.expect("valid discovery monitor configuration");
        report.backpressure_stalls = 0;
        report
    };

    let full = normalize(monitor.run(&engine, &[]));
    assert!(
        full.discovery.as_ref().is_some_and(|t| t.splits > 0),
        "the interruption must land on a run that actually grew a tree"
    );

    // Stop raised up front: the run drains the first epoch — *after* its
    // boundary discovery sweep — checkpoints, and halts.
    let stop = StopSignal::new();
    stop.request_stop();
    let mut store = FileCheckpointStore::new(&path);
    let control = MonitorControl {
        sink: Some(&mut store),
        stop: Some(stop),
        ..MonitorControl::default()
    };
    let halted = normalize(monitor.run_controlled(&engine, &[], control));
    assert!(
        halted.windows < full.windows,
        "the stop must interrupt mid-run for resume to prove anything"
    );
    assert!(
        halted.discovery.is_some(),
        "the halted run already carries tree state"
    );

    let bytes = store.load().expect("the halted run left a snapshot");
    let control = MonitorControl {
        resume: Some(MonitorSnapshot::from_bytes(&bytes).expect("snapshot parses")),
        ..MonitorControl::default()
    };
    let resumed = normalize(monitor.run_controlled(&engine, &[], control));
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed, full, "resume must be byte-invisible");
}

/// A blocklisted prefix inside the dense band is never probed — not by the
/// discovery sweep, not by the detection stream, not by the boundary
/// re-expansion. Asserted on the full probe log: no recorded probe targets
/// blocked space, while discovery still proceeds around the hole.
#[test]
fn blocklisted_prefix_in_the_dense_band_is_never_probed() {
    let engine = Engine::build(scenarios::churn_world(13)).unwrap();
    // Block the exact /48 the band occupies at the first boundary — the
    // prefix the tree would otherwise split down to and certify.
    let blocked_48 = scenarios::churn_world_dense_48(&engine, SimTime::at(11, 9));
    let blocklist = Blocklist::new(vec![blocked_48]);
    let discovery = DiscoveryConfig {
        blocklist: blocklist.clone(),
        ..full_sweep_discovery()
    };

    let recorder = RecordingBackend::new(&engine);
    let report = discover_unseeded(&recorder, discovery, 2, 1, 3);
    let log = recorder.finish();

    assert!(!log.is_empty(), "probing must continue around the hole");
    assert!(
        log.probes
            .iter()
            .all(|record| !blocklist.covers_addr(record.target)),
        "no probe may ever target blocklisted space"
    );
    let tree = report.discovery.as_ref().expect("discovery report present");
    assert!(
        !tree.dense_48s.contains(&blocked_48),
        "a never-probed prefix cannot be certified dense"
    );
    assert!(
        !report.final_watch.contains(&blocked_48),
        "blocked space must not reach the watch list"
    );
    // The control pool is outside the blocklist and is still found.
    let control: Ipv6Prefix = "2803:9810:100::/48".parse().unwrap();
    assert!(tree.dense_48s.contains(&control));
}

/// Blocking the whole frontier drains discovery to its documented terminal
/// state: with an empty watch list and no unblocked leaf left to sweep, the
/// monitor reports `exhausted_at = Some(0)` and sends no probe at all.
#[test]
fn fully_blocked_frontier_drains_to_the_exhausted_terminal_state() {
    let engine = Engine::build(scenarios::churn_world(13)).unwrap();
    let discovery = DiscoveryConfig {
        blocklist: Blocklist::new(vec![
            "2001:16b8::/32".parse().unwrap(),
            "2803:9810::/32".parse().unwrap(),
        ]),
        ..full_sweep_discovery()
    };
    let recorder = RecordingBackend::new(&engine);
    let report = discover_unseeded(&recorder, discovery, 2, 1, 2);
    let log = recorder.finish();

    assert_eq!(
        report.exhausted_at,
        Some(0),
        "a fully blocked frontier is exhaustion from window zero"
    );
    assert!(log.is_empty(), "a dead frontier emits no probe, ever");
    assert!(report.final_watch.is_empty());
    assert!(report.validated_48s.is_empty());
    assert!(report.revisions.iter().all(|r| r.admitted.is_empty()));
    let tree = report.discovery.as_ref().expect("discovery report present");
    assert_eq!(tree.probes, 0);
    assert!(tree.dense_48s.is_empty());
    assert_eq!(
        report.windows, 0,
        "an exhausted monitor halts instead of spinning on empty windows"
    );
}

/// A malformed blocklist entry is a typed error naming the line and the
/// offending text — not a panic, not a silently skipped line.
/// `probe_budget` is the boundary's whole budget, shared across the rounds
/// — not a per-round floor of one: an indivisible budget spends its
/// remainder in the first rounds, and a round whose share is zero sends
/// nothing.
#[test]
fn a_boundary_spends_exactly_its_probe_budget() {
    let engine = Engine::build(scenarios::churn_world(13)).unwrap();
    for (probe_budget, boundaries) in [(5, 2), (1, 2), (1, 1)] {
        let discovery = DiscoveryConfig {
            probe_budget,
            rounds: 2,
            ..DiscoveryConfig::paper_scale()
        };
        // The final boundary is never worked: `boundaries + 1` windows.
        let report = discover_unseeded(&engine, discovery, 1, 1, boundaries + 1);
        let tree = report.discovery.expect("discovery report present");
        assert_eq!(
            tree.probes,
            probe_budget * boundaries,
            "budget {probe_budget} over 2 rounds, {boundaries} boundaries"
        );
    }
}

#[test]
fn malformed_blocklist_entry_is_a_typed_error() {
    let err = Blocklist::parse(&["2001:db8::/32", "  # comment", "", "not-a-prefix"])
        .expect_err("malformed entry must be rejected");
    assert_eq!(err.line, 4);
    assert_eq!(err.entry, "not-a-prefix");
    let text = err.to_string();
    assert!(text.contains("line 4") && text.contains("not-a-prefix"));

    let parsed =
        Blocklist::parse(&["2001:db8::/32", "# comment", "2001:db8:1::/48"]).expect("clean list");
    assert_eq!(parsed.len(), 2);
}

/// Discovery is typed-error-checked before anything runs: each broken
/// discovery configuration is refused by the run, and an empty watch list
/// is legal only with discovery on.
#[test]
fn misconfigured_discovery_is_a_typed_error() {
    let engine = Engine::build(scenarios::churn_world(13)).unwrap();
    let refused = |config: MonitorConfig| {
        StreamMonitor::new(config)
            .run(&engine, &[])
            .expect_err("a broken discovery configuration is refused")
    };
    let monitor = MonitorConfig {
        windows: 2,
        shards: 1,
        ..MonitorConfig::default()
    };

    // Discovery without churn: the tree's candidates would have no way into
    // the watch list.
    let unchurned = MonitorConfig {
        discovery: Some(DiscoveryConfig::paper_scale()),
        ..monitor.clone()
    };
    assert_eq!(
        refused(unchurned),
        StreamError::Config(ConfigError::DiscoveryRequiresChurn)
    );

    // Degenerate knobs are rejected up front.
    let churned = |discovery| discovery_config(discovery, 1, 1, 2);
    let zero_budget = DiscoveryConfig {
        probe_budget: 0,
        ..DiscoveryConfig::paper_scale()
    };
    assert_eq!(
        refused(churned(zero_budget)),
        StreamError::Config(ConfigError::ZeroDiscoveryBudget)
    );
    let zero_rounds = DiscoveryConfig {
        rounds: 0,
        ..DiscoveryConfig::paper_scale()
    };
    assert_eq!(
        refused(churned(zero_rounds)),
        StreamError::Config(ConfigError::ZeroDiscoveryRounds)
    );

    // An empty watch list alone is still an error without discovery...
    assert_eq!(
        refused(monitor),
        StreamError::Config(ConfigError::EmptyWatchList)
    );
}
