//! Micro-benchmarks of the substrate operations every campaign is built from:
//! EUI-64 conversion, prefix arithmetic, longest-prefix match (one fixed
//! address under `rib/`, a probe pass's permuted targets under `lpm/`),
//! target generation, a discovery round's plan and sweep, bare and routed
//! (`discovery/`), the
//! simulated-engine probe path (one pool in list order under `engine/probe`, a
//! probe pass's permuted targets under `engine/probe_permuted`, the slot → device step
//! alone under `population/`), the seed traceroute over the same pool (the
//! hop list under `engine/trace`, the last hop the seed campaign keeps under
//! `engine/last_hop`), the rotation detector over a monitor epoch's
//! targets (`detector/`), and the end of a monitor run's identifier
//! tracker (`tracker/`).

use std::net::Ipv6Addr;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scent_bench::versatel_engine;
use scent_bgp::{Asn, PrefixTable, Rib};
use scent_core::{IncrementalTracker, WindowedRotationDetector};
use scent_discovery::{DiscoveryConfig, DiscoveryTree, SweepPlan};
use scent_ipv6::{addr_from_u128, addr_to_u128, Eui64, Ipv6Prefix, MacAddr};
use scent_prober::{Scanner, TargetGenerator, TargetStream};
use scent_simnet::{scenarios, Engine, SimTime, WorldScale};
use scent_stream::{IngestEngine, IngestOptions, Observation, Phase, ShardMap, ShardPool};

fn bench_eui64(c: &mut Criterion) {
    let mac = MacAddr::new([0x38, 0x10, 0xd5, 0xaa, 0xbb, 0xcc]);
    let addr = Eui64::from_mac(mac).with_prefix64(0x2001_16b8_1d01_0000);
    c.bench_function("eui64/from_mac", |b| {
        b.iter(|| Eui64::from_mac(black_box(mac)))
    });
    c.bench_function("eui64/extract_from_addr", |b| {
        b.iter(|| Eui64::from_addr(black_box(addr)))
    });
}

fn bench_prefix(c: &mut Criterion) {
    let pool: Ipv6Prefix = "2001:16b8:100::/46".parse().unwrap();
    let sub: Ipv6Prefix = "2001:16b8:102:4200::/56".parse().unwrap();
    c.bench_function("prefix/nth_subnet", |b| {
        b.iter(|| pool.nth_subnet(56, black_box(731)).unwrap())
    });
    c.bench_function("prefix/subnet_index", |b| {
        b.iter(|| pool.subnet_index(black_box(&sub)))
    });
}

fn bench_rib(c: &mut Criterion) {
    let mut rib = Rib::new();
    for i in 0..1_000u32 {
        let prefix = Ipv6Prefix::from_bits((0x2600_0000u128 + i as u128) << 96, 32).unwrap();
        rib.announce(prefix, Asn(64_000 + i));
    }
    let addr = "2600:1ff::1".parse().unwrap();
    c.bench_function("rib/longest_match_1k_prefixes", |b| {
        b.iter(|| rib.lookup(black_box(addr)))
    });
}

/// The experiment-scale `paper_world`: 351 pools behind 101 announcements.
fn paper_engine() -> Engine {
    Engine::build(scenarios::paper_world(7, WorldScale::experiment())).unwrap()
}

/// A monitor epoch's target stream over `engine`: one target per /56 of the
/// first 128 pool /48s, permuted — consecutive targets land in different
/// pools, so nothing a probe reads is still in cache from the previous one.
fn monitor_pass(engine: &Engine) -> TargetStream {
    TargetStream::new(&TargetGenerator::new(1), &watched_48s(engine), 56, 42, true)
}

/// The first 128 pool /48s of `engine`: a `steady_watch`-sized watch list.
fn watched_48s(engine: &Engine) -> Vec<Ipv6Prefix> {
    (engine.pools().iter())
        .filter(|pool| pool.config.prefix.len() <= 48)
        .flat_map(|pool| pool.config.prefix.subnets(48).unwrap())
        .take(128)
        .collect()
}

/// Longest-prefix match as a probe pass sees it: the experiment-scale
/// `paper_world`'s 351 pools and 101 announcements, looked up over a monitor
/// epoch's target stream (one target per /56 of 128 pool /48s, permuted) in
/// which every fourth target is moved into unannounced space — so the search
/// takes a different path on every call and misses are paid for.
fn bench_lpm(c: &mut Criterion) {
    let engine = paper_engine();
    let pools: PrefixTable<usize> = (engine.pools().iter().enumerate())
        .map(|(i, pool)| (pool.config.prefix, i))
        .collect();
    let stream = monitor_pass(&engine);
    let targets: Vec<_> = (0..stream.window_len())
        .map(|pos| match pos % 4 {
            0 => addr_from_u128(addr_to_u128(stream.target_at(pos)) ^ (0x5 << 124)),
            _ => stream.target_at(pos),
        })
        .collect();
    let mut i = 0usize;
    let mut next = move || {
        i = (i + 1) % targets.len();
        targets[i]
    };
    assert_eq!((pools.len(), engine.rib().len()), (351, 101));
    c.bench_function("lpm/pool_table_351", |b| {
        b.iter(|| pools.longest_match(black_box(next())).map(|(_, &i)| i))
    });
    c.bench_function("lpm/rib_101", |b| {
        b.iter(|| engine.rib().lookup(black_box(next())))
    });
}

/// Target generation: one pseudo-random address per /56 of a /48 — what a
/// monitor's first epoch and every pipeline phase pay per target before a
/// probe exists — reported per call (256 targets); and the whole
/// `steady_watch` list, one per /56 of 128 watched /48s (32 768 targets).
fn bench_targets(c: &mut Criterion) {
    let generator = TargetGenerator::new(1);
    let prefix: Ipv6Prefix = "2001:16b8:1d01::/48".parse().unwrap();
    c.bench_function("targets/one_per_subnet_48_56", |b| {
        b.iter(|| generator.one_per_subnet(black_box(&prefix), 56))
    });
    let watched = watched_48s(&paper_engine());
    assert_eq!(watched.len(), 128);
    c.bench_function("targets/per_candidate_48_128x56", |b| {
        b.iter(|| generator.per_candidate_48(black_box(&watched), 56))
    });
}

/// One discovery round in the `churn_discovery_ckpt` shape: its plan —
/// 131 072 probes allocated over a fresh `churn_world` tree (two /32 roots,
/// 65 536 /48s each) and drawn, with no probe sent, on a copy of the tree
/// each iteration, since planning advances its cursors — and its sweep,
/// the scanner's probing loop over that plan's targets in the boundary
/// scanner's permuted order against the engine, with a visitor that only
/// counts (no routing, no outcome bits) — and that sweep as a boundary sends
/// it (`discovery/sweep_routed`): every record routed as an expansion-phase
/// observation through a one-shard `ShardPool` lease, then released.
fn bench_discovery(c: &mut Criterion) {
    let engine = Engine::build(scenarios::churn_world(7)).unwrap();
    let announced = engine.rib().entries().into_iter().map(|entry| entry.prefix);
    let tree = DiscoveryTree::from_announcements(announced, 7);
    let config = DiscoveryConfig::paper_scale();
    let generator = TargetGenerator::new(7);
    let round = |tree: &DiscoveryTree| tree.clone().plan(&config, &generator, 56, 131_072);
    assert_eq!(round(&tree).len(), 131_072);
    c.bench_function("discovery/plan_round", |b| {
        b.iter(|| round(black_box(&tree)))
    });
    let plan = round(&tree);
    let scanner = Scanner::at_paper_rate(7 ^ 0x5c37);
    let sweep = |plan: &SweepPlan| {
        let mut probes = 0u64;
        let at = |index: usize| plan.targets()[index];
        scanner.scan_each(&engine, plan.len(), at, SimTime::at(1, 0), |_, _| {
            probes += 1
        });
        probes
    };
    assert_eq!(sweep(&plan), 131_072);
    c.bench_function("discovery/sweep_round", |b| {
        b.iter(|| sweep(black_box(&plan)))
    });
    let map = ShardMap::new(&engine.rib().entries(), 1);
    let mut pool = ShardPool::open(1);
    let mut routed = |plan: &SweepPlan| {
        let mut lease = IngestEngine::lease(&mut pool, map.clone(), IngestOptions::default());
        let router = lease.router();
        let mut seq = 0;
        let at = |index: usize| plan.targets()[index];
        scanner.scan_each(&engine, plan.len(), at, SimTime::at(1, 0), |_, record| {
            router.route(Observation {
                phase: Phase::Expansion,
                tenant: 0,
                window: 0,
                seq,
                target: record.target,
                sent_at: record.sent_at,
                response: record.response,
            });
            seq += 1;
        });
        let states = lease.release().expect("no worker dies");
        states[0].observations
    };
    assert_eq!(routed(&plan), 131_072);
    c.bench_function("discovery/sweep_routed", |b| {
        b.iter(|| routed(black_box(&plan)))
    });
}

fn bench_engine_probe(c: &mut Criterion) {
    let engine = versatel_engine(3);
    let pool = engine.pools()[3].config.prefix;
    let targets = TargetGenerator::new(1).one_per_subnet(&pool, 56);
    let t = SimTime::at(5, 12);
    let mut i = 0usize;
    c.bench_function("engine/probe", |b| {
        b.iter(|| {
            i = (i + 1) % targets.len();
            engine.probe(black_box(targets[i]), t)
        })
    });
    c.bench_function("engine/trace", |b| {
        b.iter(|| {
            i = (i + 1) % targets.len();
            engine.trace(black_box(targets[i]), t, 32)
        })
    });
    c.bench_function("engine/last_hop", |b| {
        b.iter(|| {
            i = (i + 1) % targets.len();
            engine.last_hop(black_box(targets[i]), t, 32)
        })
    });
}

/// The probe as a probe pass pays for it. `engine/probe` above walks one
/// pool in list order, so whatever the probe searches stays cache-hot; here
/// every probe lands in another of 128 pools, and the slot → device step is
/// timed alone over the largest of them (13 107 devices in 65 536 slots),
/// alternating a device's slot with a pseudo-random one (nearly always free).
fn bench_probe_pass(c: &mut Criterion) {
    let engine = paper_engine();
    let stream = monitor_pass(&engine);
    let t = SimTime::at(5, 12);
    let mut pos = 0usize;
    c.bench_function("engine/probe_permuted", |b| {
        b.iter(|| {
            pos = (pos + 1) % stream.window_len();
            engine.probe(black_box(stream.target_at(pos)), t)
        })
    });

    let pool = (engine.pools().iter())
        .max_by_key(|pool| pool.len())
        .expect("the world has pools");
    let slots: Vec<u64> = (0..8_192u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
            match i % 2 {
                0 => pool.cpes[h as usize % pool.len()].initial_slot,
                _ => h % pool.config.num_slots(),
            }
        })
        .collect();
    let mut i = 0usize;
    c.bench_function("population/by_initial_slot", |b| {
        b.iter(|| {
            i = (i + 1) % slots.len();
            pool.by_initial_slot(black_box(slots[i]))
                .map(|(idx, _)| idx)
        })
    });
}

/// The rotation detector as a monitor shard drives it, the `steady_watch`
/// shape: a monitor epoch's 32 768 permuted targets, re-probed window after
/// window in one order, each answered by one of two EUI-64 identifiers in
/// its /64 that swap every other window (so some observations emit events).
/// `standing_list` is every window after a list's first — the entry at its
/// /48's block's cursor; `first_window` meets every target for the first
/// time, in a detector sized for /56 subnets — the admission path.
fn bench_detector(c: &mut Criterion) {
    let engine = paper_engine();
    let stream = monitor_pass(&engine);
    let targets: Vec<_> = (0..stream.window_len())
        .map(|pos| stream.target_at(pos))
        .collect();
    assert_eq!(targets.len(), 32_768);
    let sources: Vec<[Ipv6Addr; 2]> = (targets.iter())
        .map(|target| {
            let prefix64 = (addr_to_u128(*target) >> 64) as u64;
            let device = |b| Eui64::from_mac(MacAddr::new([0x38, 0x10, 0xd5, 0, b, 1]));
            [device(1), device(2)].map(|eui| eui.with_prefix64(prefix64))
        })
        .collect();
    let observe = |detector: &mut WindowedRotationDetector, window: u64, pos: usize| {
        let swapped = (window / 2 + pos as u64) % 2;
        let source = sources[pos][swapped as usize];
        detector.observe(window, pos as u64, targets[pos], Some(source))
    };

    let mut detector = WindowedRotationDetector::for_granularity(56);
    let (mut window, mut pos) = (0u64, 0usize);
    for p in 0..targets.len() {
        observe(&mut detector, window, p);
    }
    c.bench_function("detector/standing_list", |b| {
        b.iter(|| {
            if pos == 0 {
                window += 1;
            }
            let event = observe(&mut detector, window, pos);
            pos = (pos + 1) % targets.len();
            event
        })
    });

    let mut fresh = WindowedRotationDetector::new();
    pos = 0;
    c.bench_function("detector/first_window", |b| {
        b.iter(|| {
            if pos == 0 {
                fresh = WindowedRotationDetector::for_granularity(56);
            }
            let event = observe(&mut fresh, 0, pos);
            pos = (pos + 1) % targets.len();
            event
        })
    });
}

/// The first 128 pool /48s of `engine` as network bits: where
/// [`monitor_tracker`]'s identifiers answer.
fn watched_nets(engine: &Engine) -> Vec<u64> {
    let stream = monitor_pass(engine);
    let nets: Vec<u64> = (0..stream.window_len())
        .map(|pos| (addr_to_u128(stream.target_at(pos)) >> 80) as u64)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    assert_eq!(nets.len(), 128);
    nets
}

/// An unfolded monitor tracker: `identifiers` identifiers under the /48s
/// `nets`, each sighted once a window over 4 windows at a /64 that rotates
/// every window — bar one sighting in 180 when `gaps`. A window meets its
/// identifiers in a permuted order, and the identifiers' MACs are a few
/// vendors' OUIs over scattered device bytes.
fn monitor_tracker(nets: &[u64], identifiers: u64, gaps: bool) -> IncrementalTracker {
    const WINDOWS: u64 = 4;
    const OUIS: [[u8; 3]; 4] = [
        [0x38, 0x10, 0xd5],
        [0xc8, 0x0e, 0x14],
        [0x00, 0x1f, 0x3f],
        [0xe0, 0x28, 0x6d],
    ];
    let mut tracker = IncrementalTracker::new();
    let mut seq = 0;
    for window in 0..WINDOWS {
        for step in 0..identifiers {
            // 2 477 is a prime and no factor of either shape's identifier
            // count: a permutation.
            let id = (step * 2_477 + window * 1_009) % identifiers;
            if gaps && (id + window * 7) % 180 == 0 {
                continue;
            }
            let scatter = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            let oui = OUIS[(id % 4) as usize];
            let device = [scatter >> 16, scatter >> 8, scatter].map(|b| b as u8);
            let eui = Eui64::from_mac(MacAddr::new([
                oui[0], oui[1], oui[2], device[0], device[1], device[2],
            ]));
            let net = nets[(id % nets.len() as u64) as usize];
            let prefix64 = net << 16 | (id.wrapping_mul(31) + window * 97) & 0xffff;
            let source = eui.with_prefix64(prefix64);
            tracker.observe(window, seq, source, Some(source));
            seq += 1;
        }
    }
    tracker
}

/// The end of a monitor run's tracker. In the `steady_watch` shape (6 672
/// identifiers under 128 /48s, 26 540 sightings), `tracker/fold` is the one
/// fold of its pending sightings (on a fresh copy each iteration, whose
/// clone it includes) and `tracker/finish` the report a monitor's finish
/// reads off the same unfolded tracker — the count of its identifiers'
/// windows, their ranking and the gather of the 8 devices a monitor reports
/// by default, clone included. `tracker/fold_small` and
/// `tracker/finish_small` are the same in a `tenants_64` session's shape:
/// 268 identifiers under two /48s, every one sighted in each of 4 windows,
/// 1 072 sightings.
fn bench_tracker(c: &mut Criterion) {
    let engine = paper_engine();
    let nets = watched_nets(&engine);
    for (name, tracker, identifiers) in [
        ("", monitor_tracker(&nets, 6_672, true), 6_672),
        ("_small", monitor_tracker(&nets[..2], 268, false), 268),
    ] {
        c.bench_function(format!("tracker/fold{name}"), |b| {
            b.iter(|| {
                let mut tracker = tracker.clone();
                tracker.fold();
                tracker
            })
        });
        let report = tracker
            .clone()
            .finish(engine.rib(), engine.as_registry(), 4, 8);
        assert_eq!(report.devices.len(), 8, "the watched /48s are routed");
        assert_eq!(tracker.clone().identifiers_seen(), identifiers);
        c.bench_function(format!("tracker/finish{name}"), |b| {
            b.iter(|| (tracker.clone()).finish(engine.rib(), engine.as_registry(), 4, 8))
        });
    }
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(30);
    targets = bench_eui64, bench_prefix, bench_rib, bench_lpm, bench_targets, bench_discovery,
        bench_engine_probe, bench_probe_pass, bench_detector, bench_tracker
}
criterion_main!(micro);
