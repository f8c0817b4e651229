//! Streaming vs batch pipeline throughput on the same world.
//!
//! The streamed pipeline pays for channel hops and thread handoffs but
//! overlaps probing with inference across shards; the batch pipeline runs
//! everything inline on one thread. This bench measures both on identical
//! worlds so the crossover is visible, plus the continuous monitor's
//! ingest rate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scent_checkpoint::MemorySink;
use scent_core::{Pipeline, PipelineConfig};
use scent_discovery::DiscoveryConfig;
use scent_ipv6::Ipv6Prefix;
use scent_prober::QueueModel;
use scent_sched::{Campaign as SchedCampaign, Scheduler};
use scent_simnet::{scenarios, Engine, SimTime, WorldScale};
use scent_stream::{
    MonitorConfig, MonitorControl, MonitorSession, ShardPool, StreamConfig, StreamMonitor,
    StreamPipeline, WatchChurn,
};
use scent_telemetry::Telemetry;

fn small_config() -> PipelineConfig {
    PipelineConfig {
        max_48s_per_seed: 128,
        ..PipelineConfig::default()
    }
}

fn bench_batch_vs_streaming(c: &mut Criterion) {
    let engine = Engine::build(scenarios::paper_world(7, WorldScale::small())).unwrap();
    let mut group = c.benchmark_group("streaming/pipeline");
    group.sample_size(10);
    group.bench_function("batch", |b| {
        b.iter(|| Pipeline::new(small_config()).run(black_box(&engine)))
    });
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("streamed", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    StreamPipeline::with_shards(small_config(), shards).run(black_box(&engine))
                })
            },
        );
    }
    group.finish();
}

fn bench_monitor_ingest(c: &mut Criterion) {
    let engine = Engine::build(scenarios::continuous_world(7)).unwrap();
    let watched: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect();
    let mut group = c.benchmark_group("streaming/monitor_3_windows");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                let config = MonitorConfig {
                    shards,
                    windows: 3,
                    ..MonitorConfig::default()
                };
                b.iter(|| {
                    StreamMonitor::new(config.clone()).run(black_box(&engine), black_box(&watched))
                })
            },
        );
    }
    group.finish();
}

/// A transport wrapper charging a deterministic CPU cost per probe,
/// approximating what a real prober pays per packet (syscalls, checksums,
/// pcap parsing) that the simnet's in-memory probe does not. Producer
/// sharding exists for exactly this regime: when probing dominates, P
/// producers spread the per-probe cost across cores.
struct CostlyTransport<'a> {
    inner: &'a Engine,
    spins: u64,
}

impl scent_prober::ProbeTransport for CostlyTransport<'_> {
    fn probe(
        &self,
        target: std::net::Ipv6Addr,
        t: scent_simnet::SimTime,
    ) -> Option<scent_simnet::ProbeReply> {
        let mut acc = scent_ipv6::addr_to_u128(target) as u64;
        for i in 0..self.spins {
            acc = scent_simnet::det::splitmix64(acc ^ i);
        }
        black_box(acc);
        self.inner.probe(target, t)
    }

    fn trace(
        &self,
        target: std::net::Ipv6Addr,
        t: scent_simnet::SimTime,
        max_hops: u8,
    ) -> Vec<scent_simnet::TraceHop> {
        self.inner.trace(target, t, max_hops)
    }
}

impl scent_prober::WorldView for CostlyTransport<'_> {
    fn vantage(&self) -> std::net::Ipv6Addr {
        self.inner.vantage()
    }

    fn rib(&self) -> &scent_bgp::Rib {
        self.inner.rib()
    }

    fn as_registry(&self) -> &scent_bgp::AsRegistry {
        self.inner.as_registry()
    }

    fn world_seed(&self) -> u64 {
        self.inner.config().seed
    }
}

/// Producer-side sharding at `WorldScale::experiment()`: the same streamed
/// pipeline driven by 1, 2, 4 and 8 probe producers recombined through the
/// merged deterministic clock. The report is producer-count-invariant
/// (test-enforced), so the spread across points is pure probing-side
/// behaviour — the scaling the ROADMAP's "shard the probing side too" item
/// asked for. Two regimes: the raw in-memory simnet probe (free probes —
/// measures merge overhead) and a costly transport charging a realistic
/// per-probe CPU budget (measures the scaling producers exist for).
///
/// Producers only speed wall-clock up when cores exist to run them: on a
/// single-CPU host every point collapses to the serial cost plus merge
/// overhead, so interpret the producer spread on multi-core machines. The
/// strided slicing guarantees the *opportunity*: the merge consumes all P
/// producers round-robin (test-enforced in `scent-stream`), never draining
/// one producer while the others sit idle.
fn bench_producer_scaling(c: &mut Criterion) {
    let engine = Engine::build(scenarios::paper_world(7, WorldScale::experiment())).unwrap();
    let mut group = c.benchmark_group("streaming/producers_experiment_scale");
    group.sample_size(10);
    for producers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("pipeline", producers),
            &producers,
            |b, &producers| {
                let config = StreamConfig {
                    pipeline: small_config(),
                    shards: 2,
                    producers,
                    ..StreamConfig::default()
                };
                b.iter(|| StreamPipeline::new(config.clone()).run(black_box(&engine)))
            },
        );
    }
    for producers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("pipeline_costly_probe", producers),
            &producers,
            |b, &producers| {
                let costly = CostlyTransport {
                    inner: &engine,
                    spins: 600, // ~1µs/probe: the order of a per-packet syscall
                };
                let config = StreamConfig {
                    pipeline: small_config(),
                    shards: 2,
                    producers,
                    ..StreamConfig::default()
                };
                b.iter(|| StreamPipeline::new(config.clone()).run(black_box(&costly)))
            },
        );
    }
    for producers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("monitor_2_windows", producers),
            &producers,
            |b, &producers| {
                let watched: Vec<Ipv6Prefix> = engine
                    .pools()
                    .iter()
                    .filter(|p| p.config.prefix.len() <= 48)
                    .flat_map(|p| p.config.prefix.subnets(48).unwrap())
                    .take(8)
                    .collect();
                let config = MonitorConfig {
                    shards: 2,
                    producers,
                    windows: 2,
                    ..MonitorConfig::default()
                };
                b.iter(|| {
                    StreamMonitor::new(config.clone()).run(black_box(&engine), black_box(&watched))
                })
            },
        );
    }
    group.finish();
}

/// A replay of pre-probed observations, optionally one strided
/// per-producer slice — the transport-free producer the hot-path bench
/// drives, so probing cost can't pollute the path being measured.
struct ReplaySlice<'a> {
    observations: &'a [scent_stream::Observation],
    next: usize,
    step: usize,
}

impl scent_stream::ObservationSource for ReplaySlice<'_> {
    fn next_observation(&mut self) -> Option<scent_stream::Observation> {
        let obs = *self.observations.get(self.next)?;
        self.next += self.step;
        Some(obs)
    }
}

/// The flattened observation hot path in isolation: merge → route →
/// classify over pre-probed observations, with the probing (even the free
/// in-memory simnet probe costs ~0.5µs) and seed machinery of the full
/// pipeline stripped away so the per-observation path cost is the thing
/// measured. `fast/<S>x<P>` points (S shards × P producers) drive the same
/// [`IngestEngine`](scent_stream::IngestEngine) the pipeline and the monitor
/// do — batched channel payloads, recycled batch buffers, a
/// `ShardMap::shard_for` lookup per observation. Producer points > 1 only
/// spread wall-clock on multi-core hosts; see `bench_producer_scaling` for
/// why the spread flattens on one CPU. `fast_observed/1x1` is `fast/1x1` observed by a live
/// [`Telemetry`] registry.
fn bench_hot_path(c: &mut Criterion) {
    use scent_prober::TargetStream;
    use scent_stream::{
        ContinuousStream, IngestEngine, IngestOptions, ObservationSource, ShardMap, ShardPool,
    };

    let engine = Engine::build(scenarios::paper_world(7, WorldScale::experiment())).unwrap();
    let watched: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .take(128)
        .collect();
    // /56 granularity: 256 targets per watched /48 — ≈32k observations per
    // pass, enough for the per-observation cost to dominate thread setup.
    const SEED: u64 = 0x5eed;
    let targets = TargetStream::new(
        &scent_prober::TargetGenerator::new(SEED),
        &watched,
        56,
        SEED,
        true,
    );
    // Probe once, up front — one window of the stream every pass is made
    // of: every bench point replays this identical observation sequence (in
    // seq order, so strided slices reproduce exactly what sliced streams
    // would feed the merged clock).
    // Detection-phase observations exercise the fold the continuous
    // monitor's steady state actually runs — the regime the flattening
    // targets, where per-message rendezvous kept the channel full and
    // dominated the pre-flattening profile.
    let observations: Vec<scent_stream::Observation> = {
        let mut stream = ContinuousStream::builder(&engine, targets.clone()).build();
        (0..targets.window_len())
            .map_while(|_| stream.next_observation())
            .collect()
    };

    let mut group = c.benchmark_group("streaming/hot_path");
    group.sample_size(10);
    for shards in [1usize, 4, 16] {
        for producers in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new("fast", format!("{shards}x{producers}")),
                &(shards, producers),
                |b, &(shards, producers)| {
                    b.iter(|| {
                        let map = ShardMap::new(&engine.rib().entries(), shards);
                        let mut pool = ShardPool::open(shards);
                        let mut ingest =
                            IngestEngine::lease(&mut pool, map, IngestOptions::default());
                        let sources: Vec<_> = (0..producers)
                            .map(|k| ReplaySlice {
                                observations: black_box(&observations),
                                next: k,
                                step: producers,
                            })
                            .collect();
                        let routed = ingest.drive(sources, |_, _| {});
                        let classified: u64 = ingest
                            .release()
                            .expect("no panic injected")
                            .iter()
                            .map(|state| state.observations)
                            .sum();
                        assert_eq!(classified, routed);
                        black_box(classified)
                    })
                },
            );
        }
    }
    // `fast/1x1` with a live registry attached to the lease: what an
    // observed run pays for telemetry on the hot path. The router hands the
    // registry one run a batch; a registry locked once an observation again
    // reads well above `fast/1x1` here.
    group.bench_function(BenchmarkId::new("fast_observed", "1x1"), |b| {
        b.iter(|| {
            let registry = Telemetry::new();
            let map = ShardMap::new(&engine.rib().entries(), 1);
            let mut pool = ShardPool::open(1);
            let options = IngestOptions {
                observer: Some(&registry),
                ..IngestOptions::default()
            };
            let mut ingest = IngestEngine::lease(&mut pool, map, options);
            let source = ReplaySlice {
                observations: black_box(&observations),
                next: 0,
                step: 1,
            };
            let routed = ingest.drive(vec![source], |_, _| {});
            ingest.release().expect("no panic injected");
            assert_eq!(registry.snapshot().deterministic.observations, routed);
            black_box(routed)
        })
    });
    group.finish();
}

/// Watch-list churn overhead at `WorldScale::experiment()`: the same
/// 2-window monitor run with the watch list fixed versus revised every
/// window. The churned points pay for per-epoch stream rebuilds, the
/// boundary re-expansion probe (one probe per candidate /48 of each watched
/// /48's enclosing /44) and the revision computation — the whole churn hot
/// path the perf gate guards. A 4-producer churned point covers the
/// epoch-respawning producer machinery too.
fn bench_watch_churn(c: &mut Criterion) {
    let engine = Engine::build(scenarios::paper_world(7, WorldScale::experiment())).unwrap();
    let watched: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .take(8)
        .collect();
    let churn = WatchChurn {
        refresh_every: 1,
        watch_capacity: watched.len(),
        ..WatchChurn::default()
    };
    let mut group = c.benchmark_group("streaming/churn_experiment_scale");
    group.sample_size(10);
    let points: [(&str, Option<WatchChurn>, usize); 3] = [
        ("fixed_list", None, 1),
        ("churn_every_window", Some(churn), 1),
        ("churn_4_producers", Some(churn), 4),
    ];
    for (label, churn, producers) in points {
        group.bench_with_input(
            BenchmarkId::new("monitor_2_windows", label),
            &(churn, producers),
            |b, &(churn, producers)| {
                let config = MonitorConfig {
                    shards: 2,
                    producers,
                    windows: 2,
                    churn,
                    ..MonitorConfig::default()
                };
                b.iter(|| {
                    StreamMonitor::new(config.clone()).run(black_box(&engine), black_box(&watched))
                })
            },
        );
    }
    group.finish();
}

/// Telemetry overhead at `WorldScale::experiment()`: the same 2-window
/// monitor run unobserved (the `None` observer — every hook site reduces to
/// an `if let` on a `None`), with a live [`Telemetry`] registry attached,
/// and the feedback-on variant whose enabled run additionally pays for the
/// virtual-queue pacers and the merge-side rate replica: its queue model
/// drains so fast it never throttles, so it probes exactly what the other
/// two do. The no-op point must track the plain `run()`
/// cost — the observability layer's contract is zero hot-path cost when
/// disabled — and the enabled points bound what a wired-up registry costs.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let engine = Engine::build(scenarios::paper_world(7, WorldScale::experiment())).unwrap();
    let watched: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .take(8)
        .collect();
    let mut group = c.benchmark_group("streaming/telemetry_experiment_scale");
    group.sample_size(10);
    let monitor = |feedback: bool| MonitorConfig {
        shards: 2,
        producers: 2,
        windows: 2,
        queue_model: if feedback {
            QueueModel::with_drain_rate(1 << 32)
        } else {
            QueueModel::unbounded()
        },
        ..MonitorConfig::default()
    };
    group.bench_function(BenchmarkId::new("monitor_2_windows", "noop"), |b| {
        b.iter(|| {
            StreamMonitor::new(monitor(false)).run_observed(
                black_box(&engine),
                black_box(&watched),
                None,
            )
        })
    });
    group.bench_function(BenchmarkId::new("monitor_2_windows", "enabled"), |b| {
        b.iter(|| {
            let registry = Telemetry::new();
            StreamMonitor::new(monitor(false))
                .run_observed(black_box(&engine), black_box(&watched), Some(&registry))
                .expect("no panic injected");
            black_box(registry.snapshot().deterministic.observations)
        })
    });
    group.bench_function(
        BenchmarkId::new("monitor_2_windows", "enabled_feedback"),
        |b| {
            b.iter(|| {
                let registry = Telemetry::new();
                StreamMonitor::new(monitor(true))
                    .run_observed(black_box(&engine), black_box(&watched), Some(&registry))
                    .expect("no panic injected");
                black_box(registry.snapshot().deterministic.observations)
            })
        },
    );
    group.finish();
}

/// Checkpoint overhead at `WorldScale::experiment()`: the same 2-window
/// monitor run three ways — the plain `run()`, the controlled path with no
/// sink attached, and with an in-memory sink snapshotting every window. The
/// no-sink point must track `plain_run` at noise level — the checkpoint
/// machinery's contract is that a run that never checkpoints pays nothing —
/// while the per-window point bounds what serializing the complete monitor
/// state (every shard's classifiers, detector, tracker and the watch state)
/// costs.
fn bench_checkpoint(c: &mut Criterion) {
    let engine = Engine::build(scenarios::paper_world(7, WorldScale::experiment())).unwrap();
    let watched: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .take(8)
        .collect();
    let mut group = c.benchmark_group("streaming/checkpoint_experiment_scale");
    group.sample_size(10);
    let config = || MonitorConfig {
        shards: 2,
        producers: 2,
        windows: 2,
        ..MonitorConfig::default()
    };
    group.bench_function(BenchmarkId::new("monitor_2_windows", "plain_run"), |b| {
        b.iter(|| StreamMonitor::new(config()).run(black_box(&engine), black_box(&watched)))
    });
    group.bench_function(
        BenchmarkId::new("monitor_2_windows", "controlled_no_sink"),
        |b| {
            b.iter(|| {
                StreamMonitor::new(config())
                    .run_controlled(
                        black_box(&engine),
                        black_box(&watched),
                        MonitorControl::default(),
                    )
                    .expect("no sink attached: checkpoint errors are impossible")
            })
        },
    );
    group.bench_function(
        BenchmarkId::new("monitor_2_windows", "checkpoint_every_window"),
        |b| {
            b.iter(|| {
                let mut sink = MemorySink::new();
                let config = MonitorConfig {
                    checkpoint_every: Some(1),
                    ..config()
                };
                let report = StreamMonitor::new(config)
                    .run_controlled(
                        black_box(&engine),
                        black_box(&watched),
                        MonitorControl {
                            sink: Some(&mut sink),
                            ..MonitorControl::default()
                        },
                    )
                    .expect("the in-memory sink never fails");
                black_box((report.observations, sink.all().len()))
            })
        },
    );
    group.finish();
}

/// Multi-campaign scheduler scaling: the same 2-window campaign multiplexed
/// as 1, 10 and 100 equal-weight tenants over one probe budget, with the
/// per-tenant share held constant (the global budget scales with the tenant
/// count). Total probing work grows linearly with N, so the curve's
/// *super*-linear component is the scheduler's own cost — fair-share
/// re-allocation at every step, boundary selection over the active set and
/// the per-epoch session spin-up/drain — the overhead the perf gate guards.
fn bench_scheduler(c: &mut Criterion) {
    let engine = Engine::build(scenarios::continuous_world(7)).unwrap();
    let watched: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .take(2)
        .collect();
    let config = MonitorConfig {
        shards: 2,
        windows: 2,
        checkpoint_every: Some(1), // one-window epochs: tenants interleave
        ..MonitorConfig::default()
    };
    let mut group = c.benchmark_group("streaming/scheduler_experiment_scale");
    group.sample_size(10);
    for tenants in [1usize, 10, 100] {
        group.bench_with_input(
            BenchmarkId::new("monitor_2_windows", tenants),
            &tenants,
            |b, &tenants| {
                b.iter(|| {
                    let mut builder = Scheduler::builder().global_pps(500 * tenants as u64);
                    for _ in 0..tenants {
                        builder = builder.add(
                            SchedCampaign::new(black_box(&engine), config.clone(), watched.clone()),
                            1,
                        );
                    }
                    let report = builder.run().expect("valid scheduler configuration");
                    black_box(report.allocations.len())
                })
            },
        );
    }
    group.finish();
}

/// What an epoch costs beyond its observations: one `tenants_64`-shaped
/// tenant (the world's two spread-layout /48s at /56, 512 targets a window,
/// 1 shard × 1 producer) probing the same four windows as four one-window
/// epochs and as one four-window epoch, both through `run_controlled` — so
/// both pay one session, one pool and one report fold, and the pair differs
/// by exactly three epoch boundaries. With the driver owning the workers and
/// the session keeping its target stream the two read alike; a boundary that
/// spawns, allocates or rebuilds again shows as a gap.
fn bench_epoch_fixed_cost(c: &mut Criterion) {
    let engine = Engine::build(scenarios::continuous_world(7)).unwrap();
    let pool_48s: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect();
    let watched: Vec<Ipv6Prefix> = pool_48s.into_iter().rev().take(2).collect();
    let config = |checkpoint_every| MonitorConfig {
        shards: 1,
        windows: 4,
        packets_per_second: 500,
        checkpoint_every,
        ..MonitorConfig::default()
    };
    let mut group = c.benchmark_group("streaming/epoch_fixed_cost");
    group.sample_size(30);
    for (name, checkpoint_every) in [
        ("four_1_window_epochs", Some(1)),
        ("one_4_window_epoch", None),
    ] {
        let monitor = StreamMonitor::new(config(checkpoint_every));
        group.bench_function(name, |b| {
            b.iter(|| {
                monitor
                    .run_controlled(black_box(&engine), &watched, MonitorControl::default())
                    .expect("no panic injected")
            })
        });
    }
    group.finish();
}

/// What interleaving costs a tenant: the `tenants_64` shape — 64 equal
/// tenants watching `continuous_world`'s two spread-layout /48s at /56, four
/// one-window epochs at 500 pps, 1 shard × 1 producer — through
/// `Scheduler::run`, which visits the tenants round-robin one epoch at a
/// time, and as the same 64 `MonitorSession`s, all opened first, run one
/// after another at the same share on one lent `ShardPool`. Both sides probe
/// and fold the same observations; the gap is what the tenants' state costs
/// when each epoch finds it evicted by 63 others.
fn bench_scheduler_interleave(c: &mut Criterion) {
    const TENANTS: usize = 64;
    const PPS: u64 = 500;
    let engine = Engine::build(scenarios::continuous_world(7)).unwrap();
    let pool_48s: Vec<Ipv6Prefix> = engine
        .pools()
        .iter()
        .filter(|p| p.config.prefix.len() <= 48)
        .flat_map(|p| p.config.prefix.subnets(48).unwrap())
        .collect();
    let watched: Vec<Ipv6Prefix> = pool_48s.into_iter().rev().take(2).collect();
    let config = MonitorConfig {
        shards: 1,
        producers: 1,
        windows: 4,
        packets_per_second: PPS,
        checkpoint_every: Some(1), // one-window epochs: tenants interleave
        ..MonitorConfig::default()
    };
    let mut group = c.benchmark_group("streaming/scheduler_interleave");
    group.sample_size(20);
    group.bench_function("interleaved", |b| {
        b.iter(|| {
            let mut builder = Scheduler::builder().global_pps(PPS * TENANTS as u64);
            for _ in 0..TENANTS {
                let campaign =
                    SchedCampaign::new(black_box(&engine), config.clone(), watched.clone());
                builder = builder.add(campaign, 1);
            }
            let run = builder.run().expect("valid scheduler configuration");
            black_box(run.tenants.len())
        })
    });
    group.bench_function("back_to_back", |b| {
        b.iter(|| {
            let mut pool = ShardPool::open(config.shards);
            let mut sessions: Vec<MonitorSession<'_, Engine>> = (0..TENANTS)
                .map(|tenant| {
                    MonitorSession::new(black_box(&engine), config.clone(), watched.clone(), None)
                        .with_tenant(tenant as u32)
                })
                .collect();
            for session in &mut sessions {
                while !session.is_done() {
                    session.run_epoch_on(&mut pool, PPS).expect("valid epoch");
                }
            }
            let reports: Vec<_> = sessions.into_iter().map(MonitorSession::finish).collect();
            black_box(reports.len())
        })
    });
    group.finish();
}

/// Adaptive hierarchical discovery versus a flat watch list, at equal probe
/// budget, on the churn world whose dense /48 band marches daily within a
/// /44. The flat strategy covers the band's whole travel range the only way
/// a list can — watching all 16 /48s of the migrating /44 plus the control
/// pool, 17 × 256 detection probes per window. The adaptive strategy starts
/// *unseeded* and spends the same 4352 probes per boundary as a
/// tree-allocated discovery sweep instead, watching only what the tree
/// certifies dense. The pair prices the tree machinery itself — plan →
/// sweep → fold → rebalance plus the Expansion-phase routing of every sweep
/// probe — against the flat list's brute-force detection cost, which is the
/// overhead the perf gate guards.
fn bench_discovery(c: &mut Criterion) {
    let engine = Engine::build(scenarios::churn_world(7)).unwrap();
    let flat: Vec<Ipv6Prefix> = engine.pools()[0]
        .config
        .prefix
        .subnets(48)
        .unwrap()
        .chain(std::iter::once(engine.pools()[1].config.prefix))
        .collect();
    let per_window_budget = flat.len() as u64 * 256;
    let mut group = c.benchmark_group("streaming/discovery_experiment_scale");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("monitor_3_windows", "flat_watch"), |b| {
        let config = MonitorConfig {
            shards: 2,
            windows: 3,
            granularity: 56,
            start: SimTime::at(10, 9),
            churn: Some(WatchChurn {
                refresh_every: 1,
                watch_capacity: flat.len(),
                ..WatchChurn::default()
            }),
            ..MonitorConfig::default()
        };
        b.iter(|| StreamMonitor::new(config.clone()).run(black_box(&engine), black_box(&flat)))
    });
    group.bench_function(
        BenchmarkId::new("monitor_3_windows", "adaptive_tree"),
        |b| {
            let config = MonitorConfig {
                shards: 2,
                windows: 3,
                granularity: 56,
                start: SimTime::at(10, 9),
                churn: Some(WatchChurn {
                    refresh_every: 1,
                    watch_capacity: 3,
                    ..WatchChurn::default()
                }),
                discovery: Some(DiscoveryConfig {
                    probe_budget: per_window_budget,
                    ..DiscoveryConfig::paper_scale()
                }),
                ..MonitorConfig::default()
            };
            b.iter(|| StreamMonitor::new(config.clone()).run(black_box(&engine), black_box(&[])))
        },
    );
    group.finish();
}

/// One discovery boundary, alone: the first epoch of an unseeded
/// `churn_world` session — nothing watched yet, so the epoch *is* its
/// boundary cycle — on a lent one-shard pool, observed like the end-to-end
/// benchmark's `churn_discovery_ckpt` and sweeping what one of its rounds
/// sweeps: 131 072 probes, one into every /48 of the world's two /32s. The
/// cycle streams plan → probe → route → fold at about a hundred nanoseconds
/// a probe; a sweep that is materialised and replayed again reads about
/// twice that, which is what this point is in the gate to catch.
fn bench_discovery_boundary(c: &mut Criterion) {
    let engine = Engine::build(scenarios::churn_world(7)).unwrap();
    let config = MonitorConfig {
        shards: 1,
        windows: 2,
        churn: Some(WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        }),
        discovery: Some(DiscoveryConfig {
            probe_budget: 131_072,
            rounds: 1,
            ..DiscoveryConfig::paper_scale()
        }),
        ..MonitorConfig::default()
    };
    let mut pool = ShardPool::open(config.shards);
    c.bench_function("streaming/discovery_boundary_cycle", |b| {
        b.iter(|| {
            let telemetry = Telemetry::new();
            let mut session = MonitorSession::new(
                black_box(&engine),
                config.clone(),
                Vec::new(),
                Some(&telemetry),
            );
            session
                .run_epoch_on(&mut pool, config.packets_per_second)
                .expect("no panic injected");
            session.next_epoch()
        })
    });
}

criterion_group! {
    name = streaming;
    config = Criterion::default().sample_size(10);
    targets = bench_batch_vs_streaming, bench_monitor_ingest, bench_hot_path,
        bench_producer_scaling, bench_watch_churn, bench_telemetry_overhead,
        bench_checkpoint, bench_scheduler, bench_epoch_fixed_cost, bench_scheduler_interleave,
        bench_discovery,
        bench_discovery_boundary
}
criterion_main!(streaming);
