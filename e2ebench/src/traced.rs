//! The traced pass: per-layer metrics, measured from outside through public
//! functions, plus the span file.
//!
//! Three parts, all on the workload's own world and inputs:
//!
//! 1. **Cycles** — the op driven by hand with a span around every call into
//!    the engine, then the plain op without and with a `Telemetry` observer,
//!    kernel samples between them, then one turn of the hot-path replays
//!    (source, probe, route, classify), so that replays and traced ops meet
//!    the same phases of the box. They give the traced op time, the tracing
//!    overhead, the telemetry overhead and the per-observation stages.
//! 2. **The other engine entry point**, so that every layer is measured on
//!    every world: monitor workloads also run the observed pipeline, the
//!    pipeline workload also drives monitor sessions by hand.
//! 3. **The remaining replays** over the op's own observations and boundary
//!    inputs (merge, density fold, epoch fixed cost, revision, expansion,
//!    discovery cycle, snapshot codec, scheduler overhead).
//!
//! The stage sum puts the replayed costs back together with the op's counts;
//! what it leaves of the traced op time is reported as unattributed, not
//! hidden.

use std::sync::mpsc::sync_channel;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use scent_core::density::DensityAccumulator;
use scent_core::{FastMap, PipelineConfig, SeedExpansion};
use scent_discovery::{DiscoveryConfig, DiscoveryTree};
use scent_ipv6::Ipv6Prefix;
use scent_prober::{ProbeTransport, Scanner, TargetGenerator, TargetStream};
use scent_simnet::{Engine, ProbeReply, SimDuration, SimTime, TraceHop};
use scent_stream::{
    continuous_seq_shards, ContinuousStream, LimitedSource, MergedClock, MonitorConfig,
    MonitorSession, MonitorSnapshot, Observation, ObservationSource, Phase, ShardInference,
    ShardMap, ShardMsg, ShardRouter, StreamConfig, StreamPipeline,
};
use scent_telemetry::StreamObserver;

use crate::kernel::{reference_ms, Kernel};
use crate::metrics::Effort;
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::workloads::{
    hand_driven, pipeline_1x1, run_plan, schedule, Plan, Report, Scenario, Setup, Tap,
};
use crate::{alloc, os};

/// The percentile of wall-clock spans and traced ops that stands for their
/// cost when the box leaves them alone.
const FAST_PERCENTILE: usize = 10;

/// What one traced run measured.
pub struct Traced {
    /// Ops run in the cycles (traced and plain).
    pub ops: u64,
    /// Ops that returned `Err` or a report other than the reference.
    pub failed_ops: u64,
    /// Every per-layer metric, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The recorded spans.
    pub spans: Recorder,
}

fn timed<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = body();
    (result, start.elapsed().as_nanos() as f64)
}

/// A transport on which every probe is lost: what is left of draining a
/// stream over it is target generation, permutation and pacing.
struct NullTransport;

impl ProbeTransport for NullTransport {
    fn probe(&self, _target: std::net::Ipv6Addr, _t: SimTime) -> Option<ProbeReply> {
        None
    }

    fn trace(&self, _target: std::net::Ipv6Addr, _t: SimTime, _max_hops: u8) -> Vec<TraceHop> {
        Vec::new()
    }
}

/// One strided slice of pre-probed observations, as a producer would feed it.
struct Replay<'a> {
    observations: &'a [Observation],
    next: usize,
    step: usize,
}

impl ObservationSource for Replay<'_> {
    fn next_observation(&mut self) -> Option<Observation> {
        let obs = *self.observations.get(self.next)?;
        self.next += self.step;
        Some(obs)
    }
}

/// Timestamps the pipeline's phase boundaries: the seed campaign ends at the
/// first probe of the expansion scan, every later phase at its
/// `on_phase_close`.
struct PhaseClock {
    start: Instant,
    first_probe_ns: OnceLock<u64>,
    closes: Mutex<Vec<(u64, u64)>>,
}

impl StreamObserver for PhaseClock {
    fn on_probe_sent(&self, _producer: usize) {
        self.first_probe_ns
            .get_or_init(|| self.start.elapsed().as_nanos() as u64);
    }

    fn on_phase_close(&self, _phase: &'static str, probes: u64) {
        let at = self.start.elapsed().as_nanos() as u64;
        self.closes
            .lock()
            .expect("no holder of this lock panics")
            .push((at, probes));
    }
}

/// Run the streamed pipeline with a span per phase under an `op`-level span
/// the caller opened.
fn traced_pipeline(
    rec: &mut Recorder,
    world: &Tap<'_>,
    config: &StreamConfig,
) -> Result<scent_core::PipelineReport, String> {
    let base_ns = rec.now_ns();
    let clock = PhaseClock {
        start: Instant::now(),
        first_probe_ns: OnceLock::new(),
        closes: Mutex::new(Vec::new()),
    };
    let report = StreamPipeline::new(config.clone())
        .run_observed(world, Some(&clock))
        .map_err(|e| e.to_string())?;
    let closes = clock.closes.into_inner().expect("no holder panicked");
    let [expansion, density, detection] = closes[..] else {
        return Err(format!("{} phase closes, expected 3", closes.len()));
    };
    let seed_end = clock.first_probe_ns.get().copied().unwrap_or(expansion.0);
    for (name, start, end, count) in [
        ("core.phase.seed", 0, seed_end, 0),
        ("core.phase.expansion", seed_end, expansion.0, expansion.1),
        ("core.phase.density", expansion.0, density.0, density.1),
        ("core.phase.detection", density.0, detection.0, detection.1),
    ] {
        rec.interval(name, base_ns + start, base_ns + end, count);
    }
    Ok(report)
}

/// The monitor-shaped scenario of a set-up and the watch list its replays
/// probe. Monitor workloads bring their own; the pipeline workload gets a
/// two-window monitor over the /48s its reference found rotating — its own
/// detection phase, session-shaped. A workload that starts from an empty
/// list replays over the list it ended with.
fn scenario_of(setup: &Setup) -> Result<(Scenario, Vec<Ipv6Prefix>), String> {
    let scenario = match (&setup.plan, &setup.reference) {
        (Plan::SteadyWatch(s) | Plan::ChurnDiscoveryCkpt(s) | Plan::Tenants64(s), _) => s.clone(),
        (Plan::FullScan { config }, Report::Pipeline(report)) => Scenario {
            config: MonitorConfig {
                shards: 1,
                producers: 1,
                seed: config.pipeline.seed,
                packets_per_second: config.pipeline.packets_per_second,
                granularity: config.pipeline.detection_granularity,
                windows: 2,
                start: config.pipeline.first_snapshot,
                ..MonitorConfig::default()
            },
            watched: report.rotating_48s.clone(),
            tenants: 1,
            snapshots: false,
            observed: false,
        },
        _ => return Err("the reference is another workload's report".into()),
    };
    let replay_watch = match &setup.reference {
        Report::Monitor(report) if scenario.watched.is_empty() => report.final_watch.clone(),
        _ => scenario.watched.clone(),
    };
    if replay_watch.len() < 2 {
        return Err(format!(
            "{} /48s to replay over, need two",
            replay_watch.len()
        ));
    }
    Ok((scenario, replay_watch))
}

/// The stream a session under `cfg` would drain: same pacing, start and
/// window interval.
fn continuous_stream<'a>(
    transport: &'a (dyn ProbeTransport + 'a),
    targets: TargetStream,
    cfg: &MonitorConfig,
) -> ContinuousStream<'a, dyn ProbeTransport + 'a> {
    ContinuousStream::builder(transport, targets)
        .rate_pps(cfg.packets_per_second)
        .start(cfg.start)
        .window_interval(cfg.window_interval)
        .build()
}

/// How a chain pass routes its observations.
#[derive(Clone, Copy)]
enum Routing<'a> {
    /// Not at all.
    Off,
    /// Through the seq → shard table, as a steady epoch does.
    Table(&'a [u32]),
    /// Through the longest-prefix trie, as discovery sweeps do.
    Trie,
}

/// One pass of the merge thread's loop, as far along as asked: drain
/// `source`, route every observation into one shard whose worker only hands
/// the batch buffers back. Nanoseconds per observation.
///
/// At 1 × 1 target generation, pacing, the probe and routing share one
/// thread and run per observation, so a stage's cost there is what adding it
/// to this loop adds — the cache it takes from the stages before it included,
/// which the stage replayed alone over a hot array would not show. The
/// classify fold runs on the shard's thread in long runs of batches, so it
/// is replayed alone ([`classify_ns`]).
fn chain_ns(engine: &Engine, source: &mut dyn ObservationSource, routing: Routing<'_>) -> f64 {
    const CAPACITY: usize = 1024;
    std::thread::scope(|scope| {
        let mut router = (!matches!(routing, Routing::Off)).then(|| {
            let (tx, rx) = sync_channel::<ShardMsg>(CAPACITY);
            scope.spawn(move || {
                let mut home = None;
                for msg in rx {
                    match msg {
                        ShardMsg::AttachRecycler(recycler) => home = Some(recycler),
                        ShardMsg::ObserveBatch(batch) => {
                            if let Some(home) = &home {
                                home.give(batch);
                            }
                        }
                        _ => {}
                    }
                }
            });
            let map = ShardMap::new(&engine.rib().entries(), 1);
            let mut router = ShardRouter::with_map(map, vec![tx], 64).with_pool_slots(CAPACITY + 2);
            if let Routing::Table(table) = routing {
                router.set_seq_shards(table.to_vec());
            }
            router
        });
        let mut drained = 0u64;
        let ((), nanos) = timed(|| {
            while let Some(obs) = source.next_observation() {
                if let Some(router) = &mut router {
                    router.route(obs);
                }
                std::hint::black_box(obs);
                drained += 1;
            }
            if let Some(router) = router.take() {
                router.shutdown();
            }
        });
        nanos / drained.max(1) as f64
    })
}

/// The shard thread's loop over pre-probed observations. Nanoseconds per
/// observation.
fn classify_ns(observations: &[Observation]) -> f64 {
    let mut state = ShardInference::new();
    let ((), nanos) = timed(|| {
        for obs in observations {
            std::hint::black_box(state.ingest(obs));
        }
    });
    nanos / observations.len().max(1) as f64
}

/// Pre-probed observations probed again as they are replayed: a discovery
/// sweep's probe cost without its scanner.
struct Reprobe<'a> {
    replay: Replay<'a>,
    engine: &'a Engine,
}

impl ObservationSource for Reprobe<'_> {
    fn next_observation(&mut self) -> Option<Observation> {
        let obs = self.replay.next_observation()?;
        std::hint::black_box(self.engine.probe(obs.target, obs.sent_at));
        Some(obs)
    }
}

/// One boundary cycle of a fresh discovery tree with the sweep probed outside
/// the timed sections: nanoseconds of tree work, and the sweep as the
/// expansion-phase observations the monitor routes into its shards.
fn discovery_cycle(
    engine: &Engine,
    config: &MonitorConfig,
    dcfg: &DiscoveryConfig,
    density: &FastMap<Ipv6Prefix, DensityAccumulator>,
) -> (f64, Vec<Observation>) {
    let mut tree = DiscoveryTree::from_announcements(
        engine.rib().entries().iter().map(|e| e.prefix),
        config.seed,
    );
    let generator = TargetGenerator::new(config.seed);
    let scanner = Scanner::at_paper_rate(config.seed ^ 0x5c37);
    let boundary = config.start + config.window_interval;
    let mut folded: Vec<(Ipv6Prefix, u64, u64)> = density
        .iter()
        .map(|(prefix, acc)| (*prefix, acc.probes, acc.uniques.len() as u64))
        .collect();
    folded.sort_by_key(|entry| entry.0);
    let ((), mut nanos) = timed(|| {
        tree.decay(dcfg);
        tree.fold_density(dcfg, folded);
    });
    let mut sweep = Vec::new();
    for _ in 0..dcfg.rounds {
        let budget = (dcfg.probe_budget / u64::from(dcfg.rounds)).max(1);
        let (plan, plan_ns) = timed(|| tree.plan(dcfg, &generator, config.granularity, budget));
        let targets: Vec<_> = plan.iter().map(|probe| probe.target).collect();
        let scan = scanner.scan(engine, &targets, boundary);
        let base = sweep.len() as u64;
        sweep.extend(
            scan.records
                .iter()
                .zip(base..)
                .map(|(record, seq)| Observation {
                    phase: Phase::Expansion,
                    tenant: 0,
                    window: 0,
                    seq,
                    target: record.target,
                    sent_at: record.sent_at,
                    response: record.response,
                }),
        );
        let ((), fold_ns) = timed(|| {
            tree.fold_probes(dcfg, scan.records.iter());
            tree.rebalance(dcfg);
        });
        nanos += plan_ns + fold_ns;
    }
    let (dense, dense_ns) = timed(|| tree.dense_48s(dcfg));
    std::hint::black_box(dense);
    (nanos + dense_ns, sweep)
}

/// Run the traced pass: cycles for about half of `seconds` (at least
/// `effort.min_cycles`), then the fixed-size remainder.
pub fn run(workload: &str, seed: u64, seconds: f64, effort: Effort) -> Result<Traced, String> {
    // Interference only ever adds time, so a replay's figure is its fastest
    // repetition, and a span's or a traced op's its fast decile.
    let fastest = |body: &mut dyn FnMut() -> f64| {
        (0..effort.reps)
            .map(|_| body())
            .fold(f64::INFINITY, f64::min)
    };
    let setup = Setup::build(workload, seed)?;
    let engine = &setup.engine;
    let (scenario, replay_watch) = scenario_of(&setup)?;
    let cfg = &scenario.config;
    // Monitor workloads also run the pipeline at its default candidate cap:
    // their small worlds keep their pools beyond the 128 /48s per seed the
    // pipeline workload scans, and a pipeline that finds nothing has no
    // phases to time.
    let pipeline_config = match &setup.plan {
        Plan::FullScan { config } => config.clone(),
        _ => pipeline_1x1(PipelineConfig {
            seed: 0xf0110 ^ seed,
            ..PipelineConfig::default()
        }),
    };
    // The audit trail the hand-driven sessions follow: the scheduler's own
    // for the tenant workload, a one-tenant scheduler run's for the rest.
    let allocations = match &setup.plan {
        Plan::Tenants64(_) => setup.allocations.clone(),
        _ => schedule(engine, &scenario, &[])?.allocations,
    };
    let mut rec = Recorder::default();
    let mut kernel = Kernel::default();
    let tap = Tap::new(engine);

    // The observations the hot-path replays run over are the ones a session
    // over the replay watch list ingests: same generator, order, pacing and
    // start.
    let targets = || {
        TargetStream::new(
            &TargetGenerator::new(cfg.seed),
            &replay_watch,
            cfg.granularity,
            cfg.seed,
            true,
        )
    };
    let replay_len = (targets().window_len() * cfg.windows as usize).min(effort.replay_cap);
    let observations: Vec<Observation> = {
        let mut stream = continuous_stream(engine, targets(), cfg);
        (0..replay_len)
            .map_while(|_| stream.next_observation())
            .collect()
    };
    let n = observations.len() as f64;
    // The merge thread's loop a stage at a time (see `chain_ns`): a stage is
    // what adding it to the loop adds. One turn of all variants runs in every
    // cycle below, so that the replays and the traced ops meet the same
    // phases of the box.
    let table = continuous_seq_shards(&ShardMap::new(&engine.rib().entries(), 1), &targets());
    let chain = |transport: &dyn ProbeTransport, routing| {
        let stream = continuous_stream(transport, targets(), cfg);
        chain_ns(
            engine,
            &mut LimitedSource::new(stream, replay_len as u64),
            routing,
        )
    };
    let mut hot_path_ns = [f64::INFINITY; 5];

    // Part 1: cycles.
    let mut traced_wall_ms = Vec::new();
    let (mut traced_ref, mut plain_ref, mut observed_ref) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failed_ops, mut stalls, mut default_ops) = (0u64, 0u64, 0u64);
    let (mut alloc_calls, mut ctx_switches) = (0u64, 0u64);
    let mut before_ms = kernel.sample_ms();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds / 2.0 || traced_ref.len() < effort.min_cycles {
        rec.next_op();
        let (start, cpu_start) = (Instant::now(), os::cpu_ms());
        let report = rec.span("op", |rec| {
            let report = match &setup.plan {
                Plan::FullScan { config } => {
                    traced_pipeline(rec, &tap, config).map(|r| Report::Pipeline(Box::new(r)))
                }
                Plan::Tenants64(_) => {
                    hand_driven(rec, &tap, &scenario, &allocations).map(Report::Tenants)
                }
                _ => hand_driven(rec, &tap, &scenario, &allocations)
                    .map(|mut reports| Report::Monitor(Box::new(reports.swap_remove(0)))),
            };
            (report, setup.obs_per_op)
        });
        let cpu_ms = os::cpu_ms() - cpu_start;
        traced_wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let after_ms = kernel.sample_ms();
        traced_ref.push(reference_ms(cpu_ms, before_ms, after_ms));
        failed_ops += u64::from(!report.is_ok_and(|r| r == setup.reference));
        before_ms = after_ms;

        for observed in [false, true] {
            let is_default = observed == scenario.observed;
            let (calls, switches) = (alloc::stats().calls, os::usage().ctx_switches);
            let cpu_start = os::cpu_ms();
            let outcome = run_plan(&setup.plan, engine, Some(observed));
            let cpu_ms = os::cpu_ms() - cpu_start;
            if is_default {
                alloc_calls += alloc::stats().calls - calls;
                ctx_switches += os::usage().ctx_switches - switches;
                stalls += outcome.as_ref().map_or(0, |o| o.stalls);
                default_ops += 1;
            }
            let after_ms = kernel.sample_ms();
            let series = if observed {
                &mut observed_ref
            } else {
                &mut plain_ref
            };
            series.push(reference_ms(cpu_ms, before_ms, after_ms));
            failed_ops += u64::from(!outcome.is_ok_and(|o| o.report == setup.reference));
            before_ms = after_ms;
        }
        let turn = [
            chain(&NullTransport, Routing::Off),
            chain(engine, Routing::Off),
            chain(engine, Routing::Table(&table)),
            chain(engine, Routing::Trie),
            classify_ns(&observations),
        ];
        for (fastest, ns) in hot_path_ns.iter_mut().zip(turn) {
            *fastest = fastest.min(ns);
        }
        before_ms = kernel.sample_ms();
    }
    let cycles = traced_ref.len() as u64;
    let default_ref = if scenario.observed {
        &observed_ref
    } else {
        &plain_ref
    };

    // Part 2: the other entry point, a few times, outside any op.
    rec.next_op();
    for _ in 0..3 {
        match &setup.plan {
            Plan::FullScan { .. } => {
                rec.span("kit.monitor", |rec| {
                    (hand_driven(rec, &tap, &scenario, &allocations).map(drop), 0)
                })?;
            }
            _ => {
                rec.span("kit.pipeline", |rec| {
                    (traced_pipeline(rec, &tap, &pipeline_config).map(drop), 0)
                })?;
            }
        }
    }

    // Part 3: the remaining replays.
    let [source_ns, probed_ns, merge_thread_ns, trie_routed_ns, classify_ns_per_obs] = hot_path_ns;
    let probe_ns = probed_ns - source_ns;
    let route_table_ns = merge_thread_ns - probed_ns;
    let route_trie_ns = trie_routed_ns - probed_ns;
    let merge_ns = fastest(&mut || {
        let slices = (0..4)
            .map(|next| Replay {
                observations: &observations,
                next,
                step: 4,
            })
            .collect();
        let mut clock = MergedClock::new(slices);
        timed(|| while std::hint::black_box(clock.next_observation()).is_some() {}).1 / n
    });
    let mut density: FastMap<Ipv6Prefix, DensityAccumulator> = FastMap::default();
    let fold_ns = fastest(&mut || {
        density.clear();
        timed(|| {
            for obs in &observations {
                density
                    .entry(obs.target_48())
                    .or_default()
                    .observe(&obs.record());
            }
        })
        .1 / n
    });

    // Epoch fixed cost: one-window epochs over one and two watched /48s;
    // what does not double is fixed. (Small lists on purpose: over large ones
    // the per-observation cost grows with the working set and the difference
    // drowns in it.)
    let epoch_ns = |watched: &[Ipv6Prefix]| {
        let config = MonitorConfig {
            windows: 1,
            churn: None,
            discovery: None,
            checkpoint_every: None,
            ..cfg.clone()
        };
        let mut session = MonitorSession::new(engine, config, watched.to_vec(), None);
        timed(|| session.run_epoch(cfg.packets_per_second)).1
    };
    let epoch_fixed_ns = 2.0 * fastest(&mut || epoch_ns(&replay_watch[..1]))
        - fastest(&mut || epoch_ns(&replay_watch[..2]));

    // Boundary inputs: the enclosing blocks of the replay watch list, the
    // density state folded above, the expansion's own candidates.
    let boundary = cfg.start + SimDuration::from_secs(cfg.window_interval.as_secs());
    let churn = cfg.churn.unwrap_or_default();
    let mut seeds: Vec<Ipv6Prefix> = replay_watch
        .iter()
        .map(|p| {
            p.supernet(churn.expansion_len.min(p.len()))
                .expect("shorter")
        })
        .collect();
    seeds.sort();
    seeds.dedup();
    let expand = || {
        SeedExpansion::run_where(
            engine,
            &seeds,
            boundary,
            cfg.seed,
            churn.max_48s_per_seed,
            |_| true,
        )
    };
    let expansion_ns = fastest(&mut || timed(|| std::hint::black_box(expand())).1);
    let candidates = expand().validated_48s;
    let capacity = cfg.churn.map_or(replay_watch.len(), |c| c.watch_capacity);
    let revise_ns = fastest(&mut || {
        timed(|| {
            std::hint::black_box(SeedExpansion::revise_watch_list(
                0,
                &replay_watch,
                &density,
                &candidates,
                capacity,
            ))
        })
        .1
    });
    let dcfg = cfg
        .discovery
        .clone()
        .unwrap_or_else(DiscoveryConfig::paper_scale);
    let mut sweep = Vec::new();
    let cycle_ns = fastest(&mut || {
        let (nanos, observations) = discovery_cycle(engine, cfg, &dcfg, &density);
        sweep = observations;
        nanos
    });
    // What a sweep observation costs, probe to classify: mostly silent,
    // expansion-phase, trie-routed — unlike the detection stream above.
    let sweep_ns = fastest(&mut || {
        let mut source = Reprobe {
            replay: Replay {
                observations: &sweep,
                next: 0,
                step: 1,
            },
            engine,
        };
        chain_ns(engine, &mut source, Routing::Trie) + classify_ns(&sweep)
    });

    // Snapshot, codec and resume, at the boundary after a session's first
    // epoch.
    let mut session = MonitorSession::new(engine, cfg.clone(), scenario.watched.clone(), None);
    session
        .run_epoch(cfg.packets_per_second)
        .map_err(|e| e.to_string())?;
    let snapshot_ns = fastest(&mut || timed(|| std::hint::black_box(session.snapshot())).1);
    let snapshot = session.snapshot();
    let encode_ns = fastest(&mut || timed(|| std::hint::black_box(snapshot.to_bytes())).1);
    let bytes = snapshot.to_bytes();
    let decode_ns =
        fastest(&mut || timed(|| std::hint::black_box(MonitorSnapshot::from_bytes(&bytes))).1);
    let mut resume_error = None;
    let resume_ns = fastest(&mut || {
        let fresh = MonitorSession::new(engine, cfg.clone(), scenario.watched.clone(), None);
        let snapshot = snapshot.clone();
        let (resumed, nanos) = timed(|| fresh.resume(snapshot));
        resume_error = resumed.err().map(|e| e.to_string()).or(resume_error.take());
        nanos
    });
    if let Some(error) = resume_error {
        return Err(format!("resume: {error}"));
    }

    // Scheduler overhead: the scheduler's run against the same sessions
    // driven by hand at the same shares, alternating.
    let plain = Scenario {
        snapshots: false,
        observed: false,
        ..scenario.clone()
    };
    let scheduled_ns = fastest(&mut || timed(|| schedule(engine, &plain, &[])).1);
    let by_hand_ns = fastest(&mut || {
        timed(|| hand_driven(&mut Recorder::default(), &tap, &plain, &allocations)).1
    });
    let steps = allocations.len() as f64;
    let sched_ns_per_step = (scheduled_ns - by_hand_ns) / steps;

    // The stage sum: replayed per-observation and per-call costs times the
    // op's own counts. (A boundary's tree work grows with the sweep it
    // plans and folds, so it is charged per sweep probe.)
    let span_ms = |name: &str| median(&rec.durations_ms(name));
    let quiet_span_ms = |name: &str| percentile(&rec.durations_ms(name), FAST_PERCENTILE);
    let (sweep_obs, expansion_obs, boundaries) = match &setup.reference {
        Report::Monitor(report) => (
            report.discovery.as_ref().map_or(0, |d| d.probes),
            report.expansion_probes,
            report.revisions.len(),
        ),
        _ => (0, 0, 0),
    };
    let stream_obs = (setup.obs_per_op - sweep_obs - expansion_obs) as f64;
    let is_monitor = !matches!(setup.plan, Plan::FullScan { .. });
    let sessions = if is_monitor {
        scenario.tenants as f64
    } else {
        0.0
    };
    let epochs = if is_monitor { steps } else { 0.0 };
    let per_stream_obs = merge_thread_ns
        + classify_ns_per_obs
        + if cfg.churn.is_some() && is_monitor {
            fold_ns
        } else {
            0.0
        };
    let replayed_ns = stream_obs * per_stream_obs
        + sweep_obs as f64 * (sweep_ns + cycle_ns / sweep.len().max(1) as f64)
        + boundaries as f64 * (expansion_ns + revise_ns)
        + epochs * epoch_fixed_ns.max(0.0)
        + if scenario.snapshots {
            epochs * (snapshot_ns + encode_ns)
        } else {
            0.0
        }
        + if scenario.tenants > 1 {
            steps * sched_ns_per_step.max(0.0)
        } else {
            0.0
        };
    // A pipeline has no session to open or finish, but it closes the way
    // `finish` does — merge the shard states, collect the detection, tally —
    // over the detection state its session-shaped stand-in holds, so it is
    // charged that span once, after its seed campaign.
    let spanned_ns = 1e6
        * if is_monitor {
            sessions * (quiet_span_ms("stream.session_new") + quiet_span_ms("stream.finish"))
        } else {
            quiet_span_ms("core.phase.seed") + quiet_span_ms("stream.finish")
        };
    // Both sides as the box allows when it leaves them alone: the fastest
    // repetition of every replay against the fast decile of the traced ops.
    let stage_sum_ns = replayed_ns + spanned_ns;
    let traced_op_ns = percentile(&traced_wall_ms, FAST_PERCENTILE) * 1e6;
    let kobs = (setup.obs_per_op * default_ops) as f64 / 1e3;

    let metrics = vec![
        ("prober.source_ns_per_obs", source_ns),
        ("simnet.probe_ns_per_obs", probe_ns),
        ("simnet.probes", setup.obs_per_op as f64),
        ("stream.route_ns_per_obs", route_table_ns),
        ("stream.route_trie_ns_per_obs", route_trie_ns),
        ("stream.merge_ns_per_obs", merge_ns),
        ("core.classify_ns_per_obs", classify_ns_per_obs),
        ("core.density_fold_ns_per_obs", fold_ns),
        ("stream.session_new_us", span_ms("stream.session_new") * 1e3),
        ("stream.finish_ms", span_ms("stream.finish")),
        ("stream.epoch_ms_p50", span_ms("stream.epoch")),
        ("stream.epoch_fixed_us", epoch_fixed_ns / 1e3),
        ("core.revise_us", revise_ns / 1e3),
        ("core.expansion_us", expansion_ns / 1e3),
        ("discovery.cycle_us", cycle_ns / 1e3),
        ("discovery.probes_per_boundary", sweep.len() as f64),
        ("stream.snapshot_us", snapshot_ns / 1e3),
        ("checkpoint.encode_us", encode_ns / 1e3),
        ("checkpoint.decode_us", decode_ns / 1e3),
        ("checkpoint.bytes_per_snapshot", bytes.len() as f64),
        ("stream.resume_us", resume_ns / 1e3),
        (
            "telemetry.overhead_pct",
            (median(&observed_ref) / median(&plain_ref) - 1.0) * 100.0,
        ),
        ("core.phase_ms.seed", span_ms("core.phase.seed")),
        ("core.phase_ms.expansion", span_ms("core.phase.expansion")),
        ("core.phase_ms.density", span_ms("core.phase.density")),
        ("core.phase_ms.detection", span_ms("core.phase.detection")),
        ("sched.steps", steps),
        ("sched.overhead_us_per_step", sched_ns_per_step / 1e3),
        (
            "stream.unattributed_ns_per_obs",
            (traced_op_ns - stage_sum_ns) / setup.obs_per_op as f64,
        ),
        ("stream.stage_sum_ratio", stage_sum_ns / traced_op_ns),
        ("alloc.count_per_kobs", alloc_calls as f64 / kobs),
        ("os.ctx_switches_per_kobs", ctx_switches as f64 / kobs),
        (
            "stream.backpressure_stalls",
            stalls as f64 / default_ops as f64,
        ),
        (
            "trace.overhead_pct",
            (median(&traced_ref) / median(default_ref) - 1.0) * 100.0,
        ),
    ];
    Ok(Traced {
        ops: cycles * 3,
        failed_ops,
        metrics,
        spans: rec,
    })
}
