//! The streamed discovery pipeline: the batch methodology, run as a sharded
//! observation stream.
//!
//! [`StreamPipeline::run`] performs the same four steps as the batch
//! [`Pipeline`](scent_core::Pipeline) — seed campaign, expansion, density,
//! two-snapshot detection — but instead of materializing whole scans it
//! streams every probe outcome through the shard router into per-shard
//! incremental classifiers, merging only at phase boundaries (each phase's
//! target list depends on the previous phase's merged result). The probing
//! side replays the exact scanner semantics (same permutation seeds, same
//! pacing), and the classifiers are the same incremental state the batch
//! functions are built on, so the final [`PipelineReport`] is identical to
//! the batch pipeline's on any world — the equivalence the integration tests
//! assert.
//!
//! Every scan is one pass description handed to the [`IngestEngine`]: a
//! one-window probe pass anchored at its own start. With
//! [`StreamConfig::producers`] above 1 the engine splits it into
//! per-producer slices probing the backend concurrently and recombines them
//! through the [`MergedClock`](crate::clock::MergedClock); the merged
//! sequence is bit-identical to the single-producer scan, so the report
//! equality holds for any producer count (also test-enforced).

use serde::{Deserialize, Serialize};

use scent_core::pipeline::{RotatingCounts, DENSITY_GRANULARITY, EXPANSION_TIME, SEED_TIME};
use scent_core::rotation_detect::rotating_48s;
use scent_core::{
    DensityAccumulator, DensityReport, PipelineConfig, PipelineReport, SeedExpansion,
};
use scent_prober::{
    ProbeTransport, QueueModel, SeedCampaign, TargetGenerator, TargetStream, WorldView,
};
use scent_simnet::{SimDuration, SimTime};

use scent_telemetry::StreamObserver;

use crate::engine::{IngestEngine, IngestOptions, Pass, ShardPool};
use crate::error::{ConfigError, StreamError};
use crate::observation::Phase;
use crate::router::ShardMap;
use crate::shard::ShardInference;

/// Streaming engine configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// The methodology parameters (shared with the batch pipeline).
    pub pipeline: PipelineConfig,
    /// Number of inference shards.
    pub shards: usize,
    /// Number of probe producers each phase's scan is split across (1 = the
    /// classic single-threaded prober). Producers probe concurrently; the
    /// merged clock keeps the observation sequence — and therefore the
    /// report — bit-identical for any count.
    pub producers: usize,
    /// The virtual-queue model every phase's scan adapts its rate to (AIMD)
    /// when the model can throttle ([`QueueModel::can_throttle`]). The
    /// default ([`QueueModel::unbounded`]) cannot: the fixed-rate trajectory
    /// matches the batch pipeline bit for bit, which is what the batch ≡
    /// streamed equivalence tests assert. Throttling runs stay
    /// bit-reproducible — the signal is a pure function of `(config, target
    /// order, virtual time)` — and remain producer-count-invariant, but
    /// their send times (and therefore what a time-varying world answers)
    /// may differ from the fixed-rate run's. Each phase's scan starts from
    /// fresh (empty) queues — the drain epoch is the phase's scan start.
    pub queue_model: QueueModel,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            pipeline: PipelineConfig::default(),
            shards: 2,
            producers: 1,
            queue_model: QueueModel::default(),
        }
    }
}

impl StreamConfig {
    /// Whether a run can honour this configuration: at least one shard and
    /// one producer, a non-zero probe rate, ordered queue watermarks and a
    /// detection granularity of at most /64. [`StreamPipeline::run`]
    /// returns the broken rule as [`StreamError::Config`] before anything
    /// starts.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::check_plane(
            self.shards,
            self.producers,
            self.pipeline.packets_per_second,
            &self.queue_model,
            self.pipeline.detection_granularity,
        )
    }
}

/// The streamed discovery pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamPipeline {
    /// Configuration.
    pub config: StreamConfig,
}

impl StreamPipeline {
    /// Create a streamed pipeline.
    pub fn new(config: StreamConfig) -> Self {
        StreamPipeline { config }
    }

    /// A streamed pipeline with the given shard count and otherwise default
    /// configuration.
    pub fn with_shards(pipeline: PipelineConfig, shards: usize) -> Self {
        StreamPipeline {
            config: StreamConfig {
                pipeline,
                shards,
                ..StreamConfig::default()
            },
        }
    }

    /// Run the full pipeline against any measurement backend, streaming
    /// every probe through the shards. Produces the identical report the
    /// batch [`Pipeline`](scent_core::Pipeline) computes from whole scans.
    ///
    /// A configuration [`StreamConfig::validate`] refuses is
    /// [`StreamError::Config`], returned before any hook fires, thread
    /// starts or probe is sent. Once running, the only error is
    /// [`StreamError::ShardPanicked`]: a shard worker dying no longer
    /// re-raises on the control thread — the run aborts cleanly, with every
    /// surviving worker joined, and returns the typed error instead.
    pub fn run<B: ProbeTransport + WorldView + ?Sized>(
        &self,
        world: &B,
    ) -> Result<PipelineReport, StreamError> {
        self.run_observed(world, None)
    }

    /// [`StreamPipeline::run`] with a telemetry observer attached to every
    /// hook point: producer probe accounting, deterministic routing order,
    /// per-shard ingest progress, merge-side rate replay (when
    /// [`StreamConfig::queue_model`] can throttle), one
    /// [`StreamObserver::on_phase_close`] per scan phase, and a wall-clock
    /// span for the whole run. `run` is exactly `run_observed(world, None)`,
    /// and the no-observer path pays one `None` branch per observation over
    /// the unobserved code.
    pub fn run_observed<B: ProbeTransport + WorldView + ?Sized>(
        &self,
        world: &B,
        observer: Option<&dyn StreamObserver>,
    ) -> Result<PipelineReport, StreamError> {
        self.config.validate()?;
        let started = observer.is_some().then(std::time::Instant::now);
        if let Some(telemetry) = observer {
            telemetry.on_run_start(self.config.shards, self.config.producers);
        }
        let report = self.run_streamed(world, observer);
        if let (Some(telemetry), Some(started)) = (observer, started) {
            telemetry.on_wall_span("pipeline_run", started.elapsed().as_nanos() as u64);
        }
        report
    }

    /// The run between the telemetry brackets: the seed campaign, then the
    /// scan phases as passes of one lease of a pool opened for the run.
    fn run_streamed<B: ProbeTransport + WorldView + ?Sized>(
        &self,
        world: &B,
        observer: Option<&dyn StreamObserver>,
    ) -> Result<PipelineReport, StreamError> {
        let cfg = &self.config.pipeline;

        // Step 0: stale seed traceroute campaign (bootstrap, not streamed —
        // it predates the monitor by construction).
        let seed_campaign = SeedCampaign::run(world, SEED_TIME, cfg.max_48s_per_seed);
        let seed_unique = seed_campaign.unique_eui64_48s();
        let seed_32s = seed_campaign.seed_32s();

        let shard_map = ShardMap::new(&world.rib().entries(), self.config.shards);

        let mut pool = ShardPool::open(self.config.shards);
        let options = |initial| IngestOptions {
            observer,
            initial,
            ..IngestOptions::default()
        };
        let mut engine = IngestEngine::lease(&mut pool, shard_map.clone(), options(None));
        // Each phase's target list depends on the previous phase's result,
        // read at the phase boundary off the released shard states — by
        // reference: a /48 lives in exactly one shard, so nothing needs
        // merging — which the next phase's lease then carries on by move. A
        // shard death ends the scans at that phase's boundary: the state can
        // no longer be completed, so building and probing the later phases
        // would only waste probes.
        let scanned = 'scans: {
            // Step 1: expansion & validation (§4.1), streamed. Same targets,
            // order and pacing as `SeedExpansion::run`.
            let candidates = SeedExpansion::candidate_48s(&seed_32s, cfg.max_48s_per_seed);
            let mut expansion_targets = Vec::with_capacity(candidates.len());
            TargetGenerator::new(cfg.seed).draw_into(
                candidates.iter().map(|candidate| candidate.network_bits()),
                48,
                &mut expansion_targets,
            );
            let Some(routed) = self.scan(
                &mut engine,
                world,
                Phase::Expansion,
                TargetStream::over(expansion_targets, cfg.seed ^ 0x9e37, true),
                10_000,
                EXPANSION_TIME,
            ) else {
                break 'scans None;
            };
            if let Some(telemetry) = observer {
                telemetry.on_phase_close("expansion", routed);
            }
            let states = engine.release()?;
            let mut validated: Vec<_> = (states.iter())
                .flat_map(|state| state.validated.iter().copied())
                .collect();
            validated.sort_unstable();
            engine = IngestEngine::lease(&mut pool, shard_map.clone(), options(Some(states)));

            // Step 2: density inference (§4.2), streamed. Same generator and
            // scanner parameters as the batch pipeline.
            let density_generator = TargetGenerator::new(cfg.seed ^ 0xdead);
            let density_targets =
                density_generator.per_candidate_48(&validated, DENSITY_GRANULARITY);
            let Some(routed) = self.scan(
                &mut engine,
                world,
                Phase::Density,
                TargetStream::over(density_targets, cfg.seed, true),
                cfg.packets_per_second,
                EXPANSION_TIME + SimDuration::from_hours(2),
            ) else {
                break 'scans None;
            };
            if let Some(telemetry) = observer {
                telemetry.on_phase_close("density", routed);
            }
            let states = engine.release()?;
            let empty = DensityAccumulator::new();
            let density = DensityReport {
                prefixes: (validated.iter())
                    .map(|candidate| {
                        let held = states.iter().find_map(|s| s.density.get(candidate));
                        held.unwrap_or(&empty).finish(*candidate)
                    })
                    .collect(),
            };
            let high = density.high_density();

            // Step 3: rotation detection (§4.3) as two streamed snapshot
            // windows 24 hours apart. The second re-probes the first one's
            // list in the first one's order: one target stream, tagged per
            // window, one target per subnet of each /48 at the granularity
            // each shard's detector lays its blocks out for.
            let detection_targets =
                density_generator.per_candidate_48(&high, cfg.detection_granularity);
            let states = (states.into_iter())
                .map(|state| state.detecting_at(cfg.detection_granularity))
                .collect();
            engine = IngestEngine::lease(&mut pool, shard_map, options(Some(states)));
            let detection = TargetStream::over(detection_targets, cfg.seed, true);
            let mut detection_routed = 0u64;
            for window in 0..2u64 {
                let Some(routed) = self.scan(
                    &mut engine,
                    world,
                    Phase::Detection,
                    detection.clone().starting_at_window(window),
                    cfg.packets_per_second,
                    cfg.first_snapshot
                        + SimDuration::from_secs(SimDuration::from_days(1).as_secs() * window),
                ) else {
                    break 'scans None;
                };
                detection_routed += routed;
            }
            if let Some(telemetry) = observer {
                telemetry.on_phase_close("detection", detection_routed);
            }
            Some((candidates.len(), validated.len(), density, high.len()))
        };

        let closed = engine.release();
        // Before the fold: the parked workers' batch buffers must not sit
        // under the report merge's peak.
        drop(pool);
        let states = closed?;
        let (expansion_probed, validated_48s, density, high_density) =
            scanned.expect("a dead shard fails the release");
        if let Some(telemetry) = observer {
            for (shard, state) in states.iter().enumerate() {
                telemetry.on_shard_final(shard, state.observations);
            }
        }
        let merged = ShardInference::merge_all(states);

        let rotating_48s = rotating_48s(&merged.events);
        let rotating_counts =
            RotatingCounts::tally(world.rib(), world.as_registry(), &rotating_48s);
        let (total_addresses, eui64_addresses, unique_iids) = merged.address_statistics();

        Ok(PipelineReport {
            seed_unique_48s: seed_unique.len(),
            seed_32s: seed_32s.len(),
            expansion_probed: expansion_probed as u64,
            validated_48s,
            high_density,
            low_density: density.low_density().len(),
            no_response: density.no_response().len(),
            rotating_ases: rotating_counts.per_asn.len(),
            rotating_countries: rotating_counts.per_country.len(),
            rotating_48s,
            rotating_counts,
            total_addresses,
            eui64_addresses,
            unique_iids,
        })
    }

    /// Stream one scan through the engine — one window of `targets`, tagged
    /// with the window `targets` is positioned at, paced from `start` — and
    /// return how many observations it routed, or `None` once a shard has
    /// died.
    fn scan<B: ProbeTransport + WorldView + ?Sized>(
        &self,
        engine: &mut IngestEngine<'_>,
        world: &B,
        phase: Phase,
        targets: TargetStream,
        rate_pps: u64,
        start: SimTime,
    ) -> Option<u64> {
        let pass = Pass {
            phase,
            targets,
            windows: 1,
            rate_pps,
            start,
            // Anchored at its own start: fresh pacers, and a drain clock
            // that starts where the scan does, whatever window it is.
            interval: SimDuration::from_secs(0),
            tenant: 0,
            queue_model: &self.config.queue_model,
        };
        let (routed, _) = engine.run_pass(world, self.config.producers, pass, |_, _| {});
        engine.router().dead_shard().is_none().then_some(routed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_core::Pipeline;
    use scent_simnet::{scenarios, Engine, WorldScale};

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            max_48s_per_seed: 128,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn streamed_pipeline_equals_batch_pipeline() {
        let world = scenarios::paper_world(71, WorldScale::small());
        let batch_engine = Engine::build(world.clone()).unwrap();
        let batch = Pipeline::new(small_config()).run(&batch_engine);

        let stream_engine = Engine::build(world).unwrap();
        let streamed = StreamPipeline::with_shards(small_config(), 2)
            .run(&stream_engine)
            .unwrap();
        assert_eq!(batch, streamed);
        assert!(
            !streamed.rotating_48s.is_empty(),
            "a vacuous equality proves nothing"
        );
        assert!(streamed.high_density > 0);
    }

    /// Feedback-on streamed runs stay producer-count-invariant: the
    /// virtual-queue trajectory is replayed identically by every slice.
    #[test]
    fn feedback_pipeline_report_is_producer_invariant() {
        let world = scenarios::paper_world(71, WorldScale::small());
        let config = |producers: usize| StreamConfig {
            pipeline: small_config(),
            shards: 2,
            producers,
            queue_model: QueueModel {
                drain_rate: Some(2_000),
                high_watermark: 4_096,
                low_watermark: 512,
            },
        };
        let single = {
            let engine = Engine::build(world.clone()).unwrap();
            StreamPipeline::new(config(1)).run(&engine).unwrap()
        };
        assert!(!single.rotating_48s.is_empty());
        for producers in [2usize, 4, 8] {
            let engine = Engine::build(world.clone()).unwrap();
            let sharded = StreamPipeline::new(config(producers)).run(&engine).unwrap();
            assert_eq!(single, sharded, "producers={producers}");
        }
    }

    #[test]
    fn producer_count_does_not_change_the_report() {
        let world = scenarios::paper_world(71, WorldScale::small());
        let reports: Vec<PipelineReport> = [1usize, 2, 4, 8]
            .iter()
            .map(|&producers| {
                let engine = Engine::build(world.clone()).unwrap();
                let config = StreamConfig {
                    pipeline: small_config(),
                    producers,
                    ..StreamConfig::default()
                };
                StreamPipeline::new(config).run(&engine).unwrap()
            })
            .collect();
        for report in &reports[1..] {
            assert_eq!(&reports[0], report);
        }
        assert!(!reports[0].rotating_48s.is_empty());
    }

    #[test]
    fn shard_count_does_not_change_the_report() {
        // The default config's 8192-candidate cap reaches Versatel's pools
        // (their /48 indices start at 256, beyond the scaled-down 128 cap).
        let world = scenarios::versatel_like(51);
        let reports: Vec<PipelineReport> = [1usize, 2, 3, 5]
            .iter()
            .map(|&shards| {
                let engine = Engine::build(world.clone()).unwrap();
                StreamPipeline::with_shards(PipelineConfig::default(), shards)
                    .run(&engine)
                    .unwrap()
            })
            .collect();
        for report in &reports[1..] {
            assert_eq!(&reports[0], report);
        }
        assert!(!reports[0].rotating_48s.is_empty());
    }
}
