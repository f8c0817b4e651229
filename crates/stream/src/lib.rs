//! `scent-stream`: a streaming, sharded, bounded-memory monitoring engine.
//!
//! The batch [`Pipeline`](scent_core::Pipeline) reproduces the paper's
//! methodology as a one-shot run: expand seeds, classify density, take two
//! snapshots 24 hours apart, diff them. The §6 case study — and a
//! production-scale monitor — instead wants a *long-running* process that
//! ingests probe responses continuously and flags rotations as they happen.
//! This crate provides that engine:
//!
//! | Piece | Module | What it does |
//! |---|---|---|
//! | Event type & sources | [`observation`] | [`Observation`]s, the [`ObservationSource`] trait |
//! | Buffer recycling | [`buffer`] | `BatchPool`/[`BatchReturn`]: fixed-capacity observation batches recirculated over bounded return channels, so the steady-state hot path never touches the allocator |
//! | The probe pass | [`source`] | [`ContinuousStream`]: drive a [`ProbeTransport`](scent_prober::ProbeTransport) as a permuted, paced pass over a target list, window after window of virtual time — a scan is the same stream limited to one window — optionally with deterministic virtual-queue AIMD rate feedback |
//! | Producer sharding | [`clock`] | Recombine P per-slice producers through the [`MergedClock`] — bit-identical output for any producer count |
//! | Shard routing | [`router`] | Partition observations by announced prefix (/32 granularity) over bounded channels; [`ShardMap`] exposes the pure target → shard mapping the feedback model shares |
//! | Per-shard inference | [`shard`] | [`ShardInference`]: the state a shard worker folds observations into — the incremental classifiers of `scent-core` — and its order-normalized merge |
//! | The one engine | [`engine`] | [`ShardPool`]: the shard worker threads, their queues and the recycle pool, owned by whoever loops over epochs and joined when it drops. [`IngestEngine`]: one lease of a pool — hand the workers the lessee's states, arm the router with its map and observer, drive producer sources through the merged clock and a per-observation hook into the shards, release into the states handed back or a typed error — and the one place a described probe pass becomes paced, sliced, counted, rate-mirrored sources. The pipeline (one pass per scan) and the monitor (one lease per epoch) are its only production callers |
//! | Batch equivalence | [`pipeline`] | [`StreamPipeline`]: the full discovery pipeline, streamed — produces an identical [`PipelineReport`](scent_core::PipelineReport) |
//! | Continuous monitor | [`monitor`] | [`StreamMonitor`]: endless windows, [`RotationEvent`](scent_core::RotationEvent)s, passive tracking, and an optionally *live* watch list ([`WatchChurn`]) revised from the monitor's own density state; [`MonitorSession`] exposes the same run one epoch at a time for external scheduling |
//! | Typed failures | [`error`] | [`ConfigError`]: the one statement of what a runnable [`StreamConfig`]/[`MonitorConfig`] is (`validate`); [`StreamError`]: a refused configuration, checkpoint failures and shard-worker panics surface as values, never as control-thread panics |
//! | Checkpoint/restore | [`checkpoint`] | [`MonitorSnapshot`]: every piece of incremental monitor state captured at an epoch boundary by a session's checkpoint stage, restored through [`MonitorSession::open`] (which [`StreamMonitor::run_controlled`] calls) for byte-identical resume; [`StopSignal`] for graceful drain |
//!
//! Six properties hold by construction and are enforced by tests:
//!
//! * **Shard-merge determinism** — the merged report is identical for any
//!   shard count, because every /48's state lives wholly in one shard
//!   (routing is by announced prefix) and merges are order-normalized.
//! * **Producer-merge determinism** — the merged observation sequence is
//!   identical for any *producer* count, because per-producer slices carry
//!   global sequence numbers and send times and the [`MergedClock`] replays
//!   them in global order regardless of thread scheduling.
//! * **Batch equivalence** — [`StreamPipeline::run`] produces the same
//!   [`PipelineReport`](scent_core::PipelineReport) as the batch pipeline on
//!   the same world, because the batch classifiers are implemented on top of
//!   the same incremental state this engine folds one observation at a time.
//! * **Deterministic backpressure** — AIMD rate feedback
//!   ([`QueueModel`](scent_prober::QueueModel)) reacts to *virtual* queue
//!   depths (observations enqueued per shard minus what a configured drain
//!   rate retired by the current virtual send time), never to OS channel
//!   pressure, so feedback-on runs are pure functions of their configuration
//!   and stay producer-count-invariant.
//! * **Deterministic watch-list churn** — a churning monitor's revisions
//!   ([`WatchChurn`]) are computed from the merged observation sequence and
//!   deterministic boundary re-expansion probes, never from OS timing, so
//!   the revision history, the final watch list and every report field stay
//!   byte-identical across producer counts and across live vs.
//!   recorded-replay backends.
//! * **Deterministic telemetry** — every hook of the deterministic telemetry
//!   tier (window aggregates, rate transitions, queue depths, epoch
//!   revisions) fires on the merge/control thread in merged clock order, so
//!   a [`Telemetry`](scent_telemetry::Telemetry) registry's deterministic
//!   snapshot is itself a pure function of `(config, world seed)` —
//!   byte-identical across shard counts, producer counts and live vs.
//!   recorded-replay backends. Wall-clock diagnostics (stalls, channel
//!   depths, elapsed spans) live in a separate profile tier that makes no
//!   such promise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod checkpoint;
pub mod clock;
pub mod engine;
pub mod error;
pub mod monitor;
pub mod observation;
mod observe;
pub mod pipeline;
pub mod router;
pub mod shard;
pub mod source;

pub use buffer::{BatchReturn, PoolCounters};
pub use checkpoint::{config_fingerprint, world_fingerprint, MonitorSnapshot, StopSignal};
pub use clock::{ChannelSource, LimitedSource, MergedClock};
pub use engine::{spawn_producers, IngestEngine, IngestOptions, ShardPool};
pub use error::{ConfigError, StreamError};
pub use monitor::{
    MonitorConfig, MonitorControl, MonitorReport, MonitorSession, StreamMonitor, WatchChurn,
};
pub use observation::{Observation, ObservationSource, Phase};
pub use pipeline::{StreamConfig, StreamPipeline};
pub use router::{ShardMap, ShardRouter};
pub use shard::{ShardInference, ShardMsg};
pub use source::{continuous_seq_shards, ContinuousStream, ContinuousStreamBuilder};
