//! The typed error surface of the streaming runs.
//!
//! A configuration a run could not honour is a [`ConfigError`], found by
//! [`StreamConfig::validate`](crate::pipeline::StreamConfig::validate) /
//! [`MonitorConfig::validate`](crate::monitor::MonitorConfig::validate) —
//! the one statement of the rules. The runs return it as
//! [`StreamError::Config`] before any observer hook fires, any thread starts
//! or any probe is sent; the `scent-sched` scheduler reports it as
//! `SchedError::InvalidConfig` before it opens a session.
//!
//! A run that started can fail for two reasons: checkpoint plumbing (corrupt or
//! mismatched snapshots, sink I/O) and shard-worker death. Before this type
//! existed a shard panic re-raised on the control thread
//! (`handle.join().expect(..)`) — fatal for a standalone run and
//! catastrophic for a multi-campaign scheduler, where one poisoned tenant
//! must not abort its neighbors. Runs now catch the join error, drain the
//! surviving workers, and return [`StreamError::ShardPanicked`].

use scent_checkpoint::CheckpointError;
use scent_prober::QueueModel;

/// Why a [`StreamConfig`](crate::pipeline::StreamConfig) or
/// [`MonitorConfig`](crate::monitor::MonitorConfig) cannot be run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Zero inference shards.
    NoShards,
    /// Zero probe producers.
    NoProducers,
    /// A probe rate of zero packets per second (no probe could ever be
    /// paced).
    ZeroRate,
    /// The virtual-queue model's watermarks are inverted (the low watermark
    /// must be strictly below the high one). Checked whether or not the
    /// model can throttle: a broken model is never carried silently.
    InvalidQueueModel,
    /// A probing granularity finer than /64 (the monitor's `granularity`,
    /// the pipeline's `detection_granularity`): one target per subnet of
    /// each /48 would be 2^(g − 48) targets a /48 past the paper's /64, and
    /// no prefix at all past /128.
    GranularityTooFine,
    /// A monitor asked to observe zero windows.
    NoWindows,
    /// Watch-list churn with a zero refresh cadence (the watch list would
    /// never be revised; leave churn off instead).
    ZeroRefreshCadence,
    /// Watch-list churn with a zero watch capacity (a monitor that may watch
    /// nothing is a misconfiguration, not a run).
    ZeroWatchCapacity,
    /// Watch-list churn with a re-expansion block longer than a /48 (blocks
    /// must enclose the watched /48s).
    ExpansionBlockTooLong,
    /// Watch-list churn with a zero candidate budget (`max_48s_per_seed`):
    /// the boundary re-expansion could never probe a candidate, so the watch
    /// list could only ever shrink.
    ZeroExpansionBudget,
    /// A zero checkpoint cadence (a snapshot would never be written; leave
    /// checkpointing off instead).
    ZeroCheckpointCadence,
    /// The checkpoint cadence is not a whole multiple of the churn refresh
    /// cadence: snapshots are taken at epoch boundaries and epochs are cut
    /// by the churn cadence.
    MisalignedCheckpointCadence,
    /// Adaptive discovery without watch-list churn: the tree's dense /48s
    /// enter the watch list through churn revisions, so a churn-less
    /// discovery run could never act on what it discovers.
    DiscoveryRequiresChurn,
    /// Adaptive discovery with a zero per-boundary probe budget (the tree
    /// could never gather evidence).
    ZeroDiscoveryBudget,
    /// Adaptive discovery with zero plan/probe/fold rounds per boundary.
    ZeroDiscoveryRounds,
    /// Adaptive discovery with a branch factor outside 1..=8 bits per tree
    /// level.
    InvalidDiscoveryBranch,
    /// A [`StreamMonitor`](crate::monitor::StreamMonitor) run over an empty
    /// watch list with discovery off: nothing would ever be probed.
    /// Discovery bootstraps an empty list from the announcement topology; a
    /// scheduled [`MonitorSession`](crate::monitor::MonitorSession) starts
    /// exhausted instead.
    EmptyWatchList,
}

impl ConfigError {
    /// The verdict of a rule table: the first broken rule's error.
    pub(crate) fn first_broken<const N: usize>(
        rules: [(bool, ConfigError); N],
    ) -> Result<(), Self> {
        match rules.into_iter().find(|&(broken, _)| broken) {
            Some((_, rule)) => Err(rule),
            None => Ok(()),
        }
    }

    /// The rules every streaming run shares: a shard pool, a producer set,
    /// a probe rate, a sane queue model, and a detection granularity of at
    /// most /64.
    pub(crate) fn check_plane(
        shards: usize,
        producers: usize,
        packets_per_second: u64,
        queue_model: &QueueModel,
        granularity: u8,
    ) -> Result<(), Self> {
        use ConfigError::*;
        Self::first_broken([
            (shards == 0, NoShards),
            (producers == 0, NoProducers),
            (packets_per_second == 0, ZeroRate),
            (!queue_model.is_valid(), InvalidQueueModel),
            (granularity > 64, GranularityTooFine),
        ])
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ConfigError::*;
        f.write_str(match self {
            NoShards => "at least one inference shard is needed",
            NoProducers => "at least one probe producer is needed",
            ZeroRate => "the probe rate must be non-zero",
            InvalidQueueModel => "queue model low_watermark must be below high_watermark",
            GranularityTooFine => "the probing granularity must be /64 or coarser",
            NoWindows => "a monitor must observe at least one window",
            ZeroRefreshCadence => "watch-list churn needs a non-zero refresh_every",
            ZeroWatchCapacity => "watch-list churn needs a non-zero watch_capacity",
            ExpansionBlockTooLong => "watch-list churn expansion_len must be /48 or shorter",
            ZeroExpansionBudget => "watch-list churn needs a non-zero max_48s_per_seed",
            ZeroCheckpointCadence => "checkpointing needs a non-zero checkpoint_every",
            MisalignedCheckpointCadence => "checkpoint_every must be a multiple of refresh_every",
            DiscoveryRequiresChurn => "adaptive discovery requires watch-list churn",
            ZeroDiscoveryBudget => "adaptive discovery needs a non-zero probe_budget",
            ZeroDiscoveryRounds => "adaptive discovery needs at least one round per boundary",
            InvalidDiscoveryBranch => "adaptive discovery branch_bits must be in 1..=8",
            EmptyWatchList => "a monitor needs watched /48s or adaptive discovery",
        })
    }
}

impl std::error::Error for ConfigError {}

/// Why a streaming run ([`StreamMonitor`](crate::monitor::StreamMonitor) or
/// [`StreamPipeline`](crate::pipeline::StreamPipeline)) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The configuration cannot be run. Returned before anything started:
    /// no observer hook fired, no thread ran, no probe was sent.
    Config(ConfigError),
    /// Checkpoint capture, storage or resume failed.
    Checkpoint(CheckpointError),
    /// A shard worker thread panicked mid-run. The run was aborted cleanly:
    /// the ingest loop stopped, every surviving worker was drained and
    /// joined, and no partial report was produced.
    ShardPanicked {
        /// The index of the shard whose worker died.
        shard: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Config(rule) => write!(f, "invalid configuration: {rule}"),
            StreamError::Checkpoint(err) => write!(f, "checkpoint error: {err}"),
            StreamError::ShardPanicked { shard } => {
                write!(f, "shard {shard} worker panicked; run aborted")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Config(rule) => Some(rule),
            StreamError::Checkpoint(err) => Some(err),
            StreamError::ShardPanicked { .. } => None,
        }
    }
}

impl From<ConfigError> for StreamError {
    fn from(rule: ConfigError) -> Self {
        StreamError::Config(rule)
    }
}

impl From<CheckpointError> for StreamError {
    fn from(err: CheckpointError) -> Self {
        StreamError::Checkpoint(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err = StreamError::ShardPanicked { shard: 3 };
        assert_eq!(err.to_string(), "shard 3 worker panicked; run aborted");
        assert!(std::error::Error::source(&err).is_none());

        let err: StreamError = CheckpointError::Truncated.into();
        assert!(err.to_string().contains("checkpoint error"));
        assert!(std::error::Error::source(&err).is_some());

        let err: StreamError = ConfigError::ZeroRate.into();
        assert_eq!(
            err.to_string(),
            "invalid configuration: the probe rate must be non-zero"
        );
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn shared_rules_are_checked_in_order() {
        let model = QueueModel::unbounded();
        let inverted = QueueModel {
            low_watermark: model.high_watermark,
            ..model.clone()
        };
        let check = ConfigError::check_plane;
        let broken = &inverted;
        assert_eq!(check(0, 0, 0, broken, 65), Err(ConfigError::NoShards));
        assert_eq!(check(1, 0, 0, broken, 65), Err(ConfigError::NoProducers));
        assert_eq!(check(1, 1, 0, broken, 65), Err(ConfigError::ZeroRate));
        // Inverted is broken even where it could never throttle.
        assert!(!inverted.can_throttle());
        assert_eq!(
            check(1, 1, 1, broken, 65),
            Err(ConfigError::InvalidQueueModel)
        );
        assert_eq!(
            check(1, 1, 1, &model, 65),
            Err(ConfigError::GranularityTooFine)
        );
        assert_eq!(check(1, 1, 1, &model, 64), Ok(()));
        assert!(ConfigError::NoShards.to_string().contains("shard"));
    }
}
