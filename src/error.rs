//! The workspace error hierarchy.
//!
//! Every fallible entry point of the umbrella crate funnels into
//! [`ScentError`], which wraps the typed errors of the member crates
//! (world-building, RIB parsing) plus the campaign-level configuration
//! errors of the [`Campaign`](crate::Campaign) facade. All of them implement
//! [`std::error::Error`], so binaries can `?` them out of `main` or print
//! them via `Display`.

use std::fmt;

use scent_bgp::RibParseError;
use scent_checkpoint::CheckpointError;
use scent_simnet::WorldError;
use scent_stream::StreamError;

/// A campaign was configured inconsistently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignError {
    /// A streamed or monitoring campaign was asked to run with zero shards.
    NoShards,
    /// A streamed or monitoring campaign was asked to run with zero probe
    /// producers.
    NoProducers,
    /// The bounded shard channels were given zero capacity.
    ZeroChannelCapacity,
    /// A monitoring campaign has no watched /48s to probe.
    EmptyWatchList,
    /// A monitoring campaign was asked to observe zero windows.
    NoWindows,
    /// The virtual-queue feedback model was configured with inverted
    /// watermarks (the low watermark must be strictly below the high one).
    InvalidQueueModel,
    /// Watch-list churn was configured with a zero refresh cadence (the
    /// watch list would never be revised; leave churn off instead).
    ZeroRefreshCadence,
    /// Watch-list churn was configured with a zero watch capacity (a
    /// monitor that may watch nothing is a misconfiguration, not a run).
    ZeroWatchCapacity,
    /// Watch-list churn was configured with a re-expansion block longer
    /// than a /48 (blocks must enclose the watched /48s).
    ExpansionBlockTooLong,
    /// Watch-list churn was configured with a zero candidate budget
    /// (`max_48s_per_seed`): the boundary re-expansion could never probe a
    /// candidate, so the watch list could only ever shrink.
    ZeroExpansionBudget,
    /// Checkpointing was configured with a zero cadence (a snapshot would
    /// never be written; leave checkpointing off instead).
    ZeroCheckpointCadence,
    /// Checkpointing and watch-list churn were configured with misaligned
    /// cadences: the checkpoint cadence must be a whole multiple of the
    /// churn refresh cadence, because snapshots are taken at epoch
    /// boundaries and epochs are cut by the churn cadence.
    MisalignedCheckpointCadence,
    /// Checkpointing, resume or a stop signal were configured on a
    /// non-monitor campaign; only [`CampaignMode::Monitor`] runs long enough
    /// to suspend and resume.
    ///
    /// [`CampaignMode::Monitor`]: crate::CampaignMode::Monitor
    CheckpointRequiresMonitor,
    /// Adaptive discovery was configured on a non-monitor campaign; the
    /// discovery tree evolves at monitor epoch boundaries, which the batch
    /// and streamed pipelines do not have.
    DiscoveryRequiresMonitor,
    /// Adaptive discovery was configured without watch-list churn: the
    /// tree's dense /48s enter the watch list through churn revisions, so a
    /// churn-less discovery run could never act on what it discovers.
    DiscoveryRequiresChurn,
    /// Adaptive discovery was configured with a zero per-boundary probe
    /// budget (the tree could never gather evidence).
    ZeroDiscoveryBudget,
    /// Adaptive discovery was configured with zero plan/probe/fold rounds
    /// per boundary.
    ZeroDiscoveryRounds,
    /// Adaptive discovery was configured with a branch factor outside
    /// 1..=8 bits per tree level.
    InvalidDiscoveryBranch,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::NoShards => write!(f, "campaign needs at least one inference shard"),
            CampaignError::NoProducers => {
                write!(f, "campaign needs at least one probe producer")
            }
            CampaignError::ZeroChannelCapacity => {
                write!(f, "bounded shard channels need non-zero capacity")
            }
            CampaignError::EmptyWatchList => {
                write!(f, "monitoring campaign has no watched /48s; call watch(..)")
            }
            CampaignError::NoWindows => {
                write!(f, "monitoring campaign must observe at least one window")
            }
            CampaignError::InvalidQueueModel => {
                write!(
                    f,
                    "queue model watermarks are inverted; low_watermark must be below high_watermark"
                )
            }
            CampaignError::ZeroRefreshCadence => {
                write!(
                    f,
                    "watch-list churn needs a non-zero refresh cadence (refresh_every)"
                )
            }
            CampaignError::ZeroWatchCapacity => {
                write!(
                    f,
                    "watch-list churn needs a non-zero watch capacity (watch_capacity)"
                )
            }
            CampaignError::ExpansionBlockTooLong => {
                write!(
                    f,
                    "watch-list churn re-expansion blocks must be /48 or shorter (expansion_len)"
                )
            }
            CampaignError::ZeroExpansionBudget => {
                write!(
                    f,
                    "watch-list churn needs a non-zero re-expansion candidate budget \
                     (max_48s_per_seed)"
                )
            }
            CampaignError::ZeroCheckpointCadence => {
                write!(
                    f,
                    "checkpointing needs a non-zero cadence (checkpoint_every)"
                )
            }
            CampaignError::MisalignedCheckpointCadence => {
                write!(
                    f,
                    "checkpoint cadence must be a whole multiple of the churn \
                     refresh cadence (checkpoint_every % refresh_every == 0)"
                )
            }
            CampaignError::CheckpointRequiresMonitor => {
                write!(
                    f,
                    "checkpoint, resume and stop signals require CampaignMode::Monitor"
                )
            }
            CampaignError::DiscoveryRequiresMonitor => {
                write!(f, "adaptive discovery requires CampaignMode::Monitor")
            }
            CampaignError::DiscoveryRequiresChurn => {
                write!(
                    f,
                    "adaptive discovery requires watch-list churn; call churn(..)"
                )
            }
            CampaignError::ZeroDiscoveryBudget => {
                write!(
                    f,
                    "adaptive discovery needs a non-zero per-boundary probe budget \
                     (probe_budget)"
                )
            }
            CampaignError::ZeroDiscoveryRounds => {
                write!(
                    f,
                    "adaptive discovery needs at least one plan/probe/fold round \
                     per boundary (rounds)"
                )
            }
            CampaignError::InvalidDiscoveryBranch => {
                write!(
                    f,
                    "adaptive discovery branch factor must be 1..=8 bits per level \
                     (branch_bits)"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Any error the followscent workspace can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ScentError {
    /// A simulated world failed to validate or build.
    World(WorldError),
    /// A RIB table dump failed to parse.
    RibParse(RibParseError),
    /// A campaign was configured inconsistently.
    Campaign(CampaignError),
    /// A checkpoint could not be written, read back or resumed from.
    Checkpoint(CheckpointError),
    /// An inference shard worker panicked mid-run. The run joined every
    /// surviving worker and drained cleanly before reporting — no thread is
    /// leaked and no other campaign's state is touched — but this run's
    /// report is unrecoverable.
    ShardPanicked {
        /// Index of the shard whose worker died.
        shard: usize,
    },
}

impl fmt::Display for ScentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScentError::World(e) => write!(f, "world configuration: {e}"),
            ScentError::RibParse(e) => write!(f, "RIB table parse: {e}"),
            ScentError::Campaign(e) => write!(f, "campaign configuration: {e}"),
            ScentError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ScentError::ShardPanicked { shard } => {
                write!(f, "inference shard {shard} panicked mid-run")
            }
        }
    }
}

impl std::error::Error for ScentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScentError::World(e) => Some(e),
            ScentError::RibParse(e) => Some(e),
            ScentError::Campaign(e) => Some(e),
            ScentError::Checkpoint(e) => Some(e),
            ScentError::ShardPanicked { .. } => None,
        }
    }
}

impl From<WorldError> for ScentError {
    fn from(e: WorldError) -> Self {
        ScentError::World(e)
    }
}

impl From<RibParseError> for ScentError {
    fn from(e: RibParseError) -> Self {
        ScentError::RibParse(e)
    }
}

impl From<CampaignError> for ScentError {
    fn from(e: CampaignError) -> Self {
        ScentError::Campaign(e)
    }
}

impl From<CheckpointError> for ScentError {
    fn from(e: CheckpointError) -> Self {
        ScentError::Checkpoint(e)
    }
}

impl From<StreamError> for ScentError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Checkpoint(inner) => ScentError::Checkpoint(inner),
            StreamError::ShardPanicked { shard } => ScentError::ShardPanicked { shard },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_and_display() {
        let world: ScentError = WorldError::NoProviders.into();
        assert_eq!(
            world.to_string(),
            "world configuration: world has no providers"
        );
        assert!(world.source().is_some());

        let campaign: ScentError = CampaignError::EmptyWatchList.into();
        assert!(campaign.to_string().contains("watched /48s"));
        let discovery: ScentError = CampaignError::DiscoveryRequiresChurn.into();
        assert!(discovery.to_string().contains("churn"));
        assert_eq!(
            campaign,
            ScentError::Campaign(CampaignError::EmptyWatchList)
        );

        // Stream errors split: checkpoint trouble keeps its typed variant,
        // a dead shard surfaces as the dedicated panic variant.
        let panicked: ScentError = StreamError::ShardPanicked { shard: 3 }.into();
        assert_eq!(panicked, ScentError::ShardPanicked { shard: 3 });
        assert!(panicked.to_string().contains("shard 3"));
        assert!(panicked.source().is_none());
        let checkpoint: ScentError = StreamError::Checkpoint(CheckpointError::Truncated).into();
        assert_eq!(
            checkpoint,
            ScentError::Checkpoint(CheckpointError::Truncated)
        );
    }
}
