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
use scent_stream::{ConfigError, StreamError};

/// A campaign was configured inconsistently.
///
/// What makes a [`StreamConfig`](scent_stream::StreamConfig) or
/// [`MonitorConfig`](scent_stream::MonitorConfig) runnable is stated once, in
/// `scent-stream` ([`ConfigError`]); the facade wraps that verdict and adds
/// only the rules about its own builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignError {
    /// The streaming configuration the builder assembled cannot be run.
    Config(ConfigError),
    /// A monitoring campaign has no watched /48s to probe.
    EmptyWatchList,
    /// A monitoring campaign was asked to observe zero windows.
    NoWindows,
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
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Config(rule) => write!(f, "{rule}"),
            CampaignError::EmptyWatchList => {
                write!(f, "monitoring campaign has no watched /48s; call watch(..)")
            }
            CampaignError::NoWindows => {
                write!(f, "monitoring campaign must observe at least one window")
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
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Config(rule) => Some(rule),
            _ => None,
        }
    }
}

impl From<ConfigError> for CampaignError {
    fn from(rule: ConfigError) -> Self {
        CampaignError::Config(rule)
    }
}

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

impl From<ConfigError> for ScentError {
    fn from(rule: ConfigError) -> Self {
        ScentError::Campaign(rule.into())
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
        let discovery: ScentError = ConfigError::DiscoveryRequiresChurn.into();
        assert!(discovery.to_string().contains("churn"));
        assert_eq!(
            discovery,
            ScentError::Campaign(CampaignError::Config(ConfigError::DiscoveryRequiresChurn))
        );
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
