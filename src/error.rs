//! The workspace error hierarchy.
//!
//! Every fallible entry point of the umbrella crate funnels into
//! [`ScentError`], which wraps the typed errors of the member crates: world
//! building, RIB parsing, the configuration rules of the streaming runs,
//! checkpoints and shard-worker death. All of them implement
//! [`std::error::Error`], so binaries can `?` them out of `main` or print
//! them via `Display`.

use std::fmt;

use scent_bgp::RibParseError;
use scent_checkpoint::CheckpointError;
use scent_simnet::WorldError;
use scent_stream::{ConfigError, StreamError};

/// Any error the followscent workspace can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ScentError {
    /// A simulated world failed to validate or build.
    World(WorldError),
    /// A RIB table dump failed to parse.
    RibParse(RibParseError),
    /// A streamed pipeline or monitor configuration cannot be run
    /// ([`StreamConfig::validate`](scent_stream::StreamConfig::validate),
    /// [`MonitorConfig::validate`](scent_stream::MonitorConfig::validate)).
    Config(ConfigError),
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
            ScentError::Config(e) => write!(f, "run configuration: {e}"),
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
            ScentError::Config(e) => Some(e),
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

impl From<ConfigError> for ScentError {
    fn from(rule: ConfigError) -> Self {
        ScentError::Config(rule)
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
            StreamError::Config(rule) => ScentError::Config(rule),
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

        let discovery: ScentError = ConfigError::DiscoveryRequiresChurn.into();
        assert!(discovery.to_string().contains("churn"));
        assert_eq!(
            discovery,
            ScentError::Config(ConfigError::DiscoveryRequiresChurn)
        );

        // Stream errors split: a refused configuration and checkpoint
        // trouble keep their typed variants, a dead shard surfaces as the
        // dedicated panic variant.
        let empty: ScentError = StreamError::Config(ConfigError::EmptyWatchList).into();
        assert_eq!(empty, ScentError::Config(ConfigError::EmptyWatchList));
        assert!(empty.to_string().contains("watched /48s"));
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
