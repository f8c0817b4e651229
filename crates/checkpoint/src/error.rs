//! Typed checkpoint failures.
//!
//! Every way a snapshot can be unusable gets its own variant, so callers can
//! distinguish "this file is from a different configuration" (resume with the
//! right config) from "this file is damaged" (fall back to an older
//! checkpoint). Corrupt input must always surface here — never as a panic.

use std::fmt;

/// Why a checkpoint could not be decoded, validated or stored.
///
/// The variants mirror the validation order of
/// [`decode_snapshot`](crate::decode_snapshot): magic, format version,
/// trailing checksum, then the body. The fingerprint mismatches
/// ([`CheckpointError::ConfigMismatch`], [`CheckpointError::WorldMismatch`])
/// are raised by the *consumer* of a structurally valid snapshot when its
/// header does not match the run being resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The input does not start with the checkpoint magic bytes — it is not
    /// a snapshot at all.
    BadMagic,
    /// The snapshot was written by a different (incompatible) format
    /// version.
    VersionMismatch {
        /// The version recorded in the snapshot header.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// The snapshot was taken under a different monitor configuration (or a
    /// different initial watch list) than the run trying to resume from it.
    ConfigMismatch {
        /// The configuration fingerprint recorded in the snapshot header.
        found: u64,
        /// The resuming run's configuration fingerprint.
        expected: u64,
    },
    /// The snapshot was taken against a different world (routing table)
    /// than the run trying to resume from it.
    WorldMismatch {
        /// The world fingerprint recorded in the snapshot header.
        found: u64,
        /// The resuming run's world fingerprint.
        expected: u64,
    },
    /// The input ended before the value being decoded was complete.
    Truncated,
    /// The trailing checksum does not match the snapshot's bytes: the file
    /// was corrupted in place (bit flips, partial overwrite).
    ChecksumMismatch {
        /// The checksum recomputed over the snapshot's bytes.
        found: u64,
        /// The checksum recorded in the snapshot trailer.
        expected: u64,
    },
    /// A field decoded to a value the target type cannot represent (an
    /// unknown enum tag, an out-of-range prefix length, invalid UTF-8). The
    /// payload names the field.
    InvalidValue(&'static str),
    /// A snapshot file could not be read, written or renamed.
    Io {
        /// The failed operation's [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// The path the operation touched.
        path: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => {
                write!(f, "not a checkpoint: magic bytes missing")
            }
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} is not the supported version {expected}"
            ),
            CheckpointError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint was taken under configuration fingerprint \
                 {found:#018x}, not this run's {expected:#018x}"
            ),
            CheckpointError::WorldMismatch { found, expected } => write!(
                f,
                "checkpoint was taken against world fingerprint {found:#018x}, \
                 not this run's {expected:#018x}"
            ),
            CheckpointError::Truncated => {
                write!(f, "checkpoint is truncated: input ended mid-value")
            }
            CheckpointError::ChecksumMismatch { found, expected } => write!(
                f,
                "checkpoint is corrupt: checksum {found:#018x} does not match \
                 recorded {expected:#018x}"
            ),
            CheckpointError::InvalidValue(what) => {
                write!(f, "checkpoint field {what} holds an unrepresentable value")
            }
            CheckpointError::Io { kind, path } => {
                write!(f, "checkpoint i/o failed on {path}: {kind}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_renders_a_nonempty_message() {
        let variants = [
            CheckpointError::BadMagic,
            CheckpointError::VersionMismatch {
                found: 2,
                expected: 1,
            },
            CheckpointError::ConfigMismatch {
                found: 1,
                expected: 2,
            },
            CheckpointError::WorldMismatch {
                found: 3,
                expected: 4,
            },
            CheckpointError::Truncated,
            CheckpointError::ChecksumMismatch {
                found: 5,
                expected: 6,
            },
            CheckpointError::InvalidValue("reply kind"),
            CheckpointError::Io {
                kind: std::io::ErrorKind::NotFound,
                path: "/tmp/x.ckpt".into(),
            },
        ];
        for err in variants {
            assert!(!err.to_string().is_empty(), "{err:?}");
        }
    }
}
