//! Crash-safe checkpoint/restore for the streaming rotation monitor.
//!
//! A long-running monitoring campaign — weeks of virtual time, millions of
//! probes — should survive being killed. This crate provides the pieces:
//!
//! * [`Checkpointable`] — a hand-rolled binary codec trait (`encode` into a
//!   [`Writer`], `decode` from a [`Reader`]) implemented here for every kind
//!   of incremental monitor state: classifiers, density accumulators, the
//!   incremental tracker, rotation detectors, the queue model, watch-list
//!   revisions and the telemetry deterministic tier.
//! * [`encode_snapshot`] / [`decode_snapshot`] — the versioned container
//!   format: magic, format version, config/world fingerprints, the
//!   consumer's body in its one fixed field order, and a trailing FNV-1a
//!   checksum. Corrupt or mismatched input decodes to a typed
//!   [`CheckpointError`], never a panic.
//! * [`CheckpointSink`] — where snapshots go: [`FileCheckpointStore`] writes
//!   atomically (write to a temp file, fsync, rename) so a crash mid-write
//!   leaves the previous checkpoint intact; [`MemorySink`] keeps every
//!   snapshot for tests.
//!
//! The streaming engine (`scent-stream`) calls into this crate at epoch
//! boundaries and resumes from a decoded snapshot; the contract — enforced
//! by that crate's test suite — is that suspend + restore + continue is
//! **byte-identical** to the uninterrupted run.
//!
//! # Encoding a value
//!
//! ```
//! use scent_checkpoint::{decode_value, encode_value, Checkpointable};
//! use scent_ipv6::Ipv6Prefix;
//!
//! let prefix: Ipv6Prefix = "2001:db8:40::/48".parse().unwrap();
//! let bytes = encode_value(&prefix);
//! let back: Ipv6Prefix = decode_value(&bytes).unwrap();
//! assert_eq!(back, prefix);
//! ```
//!
//! # Snapshot container round trip
//!
//! ```
//! use scent_checkpoint::{
//!     decode_snapshot, encode_snapshot, CheckpointError, Reader, FORMAT_VERSION,
//! };
//!
//! let bytes = encode_snapshot(0xc0ffee, 0xf00d, |w| {
//!     w.put_u64(7);
//!     w.put_str("alpha");
//! });
//! assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes());
//! let (header, body) = decode_snapshot(&bytes).unwrap();
//! assert_eq!(header.config_fingerprint, 0xc0ffee);
//! let mut r = Reader::new(body);
//! assert_eq!((r.u64().unwrap(), r.str().unwrap()), (7, "alpha"));
//! assert!(r.is_empty());
//!
//! // A flipped bit is caught by the trailing checksum.
//! let mut corrupt = bytes.clone();
//! let mid = corrupt.len() / 2;
//! corrupt[mid] ^= 0x10;
//! assert!(matches!(
//!     decode_snapshot(&corrupt),
//!     Err(CheckpointError::ChecksumMismatch { .. })
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
mod impls;
mod snapshot;
mod store;

pub use codec::{decode_value, encode_value, fnv1a64, Checkpointable, Reader, Writer};
pub use error::CheckpointError;
pub use snapshot::{decode_snapshot, encode_snapshot, SnapshotHeader, FORMAT_VERSION};
pub use store::{CheckpointSink, FileCheckpointStore, MemorySink};
