//! Snapshot framing: header, body, trailing checksum.
//!
//! A snapshot is a self-describing byte container:
//!
//! ```text
//! magic           8 bytes   b"SCENTCKP"
//! version         u32       FORMAT_VERSION
//! config fp       u64       FNV-1a-64 over the run's encoded configuration
//! world fp        u64       FNV-1a-64 over the run's encoded routing table
//! body            the consumer's fields, in the one order it writes them
//! checksum        u64       FNV-1a-64 over every preceding byte
//! ```
//!
//! All integers are little-endian. The framing layer knows nothing about the
//! body — the consumer writes it into the container's own [`Writer`] and
//! reads it back with the [`Checkpointable`](crate::Checkpointable)
//! machinery. That split keeps the validation order fixed: magic, then
//! version, then checksum, then the body; fingerprint mismatches are the
//! consumer's call (a structurally perfect snapshot from the wrong run is
//! still useless *for resuming*, but a tool that just wants to inspect it
//! can).

use crate::codec::{fnv1a64, Reader, Writer};
use crate::error::CheckpointError;

/// The eight magic bytes every snapshot starts with.
pub(crate) const MAGIC: [u8; 8] = *b"SCENTCKP";

/// The snapshot format version this build reads and writes. A snapshot of
/// any other version is refused with [`CheckpointError::VersionMismatch`]:
/// no older layout is read.
pub const FORMAT_VERSION: u32 = 4;

/// Bytes of framing around the body: magic, version, two fingerprints and
/// the checksum.
const FRAME_LEN: usize = MAGIC.len() + 4 + 8 + 8 + 8;

/// The validated header of a decoded snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Fingerprint of the configuration the snapshot was taken under.
    pub config_fingerprint: u64,
    /// Fingerprint of the world (routing table) the snapshot was taken
    /// against.
    pub world_fingerprint: u64,
}

/// Frame a snapshot: the header, then whatever `body` writes, then the
/// checksum — one pass into one [`Writer`].
pub fn encode_snapshot(
    config_fingerprint: u64,
    world_fingerprint: u64,
    body: impl FnOnce(&mut Writer),
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(config_fingerprint);
    w.put_u64(world_fingerprint);
    body(&mut w);
    let checksum = fnv1a64(w.as_bytes());
    w.put_u64(checksum);
    w.into_bytes()
}

/// Validate and unframe a snapshot, returning its header and body.
///
/// Validation order (each failure is its own [`CheckpointError`] variant):
/// magic bytes → format version → trailing checksum. The version is checked
/// *before* the checksum so a snapshot from another format reports
/// [`CheckpointError::VersionMismatch`], not a misleading checksum failure.
/// The body is the consumer's to decode, trailing bytes included.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(SnapshotHeader, &[u8]), CheckpointError> {
    if bytes.len() < MAGIC.len() {
        return Err(CheckpointError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut r = Reader::new(&bytes[MAGIC.len()..]);
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    // The trailing 8 bytes are the checksum over everything before them.
    if bytes.len() < FRAME_LEN {
        return Err(CheckpointError::Truncated);
    }
    let (framed, trailer) = bytes.split_at(bytes.len() - 8);
    let expected = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let found = fnv1a64(framed);
    if found != expected {
        return Err(CheckpointError::ChecksumMismatch { found, expected });
    }
    let mut r = Reader::new(&framed[MAGIC.len() + 4..]);
    let header = SnapshotHeader {
        config_fingerprint: r.u64()?,
        world_fingerprint: r.u64()?,
    };
    Ok((header, &framed[FRAME_LEN - 8..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode_snapshot(0x1111, 0x2222, |w| w.put_raw(b"alpha beta"))
    }

    #[test]
    fn snapshot_roundtrips() {
        let bytes = sample();
        let (header, body) = decode_snapshot(&bytes).expect("decodes");
        assert_eq!(
            header,
            SnapshotHeader {
                config_fingerprint: 0x1111,
                world_fingerprint: 0x2222,
            }
        );
        assert_eq!(body, b"alpha beta");
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let bytes = encode_snapshot(0, 0, |_| {});
        assert_eq!(bytes.len(), FRAME_LEN);
        let (header, body) = decode_snapshot(&bytes).expect("decodes");
        assert_eq!(header.config_fingerprint, 0);
        assert!(body.is_empty());
    }

    #[test]
    fn wrong_magic_is_bad_magic() {
        let mut bytes = sample();
        bytes[0] ^= 0xff;
        assert_eq!(decode_snapshot(&bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn version_bump_is_version_mismatch_even_with_a_stale_checksum() {
        let mut bytes = sample();
        // Bump the version in place; the checksum is now stale too, but the
        // version check must win.
        bytes[8] = (FORMAT_VERSION + 1) as u8;
        assert_eq!(
            decode_snapshot(&bytes),
            Err(CheckpointError::VersionMismatch {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn bit_flip_is_checksum_mismatch() {
        let mut bytes = sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let result = decode_snapshot(&bytes[..cut]);
            assert!(
                matches!(
                    result,
                    Err(CheckpointError::Truncated)
                        | Err(CheckpointError::BadMagic)
                        | Err(CheckpointError::ChecksumMismatch { .. })
                ),
                "cut at {cut}: {result:?}"
            );
        }
    }
}
