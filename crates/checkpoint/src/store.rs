//! Where snapshot bytes go: the sink trait and the crash-safe file store.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::CheckpointError;

/// A destination for encoded snapshots, handed one by a monitor session's
/// checkpoint stage at the epoch boundaries its cadence names.
///
/// `epoch` is the index of the *next* epoch to run — i.e. the snapshot
/// captures the state after `epoch` epochs completed, and resuming from it
/// continues at epoch `epoch`.
pub trait CheckpointSink {
    /// Persist one snapshot. The bytes are complete and self-validating: a
    /// header, the fixed-layout body and a checksum, framed by
    /// [`encode_snapshot`](crate::encode_snapshot).
    fn store(&mut self, epoch: u64, bytes: &[u8]) -> Result<(), CheckpointError>;
}

/// A crash-safe single-file store: every snapshot is written to a `.tmp`
/// sibling and atomically renamed over the target path, so the file on disk
/// is always a complete snapshot — either the previous one or the new one,
/// never a torn write.
#[derive(Debug, Clone)]
pub struct FileCheckpointStore {
    path: PathBuf,
}

impl FileCheckpointStore {
    /// A store writing to `path`. Nothing is created until the first
    /// [`CheckpointSink::store`] call.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileCheckpointStore { path: path.into() }
    }

    /// The path snapshots are renamed into.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read the latest complete snapshot back.
    pub fn load(&self) -> Result<Vec<u8>, CheckpointError> {
        fs::read(&self.path).map_err(|err| CheckpointError::Io {
            kind: err.kind(),
            path: self.path.display().to_string(),
        })
    }

    fn tmp_path(&self) -> PathBuf {
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        self.path.with_file_name(name)
    }
}

impl CheckpointSink for FileCheckpointStore {
    fn store(&mut self, _epoch: u64, bytes: &[u8]) -> Result<(), CheckpointError> {
        let tmp = self.tmp_path();
        let io_err = |err: std::io::Error, path: &Path| CheckpointError::Io {
            kind: err.kind(),
            path: path.display().to_string(),
        };
        let mut file = fs::File::create(&tmp).map_err(|e| io_err(e, &tmp))?;
        file.write_all(bytes).map_err(|e| io_err(e, &tmp))?;
        file.sync_all().map_err(|e| io_err(e, &tmp))?;
        drop(file);
        fs::rename(&tmp, &self.path).map_err(|e| io_err(e, &self.path))
    }
}

/// An in-memory sink recording every snapshot it is handed — the test
/// harness for suspend/resume scenarios.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    snapshots: Vec<(u64, Vec<u8>)>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every `(epoch, bytes)` pair stored so far, in store order.
    pub fn all(&self) -> &[(u64, Vec<u8>)] {
        &self.snapshots
    }

    /// The most recently stored snapshot, if any.
    pub fn latest(&self) -> Option<&(u64, Vec<u8>)> {
        self.snapshots.last()
    }

    /// The stored snapshot for the given epoch index, if any.
    pub fn at_epoch(&self, epoch: u64) -> Option<&[u8]> {
        self.snapshots
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, bytes)| bytes.as_slice())
    }
}

impl CheckpointSink for MemorySink {
    fn store(&mut self, epoch: u64, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.snapshots.push((epoch, bytes.to_vec()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scent-checkpoint-store-{tag}-{}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn file_store_roundtrips_and_overwrites() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("monitor.ckpt");
        let mut store = FileCheckpointStore::new(&path);
        store.store(0, b"first").expect("store first");
        assert_eq!(store.load().expect("load"), b"first");
        store.store(1, b"second snapshot").expect("store second");
        assert_eq!(store.load().expect("load"), b"second snapshot");
        // The tmp sibling never survives a successful store.
        assert!(!store.tmp_path().exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let dir = scratch_dir("missing");
        let store = FileCheckpointStore::new(dir.join("never-written.ckpt"));
        match store.load() {
            Err(CheckpointError::Io { kind, path }) => {
                assert_eq!(kind, std::io::ErrorKind::NotFound);
                assert!(path.contains("never-written.ckpt"));
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_path_is_a_typed_io_error() {
        let mut store = FileCheckpointStore::new("/nonexistent-dir-scent/x.ckpt");
        assert!(matches!(
            store.store(0, b"bytes"),
            Err(CheckpointError::Io { .. })
        ));
    }

    #[test]
    fn memory_sink_records_in_order() {
        let mut sink = MemorySink::new();
        sink.store(0, b"a").expect("infallible");
        sink.store(1, b"b").expect("infallible");
        assert_eq!(sink.all().len(), 2);
        assert_eq!(sink.latest().map(|(e, _)| *e), Some(1));
        assert_eq!(sink.at_epoch(0), Some(&b"a"[..]));
        assert_eq!(sink.at_epoch(7), None);
    }
}
