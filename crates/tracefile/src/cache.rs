//! On-disk live-point cache.
//!
//! [`TraceCache`] persists [`SnapshotFile`]s under a directory (the
//! `fgstp-sim` session driver defaults to `target/trace-cache/`), one file
//! per key:
//!
//! ```text
//! <dir>/<key>-s<SNAPSHOT_VERSION>.fgss
//! ```
//!
//! The key is chosen by the caller; the session driver uses the
//! workload's frontend, name and scale plus the machine label, the
//! sampling regime and a fingerprint of the warm-machine shape.
//! Invalidation is fail-safe, never fail-stop:
//!
//! * a [`SNAPSHOT_VERSION`] bump changes the file name, so old files are
//!   simply never consulted again;
//! * a truncated, corrupted or checksum-mismatching file is treated as a
//!   miss (and removed), and the caller re-warms and overwrites it.
//!
//! Writes go through a temp file in the same directory followed by a
//! rename, so concurrent processes never observe a half-written file.

use std::fs;
use std::path::{Path, PathBuf};

use crate::{SnapshotFile, TraceFileError, SNAPSHOT_VERSION};

/// A directory of checksummed live-point files, keyed by caller-chosen
/// names.
///
/// ```no_run
/// use fgstp_tracefile::{SnapshotFile, TraceCache};
///
/// let cache = TraceCache::new("target/trace-cache");
/// if cache.load_snapshot("perl_hash-test").is_none() {
///     let snap = SnapshotFile {
///         total_insts: 0,
///         windows: vec![],
///         final_state: vec![],
///     }; // ... warm the trace ...
///     cache.store_snapshot("perl_hash-test", &snap).unwrap();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TraceCache {
    dir: PathBuf,
}

impl TraceCache {
    /// A cache rooted at `dir` (created lazily on the first store).
    pub fn new(dir: impl Into<PathBuf>) -> TraceCache {
        TraceCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a snapshot key maps to. [`SNAPSHOT_VERSION`] is part of
    /// the name, so bumping it orphans (rather than misreads) old files.
    ///
    /// # Panics
    ///
    /// Panics if `key` contains a path separator — keys are file names,
    /// not paths.
    pub fn snapshot_path_for(&self, key: &str) -> PathBuf {
        assert!(
            !key.contains(['/', '\\']),
            "cache key `{key}` must not contain path separators"
        );
        self.dir.join(format!("{key}-s{SNAPSHOT_VERSION}.fgss"))
    }

    /// Loads the snapshot stored under `key`, or `None` on any kind of
    /// miss: no file, unreadable file, wrong version, corruption or
    /// checksum mismatch. Invalid files are removed so the next store
    /// starts clean — a damaged snapshot silently degrades to re-warming,
    /// never to a panic or a skewed estimate.
    pub fn load_snapshot(&self, key: &str) -> Option<SnapshotFile> {
        let path = self.snapshot_path_for(key);
        let data = fs::read(&path).ok()?;
        match SnapshotFile::decode(&data) {
            Ok(snap) => Some(snap),
            Err(_) => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores `snap` under `key`, atomically replacing any existing file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the cache directory not being
    /// creatable, disk full, …).
    pub fn store_snapshot(&self, key: &str, snap: &SnapshotFile) -> Result<(), TraceFileError> {
        fs::create_dir_all(&self.dir)?;
        // The tmp name is unique per process *and* per call, so concurrent
        // stores of the same key (worker threads racing on a cold cache)
        // never interleave writes; the last rename wins with a whole file.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = self.snapshot_path_for(key);
        let tmp = self.dir.join(format!(
            "{key}-s{SNAPSHOT_VERSION}.fgss.tmp{}-{seq}",
            std::process::id()
        ));
        fs::write(&tmp, snap.encode())?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotFile {
        SnapshotFile {
            total_insts: 50_000,
            windows: vec![(9_700, vec![1, 2, 3]), (19_700, (0..=255u8).collect())],
            final_state: vec![42; 300],
        }
    }

    fn temp_cache(tag: &str) -> TraceCache {
        let dir =
            std::env::temp_dir().join(format!("fgstp-cache-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TraceCache::new(dir)
    }

    #[test]
    fn miss_then_store_then_hit() {
        let cache = temp_cache("hit");
        let s = sample();
        assert!(cache.load_snapshot("k").is_none(), "cold cache misses");
        cache.store_snapshot("k", &s).unwrap();
        assert_eq!(cache.load_snapshot("k").unwrap(), s, "warm cache hits");
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corrupt_file_is_a_miss_and_is_removed() {
        let cache = temp_cache("corrupt");
        cache.store_snapshot("k", &sample()).unwrap();
        let path = cache.snapshot_path_for("k");
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        fs::write(&path, &data).unwrap();
        assert!(
            cache.load_snapshot("k").is_none(),
            "corruption must read as a miss"
        );
        assert!(!path.exists(), "invalid file is removed");
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn truncated_file_is_a_miss() {
        let cache = temp_cache("trunc");
        cache.store_snapshot("k", &sample()).unwrap();
        let path = cache.snapshot_path_for("k");
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() / 2]).unwrap();
        assert!(cache.load_snapshot("k").is_none());
        assert!(!path.exists(), "invalid file is removed");
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn version_is_part_of_the_file_name() {
        let cache = TraceCache::new("target/trace-cache");
        let p = cache.snapshot_path_for("mcf_pointer-test-w");
        assert_eq!(
            p.file_name().unwrap().to_str().unwrap(),
            format!("mcf_pointer-test-w-s{SNAPSHOT_VERSION}.fgss")
        );
    }

    #[test]
    #[should_panic(expected = "path separators")]
    fn keys_are_not_paths() {
        TraceCache::new("x").snapshot_path_for("../escape");
    }
}
