//! On-disk trace cache.
//!
//! Experiment sweeps replay the same committed-path traces over and over;
//! re-tracing a reference-scale workload costs far more than decoding it
//! from disk. [`TraceCache`] persists traces under a directory (the
//! `fgstp-sim` session driver defaults to `target/trace-cache/`), one file
//! per key:
//!
//! ```text
//! <dir>/<key>-v<FORMAT VERSION>.fgtr
//! ```
//!
//! The key is chosen by the caller; the session driver uses
//! `"<workload name>-<scale>"`, so the full cache identity is *workload
//! name + scale + trace-format version*.
//!
//! Each file is the [`crate::write_trace`] encoding followed by an 8-byte
//! little-endian FNV-1a checksum of the payload. Invalidation is
//! fail-safe, never fail-stop:
//!
//! * a format-version bump changes the file name, so old files are simply
//!   never consulted again;
//! * a truncated, corrupted or checksum-mismatching file is treated as a
//!   miss (and removed), and the caller re-traces and overwrites it.
//!
//! Writes go through a temp file in the same directory followed by a
//! rename, so concurrent processes never observe a half-written trace.

use std::fs;
use std::path::{Path, PathBuf};

use fgstp_isa::DynInst;

use crate::{fnv1a, read_trace, write_trace, TraceFileError, VERSION};

/// A directory of checksummed trace files, keyed by caller-chosen names.
///
/// ```no_run
/// use fgstp_tracefile::TraceCache;
///
/// let cache = TraceCache::new("target/trace-cache");
/// if cache.load("perl_hash-test").is_none() {
///     let insts = vec![]; // ... trace the workload ...
///     cache.store("perl_hash-test", &insts).unwrap();
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

    /// The file a key maps to. The format version is part of the name, so
    /// bumping [`VERSION`] orphans (rather than misreads) old files.
    ///
    /// # Panics
    ///
    /// Panics if `key` contains a path separator — keys are file names,
    /// not paths.
    pub fn path_for(&self, key: &str) -> PathBuf {
        assert!(
            !key.contains(['/', '\\']),
            "cache key `{key}` must not contain path separators"
        );
        self.dir.join(format!("{key}-v{VERSION}.fgtr"))
    }

    /// Loads the trace stored under `key`, or `None` on any kind of miss:
    /// no file, unreadable file, wrong format version, corruption or
    /// checksum mismatch. Invalid files are removed so the next store
    /// starts clean.
    pub fn load(&self, key: &str) -> Option<Vec<DynInst>> {
        let path = self.path_for(key);
        let data = fs::read(&path).ok()?;
        match decode_checksummed(&data) {
            Ok(insts) => Some(insts),
            Err(_) => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores `insts` under `key`, atomically replacing any existing file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the cache directory not being
    /// creatable, disk full, …).
    pub fn store(&self, key: &str, insts: &[DynInst]) -> Result<(), TraceFileError> {
        fs::create_dir_all(&self.dir)?;
        let mut data = write_trace(insts);
        let sum = fnv1a(&data);
        data.extend_from_slice(&sum.to_le_bytes());
        // The tmp name is unique per process *and* per call, so concurrent
        // stores of the same key (worker threads racing on a cold cache)
        // never interleave writes; the last rename wins with a whole file.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = self.path_for(key);
        let tmp = self.dir.join(format!(
            "{key}-v{VERSION}.fgtr.tmp{}-{seq}",
            std::process::id()
        ));
        fs::write(&tmp, &data)?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }
}

/// Splits off and verifies the checksum footer, returning the payload.
fn split_footer(data: &[u8]) -> Result<&[u8], TraceFileError> {
    if data.len() < 8 {
        return Err(TraceFileError::Truncated);
    }
    let (payload, footer) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(footer.try_into().expect("8 bytes"));
    if fnv1a(payload) != stored {
        return Err(TraceFileError::BadChecksum);
    }
    Ok(payload)
}

/// Verifies the checksum footer, then decodes the trace.
fn decode_checksummed(data: &[u8]) -> Result<Vec<DynInst>, TraceFileError> {
    read_trace(split_footer(data)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};

    fn sample() -> Vec<DynInst> {
        let p = assemble("li x1, 3\nadd x2, x1, x1\nsd x2, 0(x1)\nhalt").unwrap();
        trace_program(&p, 100).unwrap().insts().to_vec()
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
        let t = sample();
        assert!(cache.load("k").is_none(), "cold cache misses");
        cache.store("k", &t).unwrap();
        assert_eq!(cache.load("k").unwrap(), t, "warm cache hits exactly");
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corrupt_file_is_a_miss_and_is_removed() {
        let cache = temp_cache("corrupt");
        let t = sample();
        cache.store("k", &t).unwrap();
        let path = cache.path_for("k");
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        fs::write(&path, &data).unwrap();
        assert!(cache.load("k").is_none(), "corruption must read as a miss");
        assert!(!path.exists(), "invalid file is removed");
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn truncated_file_is_a_miss() {
        let cache = temp_cache("trunc");
        cache.store("k", &sample()).unwrap();
        let path = cache.path_for("k");
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() / 2]).unwrap();
        assert!(cache.load("k").is_none());
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn version_is_part_of_the_file_name() {
        let cache = TraceCache::new("target/trace-cache");
        let p = cache.path_for("mcf_pointer-test");
        assert_eq!(
            p.file_name().unwrap().to_str().unwrap(),
            format!("mcf_pointer-test-v{VERSION}.fgtr")
        );
    }

    #[test]
    #[should_panic(expected = "path separators")]
    fn keys_are_not_paths() {
        TraceCache::new("x").path_for("../escape");
    }
}
