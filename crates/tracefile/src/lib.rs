//! # fgstp-tracefile
//!
//! The on-disk cache of live-points — serialized warm states for sampled
//! simulation — plus the LEB128 varint codec their payloads are written
//! in.
//!
//! Traces themselves are never stored: the threaded interpreter
//! regenerates a committed-path trace faster than a file of one could be
//! read back, so every run traces its workloads afresh. What is worth
//! keeping is the functional-warming work of a sampled run, which
//! [`SnapshotFile`] serializes and [`TraceCache`] stores under a
//! caller-chosen key. Everything is plain `Vec<u8>`/`&[u8]` — the crate
//! has no dependencies, so the workspace builds with no network access.
//!
//! See the [`snapshot`] module for the file format and the [`cache`]
//! module for the directory layout and invalidation rules.
//!
//! ```
//! use fgstp_tracefile::SnapshotFile;
//!
//! let snap = SnapshotFile {
//!     total_insts: 20_000,
//!     windows: vec![(9_700, vec![1, 2, 3])],
//!     final_state: vec![4, 5],
//! };
//! assert_eq!(SnapshotFile::decode(&snap.encode())?, snap);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

pub mod cache;
pub mod snapshot;
mod varint;

pub use cache::TraceCache;
pub use snapshot::{SnapshotFile, SNAPSHOT_VERSION};
pub use varint::{read_varint, take_count, take_varint, write_varint, MAX_COUNT};

/// Error decoding or storing a live-point file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ended mid-record.
    Truncated,
    /// The file checksum did not match its payload.
    BadChecksum,
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::BadMagic => f.write_str("not a live-point file (bad magic)"),
            TraceFileError::BadVersion(v) => write!(f, "unsupported live-point version {v}"),
            TraceFileError::Truncated => f.write_str("live-point file truncated"),
            TraceFileError::BadChecksum => f.write_str("live-point file checksum mismatch"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// 64-bit FNV-1a: the integrity check of live-point files, also exported
/// so cache-key producers (e.g. the session's live-point keys)
/// fingerprint configuration with the same hash the files themselves are
/// checked with.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
