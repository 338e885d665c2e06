//! On-disk warm-state snapshots ("live-points") for sampled simulation.
//!
//! A sampled run alternates long functional-warming stretches with short
//! detailed windows. The warming work is deterministic per (trace,
//! sampling regime, warm-machine shape), so the pre-window warm states can
//! be persisted once and replayed forever: a re-run of a swept config
//! loads the snapshot file, skips functional warming entirely and
//! dispatches the detailed windows straight from the stored live-points.
//!
//! Format (version [`SNAPSHOT_VERSION`]):
//!
//! ```text
//! "FGSS" magic | u32 snapshot-version | varint total_insts
//! | varint window_count | window* | varint final_len | final_state
//! | u64 LE FNV-1a(everything before the footer)
//! window: varint start | varint state_len | state bytes
//! ```
//!
//! The `state` payloads are opaque here — they are produced by
//! `WarmState::save_state` in `fgstp-ooo` and validated shape-by-shape on
//! load there. This module guarantees container integrity (magic, version,
//! whole-file checksum, framing); the warm-state codec guarantees payload
//! shape. Both failure layers degrade identically: the caller treats the
//! snapshot as a miss and re-warms from the trace.
//!
//! [`SNAPSHOT_VERSION`] versions the payloads as well as the container.
//! Version 2 payloads are content-sized: caches write runs of
//! never-filled lines as one count and every other line as a flags byte,
//! a varint tag and a varint LRU age; predictors pack their 2-bit
//! counters four per byte and the BTB writes only present entries; every
//! other scalar is a varint ([`crate::write_varint`]). Version 1 wrote
//! every line and table entry at a fixed width and has no decoder.
//!
//! [`crate::TraceCache`] stores these files as
//! `<key>-s<SNAPSHOT_VERSION>.fgss`; see the [`crate::cache`] module for
//! its invalidation rules.

use crate::{fnv1a, read_varint, write_varint, TraceFileError};

const SNAPSHOT_MAGIC: &[u8; 4] = b"FGSS";

/// On-disk snapshot format version. Folded into snapshot cache file
/// names; bumping it orphans every stored snapshot (they are re-generated
/// on the next sampled run).
pub const SNAPSHOT_VERSION: u32 = 2;

/// A serialized set of live-points: one opaque warm-state payload per
/// detailed window of a sampled run, plus the end-of-trace state.
///
/// `total_insts` records the trace length the snapshot was taken over;
/// consumers validate it (together with the window schedule implied by
/// their sampling config) before trusting the payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// Dynamic instruction count of the trace the snapshot covers.
    pub total_insts: u64,
    /// Per-window live-points: (window start instruction index, opaque
    /// pre-window warm-state payload), in ascending start order.
    pub windows: Vec<(u64, Vec<u8>)>,
    /// Warm state after functionally retiring the *entire* trace — the
    /// source of trace-wide branch/memory statistics on a warm replay.
    pub final_state: Vec<u8>,
}

impl SnapshotFile {
    /// Serializes the snapshot, including the checksum footer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            64 + self.final_state.len()
                + self
                    .windows
                    .iter()
                    .map(|(_, s)| s.len() + 16)
                    .sum::<usize>(),
        );
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        write_varint(&mut buf, self.total_insts);
        write_varint(&mut buf, self.windows.len() as u64);
        for (start, state) in &self.windows {
            write_varint(&mut buf, *start);
            write_varint(&mut buf, state.len() as u64);
            buf.extend_from_slice(state);
        }
        write_varint(&mut buf, self.final_state.len() as u64);
        buf.extend_from_slice(&self.final_state);
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes a snapshot, verifying magic, version, checksum and framing.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFileError`] describing the first malformation;
    /// callers treat any error as a cache miss and re-warm.
    pub fn decode(data: &[u8]) -> Result<SnapshotFile, TraceFileError> {
        if data.len() < 16 {
            return Err(TraceFileError::Truncated);
        }
        let (payload, footer) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(footer.try_into().expect("8 bytes"));
        if fnv1a(payload) != stored {
            return Err(TraceFileError::BadChecksum);
        }
        if &payload[..4] != SNAPSHOT_MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        let version = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(TraceFileError::BadVersion(version));
        }
        let mut buf = &payload[8..];
        let total_insts = read_varint(&mut buf).ok_or(TraceFileError::Truncated)?;
        let count = read_varint(&mut buf).ok_or(TraceFileError::Truncated)?;
        // A window entry is at least 2 bytes; reject counts the buffer
        // cannot hold before reserving memory for them.
        if count > (buf.len() / 2) as u64 {
            return Err(TraceFileError::Truncated);
        }
        let mut windows = Vec::with_capacity(count as usize);
        let take_run = |buf: &mut &[u8]| -> Result<Vec<u8>, TraceFileError> {
            let len = read_varint(buf).ok_or(TraceFileError::Truncated)?;
            let len = usize::try_from(len).map_err(|_| TraceFileError::Truncated)?;
            if len > buf.len() {
                return Err(TraceFileError::Truncated);
            }
            let (run, rest) = buf.split_at(len);
            let run = run.to_vec();
            *buf = rest;
            Ok(run)
        };
        for _ in 0..count {
            let start = read_varint(&mut buf).ok_or(TraceFileError::Truncated)?;
            let state = take_run(&mut buf)?;
            windows.push((start, state));
        }
        let final_state = take_run(&mut buf)?;
        if !buf.is_empty() {
            return Err(TraceFileError::Truncated);
        }
        Ok(SnapshotFile {
            total_insts,
            windows,
            final_state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceCache;
    use std::fs;

    fn sample() -> SnapshotFile {
        SnapshotFile {
            total_insts: 123_456,
            windows: vec![
                (9_700, vec![1, 2, 3, 255]),
                (19_700, vec![]),
                (29_700, (0..=255u8).collect()),
            ],
            final_state: vec![42; 1000],
        }
    }

    fn temp_cache(tag: &str) -> TraceCache {
        let dir =
            std::env::temp_dir().join(format!("fgstp-snapshot-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TraceCache::new(dir)
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let s = sample();
        assert_eq!(SnapshotFile::decode(&s.encode()).unwrap(), s);
        let empty = SnapshotFile {
            total_insts: 0,
            windows: vec![],
            final_state: vec![],
        };
        assert_eq!(SnapshotFile::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn corrupted_inputs_are_rejected_not_panicked() {
        let good = sample().encode();
        // Every single-byte flip fails — checksum covers the whole file.
        for i in [0, 4, 8, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            assert!(SnapshotFile::decode(&bad).is_err(), "flip at {i} must fail");
        }
        // Every truncation fails.
        for cut in [0, 3, 8, good.len() / 2, good.len() - 1] {
            assert!(
                SnapshotFile::decode(&good[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        // Re-frame the payload with a bogus version and a *valid*
        // checksum, so the version check itself is exercised.
        let mut payload = sample().encode();
        payload.truncate(payload.len() - 8);
        payload[4..8].copy_from_slice(&99u32.to_le_bytes());
        let sum = fnv1a(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            SnapshotFile::decode(&payload),
            Err(TraceFileError::BadVersion(99))
        ));
    }

    #[test]
    fn huge_window_count_does_not_reserve_memory() {
        let mut payload = Vec::new();
        payload.extend_from_slice(SNAPSHOT_MAGIC);
        payload.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        write_varint(&mut payload, 100);
        write_varint(&mut payload, u64::MAX);
        let sum = fnv1a(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            SnapshotFile::decode(&payload),
            Err(TraceFileError::Truncated)
        ));
    }

    #[test]
    fn cache_miss_store_hit_and_corruption_recovery() {
        let cache = temp_cache("cycle");
        let s = sample();
        assert!(cache.load_snapshot("k").is_none(), "cold cache misses");
        cache.store_snapshot("k", &s).unwrap();
        assert_eq!(cache.load_snapshot("k").unwrap(), s, "warm cache hits");
        // Bit-flip the stored file: miss, the file is removed, and the
        // next store (the caller's re-warm) hits again.
        let path = cache.snapshot_path_for("k");
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        fs::write(&path, &data).unwrap();
        assert!(cache.load_snapshot("k").is_none(), "corruption is a miss");
        assert!(!path.exists(), "invalid file is removed");
        cache.store_snapshot("k", &s).unwrap();
        assert_eq!(cache.load_snapshot("k").unwrap(), s, "re-store recovers");
        // Truncation likewise.
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() / 2]).unwrap();
        assert!(cache.load_snapshot("k").is_none(), "truncation is a miss");
        assert!(!path.exists());
        cache.store_snapshot("k", &s).unwrap();
        assert_eq!(cache.load_snapshot("k").unwrap(), s, "re-store recovers");
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn snapshot_version_is_part_of_the_file_name() {
        // A file under another version's name is neither read nor
        // overwritten: a version bump orphans old files.
        let cache = temp_cache("version");
        let s = sample();
        fs::create_dir_all(cache.dir()).unwrap();
        let old = cache
            .dir()
            .join(format!("k-s{}.fgss", SNAPSHOT_VERSION + 1));
        fs::write(&old, s.encode()).unwrap();
        assert!(cache.load_snapshot("k").is_none(), "other versions miss");
        cache.store_snapshot("k", &s).unwrap();
        assert_ne!(cache.snapshot_path_for("k"), old);
        assert_eq!(fs::read(&old).unwrap(), s.encode(), "old file untouched");
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    #[should_panic(expected = "path separators")]
    fn snapshot_keys_are_not_paths() {
        // The key check runs before any file is read.
        TraceCache::new("x").load_snapshot("../escape");
    }
}
