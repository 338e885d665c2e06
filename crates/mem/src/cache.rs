//! Set-associative cache with true-LRU replacement.

use std::fmt;

use fgstp_tracefile::{take_count, take_varint, write_varint};

/// Static cache geometry and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub latency: u64,
    /// Maximum outstanding misses (MSHR entries).
    pub mshrs: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `assoc * line_bytes`, or line size not a power of two).
    pub fn num_sets(&self) -> u64 {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let per_way = self.size_bytes / u64::from(self.assoc);
        assert!(
            per_way.is_multiple_of(self.line_bytes) && per_way > 0,
            "cache geometry inconsistent: {self:?}"
        );
        per_way / self.line_bytes
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty lines evicted.
    pub writebacks: u64,
    /// Lines installed by a prefetcher.
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Accumulates `other` into `self` (plain counter addition). Merging
    /// the disjoint per-requestor slices of a shared cache reconstructs
    /// the cache-wide counters; the co-run breakdown relies on this.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.prefetch_fills += other.prefetch_fills;
    }

    /// The counter increments between two snapshots of the same cache
    /// (`later` must be a later snapshot than `self`).
    pub fn delta(&self, later: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: later.accesses - self.accesses,
            hits: later.hits - self.hits,
            misses: later.misses - self.misses,
            writebacks: later.writebacks - self.writebacks,
            prefetch_fills: later.prefetch_fills - self.prefetch_fills,
        }
    }

    /// Miss rate over demand accesses (0 when there were none).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}% miss rate), {} writebacks",
            self.accesses,
            self.misses,
            self.miss_rate() * 100.0,
            self.writebacks
        )
    }
}

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

/// Lead byte of a run of never-filled lines in a cache state payload
/// (line flags take the values 0..=3).
const NEVER_FILLED_RUN: u8 = 4;

/// A set-associative, write-back, write-allocate cache with true-LRU
/// replacement.
///
/// This models *presence* only; the containing [`crate::Hierarchy`] turns
/// presence into latency.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    use_counter: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.num_sets();
        Cache {
            config,
            sets: vec![vec![Line::default(); config.assoc as usize]; sets as usize],
            use_counter: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes;
        let num_sets = self.sets.len() as u64;
        ((line % num_sets) as usize, line / num_sets)
    }

    /// The address of the first byte of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes - 1)
    }

    /// Whether the line containing `addr` is present (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Performs a demand access, allocating on miss.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.use_counter += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let counter = self.use_counter;
        let ways = &mut self.sets[set];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = counter;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        let writeback = self.fill_line(set, tag, is_write);
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Installs the line containing `addr` without counting a demand access
    /// (prefetch fill). Returns the writeback address, if any. A line that
    /// is already present is refreshed, not re-installed.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.use_counter += 1;
        let (set, tag) = self.set_and_tag(addr);
        let counter = self.use_counter;
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = counter;
            return None;
        }
        self.stats.prefetch_fills += 1;
        self.fill_line(set, tag, false)
    }

    /// Invalidates the line containing `addr` if present; returns whether a
    /// dirty copy was dropped (counted as a writeback).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            line.valid = false;
            let dirty = line.dirty;
            if dirty {
                self.stats.writebacks += 1;
            }
            dirty
        } else {
            false
        }
    }

    /// Appends the full cache state to `out`, for checkpointed-sampling
    /// snapshots. Its size follows the lines the cache holds, not its
    /// capacity:
    ///
    /// ```text
    /// varint sets | varint assoc | varint use_counter
    /// | varint accesses, hits, misses, writebacks, prefetch_fills
    /// | item* covering every line, set by set, way by way
    /// item: 4 | varint n                    n ≥ 1 never-filled lines
    ///     | flags | varint tag | varint age one line; flags = valid | dirty << 1
    /// ```
    ///
    /// A never-filled line is invalid, clean, tag 0 and LRU stamp 0 (the
    /// state [`Cache::new`] creates); any other line, including one
    /// invalidated after a fill, is written whole. `age` is
    /// `use_counter - last_use`, small for recently used lines.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        write_varint(out, self.sets.len() as u64);
        write_varint(out, u64::from(self.config.assoc));
        write_varint(out, self.use_counter);
        let s = &self.stats;
        for v in [s.accesses, s.hits, s.misses, s.writebacks, s.prefetch_fills] {
            write_varint(out, v);
        }
        let mut run = 0u64;
        let flush = |out: &mut Vec<u8>, run: &mut u64| {
            if *run > 0 {
                out.push(NEVER_FILLED_RUN);
                write_varint(out, std::mem::take(run));
            }
        };
        for line in self.sets.iter().flatten() {
            if *line == Line::default() {
                run += 1;
                continue;
            }
            flush(out, &mut run);
            out.push(u8::from(line.valid) | (u8::from(line.dirty) << 1));
            write_varint(out, line.tag);
            write_varint(out, self.use_counter - line.last_use);
        }
        flush(out, &mut run);
    }

    /// Restores state written by [`Cache::save_state`] on a same-geometry
    /// cache, consuming it from the front of `bytes`. A geometry mismatch,
    /// truncation, or a field no run of this cache can produce (an age
    /// beyond the LRU clock, a tag beyond the address space, a run past
    /// the last line) is an `Err` (the cache is then unspecified —
    /// discard it), never a panic.
    pub fn load_state(&mut self, bytes: &mut &[u8]) -> Result<(), String> {
        let sets = take_varint(bytes, "cache sets")?;
        let assoc = take_varint(bytes, "cache assoc")?;
        if sets != self.sets.len() as u64 || assoc != u64::from(self.config.assoc) {
            return Err(format!(
                "cache shape mismatch: {sets}x{assoc}, expected {}x{}",
                self.sets.len(),
                self.config.assoc
            ));
        }
        let clock = take_count(bytes, "cache clock")?;
        self.use_counter = clock;
        self.stats = CacheStats {
            accesses: take_count(bytes, "cache accesses")?,
            hits: take_count(bytes, "cache hits")?,
            misses: take_count(bytes, "cache misses")?,
            writebacks: take_count(bytes, "cache writebacks")?,
            prefetch_fills: take_count(bytes, "cache prefetch fills")?,
        };
        // The largest line number an address maps to; `fill_line` turns
        // a victim's (tag, set) back into an address.
        let max_line = u64::MAX / self.config.line_bytes;
        let mut run = 0u64;
        for (set, ways) in self.sets.iter_mut().enumerate() {
            let max_tag = (max_line - set as u64) / sets;
            for line in ways {
                if run == 0 {
                    let Some((&head, rest)) = bytes.split_first() else {
                        return Err("snapshot payload truncated (cache line)".to_owned());
                    };
                    *bytes = rest;
                    if head == NEVER_FILLED_RUN {
                        run = take_varint(bytes, "cache run")?;
                        if run == 0 {
                            return Err("empty never-filled run in cache state".to_owned());
                        }
                    } else if head > 3 {
                        return Err(format!("bad cache line flags {head}"));
                    } else {
                        let tag = take_varint(bytes, "cache tag")?;
                        let age = take_varint(bytes, "cache age")?;
                        if tag > max_tag || age > clock {
                            return Err(format!("cache line out of range: tag {tag}, age {age}"));
                        }
                        *line = Line {
                            tag,
                            valid: head & 1 != 0,
                            dirty: head & 2 != 0,
                            last_use: clock - age,
                        };
                        continue;
                    }
                }
                *line = Line::default();
                run -= 1;
            }
        }
        if run > 0 {
            return Err(format!(
                "never-filled run overruns the cache by {run} lines"
            ));
        }
        Ok(())
    }

    fn fill_line(&mut self, set: usize, tag: u64, dirty: bool) -> Option<u64> {
        let num_sets = self.sets.len() as u64;
        let line_bytes = self.config.line_bytes;
        let counter = self.use_counter;
        let ways = &mut self.sets[set];
        let victim = match ways.iter_mut().find(|l| !l.valid) {
            Some(free) => free,
            None => ways
                .iter_mut()
                .min_by_key(|l| l.last_use)
                .expect("assoc > 0"),
        };
        let mut writeback = None;
        if victim.valid && victim.dirty {
            let victim_line = victim.tag * num_sets + set as u64;
            writeback = Some(victim_line * line_bytes);
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty,
            last_use: counter,
        };
        writeback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes.
        Cache::new(CacheConfig {
            size_bytes: 64,
            assoc: 2,
            line_bytes: 16,
            latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn geometry_is_computed() {
        assert_eq!(tiny().config().num_sets(), 2);
    }

    #[test]
    #[should_panic(expected = "geometry inconsistent")]
    fn bad_geometry_panics() {
        CacheConfig {
            size_bytes: 100,
            assoc: 3,
            line_bytes: 16,
            latency: 1,
            mshrs: 4,
        }
        .num_sets();
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x4f, false).hit, "same line");
        assert!(!c.access(0x50, false).hit, "next line");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with (line_index % 2 == 0): addresses 0x00, 0x20, 0x40...
        c.access(0x00, false);
        c.access(0x20, false);
        c.access(0x00, false); // refresh 0x00; 0x20 is now LRU
        c.access(0x40, false); // evicts 0x20
        assert!(c.probe(0x00));
        assert!(!c.probe(0x20));
        assert!(c.probe(0x40));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0x00, true);
        c.access(0x20, false);
        let r = c.access(0x40, false); // evicts dirty 0x00
        assert_eq!(r.writeback, Some(0x00));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x00, false);
        c.access(0x20, false);
        let r = c.access(0x40, false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = tiny();
        c.access(0x00, false);
        c.access(0x00, true); // dirty via hit
        c.access(0x20, false);
        let r = c.access(0x40, false);
        assert_eq!(r.writeback, Some(0x00));
    }

    #[test]
    fn fill_does_not_count_demand_access() {
        let mut c = tiny();
        c.fill(0x00);
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(0x00, false).hit);
        // Filling a present line is a no-op.
        c.fill(0x00);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn invalidate_drops_line_and_reports_dirtiness() {
        let mut c = tiny();
        c.access(0x00, true);
        assert!(c.invalidate(0x00));
        assert!(!c.probe(0x00));
        assert!(!c.invalidate(0x00), "already gone");
        c.access(0x20, false);
        assert!(!c.invalidate(0x20), "clean line");
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.access(0x00, false);
        c.access(0x20, false);
        // Probing 0x00 must not refresh it.
        assert!(c.probe(0x00));
        c.access(0x40, false); // should evict 0x00 (LRU), not 0x20
        assert!(!c.probe(0x00));
        assert!(c.probe(0x20));
    }

    #[test]
    fn load_state_rejects_fields_no_run_produces() {
        // A `tiny()` payload with LRU clock 10 and zero statistics; every
        // item value below is under 128, so its varint is one byte.
        let payload = |items: &[u64]| {
            let mut out = Vec::new();
            for v in [2, 2, 10, 0, 0, 0, 0, 0].iter().chain(items) {
                write_varint(&mut out, *v);
            }
            out
        };
        let load = |bytes: Vec<u8>| {
            let mut c = tiny();
            c.load_state(&mut bytes.as_slice()).map(|()| c)
        };
        // The largest tag an address maps to in set 1.
        let max_tag = (u64::MAX / 16 - 1) / 2;
        let mut bytes = payload(&[4, 3, 3]);
        write_varint(&mut bytes, max_tag);
        bytes.push(0);
        let mut c = load(bytes).expect("three never-filled lines, one dirty line");
        // Evicting that dirty line turns its tag back into an address.
        assert_eq!(c.access(16, false).writeback, None);
        assert_eq!(c.access(48, false).writeback, Some((max_tag * 2 + 1) * 16));

        let mut bytes = payload(&[4, 3, 3]);
        write_varint(&mut bytes, max_tag + 1);
        bytes.push(0);
        assert!(load(bytes).is_err(), "tag beyond the address space");
        assert!(
            load(payload(&[4, 3, 3, 5, 11])).is_err(),
            "age beyond the clock"
        );
        assert!(load(payload(&[4, 0, 4, 4])).is_err(), "empty run");
        assert!(load(payload(&[4, 5])).is_err(), "run past the last line");
        assert!(load(payload(&[5, 4, 4])).is_err(), "unknown lead byte");
        assert!(load(payload(&[4, 4])).is_ok());
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = tiny();
        assert_eq!(c.line_addr(0x4f), 0x40);
        assert_eq!(c.line_addr(0x40), 0x40);
    }
}
