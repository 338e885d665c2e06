//! Two-level cache hierarchy with per-core L1s and a shared L2.

use fgstp_tracefile::{take_varint, write_varint};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::mshr::MshrFile;
use crate::prefetch::StridePrefetcher;

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores (each gets a private L1I and L1D).
    pub cores: usize,
    /// Per-core L1 instruction cache.
    pub l1i: CacheConfig,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Shared L2.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles.
    pub dram_latency: u64,
    /// Enable the L1D stride prefetcher.
    pub prefetch: bool,
}

impl HierarchyConfig {
    /// Hierarchy matching the paper-era *small* core: 16 KiB L1s, 1 MiB L2.
    pub fn small(cores: usize) -> HierarchyConfig {
        HierarchyConfig {
            cores,
            l1i: CacheConfig {
                size_bytes: 16 << 10,
                assoc: 4,
                line_bytes: 64,
                latency: 1,
                mshrs: 4,
            },
            l1d: CacheConfig {
                size_bytes: 16 << 10,
                assoc: 4,
                line_bytes: 64,
                latency: 2,
                mshrs: 8,
            },
            l2: CacheConfig {
                size_bytes: 1 << 20,
                assoc: 8,
                line_bytes: 64,
                latency: 12,
                mshrs: 16,
            },
            dram_latency: 120,
            prefetch: false,
        }
    }

    /// Hierarchy matching the paper-era *medium* core: 32 KiB L1s, 2 MiB L2,
    /// stride prefetching enabled.
    pub fn medium(cores: usize) -> HierarchyConfig {
        HierarchyConfig {
            cores,
            l1i: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 4,
                line_bytes: 64,
                latency: 2,
                mshrs: 8,
            },
            l1d: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 8,
                line_bytes: 64,
                latency: 3,
                mshrs: 16,
            },
            l2: CacheConfig {
                size_bytes: 2 << 20,
                assoc: 8,
                line_bytes: 64,
                latency: 14,
                mshrs: 32,
            },
            dram_latency: 140,
            prefetch: true,
        }
    }
}

/// Bandwidth model of the shared DRAM channel: a fixed number of
/// concurrent transaction slots, each held for `occupancy` cycles. A miss
/// that finds every slot busy queues for the earliest-freed one (ties
/// toward the lowest slot index), so arbitration is fixed-priority among
/// same-cycle requests and round-robin over slots as they free —
/// deterministic for any worker-pool size because requests arrive in the
/// co-run driver's fixed core-stepping order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramBandwidth {
    /// Concurrent DRAM transactions in flight.
    pub max_inflight: usize,
    /// Cycles one transaction occupies its slot.
    pub occupancy: u64,
}

impl Default for DramBandwidth {
    fn default() -> DramBandwidth {
        DramBandwidth {
            max_inflight: 2,
            occupancy: 24,
        }
    }
}

/// DRAM traffic counters (all zero unless a [`DramBandwidth`] model is
/// configured).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Transactions issued to DRAM.
    pub transactions: u64,
    /// Cycles transactions spent waiting for a free channel slot.
    pub queue_cycles: u64,
}

impl DramStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &DramStats) {
        self.transactions += other.transactions;
        self.queue_cycles += other.queue_cycles;
    }
}

/// One requestor's (co-running program's) share of the shared resources.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestorStats {
    /// This requestor's slice of the shared-L2 traffic.
    pub l2: CacheStats,
    /// This requestor's slice of the DRAM traffic.
    pub dram: DramStats,
    /// Invalidations performed among this requestor's cores.
    pub invalidations: u64,
}

impl RequestorStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RequestorStats) {
        self.l2.merge(&other.l2);
        self.dram.merge(&other.dram);
        self.invalidations += other.invalidations;
    }
}

/// Aggregated statistics over the hierarchy.
#[derive(Debug, Clone, Default)]
pub struct HierarchyStats {
    /// Per-core L1I stats.
    pub l1i: Vec<CacheStats>,
    /// Per-core L1D stats.
    pub l1d: Vec<CacheStats>,
    /// Shared L2 stats.
    pub l2: CacheStats,
    /// Cross-core invalidations performed (Fg-STP mode).
    pub invalidations: u64,
    /// DRAM traffic (all zero without a bandwidth model).
    pub dram: DramStats,
    /// Shared-resource traffic broken down per requestor. Empty unless the
    /// hierarchy was built with [`Hierarchy::new_shared`]; then the entries
    /// sum to the machine-wide counters for every access made through the
    /// timed per-core paths (functional warming is unattributed).
    pub by_requestor: Vec<RequestorStats>,
}

impl HierarchyStats {
    /// Merges another hierarchy's (or program slice's) statistics into
    /// `self`: the per-core L1 vectors are concatenated (cores are
    /// distinct), shared-level counters are added, and requestor
    /// breakdowns are concatenated. Merging the per-program views of a
    /// co-run reconstructs the machine-wide view; the co-run breakdown in
    /// the bench crate relies on this instead of ad-hoc summation.
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.l1i.extend_from_slice(&other.l1i);
        self.l1d.extend_from_slice(&other.l1d);
        self.l2.merge(&other.l2);
        self.invalidations += other.invalidations;
        self.dram.merge(&other.dram);
        self.by_requestor.extend_from_slice(&other.by_requestor);
    }
}

/// The shared DRAM channel slots (see [`DramBandwidth`]).
#[derive(Debug)]
struct DramChannel {
    /// Busy-until cycle per slot.
    slots: Vec<u64>,
    occupancy: u64,
    stats: DramStats,
}

impl DramChannel {
    fn new(cfg: DramBandwidth) -> DramChannel {
        DramChannel {
            slots: vec![0; cfg.max_inflight.max(1)],
            occupancy: cfg.occupancy,
            stats: DramStats::default(),
        }
    }

    /// Claims the earliest-free slot for a transaction arriving at `at`;
    /// returns the cycle the transaction actually starts.
    fn acquire(&mut self, at: u64) -> u64 {
        let mut best = 0;
        for (i, &busy) in self.slots.iter().enumerate().skip(1) {
            if busy < self.slots[best] {
                best = i;
            }
        }
        let start = at.max(self.slots[best]);
        self.slots[best] = start + self.occupancy;
        self.stats.transactions += 1;
        self.stats.queue_cycles += start - at;
        start
    }
}

/// The memory hierarchy timing model.
///
/// `access_*` methods return the number of cycles from issue (`now`) until
/// the data is available, updating cache and MSHR state. Instruction
/// addresses live in a separate address region so I- and D-streams never
/// alias.
#[derive(Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Cache,
    l1d_mshrs: Vec<MshrFile>,
    l2_mshr: MshrFile,
    prefetchers: Vec<StridePrefetcher>,
    invalidations: u64,
    /// Requestor (co-running program) id per core. All zero in the
    /// single-program hierarchy.
    requestors: Vec<usize>,
    /// Address-space offset per core, derived from the requestor map so
    /// independent programs never alias in the shared levels.
    asid_bases: Vec<u64>,
    /// Per-requestor shared-resource breakdown; empty unless built with
    /// [`Hierarchy::new_shared`].
    req_stats: Vec<RequestorStats>,
    /// Finite-bandwidth DRAM channel, when configured.
    dram: Option<DramChannel>,
}

/// Byte offset of the instruction address region.
const INST_REGION: u64 = 1 << 40;
/// Nominal instruction size used to map instruction indices to addresses.
const INST_BYTES: u64 = 4;
/// Address-space stride between requestors: far above both the data
/// region and [`INST_REGION`], so co-running programs never alias.
const ASID_STRIDE: u64 = 1 << 45;

impl Hierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero or any cache geometry is invalid.
    pub fn new(config: &HierarchyConfig) -> Hierarchy {
        assert!(config.cores > 0, "hierarchy needs at least one core");
        Hierarchy {
            config: *config,
            l1i: (0..config.cores).map(|_| Cache::new(config.l1i)).collect(),
            l1d: (0..config.cores).map(|_| Cache::new(config.l1d)).collect(),
            l2: Cache::new(config.l2),
            l1d_mshrs: (0..config.cores)
                .map(|_| MshrFile::new(config.l1d.mshrs as usize))
                .collect(),
            l2_mshr: MshrFile::new(config.l2.mshrs as usize),
            prefetchers: (0..config.cores)
                .map(|_| StridePrefetcher::new(64, 2))
                .collect(),
            invalidations: 0,
            requestors: vec![0; config.cores],
            asid_bases: vec![0; config.cores],
            req_stats: Vec::new(),
            dram: None,
        }
    }

    /// Creates a hierarchy whose shared levels are arbitrated between
    /// several requestors (co-running programs): `requestors[core]` names
    /// the program owning each core. Each requestor gets a disjoint
    /// address space, a [`RequestorStats`] slice of the shared-L2 and DRAM
    /// traffic, and write-invalidations stay within its own cores. With an
    /// all-zero requestor map and `dram = None` the timing is bit-identical
    /// to [`Hierarchy::new`] — only the breakdown is additionally recorded.
    ///
    /// # Panics
    ///
    /// Panics if `requestors.len() != config.cores`, if requestor ids are
    /// not dense from zero, or if the geometry is invalid.
    pub fn new_shared(
        config: &HierarchyConfig,
        requestors: &[usize],
        dram: Option<DramBandwidth>,
    ) -> Hierarchy {
        assert_eq!(requestors.len(), config.cores, "one requestor id per core");
        let num_req = requestors.iter().max().map_or(0, |m| m + 1);
        assert!(
            (0..num_req).all(|r| requestors.contains(&r)),
            "requestor ids must be dense from zero"
        );
        let mut h = Hierarchy::new(config);
        h.requestors = requestors.to_vec();
        h.asid_bases = requestors.iter().map(|&r| r as u64 * ASID_STRIDE).collect();
        h.req_stats = vec![RequestorStats::default(); num_req];
        h.dram = dram.map(DramChannel::new);
        h
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// The core's effective address: private address spaces per requestor.
    fn eff(&self, core: usize, addr: u64) -> u64 {
        addr + self.asid_bases[core]
    }

    /// Attributes the L2 counter increments since `before` to `core`'s
    /// requestor (no-op in the single-program hierarchy).
    fn note_l2_delta(&mut self, core: usize, before: &CacheStats) {
        if !self.req_stats.is_empty() {
            let delta = before.delta(self.l2.stats());
            self.req_stats[self.requestors[core]].l2.merge(&delta);
        }
    }

    /// Maps an instruction index to its address in the instruction region.
    pub fn inst_addr(pc: u64) -> u64 {
        INST_REGION + pc * INST_BYTES
    }

    /// Latency of filling a line into an L1 from L2/DRAM, starting at `now`.
    ///
    /// A line that is present in the L2 but whose own fill is still in
    /// flight (an earlier miss to the same line) is served when that fill
    /// completes, not at the L2 hit latency. An L2 miss under a finite
    /// DRAM bandwidth model additionally queues for a channel slot.
    fn fill_from_l2(&mut self, core: usize, line: u64, now: u64) -> u64 {
        let before = *self.l2.stats();
        let l2_result = self.l2.access(line, false);
        self.note_l2_delta(core, &before);
        if l2_result.hit {
            match self.l2_mshr.pending(line, now) {
                Some(done) => done - now,
                None => self.config.l2.latency,
            }
        } else {
            let mut queue = 0;
            if let Some(ch) = &mut self.dram {
                // The request reaches the channel after the L2 lookup.
                let at = now + self.config.l2.latency;
                queue = ch.acquire(at) - at;
                if !self.req_stats.is_empty() {
                    let r = self.requestors[core];
                    self.req_stats[r].dram.transactions += 1;
                    self.req_stats[r].dram.queue_cycles += queue;
                }
            }
            let done = self.l2_mshr.request(
                line,
                now,
                self.config.l2.latency + queue + self.config.dram_latency,
            );
            done - now
        }
    }

    /// One L1D access with correct in-flight-fill semantics: a "hit" on a
    /// line whose miss is still outstanding waits for the fill (MSHR
    /// merge), not the hit latency.
    fn l1d_access(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> u64 {
        let line = self.l1d[core].line_addr(addr);
        let l1 = self.l1d[core].access(addr, is_write);
        if l1.hit {
            match self.l1d_mshrs[core].pending(line, now) {
                Some(done) => done - now,
                None => self.config.l1d.latency,
            }
        } else {
            let fill = self.fill_from_l2(core, line, now);
            let done = self.l1d_mshrs[core].request(line, now, self.config.l1d.latency + fill);
            done - now
        }
    }

    /// Data access by `core` at `addr` (`is_write` for stores) issued at
    /// cycle `now`; returns the latency until data is available.
    pub fn access_data(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> u64 {
        let addr = self.eff(core, addr);
        let latency = self.l1d_access(core, addr, is_write, now);
        if self.config.prefetch && !is_write {
            for pf_addr in self.prefetchers[core].observe(addr, addr) {
                self.prefetch_fill(core, pf_addr);
            }
        }
        latency
    }

    /// Data access steered by the load's PC (lets the stride prefetcher
    /// train per static load rather than per address stream).
    pub fn access_load_with_pc(&mut self, core: usize, pc: u64, addr: u64, now: u64) -> u64 {
        let addr = self.eff(core, addr);
        let latency = self.l1d_access(core, addr, false, now);
        if self.config.prefetch {
            for pf_addr in self.prefetchers[core].observe(pc, addr) {
                self.prefetch_fill(core, pf_addr);
            }
        }
        latency
    }

    fn prefetch_fill(&mut self, core: usize, addr: u64) {
        let line = self.l1d[core].line_addr(addr);
        self.l1d[core].fill(line);
        let before = *self.l2.stats();
        self.l2.fill(line);
        self.note_l2_delta(core, &before);
    }

    /// Instruction fetch by `core` of the line containing instruction index
    /// `pc`; returns the latency until the fetch group is available.
    pub fn access_inst(&mut self, core: usize, pc: u64, now: u64) -> u64 {
        let addr = self.eff(core, Self::inst_addr(pc));
        let line = self.l1i[core].line_addr(addr);
        let l1 = self.l1i[core].access(addr, false);
        if l1.hit {
            self.config.l1i.latency
        } else {
            let fill = self.fill_from_l2(core, line, now);
            self.config.l1i.latency + fill
        }
    }

    /// Functional-warming data reference (the sampling fast-forward mode).
    ///
    /// Installs the line in **every** core's L1D — the warming stream is
    /// not partitioned, steering is decided only inside a detailed window,
    /// so any core may own the line when one opens — and, when an L1
    /// missed, once in the shared L2, so the L2 observes the L1 *miss*
    /// stream exactly as on the timing path. Tags, LRU state and hit/miss
    /// counters update; MSHRs, prefetchers and latencies are untouched.
    pub fn warm_data(&mut self, addr: u64, is_write: bool) {
        let mut missed = false;
        for l1 in &mut self.l1d {
            missed |= !l1.access(addr, is_write).hit;
        }
        if missed {
            let line = self.l2.line_addr(addr);
            self.l2.access(line, false);
        }
    }

    /// Functional-warming instruction reference for the instruction at
    /// index `pc`; the I-side counterpart of [`Hierarchy::warm_data`].
    pub fn warm_inst(&mut self, pc: u64) {
        let addr = Self::inst_addr(pc);
        let mut missed = false;
        for l1 in &mut self.l1i {
            missed |= !l1.access(addr, false).hit;
        }
        if missed {
            let line = self.l2.line_addr(addr);
            self.l2.access(line, false);
        }
    }

    /// Invalidates the line containing `addr` in the L1D of every core
    /// *collaborating with* `writer_core` — same requestor, write-invalidate
    /// between the cores of one partitioned program. Co-running programs
    /// never invalidate each other (their address spaces are disjoint
    /// anyway).
    pub fn invalidate_others(&mut self, writer_core: usize, addr: u64) {
        let addr = self.eff(writer_core, addr);
        let req = self.requestors[writer_core];
        for core in 0..self.config.cores {
            if core != writer_core && self.requestors[core] == req {
                let line = self.l1d[core].line_addr(addr);
                if self.l1d[core].invalidate(line) {
                    // Dirty data migrates through the shared L2.
                    let before = *self.l2.stats();
                    self.l2.fill(line);
                    self.note_l2_delta(writer_core, &before);
                }
                self.invalidations += 1;
                if !self.req_stats.is_empty() {
                    self.req_stats[req].invalidations += 1;
                }
            }
        }
    }

    /// Whether the line containing `addr` is present in `core`'s L1D.
    pub fn l1d_has(&self, core: usize, addr: u64) -> bool {
        self.l1d[core].probe(self.eff(core, addr))
    }

    /// Appends the hierarchy's *warm* state — a varint core count, then
    /// every cache's [`Cache::save_state`] payload (L1Is, L1Ds, L2) — to
    /// `out`, for checkpointed-sampling snapshots. Functional warming
    /// ([`Hierarchy::warm_data`] / [`Hierarchy::warm_inst`]) only ever
    /// moves this state: MSHRs, prefetchers, the DRAM channel and
    /// invalidation counters stay at their initial values, so they are
    /// reconstructed from the config on load rather than serialized.
    pub fn save_warm_state(&self, out: &mut Vec<u8>) {
        write_varint(out, self.config.cores as u64);
        for c in self.l1i.iter().chain(&self.l1d) {
            c.save_state(out);
        }
        self.l2.save_state(out);
    }

    /// Restores state written by [`Hierarchy::save_warm_state`] on a
    /// same-geometry hierarchy, consuming it from the front of `bytes`.
    /// Any mismatch is an `Err` (the hierarchy is then unspecified —
    /// discard it), never a panic.
    pub fn load_warm_state(&mut self, bytes: &mut &[u8]) -> Result<(), String> {
        let cores = take_varint(bytes, "hierarchy cores")?;
        if cores != self.config.cores as u64 {
            return Err(format!(
                "hierarchy shape mismatch: {cores} cores, expected {}",
                self.config.cores
            ));
        }
        for c in self.l1i.iter_mut().chain(&mut self.l1d) {
            c.load_state(bytes)?;
        }
        self.l2.load_state(bytes)
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.iter().map(|c| *c.stats()).collect(),
            l1d: self.l1d.iter().map(|c| *c.stats()).collect(),
            l2: *self.l2.stats(),
            invalidations: self.invalidations,
            dram: self.dram.as_ref().map_or(DramStats::default(), |d| d.stats),
            by_requestor: self.req_stats.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(cores: usize) -> Hierarchy {
        Hierarchy::new(&HierarchyConfig::small(cores))
    }

    #[test]
    fn cold_miss_pays_full_path_then_hits() {
        let mut h = h(1);
        let cfg = *h.config();
        let cold = h.access_data(0, 0x1000, false, 0);
        assert_eq!(cold, cfg.l1d.latency + cfg.l2.latency + cfg.dram_latency);
        let warm = h.access_data(0, 0x1000, false, cold);
        assert_eq!(warm, cfg.l1d.latency);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut h = h(1);
        let cfg = *h.config();
        // Touch enough distinct lines to evict 0x0 from a 16 KiB L1
        // (aliasing every 4 KiB per way * 4 ways).
        h.access_data(0, 0, false, 0);
        for i in 1..=8u64 {
            h.access_data(0, i * 16 * 1024, false, 0);
        }
        let lat = h.access_data(0, 0, false, 100_000);
        assert_eq!(lat, cfg.l1d.latency + cfg.l2.latency, "should hit in L2");
    }

    #[test]
    fn inst_and_data_streams_do_not_alias() {
        let mut h = h(1);
        h.access_data(0, 0, true, 0);
        let stats_before = h.stats().l1d[0].accesses;
        h.access_inst(0, 0, 0);
        assert_eq!(h.stats().l1d[0].accesses, stats_before);
        assert_eq!(h.stats().l1i[0].accesses, 1);
    }

    #[test]
    fn per_core_l1s_are_private_but_l2_is_shared() {
        let mut h = h(2);
        let cfg = *h.config();
        let a = h.access_data(0, 0x4000, false, 0);
        // Core 1 misses its own L1 but hits shared L2.
        let b = h.access_data(1, 0x4000, false, a);
        assert_eq!(b, cfg.l1d.latency + cfg.l2.latency);
    }

    #[test]
    fn invalidate_others_forces_remote_reload() {
        let mut h = h(2);
        let cfg = *h.config();
        let warmup = h.access_data(1, 0x8000, false, 0);
        h.access_data(1, 0x8000, false, warmup); // now hot in core 1
        h.access_data(0, 0x8000, true, warmup);
        h.invalidate_others(0, 0x8000);
        assert!(!h.l1d_has(1, 0x8000));
        let lat = h.access_data(1, 0x8000, false, 10_000);
        assert_eq!(
            lat,
            cfg.l1d.latency + cfg.l2.latency,
            "reload through shared L2"
        );
        assert_eq!(h.stats().invalidations, 1);
    }

    #[test]
    fn mshr_merging_bounds_latency_of_same_line_misses() {
        let mut h = h(1);
        let first = h.access_data(0, 0x2000, false, 0);
        // Second access to the same line 5 cycles later: even though the L1
        // re-misses (line not yet filled in this simple model, it *was*
        // installed), it should hit because access() installs the line.
        let second = h.access_data(0, 0x2008, false, 5);
        assert!(second <= first);
    }

    #[test]
    fn prefetcher_hides_streaming_misses() {
        let mut cfg = HierarchyConfig::small(1);
        cfg.prefetch = true;
        let mut with_pf = Hierarchy::new(&cfg);
        cfg.prefetch = false;
        let mut without_pf = Hierarchy::new(&cfg);
        let mut lat_with = 0;
        let mut lat_without = 0;
        let mut now = 0;
        for i in 0..64u64 {
            let addr = 0x10_0000 + i * 64; // one access per line, stride 64
            lat_with += with_pf.access_load_with_pc(0, 0x77, addr, now);
            lat_without += without_pf.access_load_with_pc(0, 0x77, addr, now);
            now += 200;
        }
        assert!(
            lat_with < lat_without,
            "prefetching should reduce total latency: {lat_with} vs {lat_without}"
        );
    }

    #[test]
    fn stats_cover_all_cores() {
        let mut h = h(2);
        h.access_data(0, 0, false, 0);
        h.access_data(1, 64, false, 0);
        let s = h.stats();
        assert_eq!(s.l1d.len(), 2);
        assert_eq!(s.l1d[0].accesses, 1);
        assert_eq!(s.l1d[1].accesses, 1);
        assert_eq!(s.l2.accesses, 2);
    }

    #[test]
    fn warming_makes_later_timed_accesses_hit() {
        let mut h = h(2);
        let cfg = *h.config();
        h.warm_data(0x9000, false);
        h.warm_inst(0x40);
        // Both cores hit their L1s after warming, no MSHR involvement.
        for core in 0..2 {
            assert_eq!(h.access_data(core, 0x9000, false, 0), cfg.l1d.latency);
            assert_eq!(h.access_inst(core, 0x40, 0), cfg.l1i.latency);
        }
    }

    #[test]
    fn warming_sends_only_the_miss_stream_to_l2() {
        let mut h = h(1);
        h.warm_data(0x6000, false);
        h.warm_data(0x6008, false); // same line: L1 hit, no L2 traffic
        let s = h.stats();
        assert_eq!(s.l1d[0].accesses, 2);
        assert_eq!(s.l2.accesses, 1);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        Hierarchy::new(&HierarchyConfig {
            cores: 0,
            ..HierarchyConfig::small(1)
        });
    }

    #[test]
    fn shared_with_one_requestor_times_like_private() {
        let cfg = HierarchyConfig::small(2);
        let mut plain = Hierarchy::new(&cfg);
        let mut shared = Hierarchy::new_shared(&cfg, &[0, 0], None);
        let mut now = 0;
        for i in 0..200u64 {
            let addr = (i * 72) % 0x8000;
            let a = plain.access_data((i % 2) as usize, addr, i % 7 == 0, now);
            let b = shared.access_data((i % 2) as usize, addr, i % 7 == 0, now);
            assert_eq!(a, b, "access {i}");
            now += 3;
        }
        plain.invalidate_others(0, 0x40);
        shared.invalidate_others(0, 0x40);
        let (p, s) = (plain.stats(), shared.stats());
        assert_eq!(p.l2, s.l2);
        assert_eq!(p.invalidations, s.invalidations);
        // The shared build additionally records the breakdown.
        assert_eq!(s.by_requestor.len(), 1);
        assert_eq!(s.by_requestor[0].l2, s.l2);
    }

    #[test]
    fn requestor_slices_sum_to_shared_totals() {
        let cfg = HierarchyConfig::small(4);
        let mut h = Hierarchy::new_shared(&cfg, &[0, 0, 1, 1], Some(DramBandwidth::default()));
        let mut now = 0;
        for i in 0..400u64 {
            let core = (i % 4) as usize;
            h.access_data(core, (i * 264) % 0x40_0000, i % 5 == 0, now);
            h.access_inst(core, i % 900, now);
            now += 2;
        }
        h.invalidate_others(0, 0x100);
        h.invalidate_others(2, 0x100);
        let s = h.stats();
        assert_eq!(s.by_requestor.len(), 2);
        let mut sum = RequestorStats::default();
        for r in &s.by_requestor {
            sum.merge(r);
        }
        assert_eq!(sum.l2, s.l2);
        assert_eq!(sum.dram, s.dram);
        assert_eq!(sum.invalidations, s.invalidations);
        // Both programs actually produced traffic.
        assert!(s.by_requestor.iter().all(|r| r.l2.accesses > 0));
    }

    #[test]
    fn requestor_address_spaces_do_not_alias() {
        let cfg = HierarchyConfig::small(2);
        let mut h = Hierarchy::new_shared(&cfg, &[0, 1], None);
        // Program 0 writes 0x3000; program 1 must not see it anywhere.
        h.access_data(0, 0x3000, true, 0);
        assert!(h.l1d_has(0, 0x3000));
        assert!(!h.l1d_has(1, 0x3000));
        let miss = h.access_data(1, 0x3000, false, 1_000);
        assert_eq!(
            miss,
            cfg.l1d.latency + cfg.l2.latency + cfg.dram_latency,
            "same numeric address is a cold miss in the other program"
        );
    }

    #[test]
    fn invalidations_stay_within_a_requestor() {
        let mut h = Hierarchy::new_shared(&HierarchyConfig::small(3), &[0, 0, 1], None);
        for core in 0..3 {
            h.access_data(core, 0x5000, false, 0);
        }
        h.invalidate_others(0, 0x5000);
        assert!(!h.l1d_has(1, 0x5000), "partner core is invalidated");
        assert!(
            h.l1d_has(2, 0x5000),
            "the co-running program keeps its line"
        );
        assert_eq!(h.stats().invalidations, 1);
    }

    #[test]
    fn dram_bandwidth_queues_concurrent_misses() {
        let cfg = HierarchyConfig::small(2);
        let bw = DramBandwidth {
            max_inflight: 1,
            occupancy: 32,
        };
        let mut h = Hierarchy::new_shared(&cfg, &[0, 1], Some(bw));
        // Two cold misses in the same cycle: the second queues behind the
        // first for the single channel slot.
        let a = h.access_data(0, 0x1000, false, 0);
        let b = h.access_data(1, 0x1000, false, 0);
        assert_eq!(a, cfg.l1d.latency + cfg.l2.latency + cfg.dram_latency);
        assert_eq!(b, a + bw.occupancy, "second miss waits one occupancy");
        let s = h.stats();
        assert_eq!(s.dram.transactions, 2);
        assert_eq!(s.dram.queue_cycles, bw.occupancy);
        assert_eq!(s.by_requestor[1].dram.queue_cycles, bw.occupancy);
    }

    #[test]
    fn unlimited_dram_is_the_default_and_adds_no_queueing() {
        let cfg = HierarchyConfig::small(2);
        let mut h = Hierarchy::new_shared(&cfg, &[0, 1], None);
        let a = h.access_data(0, 0x1000, false, 0);
        let b = h.access_data(1, 0x1000, false, 0);
        assert_eq!(a, b, "no bandwidth model: concurrent misses do not queue");
        assert_eq!(h.stats().dram, DramStats::default());
    }

    #[test]
    fn hierarchy_stats_merge_reconstructs_the_machine_view() {
        let cfg = HierarchyConfig::small(2);
        let mut h = Hierarchy::new_shared(&cfg, &[0, 1], None);
        for i in 0..100u64 {
            h.access_data((i % 2) as usize, i * 136, false, i);
        }
        let global = h.stats();
        // Build per-program views and merge them back together.
        let view = |p: usize| HierarchyStats {
            l1i: vec![global.l1i[p]],
            l1d: vec![global.l1d[p]],
            l2: global.by_requestor[p].l2,
            invalidations: global.by_requestor[p].invalidations,
            dram: global.by_requestor[p].dram,
            by_requestor: vec![global.by_requestor[p]],
        };
        let mut merged = view(0);
        merged.merge(&view(1));
        assert_eq!(merged.l2, global.l2);
        assert_eq!(merged.invalidations, global.invalidations);
        assert_eq!(merged.dram, global.dram);
        assert_eq!(merged.l1d.len(), 2);
        assert_eq!(merged.l1d[1], global.l1d[1]);
    }

    #[test]
    #[should_panic(expected = "dense from zero")]
    fn sparse_requestor_ids_are_rejected() {
        Hierarchy::new_shared(&HierarchyConfig::small(2), &[0, 2], None);
    }

    #[test]
    fn warm_state_round_trips_through_bytes() {
        let cfg = HierarchyConfig::small(2);
        let mut warmed = Hierarchy::new(&cfg);
        for i in 0..5_000u64 {
            warmed.warm_data(i * 72 % 0x2_0000, i % 9 == 0);
            warmed.warm_inst(i % 700);
        }
        let mut bytes = Vec::new();
        warmed.save_warm_state(&mut bytes);
        let mut restored = Hierarchy::new(&cfg);
        let mut r = bytes.as_slice();
        restored.load_warm_state(&mut r).unwrap();
        assert!(r.is_empty(), "load consumes exactly what save wrote");
        // Statistics and behaviour are identical from here on.
        assert_eq!(restored.stats().l2, warmed.stats().l2);
        assert_eq!(restored.stats().l1d, warmed.stats().l1d);
        for i in 0..500u64 {
            let addr = i * 104 % 0x2_0000;
            let a = warmed.access_data((i % 2) as usize, addr, false, i * 3);
            let b = restored.access_data((i % 2) as usize, addr, false, i * 3);
            assert_eq!(a, b, "post-restore timing diverged at access {i}");
        }
        assert_eq!(restored.stats().l2, warmed.stats().l2);
    }

    #[test]
    fn warm_state_load_rejects_mismatch_and_truncation() {
        let mut h = Hierarchy::new(&HierarchyConfig::small(2));
        h.warm_data(0x40, false);
        let mut bytes = Vec::new();
        h.save_warm_state(&mut bytes);
        let mut wrong_cores = Hierarchy::new(&HierarchyConfig::small(1));
        assert!(wrong_cores.load_warm_state(&mut bytes.as_slice()).is_err());
        let mut wrong_geometry = Hierarchy::new(&HierarchyConfig::medium(2));
        assert!(wrong_geometry
            .load_warm_state(&mut bytes.as_slice())
            .is_err());
        let mut truncated = &bytes[..bytes.len() / 2];
        assert!(Hierarchy::new(&HierarchyConfig::small(2))
            .load_warm_state(&mut truncated)
            .is_err());
    }
}
