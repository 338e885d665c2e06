//! The cycle-level out-of-order core pipeline.
//!
//! One [`Core`] models fetch → decode/rename → dispatch → issue → execute →
//! writeback → commit over an annotated execution stream
//! ([`crate::ExecInst`]), charging cycles for every structural, dependence,
//! branch and memory event. Everything shared with the outside world
//! (prediction, fetch gating, cross-core traffic, global commit order) goes
//! through the [`ExecEnv`] trait, so the same pipeline serves the single
//! core, the fused Core Fusion core (two clusters) and each half of the
//! Fg-STP pair.
//!
//! # Hot-loop structure
//!
//! The per-cycle loop is the simulator's wall-clock bottleneck, so the
//! window is laid out for it (see `DESIGN.md` § "Hot-loop structure"):
//!
//! * **Struct-of-arrays window** (`Slots`): every in-flight instruction
//!   lives in a fixed slab of parallel lanes, addressed by a small slot id.
//!   The wakeup scan touches only the narrow lanes it needs (state,
//!   cluster, sleep/wait filters) instead of dragging whole `ExecInst`s
//!   through the cache, and nothing is hashed — the old per-gseq hash maps
//!   (slots, completion times, cluster homes) are dense vectors indexed by
//!   global sequence number.
//! * **Ready-set filtering**: an issue-queue entry whose operand-ready
//!   cycle is already known sleeps until that cycle (`sleep_until`); an
//!   entry blocked on a not-yet-issued local producer parks on that
//!   producer's waiter list (`waiter_head`/`waiter_next`) and leaves the
//!   scanned queue (`iq`) until the producer issues, when it goes back in
//!   age order and is scanned from the next cycle on (its producer
//!   completes at the next cycle at the earliest). Parked entries still
//!   count against the queue's capacity. Both filters are provably
//!   invisible to timing: a known ready time is final (producer
//!   completion times never move once scheduled), and a local producer
//!   still in the queue keeps its consumers unready until the cycle it
//!   issues. Entries blocked on cross-core operands or memory-ordering
//!   gates are never filtered — those can change outside the core's view
//!   and are re-polled each cycle the core runs.
//! * **Idle-cycle skipping**: [`Core::cycle`] reports the next cycle at
//!   which the core can act. A cycle in which no stage changed state
//!   (nothing completed, committed, issued, dispatched or fetched, no
//!   I-cache access, no new fetch cursor for the partners, no functional
//!   unit refused a ready entry) would repeat, stall counters and all,
//!   until the earliest of the core's wake sources: its next completion,
//!   the end of an I-cache stall, the fetch-buffer head reaching dispatch,
//!   a sleeping entry's ready cycle or a load's `LoadGate::WaitUntil`
//!   cycle. The machine driver jumps there, and [`Core::charge_idle`]
//!   charges the skipped cycles to the stall counters the quiet cycle
//!   charged.
//! * **Completion heap**: each issued instruction's `(completion cycle,
//!   gseq)` waits on a [`BinaryHeap`] until it is due. It pops in that
//!   order, so same-cycle completions reach [`ExecEnv::on_complete`] in
//!   ascending gseq, which the bandwidth-contended fabric sends depend on.
//!   Its top is the core's first wake source. A core never has more
//!   completions in flight than ROB entries (48 to 256), so a push or
//!   pop sifts through at most eight levels.
//! * **Reused scratch**: per-cycle work buffers (issued-per-cluster
//!   counts, steering votes, woken entries) are struct members cleared in
//!   place, and the completion heap is allocated once at ROB size; the
//!   cycle loop performs no heap allocation.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use fgstp_isa::InstClass;
use fgstp_mem::{Hierarchy, HierarchyConfig};
use fgstp_telemetry::{CycleSink, MemLevel, Stage};

use crate::config::CoreConfig;
use crate::env::{ExecEnv, LoadGate};
use crate::fu::FuPool;
use crate::stream::{ExecInst, SrcDep, StreamView};

/// Counters accumulated by one core over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions fetched (including replicas).
    pub fetched: u64,
    /// Instructions issued to functional units.
    pub issued: u64,
    /// Primary (architectural) instructions committed.
    pub committed: u64,
    /// Replicated shadow copies committed.
    pub replica_committed: u64,
    /// Values sent to the other core.
    pub sends: u64,
    /// Store-to-load forwards performed.
    pub store_forwards: u64,
    /// Local (same-core) memory-dependence violations replayed.
    pub load_violations: u64,
    /// Cross-core memory-dependence violations replayed.
    pub cross_violations: u64,
    /// Dispatch stalls because the ROB was full.
    pub rob_full: u64,
    /// Dispatch stalls because the issue queue was full.
    pub iq_full: u64,
    /// Dispatch stalls because a load/store queue was full.
    pub lsq_full: u64,
    /// Fetch bubbles from BTB misses on taken control flow.
    pub btb_bubbles: u64,
    /// Cycles fetch was blocked by an unresolved mispredicted branch.
    pub fetch_blocked_cycles: u64,
    /// Cycles fetch was stalled on the instruction cache.
    pub icache_stall_cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    InQueue,
    Issued { done: u64 },
    Done { at: u64 },
}

/// Sentinel slot id: "no slot".
const NO_SLOT: u32 = u32::MAX;

/// The instruction window as a struct-of-arrays slab.
///
/// Every lane is laid out once at ROB size (live slots never exceed the
/// ROB) and slot ids are recycled through `free`; the narrow per-slot
/// lanes the wakeup scan reads every cycle are separate vectors so the
/// scan streams through compact memory.
#[derive(Debug, Default)]
struct Slots {
    x: Vec<ExecInst>,
    deps: Vec<[Option<SrcDep>; 2]>,
    cluster: Vec<u8>,
    state: Vec<SlotState>,
    dispatched_at: Vec<u64>,
    /// First cycle all register operands were ready (`u64::MAX` = not yet;
    /// used to decide whether a speculative load actually violated).
    ready_since: Vec<u64>,
    /// The operand-ready cycle once known: the issue scan skips the entry
    /// until then (a known ready time is final, see the module docs).
    sleep_until: Vec<u64>,
    /// Entry is parked on a local producer's waiter list, out of the
    /// issue scan.
    waiting: Vec<bool>,
    /// Head of this slot's waiter list (slots blocked on it issuing).
    waiter_head: Vec<u32>,
    /// Next slot in whatever waiter list this slot is parked on.
    waiter_next: Vec<u32>,
    /// For loads that accessed the hierarchy: the level that serviced
    /// them, classified from the observed latency (telemetry).
    mem_level: Vec<Option<MemLevel>>,
    /// Whether the instruction replayed after a cross-core
    /// memory-dependence squash (telemetry).
    cross_replay: Vec<bool>,
    free: Vec<u32>,
}

impl Slots {
    /// `n` free slots, each holding `fill` until [`Slots::alloc`] writes
    /// an instruction over it.
    fn new(n: usize, fill: ExecInst) -> Slots {
        Slots {
            x: vec![fill; n],
            deps: vec![[None; 2]; n],
            cluster: vec![0; n],
            state: vec![SlotState::InQueue; n],
            dispatched_at: vec![0; n],
            ready_since: vec![u64::MAX; n],
            sleep_until: vec![0; n],
            waiting: vec![false; n],
            waiter_head: vec![NO_SLOT; n],
            waiter_next: vec![NO_SLOT; n],
            mem_level: vec![None; n],
            cross_replay: vec![false; n],
            // Popped lowest id first, recycled ids before untouched ones.
            free: (0..n as u32).rev().collect(),
        }
    }

    fn alloc(&mut self, x: ExecInst, cluster: u8, now: u64) -> u32 {
        let sid = self.free.pop().expect("live slots never exceed the ROB");
        let s = sid as usize;
        self.x[s] = x;
        self.deps[s] = x.deps;
        self.cluster[s] = cluster;
        self.state[s] = SlotState::InQueue;
        self.dispatched_at[s] = now;
        self.ready_since[s] = u64::MAX;
        self.sleep_until[s] = 0;
        self.waiting[s] = false;
        self.waiter_head[s] = NO_SLOT;
        self.mem_level[s] = None;
        self.cross_replay[s] = false;
        sid
    }
}

/// Outcome of the issue-stage wakeup check for one window entry.
enum Wakeup {
    /// All operands ready at the given cycle (final — never moves).
    Ready(u64),
    /// Blocked on a local producer (by slot id) that has not issued yet:
    /// park on its waiter list until it does.
    WaitLocal(u32),
    /// Blocked on something the core cannot observe changing (a cross-core
    /// operand not yet delivered): re-poll each cycle the core runs. The
    /// delivery follows a completion on the producer's core, which that
    /// core's completion heap wakes the machine for.
    Unknown,
}

/// State of the window head (or the empty window) on a cycle that
/// committed nothing — the raw material for CPI-stack attribution.
///
/// Produced by [`Core::commit_stall`]; the machine driver maps it to a
/// [`fgstp_telemetry::StallCategory`] with machine-specific refinements
/// (a core running alone has no cross-core categories; with partners the
/// driver distinguishes gate blocks from lookahead backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStall {
    /// The window is empty: the frontend is refilling it. The stats
    /// deltas (`fetch_blocked_cycles`, `icache_stall_cycles`) tell why.
    Idle,
    /// The head has not issued: a register operand is not known ready.
    /// `cross` is set when a cross-core operand is among the missing.
    WaitingOperands {
        /// A cross-core operand has not been delivered yet.
        cross: bool,
    },
    /// The head's operands are ready but it has not issued: a structural
    /// or memory-ordering gate.
    WaitingIssue {
        /// A functional unit of its class is free this cycle (so the
        /// stall is an ordering gate or issue-bandwidth artifact, not FU
        /// contention).
        fu_free: bool,
        /// The head is a load.
        is_load: bool,
        /// The head is a load with a cross-core memory dependence.
        cross_memdep: bool,
    },
    /// The head is executing.
    Executing {
        /// The head is a load.
        is_load: bool,
        /// For loads that accessed the hierarchy: the level that
        /// serviced them.
        mem_level: Option<MemLevel>,
        /// The head replayed after a cross-core memdep squash.
        cross_replay: bool,
        /// The head is a replicated shadow copy.
        replica: bool,
    },
    /// The head completed this very cycle (writeback; commit next cycle).
    Completing {
        /// The head is a replicated shadow copy.
        replica: bool,
    },
    /// The head completed earlier but the environment refused commit
    /// (global cross-core commit order).
    CommitBlocked {
        /// The head is a replicated shadow copy.
        replica: bool,
    },
}

/// Classifies a load's observed latency by the level that serviced it.
fn classify_mem_level(mlat: u64, cfg: &HierarchyConfig) -> MemLevel {
    if mlat <= cfg.l1d.latency {
        MemLevel::L1
    } else if mlat <= cfg.l1d.latency + cfg.l2.latency {
        MemLevel::L2
    } else {
        MemLevel::Dram
    }
}

/// One out-of-order core executing its assigned instruction stream.
///
/// The core borrows its configuration, the annotated stream and its view
/// of it from the machine driver for the duration of a run — nothing is
/// cloned per run. Fetch builds each instruction from its annotated entry
/// and the view's per-core flags.
#[derive(Debug)]
pub struct Core<'a> {
    id: usize,
    /// Core index used for memory-hierarchy accesses. Equal to `id` on a
    /// private hierarchy; a co-run driver remaps it so each program's
    /// locally-numbered cores address their own slice of one shared
    /// hierarchy.
    mem_core: usize,
    cfg: &'a CoreConfig,
    /// The annotated stream, and the instructions of it this core runs.
    base: &'a [ExecInst],
    view: &'a StreamView,
    /// Index into `view` of the next instruction to fetch.
    cursor: usize,
    fetch_stall_until: u64,
    /// Line whose miss the frontend just waited out (skip the re-access).
    filled_line: Option<u64>,
    pipe: VecDeque<(u64, ExecInst)>,
    slots: Slots,
    /// Slot id per global sequence number ([`NO_SLOT`] when not in flight).
    slot_of: Vec<u32>,
    rob: VecDeque<u32>,
    /// The issue queue the issue stage scans, in age order, less the
    /// entries parked on a local producer.
    iq: Vec<u32>,
    /// Issue-queue entries parked on a local producer (they still occupy
    /// the queue).
    iq_parked: usize,
    lq_used: usize,
    sq_used: usize,
    fus: FuPool,
    /// Completion cycle per global sequence number (`u64::MAX` = not yet);
    /// survives commit so later consumers resolve against it.
    complete_time: Vec<u64>,
    /// Cluster per global sequence number (`u8::MAX` = never dispatched).
    cluster_of: Vec<u8>,
    /// Whether the instruction gates fetch (mispredicted control in
    /// flight), per global sequence number.
    gating: Vec<bool>,
    /// `(completion cycle, gseq)` of every issued instruction not yet
    /// complete, earliest first. They are all in the ROB, so the heap
    /// never outgrows the capacity it starts with.
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    storeset: HashSet<u64>,
    /// Issue-queue occupancy per cluster, maintained incrementally for
    /// load-balanced steering.
    iq_load: Vec<usize>,
    scratch_votes: Vec<usize>,
    scratch_issued: Vec<usize>,
    /// Entries woken this cycle, re-entering the scan from the next one.
    scratch_woken: Vec<u32>,
    /// Fetch cursor last reported through [`ExecEnv::note_fetch_cursor`].
    noted_cursor: usize,
    /// Earliest cycle after the current one at which an entry the issue
    /// scan passed over can issue (`u64::MAX` = none).
    issue_wake: u64,
    /// The per-cycle stall counters the last cycle charged, one `CHARGE_*`
    /// bit each, so that skipped idle cycles charge the same.
    charged: u8,
    stats: CoreStats,
}

// Bits of `Core::charged`, one per per-cycle stall counter.
const CHARGE_ICACHE: u8 = 1 << 0;
const CHARGE_FETCH_BLOCKED: u8 = 1 << 1;
const CHARGE_ROB_FULL: u8 = 1 << 2;
const CHARGE_IQ_FULL: u8 = 1 << 3;
const CHARGE_LSQ_FULL: u8 = 1 << 4;

/// Receives `(gseq, stage, cycle)` for every stage an instruction
/// reaches; `None` when the run's sink records nothing.
type StageHook<'h> = Option<&'h mut dyn FnMut(u64, Stage, u64)>;

#[inline]
fn note(hook: &mut StageHook, gseq: u64, stage: Stage, cycle: u64) {
    if let Some(h) = hook {
        h(gseq, stage, cycle);
    }
}

impl<'a> Core<'a> {
    /// Creates a core with identifier `id` executing `view` of `base`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CoreConfig::validate`].
    pub fn new(
        id: usize,
        cfg: &'a CoreConfig,
        base: &'a [ExecInst],
        view: &'a StreamView,
    ) -> Core<'a> {
        cfg.validate();
        let fus = FuPool::new(&cfg.clusters);
        // Every gseq of the view indexes `base`, so its length bounds the
        // dense per-gseq tables.
        let dense = base.len();
        let clusters = cfg.clusters.len();
        Core {
            id,
            mem_core: id,
            cfg,
            base,
            view,
            cursor: 0,
            fetch_stall_until: 0,
            filled_line: None,
            pipe: VecDeque::with_capacity(cfg.fetch_buffer + 8),
            // An empty stream dispatches nothing.
            slots: base
                .first()
                .map_or_else(Slots::default, |&x| Slots::new(cfg.rob_size, x)),
            slot_of: vec![NO_SLOT; dense],
            rob: VecDeque::with_capacity(cfg.rob_size + 1),
            iq: Vec::with_capacity(cfg.iq_size + 1),
            iq_parked: 0,
            lq_used: 0,
            sq_used: 0,
            fus,
            complete_time: vec![u64::MAX; dense],
            cluster_of: vec![u8::MAX; dense],
            gating: vec![false; dense],
            completions: BinaryHeap::with_capacity(cfg.rob_size),
            storeset: HashSet::new(),
            iq_load: vec![0; clusters],
            scratch_votes: vec![0; clusters],
            scratch_issued: vec![0; clusters],
            scratch_woken: Vec::with_capacity(cfg.issue_width + 4),
            // Nothing reported yet: the first cycle reports the cursor.
            noted_cursor: usize::MAX,
            issue_wake: u64::MAX,
            charged: 0,
            stats: CoreStats::default(),
        }
    }

    /// Whether the core has fetched, executed and committed its whole
    /// stream.
    pub fn done(&self) -> bool {
        self.cursor == self.view.len(self.base) && self.pipe.is_empty() && self.rob.is_empty()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The core identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Remaps the core index used for memory-hierarchy accesses (see the
    /// `mem_core` field). Environment callbacks keep using `id`.
    pub fn set_mem_core(&mut self, mem_core: usize) {
        self.mem_core = mem_core;
    }

    /// One-line snapshot of pipeline occupancy, for diagnostics.
    pub fn pipeline_snapshot(&self) -> String {
        let head = self.rob.front().map(|&sid| {
            let s = sid as usize;
            format!("{}:{:?}", self.slots.x[s].gseq, self.slots.state[s])
        });
        format!(
            "cursor={}/{} pipe={} rob={} iq={} (parked {}) lq={} sq={} head={:?}",
            self.cursor,
            self.view.len(self.base),
            self.pipe.len(),
            self.rob.len(),
            self.iq.len() + self.iq_parked,
            self.iq_parked,
            self.lq_used,
            self.sq_used,
            head
        )
    }

    /// Why the window head (or the empty window) is not committing at
    /// `now` — the telemetry probe behind CPI-stack attribution.
    ///
    /// Read-only with respect to simulation state: it reuses the same
    /// idempotent environment queries the issue stage uses
    /// ([`ExecEnv::cross_operand_ready`]) and the claim-free
    /// [`FuPool::would_issue`] probe, so calling it never perturbs timing.
    /// Only meaningful on cycles where nothing committed; the driver
    /// decides that from the stats delta.
    pub fn commit_stall(&self, env: &mut dyn ExecEnv, now: u64) -> CommitStall {
        let Some(&sid) = self.rob.front() else {
            return CommitStall::Idle;
        };
        let s = sid as usize;
        let x = self.slots.x[s];
        match self.slots.state[s] {
            SlotState::InQueue => {
                let mut pending = false;
                let mut cross_pending = false;
                for dep in self.slots.deps[s].iter().flatten() {
                    let ready = if dep.cross {
                        env.cross_operand_ready(self.id, dep.producer)
                    } else {
                        self.local_ready(dep.producer, self.slots.cluster[s] as usize)
                            .ok()
                    };
                    if ready.is_none_or(|t| t > now) {
                        pending = true;
                        cross_pending |= dep.cross;
                    }
                }
                if pending {
                    CommitStall::WaitingOperands {
                        cross: cross_pending,
                    }
                } else {
                    CommitStall::WaitingIssue {
                        fu_free: self.fus.would_issue(
                            self.slots.cluster[s] as usize,
                            x.class(),
                            now,
                        ),
                        is_load: x.is_load(),
                        cross_memdep: x.mem_dep.is_some_and(|m| m.cross),
                    }
                }
            }
            SlotState::Issued { .. } => CommitStall::Executing {
                is_load: x.is_load(),
                mem_level: self.slots.mem_level[s],
                cross_replay: self.slots.cross_replay[s],
                replica: x.replica,
            },
            SlotState::Done { at } => {
                if at >= now {
                    CommitStall::Completing { replica: x.replica }
                } else {
                    CommitStall::CommitBlocked { replica: x.replica }
                }
            }
        }
    }

    /// Advances the pipeline by one cycle, reporting every stage an
    /// instruction reaches to `sink` (see [`CycleSink::stage`]).
    ///
    /// Returns the next cycle at which the core can act: `now + 1` after a
    /// cycle that changed its state, otherwise the earliest of its own
    /// wake sources (`u64::MAX` if it has none). A quiet cycle changes
    /// nothing but the per-cycle stall counters, and every cycle until the
    /// returned one would repeat it, unless another core acts first: what
    /// a core waits on beyond its own wake sources is a completion on
    /// another core.
    pub fn cycle<S: CycleSink>(
        &mut self,
        now: u64,
        env: &mut dyn ExecEnv,
        mem: &mut Hierarchy,
        sink: &mut S,
    ) -> u64 {
        // The pipeline itself is not generic over the sink, so it is
        // compiled once, in this crate, where its helpers inline: a copy
        // per sink type in each caller's crate measured slower.
        if S::ENABLED {
            let id = self.id;
            let mut hook = |gseq, stage, cycle| sink.stage(id, gseq, stage, cycle);
            self.advance(now, env, mem, &mut Some(&mut hook))
        } else {
            self.advance(now, env, mem, &mut None)
        }
    }

    /// Charges `cycles` skipped idle cycles to the stall counters the last
    /// cycle charged: nothing changed in them, so each would have charged
    /// the same.
    pub fn charge_idle(&mut self, cycles: u64) {
        let s = &mut self.stats;
        for (bit, counter) in [
            (CHARGE_ICACHE, &mut s.icache_stall_cycles),
            (CHARGE_FETCH_BLOCKED, &mut s.fetch_blocked_cycles),
            (CHARGE_ROB_FULL, &mut s.rob_full),
            (CHARGE_IQ_FULL, &mut s.iq_full),
            (CHARGE_LSQ_FULL, &mut s.lsq_full),
        ] {
            if self.charged & bit != 0 {
                *counter += cycles;
            }
        }
    }

    fn advance(
        &mut self,
        now: u64,
        env: &mut dyn ExecEnv,
        mem: &mut Hierarchy,
        hook: &mut StageHook,
    ) -> u64 {
        self.charged = 0;
        // Each stage reports whether the next cycle must run.
        let mut busy = self.drain_completions(now, env, hook);
        busy |= self.commit(now, env, mem, hook);
        busy |= self.issue(now, env, mem, hook);
        busy |= self.dispatch(now, hook);
        busy |= self.fetch(now, env, mem, hook);
        if busy {
            return now + 1;
        }
        let mut wake = self.issue_wake;
        if let Some(&Reverse((t, _))) = self.completions.peek() {
            wake = wake.min(t);
        }
        if self.fetch_stall_until > now {
            wake = wake.min(self.fetch_stall_until);
        }
        if let Some(&(ready, _)) = self.pipe.front() {
            if ready > now {
                wake = wake.min(ready);
            }
        }
        wake
    }

    /// Returns whether anything completed.
    fn drain_completions(&mut self, now: u64, env: &mut dyn ExecEnv, hook: &mut StageHook) -> bool {
        let mut any = false;
        while let Some(&Reverse((cycle, gseq))) = self.completions.peek() {
            if cycle > now {
                break;
            }
            self.completions.pop();
            any = true;
            let sid = self.slot_of[gseq as usize];
            debug_assert_ne!(sid, NO_SLOT, "completing slot exists");
            let s = sid as usize;
            self.slots.state[s] = SlotState::Done { at: cycle };
            self.complete_time[gseq as usize] = cycle;
            let x = self.slots.x[s];
            if x.sends {
                self.stats.sends += 1;
            }
            note(hook, gseq, Stage::Complete, cycle);
            env.on_complete(self.id, &x, cycle);
            if self.gating[gseq as usize] {
                self.gating[gseq as usize] = false;
                env.resolve_fetch_block(gseq, cycle + self.cfg.mispredict_penalty);
            }
        }
        any
    }

    /// Returns whether anything committed.
    fn commit(
        &mut self,
        now: u64,
        env: &mut dyn ExecEnv,
        mem: &mut Hierarchy,
        hook: &mut StageHook,
    ) -> bool {
        let mut any = false;
        for _ in 0..self.cfg.commit_width {
            let Some(&sid) = self.rob.front() else { break };
            let s = sid as usize;
            let SlotState::Done { at } = self.slots.state[s] else {
                break;
            };
            let x = self.slots.x[s];
            if at >= now || !env.can_commit(&x) {
                break;
            }
            let gseq = x.gseq;
            if x.is_store() && !x.replica {
                if let Some((addr, _)) = x.mem_range() {
                    mem.access_data(self.mem_core, addr, true, now);
                    mem.invalidate_others(self.mem_core, addr);
                }
            }
            match x.class() {
                InstClass::Load => self.lq_used -= 1,
                InstClass::Store => self.sq_used -= 1,
                _ => {}
            }
            if x.replica {
                self.stats.replica_committed += 1;
            } else {
                self.stats.committed += 1;
            }
            note(hook, gseq, Stage::Commit, now);
            self.rob.pop_front();
            self.slot_of[gseq as usize] = NO_SLOT;
            self.slots.free.push(sid);
            any = true;
        }
        any
    }

    /// Scheduled or actual completion cycle of this core's instruction
    /// `gseq`, or, if it has not issued yet, `Err` with its slot id:
    /// [`NO_SLOT`] when it was never dispatched on this core.
    fn completion(&self, gseq: u64) -> Result<u64, u32> {
        let sid = self.slot_of[gseq as usize];
        if sid == NO_SLOT {
            let t = self.complete_time[gseq as usize];
            return if t != u64::MAX { Ok(t) } else { Err(NO_SLOT) };
        }
        match self.slots.state[sid as usize] {
            SlotState::InQueue => Err(sid),
            SlotState::Issued { done } => Ok(done),
            SlotState::Done { at } => Ok(at),
        }
    }

    /// Cycle a local producer's value reaches a consumer on
    /// `consumer_cluster`, or, if the producer has not issued yet, `Err`
    /// as from [`Core::completion`].
    fn local_ready(&self, producer: u64, consumer_cluster: usize) -> Result<u64, u32> {
        let time = self.completion(producer)?;
        // `cluster_of` is set at dispatch and never cleared.
        let cluster = self.cluster_of[producer as usize];
        let bypass = if cluster != u8::MAX && cluster as usize != consumer_cluster {
            self.cfg.intercluster_latency
        } else {
            0
        };
        Ok(time + bypass)
    }

    /// Issue-stage wakeup: the earliest cycle the register operands of
    /// slot `s` are ready, or what the entry is blocked on.
    fn wakeup(&self, s: usize, env: &mut dyn ExecEnv) -> Wakeup {
        let mut t = self.slots.dispatched_at[s] + 1;
        let consumer_cluster = self.slots.cluster[s] as usize;
        for dep in self.slots.deps[s].iter().flatten() {
            let r = if dep.cross {
                match env.cross_operand_ready(self.id, dep.producer) {
                    Some(r) => r,
                    None => return Wakeup::Unknown,
                }
            } else {
                match self.local_ready(dep.producer, consumer_cluster) {
                    Ok(r) => r,
                    // Producer is not in this core's stream at all (a
                    // partitioner invariant violation): keep polling,
                    // matching the old always-rescan behaviour.
                    Err(NO_SLOT) => return Wakeup::Unknown,
                    Err(psid) => return Wakeup::WaitLocal(psid),
                }
            };
            t = t.max(r);
        }
        Wakeup::Ready(t)
    }

    /// Local store-queue check for load `x`, whose operands have been
    /// ready since `ready_since`: `None` until the older store on this core
    /// that it reads from has executed (retry next cycle), otherwise
    /// whether that store forwards the data and whether the load violated.
    /// A load violates when it speculated past the store (its pc is not in
    /// the store-set table) and the store completed after the load's
    /// operands were ready.
    fn local_load_gate(&self, x: &ExecInst, ready_since: u64, now: u64) -> Option<(bool, bool)> {
        let Some(md) = x.mem_dep.filter(|m| !m.cross) else {
            return Some((false, false));
        };
        let done = self.completion(md.store).ok().filter(|&done| done <= now)?;
        let violated = done > ready_since && !self.storeset.contains(&x.d.pc);
        Some((md.forwardable, violated))
    }

    /// Returns whether anything issued or a functional unit refused a
    /// ready entry; the earliest cycle another entry it passed over can
    /// issue is left in `issue_wake`.
    fn issue(
        &mut self,
        now: u64,
        env: &mut dyn ExecEnv,
        mem: &mut Hierarchy,
        hook: &mut StageHook,
    ) -> bool {
        let mut issued_total = 0;
        let mut parked_any = false;
        let mut fu_refused = false;
        self.issue_wake = u64::MAX;
        self.scratch_issued.fill(0);
        let mut i = 0;
        while i < self.iq.len() {
            if issued_total >= self.cfg.issue_width {
                break;
            }
            let sid = self.iq[i];
            i += 1;
            let s = sid as usize;
            // Ready-set filter: asleep until a known ready cycle. It
            // neither consumes issue bandwidth, claims an FU, nor touches
            // the environment — skipping it is invisible.
            let sleep = self.slots.sleep_until[s];
            if sleep > now {
                self.issue_wake = self.issue_wake.min(sleep);
                continue;
            }
            let cluster = self.slots.cluster[s] as usize;
            if self.scratch_issued[cluster] >= self.cfg.clusters[cluster].issue_width {
                continue;
            }
            let ready = match self.wakeup(s, env) {
                Wakeup::Ready(t) => t,
                Wakeup::WaitLocal(psid) => {
                    // Park on the producer, out of the scan until it
                    // issues (removed from `iq` below).
                    self.slots.waiting[s] = true;
                    self.slots.waiter_next[s] = self.slots.waiter_head[psid as usize];
                    self.slots.waiter_head[psid as usize] = sid;
                    self.iq_parked += 1;
                    parked_any = true;
                    continue;
                }
                Wakeup::Unknown => continue,
            };
            if ready > now {
                self.slots.sleep_until[s] = ready;
                self.issue_wake = self.issue_wake.min(ready);
                continue;
            }
            // Record when the operands first became ready (for violation
            // detection on speculative loads).
            let ready_since = if self.slots.ready_since[s] == u64::MAX {
                let v = now.max(ready);
                self.slots.ready_since[s] = v;
                v
            } else {
                self.slots.ready_since[s]
            };
            let x = self.slots.x[s];
            let class = x.class();

            // Memory-ordering gates for loads.
            let mut forwarded = false;
            let mut local_violation = false;
            let mut cross_data: Option<u64> = None;
            if x.is_load() {
                match env.cross_load_gate(&x, ready_since) {
                    LoadGate::Free => {}
                    LoadGate::WaitUntil(t) if t <= now => {}
                    LoadGate::WaitUntil(t) => {
                        self.issue_wake = self.issue_wake.min(t);
                        continue;
                    }
                    LoadGate::Retry => continue,
                    LoadGate::Replay { data_at } => {
                        cross_data = Some(data_at);
                    }
                }
                if cross_data.is_none() {
                    let Some(gate) = self.local_load_gate(&x, ready_since, now) else {
                        continue;
                    };
                    (forwarded, local_violation) = gate;
                }
            }

            // Structural hazards last, so nothing is claimed on a retry.
            if !self.fus.try_issue(cluster, class, now, &self.cfg.lat) {
                fu_refused = true;
                continue;
            }

            let lat = &self.cfg.lat;
            let mut issue_mem_level = None;
            let mut issue_cross_replay = false;
            let done = match class {
                InstClass::IntAlu | InstClass::Nop => now + lat.int_alu,
                InstClass::IntMul => now + lat.int_mul,
                InstClass::IntDiv => now + lat.int_div,
                InstClass::FpAdd => now + lat.fp_add,
                InstClass::FpMul => now + lat.fp_mul,
                InstClass::FpDiv => now + lat.fp_div,
                InstClass::Branch | InstClass::Jump => now + lat.branch,
                InstClass::Store => now + lat.agen,
                InstClass::Load => {
                    if let Some(data_at) = cross_data {
                        self.stats.cross_violations += 1;
                        issue_cross_replay = true;
                        data_at.max(now + lat.agen)
                    } else {
                        // A violating load replays, and joins the store
                        // set so that it waits for its store next time.
                        let penalty = if local_violation {
                            self.stats.load_violations += 1;
                            self.storeset.insert(x.d.pc);
                            self.cfg.violation_penalty
                        } else {
                            0
                        };
                        if forwarded {
                            self.stats.store_forwards += 1;
                            (now + lat.forward + penalty).max(now + lat.agen)
                        } else {
                            // The cache supplies the data, after the store
                            // when it overlaps the load only in part.
                            let (addr, _) = x.mem_range().expect("load has address");
                            let access_at = now + lat.agen;
                            let mlat =
                                mem.access_load_with_pc(self.mem_core, x.d.pc, addr, access_at);
                            issue_mem_level = Some(classify_mem_level(mlat, mem.config()));
                            access_at + mlat + penalty
                        }
                    }
                }
            };

            self.slots.state[s] = SlotState::Issued { done };
            self.slots.mem_level[s] = issue_mem_level;
            self.slots.cross_replay[s] = issue_cross_replay;
            // Wake everything parked on this producer. Its value is
            // ready at `now + 1` at the earliest, so the woken entries
            // join the scan from the next cycle on.
            let mut w = self.slots.waiter_head[s];
            self.slots.waiter_head[s] = NO_SLOT;
            while w != NO_SLOT {
                self.slots.waiting[w as usize] = false;
                self.scratch_woken.push(w);
                w = self.slots.waiter_next[w as usize];
            }
            debug_assert!(done > now, "completion at {done} is not after {now}");
            self.completions.push(Reverse((done, x.gseq)));
            debug_assert!(self.completions.len() <= self.cfg.rob_size);
            note(hook, x.gseq, Stage::Issue, now);
            issued_total += 1;
            self.scratch_issued[cluster] += 1;
            self.iq_load[cluster] -= 1;
            self.stats.issued += 1;
        }
        if issued_total > 0 || parked_any {
            let (state, waiting) = (&self.slots.state, &self.slots.waiting);
            self.iq.retain(|&sid| {
                matches!(state[sid as usize], SlotState::InQueue) && !waiting[sid as usize]
            });
        }
        // Back into the scan in age order: per-core dispatch order is
        // gseq order.
        self.iq_parked -= self.scratch_woken.len();
        let x = &self.slots.x;
        for &sid in &self.scratch_woken {
            let gseq = x[sid as usize].gseq;
            let at = self.iq.partition_point(|&o| x[o as usize].gseq < gseq);
            self.iq.insert(at, sid);
        }
        debug_assert!(self.iq.is_sorted_by_key(|&o| x[o as usize].gseq));
        self.scratch_woken.clear();
        issued_total > 0 || fu_refused
    }

    fn steer(&mut self, x: &ExecInst) -> usize {
        if self.cfg.clusters.len() == 1 {
            return 0;
        }
        // Dependence-based steering with load balancing (the policy used
        // for fused cores): prefer the cluster that produces our operands,
        // fall back to the least-loaded cluster.
        self.scratch_votes.fill(0);
        for dep in x.deps.iter().flatten() {
            if dep.cross {
                continue;
            }
            // `cluster_of` is set at dispatch and never cleared, so it
            // covers both in-flight and committed producers.
            let c = self.cluster_of[dep.producer as usize];
            if c != u8::MAX {
                self.scratch_votes[c as usize] += 1;
            }
        }
        let votes = &self.scratch_votes;
        let load = &self.iq_load;
        let best_vote = votes.iter().copied().max().unwrap_or(0);
        // Imbalance guard: if the preferred cluster is overloaded, go to
        // the least-loaded one instead.
        let preferred = (0..votes.len())
            .find(|&c| votes[c] == best_vote)
            .unwrap_or(0);
        let least = (0..load.len()).min_by_key(|&c| load[c]).unwrap_or(0);
        if best_vote > 0 && load[preferred] < 2 * (load[least] + 2) {
            preferred
        } else {
            least
        }
    }

    /// Returns whether anything was dispatched.
    fn dispatch(&mut self, now: u64, hook: &mut StageHook) -> bool {
        let mut any = false;
        for _ in 0..self.cfg.decode_width {
            let Some(&(ready, _)) = self.pipe.front() else {
                break;
            };
            if ready > now {
                break;
            }
            let x = self.pipe.front().expect("peeked").1;
            if self.rob.len() >= self.cfg.rob_size {
                self.stats.rob_full += 1;
                self.charged |= CHARGE_ROB_FULL;
                break;
            }
            if self.iq.len() + self.iq_parked >= self.cfg.iq_size {
                self.stats.iq_full += 1;
                self.charged |= CHARGE_IQ_FULL;
                break;
            }
            match x.class() {
                InstClass::Load if self.lq_used >= self.cfg.lq_size => {
                    self.stats.lsq_full += 1;
                    self.charged |= CHARGE_LSQ_FULL;
                    break;
                }
                InstClass::Store if self.sq_used >= self.cfg.sq_size => {
                    self.stats.lsq_full += 1;
                    self.charged |= CHARGE_LSQ_FULL;
                    break;
                }
                _ => {}
            }
            self.pipe.pop_front();
            let cluster = self.steer(&x);
            match x.class() {
                InstClass::Load => self.lq_used += 1,
                InstClass::Store => self.sq_used += 1,
                _ => {}
            }
            self.cluster_of[x.gseq as usize] = cluster as u8;
            let sid = self.slots.alloc(x, cluster as u8, now);
            self.slot_of[x.gseq as usize] = sid;
            self.rob.push_back(sid);
            self.iq.push(sid);
            self.iq_load[cluster] += 1;
            note(hook, x.gseq, Stage::Dispatch, now);
            any = true;
        }
        any
    }

    /// Returns whether fetch moved: it reported a new cursor (which
    /// partners read from the next cycle on) or accessed the I-cache.
    fn fetch(
        &mut self,
        now: u64,
        env: &mut dyn ExecEnv,
        mem: &mut Hierarchy,
        hook: &mut StageHook,
    ) -> bool {
        let moved = self.noted_cursor != self.cursor;
        if moved {
            self.noted_cursor = self.cursor;
            env.note_fetch_cursor(self.id, self.view.gseq(self.base, self.cursor));
        }
        if now < self.fetch_stall_until {
            self.stats.icache_stall_cycles += 1;
            self.charged |= CHARGE_ICACHE;
            return moved;
        }
        // The fetch buffer bounds decoded instructions waiting for
        // dispatch; instructions still traversing the frontend stages
        // occupy pipeline latches, not buffer entries.
        let frontend_flight = self.cfg.fetch_width
            * (self.cfg.frontend_depth
                + self.cfg.extra_fetch_latency
                + self.cfg.extra_rename_latency) as usize;
        if self.pipe.len() + self.cfg.fetch_width > self.cfg.fetch_buffer + frontend_flight {
            return moved;
        }
        let Some(first) = self.view.annotated(self.base, self.cursor) else {
            return moved;
        };
        if env.fetch_blocked(self.id, first.gseq, now) {
            self.stats.fetch_blocked_cycles += 1;
            self.charged |= CHARGE_FETCH_BLOCKED;
            return moved;
        }
        let line_bytes = mem.config().l1i.line_bytes;
        let line_of = |pc: u64| Hierarchy::inst_addr(pc) / line_bytes;
        let group_line = line_of(first.d.pc);
        let hit_latency = mem.config().l1i.latency;
        // A line whose miss we already waited out (`filled_line`) is not
        // re-accessed on resume — that would double-count it in the L1I
        // statistics.
        if self.filled_line.take() != Some(group_line) {
            let lat = mem.access_inst(self.mem_core, first.d.pc, now);
            if lat > hit_latency {
                self.filled_line = Some(group_line);
                self.fetch_stall_until = now + lat;
                return true;
            }
        }
        let ready = now
            + self.cfg.frontend_depth
            + self.cfg.extra_fetch_latency
            + self.cfg.extra_rename_latency;
        for _ in 0..self.cfg.fetch_width {
            let Some(x) = self.view.get(self.base, self.cursor) else {
                break;
            };
            if line_of(x.d.pc) != group_line {
                break;
            }
            if env.fetch_blocked(self.id, x.gseq, now) {
                break;
            }
            self.cursor += 1;
            self.stats.fetched += 1;
            note(hook, x.gseq, Stage::Fetch, now);
            self.pipe.push_back((ready, x));
            if x.class().is_control() {
                let p = env.predict(&x);
                if p.mispredicted {
                    self.gating[x.gseq as usize] = true;
                    env.block_fetch_after(x.gseq);
                    break;
                }
                if x.d.redirects() {
                    if p.btb_miss {
                        self.stats.btb_bubbles += 1;
                        self.fetch_stall_until = now + self.cfg.btb_miss_penalty;
                    }
                    break;
                }
            }
        }
        // At least `first` was fetched.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};
    use fgstp_mem::HierarchyConfig;

    use crate::env::{FetchGate, LoadGate, Prediction, PredictorState};
    use crate::stream::build_exec_stream;

    /// The world of one core running alone: its own predictor and a fetch
    /// gate. Nothing crosses cores, and the core's in-order ROB already
    /// commits in program order. It records every `(cycle, gseq)`
    /// completion in the order the core reports them.
    struct InOrderEnv {
        pred: PredictorState,
        gate: FetchGate,
        completed: Vec<(u64, u64)>,
    }

    impl ExecEnv for InOrderEnv {
        fn predict(&mut self, x: &ExecInst) -> Prediction {
            self.pred.predict(x)
        }

        fn fetch_blocked(&mut self, _core: usize, gseq: u64, now: u64) -> bool {
            self.gate.blocked(gseq, now)
        }

        fn note_fetch_cursor(&mut self, _core: usize, _next_gseq: Option<u64>) {}

        fn block_fetch_after(&mut self, gseq: u64) {
            self.gate.block_after(gseq);
        }

        fn resolve_fetch_block(&mut self, gseq: u64, resume: u64) {
            self.gate.resolve(gseq, resume);
        }

        fn on_complete(&mut self, _core: usize, x: &ExecInst, cycle: u64) {
            self.completed.push((cycle, x.gseq));
        }

        fn cross_operand_ready(&mut self, _core: usize, producer: u64) -> Option<u64> {
            unreachable!("one core has no cross-core producer ({producer})")
        }

        fn cross_load_gate(&mut self, _x: &ExecInst, _ready_since: u64) -> LoadGate {
            LoadGate::Free
        }

        fn can_commit(&self, _x: &ExecInst) -> bool {
            true
        }
    }

    fn run(src: &str, cfg: CoreConfig) -> (u64, CoreStats) {
        let (cycles, stats, _) = run_recording(src, cfg);
        (cycles, stats)
    }

    /// Runs `src` to completion, also returning the completions the core
    /// reported.
    fn run_recording(src: &str, cfg: CoreConfig) -> (u64, CoreStats, Vec<(u64, u64)>) {
        let p = assemble(src).unwrap();
        let t = trace_program(&p, 100_000).unwrap();
        let stream = build_exec_stream(t.insts());
        let total = stream.len() as u64;
        let mut core = Core::new(0, &cfg, &stream, &StreamView::Whole);
        let mut env = InOrderEnv {
            pred: PredictorState::new(&cfg),
            gate: FetchGate::default(),
            completed: Vec::new(),
        };
        let mut mem = fgstp_mem::Hierarchy::new(&HierarchyConfig::small(1));
        let mut now = 0u64;
        while !core.done() {
            core.cycle(now, &mut env, &mut mem, &mut fgstp_telemetry::NullSink);
            now += 1;
            assert!(now < total * 1000 + 100_000, "pipeline deadlocked");
        }
        assert_eq!(core.stats().committed, total, "all instructions commit");
        (now, *core.stats(), env.completed)
    }

    const INDEPENDENT: &str = r#"
        li x1, 1
        li x2, 2
        li x3, 3
        li x4, 4
        li x5, 5
        li x6, 6
        li x7, 7
        li x8, 8
        halt
    "#;

    #[test]
    fn independent_instructions_achieve_superscalar_ipc() {
        let (cycles, stats) = run(INDEPENDENT, CoreConfig::small());
        assert_eq!(stats.committed, 8);
        // 8 independent ALU ops on a 2-wide core: ~4 cycles + pipeline fill
        // + one compulsory I-cache miss (L1 + L2 + DRAM).
        assert!(cycles < 175, "took {cycles} cycles");
    }

    #[test]
    fn dependent_chain_is_serialized() {
        let chain = r#"
            li  x1, 0
            add x1, x1, x1
            add x1, x1, x1
            add x1, x1, x1
            add x1, x1, x1
            add x1, x1, x1
            add x1, x1, x1
            add x1, x1, x1
            halt
        "#;
        let (chain_cycles, _) = run(chain, CoreConfig::small());
        let (indep_cycles, _) = run(INDEPENDENT, CoreConfig::small());
        assert!(
            chain_cycles > indep_cycles,
            "dependences must serialize: {chain_cycles} vs {indep_cycles}"
        );
    }

    #[test]
    fn wider_core_is_faster_on_ilp() {
        let mut src = String::new();
        for i in 1..=16 {
            src.push_str(&format!("li x{}, {i}\n", (i % 30) + 1));
        }
        src.push_str("halt\n");
        let (small, _) = run(&src, CoreConfig::small());
        let (medium, _) = run(&src, CoreConfig::medium());
        assert!(
            medium <= small,
            "medium {medium} should be <= small {small}"
        );
    }

    #[test]
    fn store_load_forwarding_is_used() {
        let src = r#"
            li x1, 0x100
            li x2, 42
            sd x2, 0(x1)
            ld x3, 0(x1)
            add x4, x3, x3
            halt
        "#;
        let (_, stats) = run(src, CoreConfig::small());
        assert!(
            stats.store_forwards >= 1,
            "load should forward from the store"
        );
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // A data-dependent unpredictable-ish branch pattern vs straight
        // line code of the same instruction count.
        let mut branchy = String::from("li x1, 0\nli x2, 0\n");
        branchy.push_str(
            r#"
            loop:
                addi x1, x1, 1
                andi x3, x1, 5
                rem  x4, x1, x3
                beq  x4, x0, skip
                addi x2, x2, 1
            skip:
                slti x5, x1, 64
                bne  x5, x0, loop
                halt
            "#,
        );
        let (cycles, _stats) = run(&branchy, CoreConfig::small());
        assert!(cycles > 64, "branchy loop takes real time");
    }

    #[test]
    fn rob_fills_under_long_latency_miss_chain() {
        // Pointer-chase misses: each load depends on the previous one.
        let mut src = String::from(".data 0x1000\n");
        // Build a linked chain in memory: node i at 0x1000 + i*4096 points
        // to node i+1 (strides defeat the (disabled) prefetcher and L1).
        for i in 0..20u64 {
            src.push_str(&format!(
                ".data {}\n.word {}\n",
                0x1000 + i * 4096,
                0x1000 + (i + 1) * 4096
            ));
        }
        src.push_str("li x1, 0x1000\n");
        for _ in 0..20 {
            src.push_str("ld x1, 0(x1)\n");
        }
        src.push_str("halt\n");
        let (cycles, stats) = run(&src, CoreConfig::small());
        assert_eq!(stats.committed, 21);
        // 20 serialized L2/DRAM misses dominate: well over 20*100 cycles.
        assert!(
            cycles > 1500,
            "chain of misses should be slow, took {cycles}"
        );
    }

    #[test]
    fn fused_clusters_execute_correctly() {
        let cfg = CoreConfig::fused(&CoreConfig::small());
        let (cycles, stats) = run(INDEPENDENT, cfg);
        assert_eq!(stats.committed, 8);
        assert!(cycles < 180, "took {cycles} cycles");
    }

    #[test]
    fn stats_account_for_all_fetches() {
        let (_, stats) = run(INDEPENDENT, CoreConfig::small());
        assert_eq!(stats.fetched, 8);
        assert_eq!(stats.issued, 8);
        assert_eq!(stats.replica_committed, 0);
    }

    #[test]
    fn speculative_policy_counts_local_violations() {
        // The store's data operand arrives late (behind a multiply chain),
        // while the dependent load is ready immediately: a classic
        // speculation violation, since a cold store set lets the load
        // speculate.
        let src = r#"
            li  x1, 0x100
            li  x2, 9
            mul x3, x2, x2
            mul x3, x3, x3
            mul x3, x3, x3
            sd  x3, 0(x1)
            ld  x4, 0(x1)
            halt
        "#;
        let (_, stats) = run(src, CoreConfig::small());
        assert_eq!(stats.load_violations, 1);
    }

    #[test]
    fn store_sets_learn_after_first_violation() {
        // Same conflict repeated in a loop: the store-set table synchronizes
        // the load after the first violation, so the one static load
        // violates once rather than once per iteration.
        let src = r#"
            li  x1, 0x100
            li  x9, 20
        loop:
            mul x3, x9, x9
            mul x3, x3, x3
            sd  x3, 0(x1)
            ld  x4, 0(x1)
            addi x9, x9, -1
            bne x9, x0, loop
            halt
        "#;
        let (_, stats) = run(src, CoreConfig::small());
        assert_eq!(stats.load_violations, 1);
    }

    #[test]
    fn btb_bubbles_accrue_on_cold_taken_jumps() {
        // A chain of calls/returns between distant labels: every first
        // encounter of a direct jump target is a decode bubble.
        let src = r#"
            jal x1, f1
        f0: halt
        f1: jal x2, f2
            jalr x0, x1, 0
        f2: jal x3, f3
            jalr x0, x2, 0
        f3: jalr x0, x3, 0
        "#;
        let (_, stats) = run(src, CoreConfig::small());
        assert!(
            stats.btb_bubbles >= 3,
            "cold jal targets bubble, got {}",
            stats.btb_bubbles
        );
    }

    #[test]
    fn completions_arrive_in_cycle_then_gseq_order() {
        // The load (gseq 1) misses to DRAM. It issues in the same cycle as
        // the first `addi`, ahead of it in age order, so its completion is
        // scheduled before the ALU ops' although they all complete first,
        // two per cycle on the 2-ALU small core.
        let src = r#"
            .data 0x100000
            .word 7
            li   x1, 0x100000
            ld   x2, 0(x1)
            addi x3, x1, 3
            addi x4, x1, 4
            addi x5, x1, 5
            addi x6, x1, 6
            addi x7, x1, 7
            addi x8, x1, 8
            halt
        "#;
        let (_, stats, completed) = run_recording(src, CoreConfig::small());
        assert_eq!(completed.len() as u64, stats.issued);
        assert!(
            completed.windows(2).all(|w| w[0] < w[1]),
            "not in strictly increasing (cycle, gseq): {completed:?}"
        );
        let load_done = completed.iter().find(|&&(_, gseq)| gseq == 1).unwrap().0;
        let before_load = completed
            .iter()
            .filter(|&&(c, gseq)| gseq > 1 && c < load_done);
        assert!(before_load.count() >= 6, "{completed:?}");
        assert!(
            completed.windows(2).any(|w| w[0].0 == w[1].0),
            "no cycle completed two instructions: {completed:?}"
        );
    }

    #[test]
    fn issue_respects_total_width() {
        // 16 independent ALU ops on a 2-wide core: at most 2 issues per
        // cycle, so at least 8 execution cycles past the pipeline fill.
        let mut src = String::new();
        for i in 0..16 {
            src.push_str(&format!("li x{}, {}\n", (i % 28) + 1, i));
        }
        src.push_str("halt\n");
        let (cycles, stats) = run(&src, CoreConfig::small());
        assert_eq!(stats.issued, 16);
        // Cold icache miss (~133) + frontend fill + ceil(16/2) issue cycles.
        assert!(cycles >= 133 + 8, "{cycles}");
    }
}
