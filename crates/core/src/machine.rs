//! The Fg-STP N-core timing machine.
//!
//! A set of conventional out-of-order cores (the `fgstp-ooo` pipeline)
//! executes the partitioned slices of a single thread. This module
//! provides the shared environment that couples them:
//!
//! * a **shared frontend orchestrator** — one branch predictor, a global
//!   fetch gate for mispredictions, and a lookahead-buffer skew bound (a
//!   core may run at most one partition window ahead of the slowest
//!   partner);
//! * the **register communication fabric** ([`crate::CommFabric`]): one
//!   queue per directed core pair, delivering cross-core values with
//!   latency, bandwidth and capacity;
//! * **cross-core memory-dependence speculation**: loads issue past remote
//!   stores and replay on a conflict, or (speculation disabled) wait for
//!   the youngest older remote store;
//! * **global in-order commit** across all cores.
//!
//! The paper's machine is the 2-core instance (`num_cores = 2`, the
//! default); every mechanism generalizes unchanged to N cores. The
//! baselines are the 1-core instance ([`FgstpConfig::single`]): one
//! conventional core, or the fused Core Fusion core, running the thread
//! alone with nothing to partition, send or replicate.

use fgstp_isa::DynInst;
use fgstp_mem::{Hierarchy, HierarchyConfig, HierarchyStats};
use fgstp_ooo::{
    build_exec_stream, classify_single, stat_delta, CommitStall, Core, CoreConfig, CoreStats,
    ExecEnv, ExecInst, FetchGate, LoadGate, Prediction, PredictorState, RunResult, StatDelta,
    StreamView, WarmRun, WarmState,
};
use fgstp_telemetry::{CycleOutcome, CycleSink, NullSink, StallCategory};

use crate::commq::{CommConfig, CommFabric, CommStats};
use crate::partition::{
    partition_stream_weighted, PartitionConfig, PartitionStats, PartitionedStream,
};

/// Configuration of the full Fg-STP machine.
#[derive(Debug, Clone, PartialEq)]
pub struct FgstpConfig {
    /// Number of cores the thread is partitioned across (the paper's
    /// machine uses 2).
    pub num_cores: usize,
    /// Per-core configuration (all cores are identical).
    pub core: CoreConfig,
    /// Register communication queues (every directed core pair).
    pub comm: CommConfig,
    /// Cycles after a remote store completes until its value is visible to
    /// another core's loads.
    pub store_vis_latency: u64,
    /// Replay penalty for a cross-core memory-dependence violation.
    pub cross_violation_penalty: u64,
    /// Whether loads may speculate past unresolved remote stores.
    pub dep_speculation: bool,
    /// Partitioner configuration.
    pub partition: PartitionConfig,
    /// Per-core configuration overrides for asymmetric machines (index =
    /// core; the length must equal `num_cores`). `None` — the default —
    /// keeps every core identical to `core`. The shared frontend
    /// orchestrator (branch predictor geometry) always follows `core`.
    pub per_core: Option<Vec<CoreConfig>>,
}

impl FgstpConfig {
    /// Fg-STP on two small cores (the paper's small 2-core CMP).
    pub fn small() -> FgstpConfig {
        FgstpConfig {
            num_cores: 2,
            core: CoreConfig::small(),
            comm: CommConfig::default(),
            store_vis_latency: 6,
            cross_violation_penalty: 12,
            dep_speculation: true,
            partition: PartitionConfig::default(),
            per_core: None,
        }
    }

    /// Fg-STP on two medium cores (the paper's medium 2-core CMP).
    pub fn medium() -> FgstpConfig {
        FgstpConfig {
            core: CoreConfig::medium(),
            ..FgstpConfig::small()
        }
    }

    /// One core running the whole thread: a conventional core, or the
    /// fused Core Fusion core when `core` has two clusters
    /// ([`CoreConfig::fused`]). Nothing is partitioned, sent or
    /// replicated, so the coupling parameters (left at the
    /// [`FgstpConfig::small`] values) never come into play.
    pub fn single(core: CoreConfig) -> FgstpConfig {
        FgstpConfig {
            core,
            ..FgstpConfig::small().with_cores(1)
        }
    }

    /// The same machine partitioned across `n` cores.
    pub fn with_cores(mut self, n: usize) -> FgstpConfig {
        self.num_cores = n;
        self.per_core = None;
        self
    }

    /// An asymmetric machine: one explicit configuration per core.
    /// `num_cores` follows the list length; `core` (the shared-frontend
    /// base) is left as is.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn with_per_core(mut self, cores: Vec<CoreConfig>) -> FgstpConfig {
        assert!(!cores.is_empty(), "per-core list must not be empty");
        self.num_cores = cores.len();
        self.per_core = Some(cores);
        self
    }

    /// The configuration of core `i`.
    pub fn core_for(&self, i: usize) -> &CoreConfig {
        match &self.per_core {
            Some(cores) => &cores[i],
            None => &self.core,
        }
    }

    /// Relative steering capacity per core for the weighted partitioner:
    /// issue widths on an asymmetric machine, uniform otherwise (which
    /// keeps the partition bit-identical to the unweighted path).
    pub fn steering_caps(&self) -> Vec<u64> {
        match &self.per_core {
            Some(cores) => cores.iter().map(|c| c.issue_width as u64).collect(),
            None => vec![1; self.num_cores],
        }
    }

    /// Fetch-skew bound implied by the partition lookahead window.
    pub fn fetch_skew(&self) -> u64 {
        match self.partition.policy {
            crate::partition::PartitionPolicy::SliceLookahead { window, .. } => window as u64,
            _ => 256,
        }
    }
}

/// Fg-STP-specific statistics beyond the per-core pipeline counters.
#[derive(Debug, Clone, Default)]
pub struct FgstpStats {
    /// Partitioning summary.
    pub partition: PartitionStats,
    /// Aggregate inbound communication statistics per receiving core.
    pub comm: Vec<CommStats>,
    /// Cross-core memory-dependence violations replayed.
    pub cross_violations: u64,
}

impl FgstpStats {
    /// Machine-wide communication totals (all directed edges merged).
    pub fn comm_total(&self) -> CommStats {
        let mut total = CommStats::default();
        for c in &self.comm {
            total.merge(c);
        }
        total
    }
}

/// The shared execution environment implementing [`ExecEnv`] for N cores.
///
/// The environment borrows the partitioner's per-producer send masks and
/// load barriers for the duration of a run — nothing is cloned, and the
/// hot-path lookups (predictions, deliveries, completion board) are dense
/// gseq-indexed vectors rather than hash maps. A one-core machine has
/// nothing to send or deliver and no remote store to wait for, so it
/// holds no delivery row and borrows empty send masks (no instruction of
/// its stream sends) and load barriers (its loads never wait on one).
#[derive(Debug)]
struct FgstpEnv<'a> {
    /// Predictions made by the shared frontend orchestrator, which sees
    /// the fetch stream in program order *before* distribution — so the
    /// predictor history is exactly the single-thread history (computed in
    /// a prepass over the stream). Dense per gseq; only control
    /// instructions' entries are ever read.
    predictions: Vec<Prediction>,
    branches: u64,
    mispredicts: u64,
    gate: FetchGate,
    /// Completion cycle per global sequence number (primary copies only).
    board: Vec<u64>,
    /// Smallest gseq whose instruction has not completed yet. An
    /// instruction may retire once every older instruction (on any core)
    /// has completed — distributed commit with exchanged completion
    /// pointers, rather than a serialized global commit port.
    completed_frontier: u64,
    /// Delivered cross-core values per receiving core, dense per gseq
    /// (`u64::MAX` = not delivered); no row on a one-core machine.
    deliveries: Vec<Vec<u64>>,
    /// One queue per directed core pair.
    fabric: CommFabric,
    /// Per-producer bitmask of destination cores (from the partitioner).
    send_targets: &'a [u64],
    /// Per-gseq youngest older remote store (`u64::MAX` = no barrier).
    barriers: &'a [u64],
    /// Next unfetched gseq per core (`u64::MAX` when exhausted).
    next_fetch: Vec<u64>,
    fetch_skew: u64,
    store_vis_latency: u64,
    cross_violation_penalty: u64,
    dep_speculation: bool,
}

impl<'a> FgstpEnv<'a> {
    fn new(
        cfg: &FgstpConfig,
        stream: &[fgstp_ooo::ExecInst],
        send_targets: &'a [u64],
        barriers: &'a [u64],
        n: usize,
        pred: &mut PredictorState,
    ) -> FgstpEnv<'a> {
        // Prepass: the shared orchestrator predicts every control
        // instruction in program order. The predictor bundle is external so
        // a sampled run can carry its training across windows; the reported
        // counters are the deltas of this window.
        let branches_before = (pred.branches, pred.mispredicts);
        let mut predictions = vec![
            Prediction {
                mispredicted: false,
                btb_miss: false,
            };
            stream.len()
        ];
        for x in stream {
            if x.class().is_control() {
                predictions[x.gseq as usize] = pred.predict(x);
            }
        }
        FgstpEnv {
            predictions,
            branches: pred.branches - branches_before.0,
            mispredicts: pred.mispredicts - branches_before.1,
            gate: FetchGate::default(),
            board: vec![u64::MAX; stream.len()],
            completed_frontier: 0,
            // A lone core receives nothing.
            deliveries: if n > 1 {
                vec![vec![u64::MAX; stream.len()]; n]
            } else {
                Vec::new()
            },
            fabric: CommFabric::new(n, cfg.comm),
            send_targets,
            barriers,
            next_fetch: vec![0; n],
            fetch_skew: cfg.fetch_skew(),
            store_vis_latency: cfg.store_vis_latency,
            cross_violation_penalty: cfg.cross_violation_penalty,
            dep_speculation: cfg.dep_speculation,
        }
    }

    fn completed(&self, gseq: u64) -> Option<u64> {
        let c = self.board[gseq as usize];
        (c != u64::MAX).then_some(c)
    }

    /// Fetch cursor of the slowest *other* core still fetching.
    fn slowest_partner(&self, core: usize) -> Option<u64> {
        self.next_fetch
            .iter()
            .enumerate()
            .filter(|&(k, &f)| k != core && f != u64::MAX)
            .map(|(_, &f)| f)
            .min()
    }

    /// Whether `core`'s fetch is currently bound by the lookahead-buffer
    /// skew limit (it ran a full partition window ahead of the slowest
    /// partner) — the telemetry disambiguator between a branch-redirect
    /// fetch gate and partitioner backpressure.
    fn skew_blocked(&self, core: usize) -> bool {
        let me = self.next_fetch[core];
        me != u64::MAX
            && self
                .slowest_partner(core)
                .is_some_and(|other| me > other + self.fetch_skew)
    }
}

/// Charges one non-commit cycle of an Fg-STP core to a [`StallCategory`]:
/// the cross-core refinements first, then the single-core decision tree.
fn classify_fgstp(
    done: bool,
    skew_blocked: bool,
    stall: CommitStall,
    d: &StatDelta,
) -> StallCategory {
    if done {
        // Drained while a partner still runs: global-commit slack.
        return StallCategory::CommitSync;
    }
    if d.replica_committed > 0 {
        // The commit slot went to replicated shadow copies.
        return StallCategory::Replication;
    }
    match stall {
        CommitStall::Idle if d.fetch_blocked > 0 && skew_blocked => StallCategory::CommBackpressure,
        CommitStall::Executing {
            replica: true,
            is_load: false,
            cross_replay: false,
            ..
        } => StallCategory::Replication,
        CommitStall::Completing { replica: true } => StallCategory::Replication,
        other => classify_single(other, d),
    }
}

impl ExecEnv for FgstpEnv<'_> {
    fn predict(&mut self, x: &ExecInst) -> Prediction {
        debug_assert!(x.class().is_control(), "only control flow is predicted");
        self.predictions[x.gseq as usize]
    }

    fn fetch_blocked(&mut self, core: usize, gseq: u64, now: u64) -> bool {
        if self.gate.blocked(gseq, now) {
            return true;
        }
        // Lookahead-buffer bound: the partitioner distributes at most
        // `fetch_skew` instructions ahead of the slowest core.
        self.slowest_partner(core)
            .is_some_and(|other| gseq > other + self.fetch_skew)
    }

    fn note_fetch_cursor(&mut self, core: usize, next_gseq: Option<u64>) {
        self.next_fetch[core] = next_gseq.unwrap_or(u64::MAX);
    }

    fn block_fetch_after(&mut self, gseq: u64) {
        self.gate.block_after(gseq);
    }

    fn resolve_fetch_block(&mut self, gseq: u64, resume: u64) {
        self.gate.resolve(gseq, resume);
    }

    fn on_complete(&mut self, core: usize, x: &ExecInst, cycle: u64) {
        if x.replica {
            return;
        }
        self.board[x.gseq as usize] = cycle;
        while (self.completed_frontier as usize) < self.board.len()
            && self.board[self.completed_frontier as usize] != u64::MAX
        {
            self.completed_frontier += 1;
        }
        if x.sends {
            // One queue send per destination core that consumes the value.
            let mut mask = self.send_targets[x.gseq as usize];
            while mask != 0 {
                let to = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let delivery = self.fabric.send(core, to, cycle);
                self.deliveries[to][x.gseq as usize] = delivery;
            }
        }
    }

    fn cross_operand_ready(&mut self, core: usize, producer: u64) -> Option<u64> {
        let v = self.deliveries[core][producer as usize];
        (v != u64::MAX).then_some(v)
    }

    fn cross_load_gate(&mut self, x: &ExecInst, ready_since: u64) -> LoadGate {
        if !self.dep_speculation {
            // Conservative cross-core ordering: wait for the youngest older
            // remote store to complete and become visible. A one-core
            // program has no remote store and holds no barriers.
            if self.barriers.is_empty() {
                return LoadGate::Free;
            }
            let store = self.barriers[x.gseq as usize];
            if store == u64::MAX {
                return LoadGate::Free;
            }
            return match self.completed(store) {
                None => LoadGate::Retry,
                Some(c) => LoadGate::WaitUntil(c + self.store_vis_latency),
            };
        }
        let Some(md) = x.mem_dep.filter(|m| m.cross) else {
            return LoadGate::Free;
        };
        match self.completed(md.store) {
            // The conflicting remote store has not even executed: the load
            // speculates, is squashed when the store arrives, and replays.
            None => LoadGate::Retry,
            Some(c) => {
                let visible = c + self.store_vis_latency;
                if visible <= ready_since {
                    LoadGate::Free
                } else {
                    LoadGate::Replay {
                        data_at: visible + self.cross_violation_penalty,
                    }
                }
            }
        }
    }

    fn can_commit(&self, x: &ExecInst) -> bool {
        // Distributed commit: retire once every older instruction (on any
        // core) has completed. Per-core ROBs stay in order, so each core
        // retires its own instructions in order; the frontier guarantees
        // global precise-state recoverability.
        x.gseq < self.completed_frontier
    }
}

/// Upper bound on cycles per instruction before declaring a deadlock.
const DEADLOCK_CPI: u64 = 2_000;

/// Runs `trace` on the Fg-STP machine from cold state: [`run_fgstp_warm`]
/// on a fresh [`WarmState`], measured from the first commit, with no
/// instrumentation. Returns the timing result and the Fg-STP-specific
/// statistics.
///
/// # Panics
///
/// Panics if `hcfg` does not describe `cfg.num_cores` cores, or if the
/// machine deadlocks (a model bug).
pub fn run_fgstp(
    trace: &[DynInst],
    cfg: &FgstpConfig,
    hcfg: &HierarchyConfig,
) -> (RunResult, FgstpStats) {
    let mut warm = WarmState::new(&cfg.core, hcfg);
    let (run, stats) = run_fgstp_warm(trace, cfg, &mut warm, 0, &mut NullSink);
    (run.result, stats)
}

/// Runs `trace` on the Fg-STP machine entered with the long-lived state in
/// `warm` — a fresh [`WarmState`] for a whole-trace run, or the warmed
/// state of a sampled detailed window. This is the one entry for every
/// machine shape: a one-core `cfg` ([`FgstpConfig::single`]) is a
/// conventional or fused core running alone.
///
/// The shared frontend predicts on `warm.pred` and every core accesses
/// `warm.mem`; the cycles until the `measure_from`-th primary commit are
/// reported as [`WarmRun::warmup_cycles`]. Every core-cycle (warmup
/// included) and every pipeline stage an instruction reaches is reported
/// to `sink`, without changing timing.
///
/// # Panics
///
/// Panics if `warm`'s hierarchy does not describe `cfg.num_cores` cores,
/// or if the machine deadlocks (a model bug).
pub fn run_fgstp_warm<S: CycleSink>(
    trace: &[DynInst],
    cfg: &FgstpConfig,
    warm: &mut WarmState,
    measure_from: u64,
    sink: &mut S,
) -> (WarmRun, FgstpStats) {
    assert_eq!(
        warm.mem.config().cores,
        cfg.num_cores,
        "hierarchy core count must match FgstpConfig::num_cores"
    );
    let prog = PreparedProgram::new(trace, cfg);
    let mut machine = FgstpMachine::new(&prog, cfg, 0, &mut warm.pred);
    let mut now = 0u64;
    let mut warmup_cycles = 0u64;
    while !machine.done() {
        // A cycle that starts before the `measure_from`-th commit is
        // warmup. The cycles a step skips commit nothing, so they start
        // with the commit count of the next step and are warmup with it.
        if machine.committed() < measure_from {
            warmup_cycles = now + 1;
        }
        now = machine.step(now, &mut warm.mem, sink);
    }
    let (result, stats) = machine.finish(now, warm.mem.stats());
    (
        WarmRun {
            result,
            warmup_cycles,
        },
        stats,
    )
}

/// A partitioned program ready to run on an [`FgstpMachine`]: owns the
/// execution stream and the partition data the machine borrows, so
/// machines can be created against it and stepped side by side in a
/// co-run.
#[derive(Debug)]
pub struct PreparedProgram {
    /// The annotated stream in program order.
    stream: Vec<ExecInst>,
    /// Per-core views over `stream` ([`StreamView::Whole`] for a one-core
    /// program), send masks, load barriers (both empty for a one-core
    /// program) and the summary of the partition; the rest of
    /// [`PartitionedStream`] is dropped up front.
    views: Vec<StreamView>,
    send_targets: Vec<u64>,
    load_barriers: Vec<u64>,
    stats: PartitionStats,
}

impl PreparedProgram {
    /// Builds the annotated execution stream and partitions it for `cfg`'s
    /// machine (capacity-weighted on asymmetric machines, exactly like
    /// [`run_fgstp`]). A one-core machine has nothing to partition: its
    /// core runs the whole annotated stream, which is exactly what the
    /// partitioner would hand it.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.per_core` is present with the wrong length.
    pub fn new(trace: &[DynInst], cfg: &FgstpConfig) -> PreparedProgram {
        if let Some(per_core) = &cfg.per_core {
            assert_eq!(
                per_core.len(),
                cfg.num_cores,
                "per-core override list must match FgstpConfig::num_cores"
            );
        }
        let stream = build_exec_stream(trace);
        if cfg.num_cores == 1 {
            // No value is sent and no load waits on another core's store.
            return PreparedProgram {
                views: vec![StreamView::Whole],
                send_targets: Vec::new(),
                load_barriers: Vec::new(),
                stats: PartitionStats {
                    insts: vec![stream.len() as u64],
                    ..PartitionStats::default()
                },
                stream,
            };
        }
        let PartitionedStream {
            views,
            send_targets,
            load_barriers,
            stats,
            ..
        } = partition_stream_weighted(&stream, &cfg.partition, &cfg.steering_caps());
        PreparedProgram {
            stream,
            views,
            send_targets,
            load_barriers,
            stats,
        }
    }

    /// Number of primary (architectural) instructions.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }

    /// Number of cores the program was prepared for.
    fn num_cores(&self) -> usize {
        self.views.len()
    }
}

/// One steppable Fg-STP machine instance over a [`PreparedProgram`]: the
/// cycle driver behind [`run_fgstp_warm`] and the co-run building block,
/// and the only cycle loop of the timing model.
/// A lone machine stepped from cycle 0 against a cold hierarchy is
/// [`run_fgstp`]; the co-run degenerate-case tests pin this down.
///
/// `mem_core_base` remaps the machine's locally-numbered cores onto a
/// slice of a larger shared hierarchy: core `i` issues its memory accesses
/// as hierarchy core `mem_core_base + i`, while every environment
/// interaction (prediction, fabric, commit) keeps the local index.
#[derive(Debug)]
pub struct FgstpMachine<'a> {
    prog: &'a PreparedProgram,
    env: FgstpEnv<'a>,
    cores: Vec<Core<'a>>,
    /// Per-core stats at the start of the current cycle (telemetry only).
    before: Vec<CoreStats>,
    /// The cycle after the last step (`None` before the first).
    resume: Option<u64>,
    /// Cycles run so far, skipped ones included, against the deadlock cap.
    stepped: u64,
    cap: u64,
}

impl<'a> FgstpMachine<'a> {
    /// Builds the machine. The shared frontend predicts every control
    /// instruction of `prog` on `pred` up front, in program order — a
    /// fresh bundle for a cold run, the warmed one for a sampled window.
    ///
    /// # Panics
    ///
    /// Panics if `prog` was partitioned for a different core count than
    /// `cfg.num_cores`.
    pub fn new(
        prog: &'a PreparedProgram,
        cfg: &'a FgstpConfig,
        mem_core_base: usize,
        pred: &mut PredictorState,
    ) -> FgstpMachine<'a> {
        let n = cfg.num_cores;
        assert_eq!(
            prog.num_cores(),
            n,
            "program was partitioned for a different core count"
        );
        let env = FgstpEnv::new(
            cfg,
            &prog.stream,
            &prog.send_targets,
            &prog.load_barriers,
            n,
            pred,
        );
        let cores: Vec<Core> = (0..n)
            .map(|i| {
                let mut core = Core::new(i, cfg.core_for(i), &prog.stream, &prog.views[i]);
                core.set_mem_core(mem_core_base + i);
                core
            })
            .collect();
        FgstpMachine {
            prog,
            env,
            cores,
            before: vec![CoreStats::default(); n],
            resume: None,
            stepped: 0,
            cap: (prog.stream.len() as u64) * DEADLOCK_CPI + 100_000,
        }
    }

    /// Whether every core has drained its stream.
    pub fn done(&self) -> bool {
        self.cores.iter().all(Core::done)
    }

    /// Primary instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().committed).sum()
    }

    /// Advances every core one cycle at global time `now`, charging each
    /// core's cycle (commits, or one [`StallCategory`]) and every pipeline
    /// stage reached into `sink` under the machine's local core indices.
    ///
    /// Returns the cycle the driver may step next. After a cycle in which
    /// no core acted, that is the earliest cycle at which one can (the
    /// minimum of every core's wake sources and the fetch gate's resume
    /// cycles); the cycles in between would each repeat this one, so the
    /// next `step` charges them in bulk to the stall counters this cycle
    /// charged. With an enabled `sink` it is always `now + 1`, so every
    /// cycle is recorded.
    ///
    /// # Panics
    ///
    /// Panics if the machine exceeds its deadlock bound in cycles (a model
    /// bug); the message carries every core's pipeline snapshot.
    pub fn step<S: CycleSink>(&mut self, now: u64, mem: &mut Hierarchy, sink: &mut S) -> u64 {
        if let Some(resume) = self.resume {
            debug_assert!(now >= resume, "stepped {now} before {resume}");
            let skipped = now - resume;
            if skipped > 0 {
                for core in &mut self.cores {
                    core.charge_idle(skipped);
                }
                self.stepped += skipped;
            }
        }
        self.resume = Some(now + 1);
        if S::ENABLED {
            for (b, core) in self.before.iter_mut().zip(&self.cores) {
                *b = *core.stats();
            }
        }
        let mut next = self.env.gate.next_resume(now).unwrap_or(u64::MAX);
        for core in &mut self.cores {
            next = next.min(core.cycle(now, &mut self.env, mem, sink));
        }
        if S::ENABLED {
            next = now + 1;
            for (i, core) in self.cores.iter().enumerate() {
                let d = stat_delta(&self.before[i], core.stats());
                let outcome = if d.committed > 0 {
                    CycleOutcome::Commit(d.committed as u32)
                } else {
                    let stall = core.commit_stall(&mut self.env, now);
                    let skew = self.env.skew_blocked(i);
                    CycleOutcome::Stall(classify_fgstp(core.done(), skew, stall, &d))
                };
                sink.record(i, now, outcome);
            }
        }
        self.stepped += 1;
        assert!(
            self.stepped < self.cap,
            "Fg-STP machine deadlocked after {} cycles: commit frontier {}, {}",
            self.stepped,
            self.env.completed_frontier,
            self.cores
                .iter()
                .enumerate()
                .map(|(i, c)| format!("c{i} {}", c.pipeline_snapshot()))
                .collect::<Vec<_>>()
                .join(" | ")
        );
        // A machine that nothing can wake is deadlocked: it reaches its
        // cap at once.
        next.min(now + (self.cap - self.stepped))
    }

    /// Consumes the machine into its results. `cycles` is the program's
    /// own elapsed-cycle count (finish minus start on the caller's clock);
    /// `mem` is the hierarchy view to embed — the program's slice of a
    /// shared hierarchy, or a private hierarchy's full stats.
    pub fn finish(self, cycles: u64, mem: HierarchyStats) -> (RunResult, FgstpStats) {
        let n = self.cores.len();
        let committed = self.committed();
        let core_stats: Vec<CoreStats> = self.cores.iter().map(|c| *c.stats()).collect();
        let stats = FgstpStats {
            partition: self.prog.stats.clone(),
            comm: (0..n).map(|to| self.env.fabric.inbound_stats(to)).collect(),
            cross_violations: core_stats.iter().map(|c| c.cross_violations).sum(),
        };
        let result = RunResult {
            cycles,
            committed,
            cores: core_stats,
            branches: (self.env.branches, self.env.mispredicts),
            mem,
        };
        (result, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program, Trace};

    fn trace(src: &str) -> Trace {
        let p = assemble(src).unwrap();
        trace_program(&p, 200_000).unwrap()
    }

    /// `t` on one core of shape `core` (a conventional or fused core).
    fn run_one(t: &Trace, core: CoreConfig, hcfg: &HierarchyConfig) -> RunResult {
        run_fgstp(t.insts(), &FgstpConfig::single(core), hcfg).0
    }

    /// A small loop kernel with a mix of ALU, memory and branches.
    fn kernel() -> Trace {
        trace(
            r#"
                li x1, 0x1000    # base
                li x2, 1600      # n * 8 bytes
                li x3, 0         # i
                li x4, 0         # sum
            loop:
                sll  x5, x3, x6
                add  x5, x1, x3
                sd   x3, 0(x5)
                ld   x6, 0(x5)
                add  x4, x4, x6
                addi x3, x3, 8
                slt  x7, x3, x2
                bne  x7, x0, loop
                halt
            "#,
        )
    }

    /// Two independent chains — the best case for partitioning.
    fn two_chain_trace() -> Trace {
        let mut src = String::from("li x1, 1\nli x2, 1\nli x9, 150\n");
        src.push_str(
            r#"
            loop:
                add  x1, x1, x1
                xor  x3, x1, x9
                add  x2, x2, x2
                xor  x4, x2, x9
                addi x9, x9, -1
                bne  x9, x0, loop
                halt
            "#,
        );
        trace(&src)
    }

    #[test]
    fn all_instructions_commit_exactly_once() {
        let t = two_chain_trace();
        let (r, _) = run_fgstp(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(2));
        assert_eq!(r.committed, t.len() as u64);
    }

    #[test]
    fn work_is_distributed_across_both_cores() {
        let t = two_chain_trace();
        let (r, s) = run_fgstp(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(2));
        assert!(r.cores[0].committed > 0 && r.cores[1].committed > 0);
        let balance = s.partition.balance();
        assert!((0.25..=0.75).contains(&balance), "balance {balance}");
    }

    #[test]
    fn fgstp_beats_one_small_core_on_partition_friendly_code() {
        let t = two_chain_trace();
        let single = run_one(&t, CoreConfig::small(), &HierarchyConfig::small(1));
        let (fg, _) = run_fgstp(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(2));
        assert!(
            fg.cycles < single.cycles,
            "Fg-STP {} should beat single core {}",
            fg.cycles,
            single.cycles
        );
    }

    #[test]
    fn communication_latency_hurts() {
        let t = two_chain_trace();
        let mut fast = FgstpConfig::small();
        fast.comm.latency = 1;
        let mut slow = FgstpConfig::small();
        slow.comm.latency = 24;
        let (f, _) = run_fgstp(t.insts(), &fast, &HierarchyConfig::small(2));
        let (s, _) = run_fgstp(t.insts(), &slow, &HierarchyConfig::small(2));
        assert!(
            f.cycles <= s.cycles,
            "latency 1 ({}) vs 24 ({})",
            f.cycles,
            s.cycles
        );
    }

    #[test]
    fn cross_core_store_load_pairs_execute_correctly() {
        // Producer/consumer through memory, forced onto opposite cores.
        let src = r#"
            li x1, 0x1000
            li x9, 100
        loop:
            sd   x9, 0(x1)
            ld   x5, 0(x1)
            add  x6, x5, x5
            addi x9, x9, -1
            bne  x9, x0, loop
            halt
        "#;
        let t = trace(src);
        let mut cfg = FgstpConfig::small();
        cfg.partition.policy = crate::partition::PartitionPolicy::ModN { chunk: 3 };
        let (r, s) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
        assert_eq!(r.committed, t.len() as u64);
        // ModN slices the store/load pairs apart: cross memory deps exist.
        assert!(s.partition.cross_mem_deps > 0);
    }

    #[test]
    fn one_core_runs_the_same_without_speculation() {
        // One core has no remote store to speculate past: the
        // conservative path reads an empty barrier table and must not
        // change a cycle.
        let t = kernel();
        let hcfg = HierarchyConfig::small(1);
        let mut cfg = FgstpConfig::single(CoreConfig::small());
        let (with, _) = run_fgstp(t.insts(), &cfg, &hcfg);
        cfg.dep_speculation = false;
        let (without, _) = run_fgstp(t.insts(), &cfg, &hcfg);
        assert_eq!(without.committed, t.len() as u64);
        assert_eq!(without.cycles, with.cycles);
        assert_eq!(without.cores, with.cores);
    }

    #[test]
    fn disabling_speculation_still_completes() {
        let t = two_chain_trace();
        let mut cfg = FgstpConfig::small();
        cfg.dep_speculation = false;
        let (r, _) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
        assert_eq!(r.committed, t.len() as u64);
    }

    #[test]
    fn queue_stats_are_reported_when_there_is_traffic() {
        let t = two_chain_trace();
        let mut cfg = FgstpConfig::small();
        cfg.partition.policy = crate::partition::PartitionPolicy::ModN { chunk: 2 };
        cfg.partition.replication = false;
        let (_, s) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
        assert!(
            s.comm_total().sends > 0,
            "chunked round-robin must communicate"
        );
        assert_eq!(s.comm.len(), 2, "one inbound summary per core");
    }

    #[test]
    fn four_core_machine_commits_the_whole_trace() {
        let t = two_chain_trace();
        for n in [3usize, 4] {
            let cfg = FgstpConfig::small().with_cores(n);
            let (r, s) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(n));
            assert_eq!(r.committed, t.len() as u64, "num_cores = {n}");
            assert_eq!(r.cores.len(), n);
            assert_eq!(s.comm.len(), n);
            assert_eq!(s.partition.insts.len(), n);
        }
    }

    #[test]
    fn asymmetric_machine_commits_the_whole_trace() {
        let t = two_chain_trace();
        let cfg =
            FgstpConfig::small().with_per_core(vec![CoreConfig::medium(), CoreConfig::small()]);
        let (r, s) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
        assert_eq!(r.committed, t.len() as u64);
        assert_eq!(r.cores.len(), 2);
        // The wide core is favored by weighted steering.
        assert!(s.partition.insts[0] >= s.partition.insts[1]);
    }

    #[test]
    fn identical_per_core_list_matches_the_uniform_machine_exactly() {
        let t = two_chain_trace();
        let uniform = FgstpConfig::small();
        let listed = FgstpConfig::small().with_per_core(vec![CoreConfig::small(); 2]);
        let (a, _) = run_fgstp(t.insts(), &uniform, &HierarchyConfig::small(2));
        let (b, _) = run_fgstp(t.insts(), &listed, &HierarchyConfig::small(2));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.cores, b.cores);
    }

    #[test]
    #[should_panic(expected = "per-core override list")]
    fn wrong_per_core_length_is_rejected() {
        let t = trace("li x1, 1\nhalt");
        let mut cfg = FgstpConfig::small();
        cfg.per_core = Some(vec![CoreConfig::small()]);
        run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
    }

    /// A cold run through `sink`.
    fn run_with<S: CycleSink>(
        t: &Trace,
        cfg: &FgstpConfig,
        hcfg: &HierarchyConfig,
        sink: &mut S,
    ) -> RunResult {
        let mut warm = WarmState::new(&cfg.core, hcfg);
        run_fgstp_warm(t.insts(), cfg, &mut warm, 0, sink).0.result
    }

    #[test]
    fn sink_accounts_both_cores_without_changing_timing() {
        let t = two_chain_trace();
        let (plain, _) = run_fgstp(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(2));
        let mut sink = fgstp_telemetry::CpiSink::new(2);
        let r = run_with(
            &t,
            &FgstpConfig::small(),
            &HierarchyConfig::small(2),
            &mut sink,
        );
        assert_eq!(r.cycles, plain.cycles, "telemetry must not change timing");
        assert_eq!(r.committed, plain.committed);
        // Each core's stack covers every machine cycle: the merged total is
        // 2 × machine cycles (aggregate core-cycles).
        for (i, stack) in sink.stacks().iter().enumerate() {
            stack
                .check_against(r.cycles)
                .unwrap_or_else(|e| panic!("core {i}: {e}"));
        }
        let merged = sink.merged();
        merged.check_against(2 * r.cycles).unwrap();
        assert_eq!(merged.committed, r.committed);
    }

    #[test]
    fn sink_accounts_four_cores_without_changing_timing() {
        let t = two_chain_trace();
        let cfg = FgstpConfig::small().with_cores(4);
        let (plain, _) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(4));
        let mut sink = fgstp_telemetry::CpiSink::new(4);
        let r = run_with(&t, &cfg, &HierarchyConfig::small(4), &mut sink);
        assert_eq!(r.cycles, plain.cycles, "telemetry must not change timing");
        let merged = sink.merged();
        merged.check_against(4 * r.cycles).unwrap();
        assert_eq!(merged.committed, r.committed);
    }

    #[test]
    fn recorded_run_captures_every_stage_in_order_on_every_core() {
        let t = two_chain_trace();
        for n in [2, 4] {
            let cfg = FgstpConfig::small().with_cores(n);
            let hcfg = HierarchyConfig::small(n);
            let (plain, _) = run_fgstp(t.insts(), &cfg, &hcfg);
            let mut rec = fgstp_ooo::PipeRecorder::new();
            let r = run_with(&t, &cfg, &hcfg, &mut rec);
            assert_eq!(
                r.cycles, plain.cycles,
                "{n} cores: recording changed timing"
            );
            for (i, core) in r.cores.iter().enumerate() {
                // Every instruction the core holds, replicas included.
                let held = core.committed + core.replica_committed;
                assert_eq!(rec.iter(i).count() as u64, held, "{n} cores, core {i}");
                for (gseq, ev) in rec.iter(i) {
                    assert!(ev.is_ordered(), "core {i}, {gseq}: {ev:?}");
                    for stage in fgstp_telemetry::Stage::ALL {
                        assert!(ev.at(stage).is_some(), "core {i}, {gseq} missing {stage:?}");
                    }
                    assert!(ev.commit.unwrap() < r.cycles);
                }
            }
            assert!(rec.iter(1).count() > 0, "{n} cores: work reached core 1");
        }
    }

    #[test]
    fn fgstp_classifier_covers_every_refinement() {
        let d = StatDelta::default();
        // A drained core is global-commit slack no matter what the probe says.
        assert_eq!(
            classify_fgstp(true, false, CommitStall::Idle, &d),
            StallCategory::CommitSync
        );
        // A commit slot spent on replicated shadow copies is replication cost.
        let replicas = StatDelta {
            replica_committed: 2,
            ..d
        };
        assert_eq!(
            classify_fgstp(false, false, CommitStall::Idle, &replicas),
            StallCategory::Replication
        );
        // Empty ROB because the lookahead gate holds fetch back for the
        // partner core: back-pressure, not a frontend problem.
        let gated = StatDelta {
            fetch_blocked: 3,
            ..d
        };
        assert_eq!(
            classify_fgstp(false, true, CommitStall::Idle, &gated),
            StallCategory::CommBackpressure
        );
        // ...but the same empty ROB without skew gating falls through to
        // the single-core classifier (fetch gated by a branch redirect).
        assert_eq!(
            classify_fgstp(false, false, CommitStall::Idle, &gated),
            StallCategory::BranchRedirect
        );
        // Executing / completing replicas charge to replication, while a
        // replaying load keeps its memory-dependence attribution.
        assert_eq!(
            classify_fgstp(
                false,
                false,
                CommitStall::Executing {
                    is_load: false,
                    mem_level: None,
                    cross_replay: false,
                    replica: true,
                },
                &d
            ),
            StallCategory::Replication
        );
        assert_eq!(
            classify_fgstp(false, false, CommitStall::Completing { replica: true }, &d),
            StallCategory::Replication
        );
        assert_eq!(
            classify_fgstp(
                false,
                false,
                CommitStall::Executing {
                    is_load: true,
                    mem_level: None,
                    cross_replay: true,
                    replica: true,
                },
                &d
            ),
            StallCategory::MemDepReplay
        );
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_hierarchy_is_rejected() {
        let t = trace("li x1, 1\nhalt");
        run_fgstp(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(1));
    }

    #[test]
    fn empty_trace_finishes() {
        let (r, _) = run_fgstp(&[], &FgstpConfig::small(), &HierarchyConfig::small(2));
        assert_eq!(r.committed, 0);
    }

    #[test]
    fn ipc_is_positive_and_bounded() {
        let t = kernel();
        let r = run_one(&t, CoreConfig::small(), &HierarchyConfig::small(1));
        assert_eq!(r.committed, t.len() as u64);
        assert!(r.ipc() > 0.1, "ipc {}", r.ipc());
        assert!(
            r.ipc() <= 2.0,
            "small core cannot exceed its width, ipc {}",
            r.ipc()
        );
    }

    #[test]
    fn medium_core_beats_small_core() {
        let t = kernel();
        let small = run_one(&t, CoreConfig::small(), &HierarchyConfig::small(1));
        let medium = run_one(&t, CoreConfig::medium(), &HierarchyConfig::medium(1));
        assert!(
            medium.cycles <= small.cycles,
            "medium ({}) should not be slower than small ({})",
            medium.cycles,
            small.cycles
        );
    }

    #[test]
    fn fused_core_beats_single_small_core_on_ilp() {
        // Independent operations in each iteration: lots of ILP.
        let t = trace(
            r#"
                li x2, 300
            loop:
                addi x3, x3, 1
                addi x4, x4, 2
                addi x5, x5, 3
                addi x6, x6, 4
                addi x7, x7, 5
                addi x8, x8, 6
                addi x2, x2, -1
                bne  x2, x0, loop
                halt
            "#,
        );
        let small = run_one(&t, CoreConfig::small(), &HierarchyConfig::small(1));
        let fused = run_one(
            &t,
            CoreConfig::fused(&CoreConfig::small()),
            &HierarchyConfig::small(1),
        );
        assert!(
            fused.cycles < small.cycles,
            "fusion should win on ILP: fused {} vs small {}",
            fused.cycles,
            small.cycles
        );
    }

    #[test]
    fn branch_stats_are_reported() {
        let t = kernel();
        let r = run_one(&t, CoreConfig::small(), &HierarchyConfig::small(1));
        let (branches, mispredicts) = r.branches;
        assert_eq!(branches, 200);
        assert!(mispredicts < branches / 2, "loop branch is predictable");
    }

    #[test]
    fn mem_stats_are_reported() {
        let t = kernel();
        let r = run_one(&t, CoreConfig::small(), &HierarchyConfig::small(1));
        // Loads in this kernel forward from the same-iteration store, so
        // only the 200 committed stores reach the L1D.
        assert!(
            r.mem.l1d[0].accesses >= 200,
            "got {}",
            r.mem.l1d[0].accesses
        );
        assert!(
            r.cores[0].store_forwards >= 190,
            "got {}",
            r.cores[0].store_forwards
        );
    }

    #[test]
    fn speedup_over_is_a_ratio_of_cycles() {
        let t = kernel();
        let a = run_one(&t, CoreConfig::small(), &HierarchyConfig::small(1));
        let b = run_one(&t, CoreConfig::medium(), &HierarchyConfig::medium(1));
        let s = b.speedup_over(&a);
        assert!((s - a.cycles as f64 / b.cycles as f64).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let r = run_one(
            &Trace::from_insts(Vec::new()),
            CoreConfig::small(),
            &HierarchyConfig::small(1),
        );
        assert_eq!(r.committed, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn recorded_run_captures_every_stage_in_order() {
        let t = kernel();
        let cfg = FgstpConfig::single(CoreConfig::small());
        let hcfg = HierarchyConfig::small(1);
        let mut rec = fgstp_ooo::PipeRecorder::new();
        let r = run_with(&t, &cfg, &hcfg, &mut rec);
        assert_eq!(r.cycles, run_fgstp(t.insts(), &cfg, &hcfg).0.cycles);
        assert_eq!(rec.len() as u64, r.committed, "every instruction recorded");
        for (gseq, ev) in rec.iter(0) {
            assert!(ev.is_ordered(), "stages out of order for {gseq}: {ev:?}");
            for stage in fgstp_telemetry::Stage::ALL {
                assert!(ev.at(stage).is_some(), "{gseq} missing {stage:?}");
            }
            // Commit never exceeds the run length.
            assert!(ev.commit.unwrap() <= r.cycles);
        }
        // The rendered view of the first instructions is non-trivial.
        let view = rec.render(t.insts(), 0, 0, 8);
        assert!(view.lines().count() >= 9, "{view}");
    }

    #[test]
    fn sink_accounts_every_cycle_without_changing_timing() {
        let t = kernel();
        let cfg = FgstpConfig::single(CoreConfig::small());
        let hcfg = HierarchyConfig::small(1);
        let (plain, _) = run_fgstp(t.insts(), &cfg, &hcfg);
        let mut sink = fgstp_telemetry::CpiSink::new(1);
        let r = run_with(&t, &cfg, &hcfg, &mut sink);
        assert_eq!(r.cycles, plain.cycles, "telemetry must not change timing");
        assert_eq!(r.committed, plain.committed);
        let stack = sink.merged();
        stack.check_against(r.cycles).unwrap();
        assert_eq!(stack.committed, r.committed);
        assert!(stack.base_cycles > 0, "some cycles commit");
        assert!(
            stack.total_cycles() > stack.base_cycles,
            "a real kernel stalls somewhere"
        );
    }

    #[test]
    fn commit_is_strictly_in_order() {
        // An instruction retires only once every older instruction, on
        // any core, has completed.
        let t = trace("li x1, 1\nli x2, 2\nhalt");
        let cfg = FgstpConfig::single(CoreConfig::small());
        let prog = PreparedProgram::new(t.insts(), &cfg);
        let mut pred = PredictorState::new(&cfg.core);
        let mut env = FgstpEnv::new(
            &cfg,
            &prog.stream,
            &prog.send_targets,
            &prog.load_barriers,
            1,
            &mut pred,
        );
        let xs = &prog.stream;
        assert!(!env.can_commit(&xs[0]), "nothing has completed");
        env.on_complete(0, &xs[1], 5);
        assert!(!env.can_commit(&xs[1]), "an older instruction is in flight");
        env.on_complete(0, &xs[0], 7);
        assert!(env.can_commit(&xs[0]));
        assert!(env.can_commit(&xs[1]));
    }

    /// An enabled sink that records nothing: the machine then steps every
    /// cycle, the reference a skipping run must match.
    struct EveryCycle;

    impl CycleSink for EveryCycle {
        const ENABLED: bool = true;

        fn record(&mut self, _core: usize, _now: u64, _outcome: CycleOutcome) {}
    }

    #[test]
    fn idle_cycles_are_skipped_without_changing_a_figure() {
        use fgstp_workloads::{by_name, Scale};
        let w = by_name("mcf_pointer", Scale::Test).unwrap();
        let t = w.try_trace(Scale::Test.trace_budget()).unwrap();
        // single-small and fgstp-small.
        for (cfg, hcfg) in [
            (
                FgstpConfig::single(CoreConfig::small()),
                HierarchyConfig::small(1),
            ),
            (FgstpConfig::small(), HierarchyConfig::small(2)),
        ] {
            let n = cfg.num_cores;
            let prog = PreparedProgram::new(t.insts(), &cfg);
            let mut warm = WarmState::new(&cfg.core, &hcfg);
            let mut machine = FgstpMachine::new(&prog, &cfg, 0, &mut warm.pred);
            let (mut now, mut steps) = (0, 0u64);
            while !machine.done() {
                now = machine.step(now, &mut warm.mem, &mut NullSink);
                steps += 1;
            }
            let (skipping, skipping_stats) = machine.finish(now, warm.mem.stats());

            let mut warm = WarmState::new(&cfg.core, &hcfg);
            let (every, every_stats) =
                run_fgstp_warm(t.insts(), &cfg, &mut warm, 0, &mut EveryCycle);
            assert_eq!(
                format!("{skipping:?}"),
                format!("{:?}", every.result),
                "{n} cores"
            );
            assert_eq!(
                format!("{skipping_stats:?}"),
                format!("{every_stats:?}"),
                "{n} cores"
            );
            // No instruction moves in ~95% of mcf_pointer's cycles: the
            // machine stepped 5.4% (one core) and 8.9% (two cores) of them
            // when this was written, and a loop that stops skipping steps
            // every one.
            assert!(
                steps * 100 <= 15 * skipping.cycles,
                "{n} cores: stepped {steps} times in {} cycles",
                skipping.cycles
            );
        }
    }

    #[test]
    fn one_core_preparation_matches_the_general_partition_path() {
        use crate::partition::PartitionPolicy;
        use fgstp_workloads::{by_name, Scale};
        for name in ["perl_hash", "libq_stream", "mcf_pointer"] {
            let w = by_name(name, Scale::Test).unwrap();
            let t = w.try_trace(Scale::Test.trace_budget()).unwrap();
            let stream = build_exec_stream(t.insts());
            for policy in [
                PartitionPolicy::ModN { chunk: 4 },
                PartitionPolicy::GreedyDep,
                PartitionPolicy::fgstp_default(),
            ] {
                for replication in [false, true] {
                    let mut cfg = FgstpConfig::small().with_cores(1);
                    cfg.partition.policy = policy;
                    cfg.partition.replication = replication;
                    let at = format!("{name}, {policy:?}, replication {replication}");
                    let prog = PreparedProgram::new(t.insts(), &cfg);
                    let general =
                        partition_stream_weighted(&stream, &cfg.partition, &cfg.steering_caps());
                    assert_eq!(general.num_cores(), 1, "{at}");
                    assert_eq!(prog.views, [StreamView::Whole], "{at}");
                    assert!(
                        prog.views[0]
                            .iter(&prog.stream)
                            .eq(general.views[0].iter(&stream)),
                        "{at}"
                    );
                    // The partitioner's tables say "no send" and "no
                    // barrier" everywhere, which the one-core program's
                    // empty tables mean too.
                    assert!(general.send_targets.iter().all(|&m| m == 0), "{at}");
                    assert!(general.load_barriers.iter().all(|&b| b == u64::MAX), "{at}");
                    assert!(prog.send_targets.is_empty() && prog.load_barriers.is_empty());
                    assert_eq!(prog.stats, general.stats, "{at}");
                    // One core never replicates or crosses.
                    assert_eq!(prog.stats.replicated, 0, "{at}");
                    assert_eq!(prog.stats.cross_reg_deps, 0, "{at}");
                    assert_eq!(prog.stats.cross_mem_deps, 0, "{at}");
                }
            }
            let (r, s) = run_fgstp(
                t.insts(),
                &FgstpConfig::single(CoreConfig::small()),
                &HierarchyConfig::small(1),
            );
            assert_eq!(r.committed, t.len() as u64, "{name}");
            assert_eq!(s.comm_total().sends, 0, "{name}: one core never sends");
            assert_eq!(s.cross_violations, 0, "{name}");
        }
    }
}
