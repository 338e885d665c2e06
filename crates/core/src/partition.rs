//! Instruction-granularity partitioning of a single thread across N
//! cores — the heart of Fg-STP.
//!
//! The partitioner consumes the annotated execution stream and produces
//! one [`StreamView`] per target core plus the communication/replication
//! annotations the timing machine needs. A view is not a copy of the
//! stream: it lists the instructions its core runs (primaries and
//! replicas, in program order) as 8-byte [`ViewEntry`]s, each holding the
//! gseq and the flags that differ per core (replica, sends, and the
//! `cross` bit of each register source and of the memory dependence). The
//! core applies them to the annotated entry as it fetches. Three policies
//! are provided:
//!
//! * [`PartitionPolicy::ModN`] — a naive round-robin chunk baseline;
//! * [`PartitionPolicy::GreedyDep`] — classic online dependence-based
//!   steering (assign each instruction to the core that produces its
//!   operands, with a load-balance guard), the policy family of clustered
//!   and DMT-style designs;
//! * [`PartitionPolicy::SliceLookahead`] — the Fg-STP policy: over a large
//!   lookahead window, seed the cores with the window's longest disjoint
//!   dependence chains, grow all partitions by dependence affinity, then
//!   run boundary refinement passes that migrate instructions when doing
//!   so removes more communication than it adds, subject to a balance
//!   constraint.
//!
//! Replication (when enabled) runs after assignment: a cheap single-cycle
//! producer whose value is consumed on another core is cloned there
//! instead of communicated, whenever its own operands are already
//! available on that core.
//!
//! The paper evaluates the 2-core instance; every algorithm here is the
//! N-way generalization that is *bit-identical* to the original 2-way
//! formulation when `num_cores == 2` (arg-min/arg-max selections break
//! ties toward the lowest core index, exactly like the old
//! `usize::from(load[1] < load[0])` and `votes[1] > votes[0]` forms).

use fgstp_isa::InstClass;
use fgstp_ooo::{ExecInst, SrcDep, StreamView, ViewEntry};

use crate::depgraph::DepGraph;

/// Upper bound on partition cores (replica/send sets are `u64` bitmasks).
pub const MAX_PARTITION_CORES: usize = 64;

/// Partitioning policy selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionPolicy {
    /// Alternate chunks of `chunk` instructions between the cores.
    ModN {
        /// Chunk size in instructions.
        chunk: usize,
    },
    /// Online greedy dependence steering with a balance guard.
    GreedyDep,
    /// Fg-STP slice-based lookahead partitioning.
    SliceLookahead {
        /// Lookahead window size in instructions.
        window: usize,
        /// Boundary-refinement passes per window.
        refine_passes: usize,
    },
}

impl PartitionPolicy {
    /// The paper's default policy: 256-instruction lookahead, two
    /// refinement passes.
    pub fn fgstp_default() -> PartitionPolicy {
        PartitionPolicy::SliceLookahead {
            window: 256,
            refine_passes: 2,
        }
    }
}

/// Partitioner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Assignment policy.
    pub policy: PartitionPolicy,
    /// Whether cheap producers are replicated instead of communicated.
    pub replication: bool,
    /// Maximum tolerated per-window weight imbalance, as a fraction.
    pub balance_slack: f64,
}

impl Default for PartitionConfig {
    fn default() -> PartitionConfig {
        PartitionConfig {
            policy: PartitionPolicy::fgstp_default(),
            replication: true,
            balance_slack: 0.15,
        }
    }
}

/// Summary statistics of one partitioning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartitionStats {
    /// Primary instructions assigned to each core.
    pub insts: Vec<u64>,
    /// Replica copies created (one per `(instruction, extra core)` pair).
    pub replicated: u64,
    /// Register dependences that cross the cores (communications).
    pub cross_reg_deps: u64,
    /// Load→store memory dependences that cross the cores.
    pub cross_mem_deps: u64,
}

impl PartitionStats {
    /// Total primary instructions across all cores.
    pub fn total_insts(&self) -> u64 {
        self.insts.iter().sum()
    }

    /// Fraction of instructions assigned to core 0.
    pub fn balance(&self) -> f64 {
        let total = self.total_insts() as f64;
        if total == 0.0 {
            0.5
        } else {
            self.insts.first().copied().unwrap_or(0) as f64 / total
        }
    }

    /// Communications per committed instruction.
    pub fn comms_per_inst(&self) -> f64 {
        let total = self.total_insts() as f64;
        if total == 0.0 {
            0.0
        } else {
            self.cross_reg_deps as f64 / total
        }
    }
}

/// A partitioned execution stream, ready for the N-core machine.
#[derive(Debug, Clone, Default)]
pub struct PartitionedStream {
    /// Per-core views over the annotated stream (replicas included, in
    /// global order).
    pub views: Vec<StreamView>,
    /// Core assignment per global sequence number.
    pub assign: Vec<u8>,
    /// Bitmask of cores holding a replica of each instruction (the home
    /// core's bit is never set).
    pub replica_on: Vec<u64>,
    /// Bitmask of cores each producer's value must be sent to (consumers
    /// on cores where the value is neither computed nor replicated).
    pub send_targets: Vec<u64>,
    /// Per-gseq cross-core ordering barrier: for every load, the youngest
    /// older store assigned to *another* core (used when dependence
    /// speculation is disabled). `u64::MAX` means "no barrier"; the vector
    /// is indexed by global sequence number and covers the whole stream.
    pub load_barriers: Vec<u64>,
    /// Summary statistics.
    pub stats: PartitionStats,
}

impl PartitionedStream {
    /// Number of cores this stream was partitioned for.
    pub fn num_cores(&self) -> usize {
        self.views.len()
    }
}

/// Partitions `stream` across `num_cores` cores according to `cfg`.
///
/// # Panics
///
/// Panics if `num_cores` is zero or exceeds [`MAX_PARTITION_CORES`].
pub fn partition_stream(
    stream: &[ExecInst],
    cfg: &PartitionConfig,
    num_cores: usize,
) -> PartitionedStream {
    partition_stream_weighted(stream, cfg, &vec![1; num_cores])
}

/// Like [`partition_stream`], but steering weighs heterogeneous cores:
/// `caps[c]` is core `c`'s relative capacity (e.g. its issue width), and
/// every least-loaded selection minimizes `load/cap` instead of raw load,
/// so wide cores absorb proportionally more instructions. With uniform
/// capacities the result is bit-identical to [`partition_stream`] (the
/// comparisons reduce to the same raw-load arg-min, ties toward the lowest
/// core index). Chain seeding also hands the window's critical path to the
/// highest-capacity core (stable order, so uniform capacities keep the
/// core-0 seeding).
///
/// # Panics
///
/// Panics if `caps` is empty, longer than [`MAX_PARTITION_CORES`], or
/// contains a zero capacity.
pub fn partition_stream_weighted(
    stream: &[ExecInst],
    cfg: &PartitionConfig,
    caps: &[u64],
) -> PartitionedStream {
    let num_cores = caps.len();
    assert!(
        (1..=MAX_PARTITION_CORES).contains(&num_cores),
        "num_cores must be in 1..={MAX_PARTITION_CORES}, got {num_cores}"
    );
    assert!(caps.iter().all(|&c| c > 0), "core capacities must be > 0");
    let assign = match cfg.policy {
        PartitionPolicy::ModN { chunk } => assign_modn(stream, chunk.max(1), num_cores),
        PartitionPolicy::GreedyDep => assign_greedy(stream, caps),
        PartitionPolicy::SliceLookahead {
            window,
            refine_passes,
        } => assign_lookahead(
            stream,
            window.max(8),
            refine_passes,
            cfg.balance_slack,
            caps,
        ),
    };
    let replica_on = if cfg.replication && num_cores > 1 {
        plan_replication(stream, &assign)
    } else {
        vec![0; stream.len()]
    };
    materialize(stream, assign, replica_on, num_cores)
}

/// Index minimizing `load[i] / caps[i]`, compared by exact integer
/// cross-multiplication; ties toward the lowest index. With uniform
/// capacities this is exactly [`argmin`].
fn argmin_weighted(load: &[u64], caps: &[u64]) -> usize {
    let mut best = 0;
    for i in 1..load.len() {
        if (load[i] as u128) * (caps[best] as u128) < (load[best] as u128) * (caps[i] as u128) {
            best = i;
        }
    }
    best
}

fn assign_modn(stream: &[ExecInst], chunk: usize, num_cores: usize) -> Vec<u8> {
    (0..stream.len())
        .map(|i| ((i / chunk) % num_cores) as u8)
        .collect()
}

fn assign_greedy(stream: &[ExecInst], caps: &[u64]) -> Vec<u8> {
    let num_cores = caps.len();
    let mut assign = vec![0u8; stream.len()];
    let mut counts = vec![0u64; num_cores];
    let mut votes = vec![0i64; num_cores];
    const MAX_IMBALANCE: u64 = 24;
    for (i, x) in stream.iter().enumerate() {
        votes.fill(0);
        for dep in x.deps.iter().flatten() {
            let p = dep.producer as usize;
            if p < i {
                votes[assign[p] as usize] += 2;
            }
        }
        if let Some(md) = x.mem_dep {
            let p = md.store as usize;
            if p < i {
                votes[assign[p] as usize] += 1;
            }
        }
        // Steer to the most-voted core (ties toward the lowest index);
        // bail out to the least-loaded core when the balance guard trips.
        // The least-loaded selection is capacity-weighted; the imbalance
        // guard itself stays on raw counts (a fixed instruction budget).
        let mut preferred = 0;
        for (c, &v) in votes.iter().enumerate().skip(1) {
            if v > votes[preferred] {
                preferred = c;
            }
        }
        let least = argmin_weighted(&counts, caps);
        let c = if counts[preferred].saturating_sub(counts[least]) > MAX_IMBALANCE {
            least
        } else {
            preferred
        };
        assign[i] = c as u8;
        counts[c] += 1;
    }
    assign
}

/// Computes the transitive *replicable closure*: an instruction is
/// replicable when it is a single-cycle integer ALU operation whose
/// operands are themselves replicable (or constants). These are the cheap
/// address/induction chains Fg-STP clones onto other cores instead of
/// communicating, so the partitioner treats their values as available
/// everywhere.
fn replicable_closure(stream: &[ExecInst]) -> Vec<bool> {
    let mut replicable = vec![false; stream.len()];
    for (i, x) in stream.iter().enumerate() {
        if x.class() != InstClass::IntAlu {
            continue;
        }
        replicable[i] = x
            .deps
            .iter()
            .flatten()
            .all(|dep| replicable[dep.producer as usize]);
    }
    replicable
}

fn assign_lookahead(
    stream: &[ExecInst],
    window: usize,
    refine_passes: usize,
    balance_slack: f64,
    caps: &[u64],
) -> Vec<u8> {
    let replicable = replicable_closure(stream);
    let mut assign = vec![0u8; stream.len()];
    let mut base = 0;
    while base < stream.len() {
        let end = (base + window).min(stream.len());
        let win = &stream[base..end];
        let g = DepGraph::build(win);
        let local = assign_window(
            win,
            &g,
            &assign[..base],
            base,
            &replicable,
            refine_passes,
            balance_slack,
            caps,
        );
        assign[base..end].copy_from_slice(&local);
        base = end;
    }
    assign
}

/// Assigns one window: chain-following placement seeded by the N longest
/// disjoint dependence chains, plus boundary refinement.
///
/// Placement follows the *critical producer*: an instruction goes to the
/// core that produces its latest-arriving non-replicable operand, so
/// serial chains never absorb queue latency. Instructions whose operands
/// are all replicable (or absent) start new chains on the least-loaded
/// core — this is where the load balance between the cores comes from.
#[allow(clippy::too_many_arguments)]
fn assign_window(
    win: &[ExecInst],
    g: &DepGraph,
    prior: &[u8],
    base: usize,
    replicable: &[bool],
    refine_passes: usize,
    balance_slack: f64,
    caps: &[u64],
) -> Vec<u8> {
    let num_cores = caps.len();
    let n = win.len();
    let mut assign = vec![u8::MAX; n];
    let mut load = vec![0u64; num_cores];
    let depth = g.depth_from_sources();
    // A producer whose value is free everywhere does not constrain
    // placement.
    let effective = |p_global: usize| !replicable[p_global];

    // Seed each core with the longest dependence chain disjoint from the
    // chains already placed, in decreasing capacity order — the window's
    // critical path goes to the highest-capacity core (core 0 on a
    // uniform machine: the sort is stable).
    let mut seed_order: Vec<usize> = (0..num_cores).collect();
    seed_order.sort_by_key(|&c| std::cmp::Reverse(caps[c]));
    let mut excluded = vec![false; n];
    for (k, &core) in seed_order.iter().enumerate() {
        let chain = if k == 0 {
            g.critical_path()
        } else {
            g.longest_chain(&excluded)
        };
        for &i in &chain {
            assign[i] = core as u8;
            load[core] += g.weight(i);
            excluded[i] = true;
        }
    }

    // Chain-following growth, in program order (every in-window producer
    // of node `i` is already assigned when `i` is reached).
    //
    // Three placement cases:
    // 1. a node with a non-replicable (effective) producer follows its
    //    deepest such producer — serial chains never absorb queue latency;
    // 2. a replicable node follows its own chain (deepest producer of any
    //    kind) so induction/address chains stay cohesive — replicas are
    //    created later only where actually needed;
    // 3. a non-replicable node fed only by replicable chains (a load off
    //    an induction variable, the head of a fresh computation) is a
    //    *balance point*: it starts on the least-loaded core. This is
    //    where Fg-STP's parallelism comes from.
    for i in 0..n {
        if assign[i] != u8::MAX {
            continue;
        }
        let deepest = |only_effective: bool| -> Option<(u64, usize)> {
            let mut best: Option<(u64, usize)> = None;
            for &p in g.preds(i) {
                let p = p as usize;
                if (!only_effective || effective(base + p))
                    && best.is_none_or(|(d, _)| depth[p] > d)
                {
                    best = Some((depth[p], assign[p] as usize));
                }
            }
            best
        };
        let external = |only_effective: bool| -> Option<usize> {
            win[i]
                .deps
                .iter()
                .flatten()
                .map(|d| d.producer as usize)
                .filter(|&p| p < base && (!only_effective || effective(p)))
                .max()
                .map(|p| prior[p] as usize)
        };
        let c = if let Some((_, c)) = deepest(true) {
            c
        } else if let Some(c) = external(true) {
            // Loop-carried chain continuity across windows.
            c
        } else if replicable[base + i] {
            // Keep replicable chains cohesive wherever their own chain
            // lives; fall back to the least-loaded core for chain heads.
            deepest(false)
                .map(|(_, c)| c)
                .or_else(|| external(false))
                .unwrap_or_else(|| argmin_weighted(&load, caps))
        } else {
            // A fresh computation rooted only in replicable values: start
            // it on the least-loaded core (capacity-weighted).
            argmin_weighted(&load, caps)
        };
        assign[i] = c as u8;
        load[c] += g.weight(i);
    }

    // Boundary refinement: migrate a node to the core holding more of its
    // effective edges than its current core does (the move converts that
    // core's edges to local and the current local edges to cross; edges to
    // third cores stay cross either way), within the balance slack.
    let total: u64 = (0..n).map(|i| g.weight(i)).sum();
    let slack = ((total as f64 * balance_slack) as u64).max(2 * g.weight(0).max(1));
    let mut edges = vec![0i64; num_cores];
    for _ in 0..refine_passes {
        let mut changed = false;
        for i in 0..n {
            let here = assign[i] as usize;
            // Effective-edge affinity per core.
            edges.fill(0);
            for &p in g.preds(i) {
                if effective(base + p as usize) {
                    edges[assign[p as usize] as usize] += 1;
                }
            }
            if effective(base + i) {
                for &s in g.succs(i) {
                    edges[assign[s as usize] as usize] += 1;
                }
            }
            for dep in win[i].deps.iter().flatten() {
                let p = dep.producer as usize;
                if p < base && effective(p) {
                    edges[prior[p] as usize] += 1;
                }
            }
            let w = g.weight(i);
            let mut best: Option<(i64, usize)> = None;
            for (there, &e) in edges.iter().enumerate() {
                if there == here {
                    continue;
                }
                let gain = e - edges[here];
                let balanced_after =
                    load[there] + w <= load[here].saturating_sub(w).max(load[there]) + slack;
                if gain > 0 && balanced_after && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, there));
                }
            }
            if let Some((_, there)) = best {
                assign[i] = there as u8;
                load[here] -= w;
                load[there] += w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    assign
}

/// Decides which instructions to replicate: replicable producers (cheap
/// integer chains — see [`replicable_closure`]) whose value is needed on
/// another core, either by a remote consumer directly or transitively by
/// a replica of one of their consumers. Returns, per instruction, the
/// bitmask of cores a replica is placed on.
///
/// The pass runs in reverse program order so a whole address/induction
/// chain replicates together: when a consumer's replica needs its
/// producer remotely, the producer (if replicable) replicates too.
fn plan_replication(stream: &[ExecInst], assign: &[u8]) -> Vec<u64> {
    let replicable = replicable_closure(stream);
    let mut replica_on = vec![0u64; stream.len()];
    // needed_on[p]: bitmask of cores where p's value must be locally
    // available.
    let mut needed_on = vec![0u64; stream.len()];
    for (i, x) in stream.iter().enumerate().rev() {
        let home = 1u64 << assign[i];
        if replicable[i] {
            replica_on[i] = needed_on[i] & !home;
        }
        // The primary copy executes on the home core; replicas also
        // execute on every core in `replica_on`. Each copy needs the
        // operands on its own core.
        for dep in x.deps.iter().flatten() {
            needed_on[dep.producer as usize] |= home | replica_on[i];
        }
    }
    replica_on
}

/// The cores whose bits are set in `mask`, lowest first.
fn cores_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            core
        })
    })
}

/// Builds the per-core views with final cross/sends annotations, each
/// sized exactly by a counting pass.
fn materialize(
    stream: &[ExecInst],
    assign: Vec<u8>,
    replica_on: Vec<u64>,
    num_cores: usize,
) -> PartitionedStream {
    let mut stats = PartitionStats {
        insts: vec![0; num_cores],
        ..PartitionStats::default()
    };
    // `send_to[p]`: cores where p's value is consumed without being
    // computed or replicated there.
    let mut send_to = vec![0u64; stream.len()];
    let mut entries = vec![0usize; num_cores];
    let available_on = |p: usize, core: u8| assign[p] == core || replica_on[p] & (1 << core) != 0;
    for (i, x) in stream.iter().enumerate() {
        let c = assign[i];
        stats.insts[c as usize] += 1;
        entries[c as usize] += 1;
        for other in cores_in(replica_on[i]) {
            entries[other] += 1;
            stats.replicated += 1;
        }
        for dep in x.deps.iter().flatten() {
            let p = dep.producer as usize;
            if !available_on(p, c) {
                send_to[p] |= 1 << c;
                stats.cross_reg_deps += 1;
            }
        }
        if let Some(md) = x.mem_dep {
            if assign[md.store as usize] != c {
                stats.cross_mem_deps += 1;
            }
        }
    }
    let mut views: Vec<Vec<ViewEntry>> = entries.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut load_barriers = vec![u64::MAX; stream.len()];
    let mut last_store: Vec<Option<u64>> = vec![None; num_cores];
    let cross = |dep: Option<SrcDep>, core: u8| {
        dep.is_some_and(|d| !available_on(d.producer as usize, core))
    };
    for (i, x) in stream.iter().enumerate() {
        let c = assign[i];
        let entry = |core: u8, replica: bool, sends: bool| {
            ViewEntry::new(
                x.gseq,
                replica,
                sends,
                [cross(x.deps[0], core), cross(x.deps[1], core)],
                x.mem_dep
                    .is_some_and(|md| assign[md.store as usize] != core),
            )
        };
        views[c as usize].push(entry(c, false, send_to[i] != 0));
        for other in cores_in(replica_on[i]) {
            views[other].push(entry(other as u8, true, false));
        }
        if x.is_load() {
            // Youngest older store on any *other* core.
            let barrier = last_store
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != c as usize)
                .filter_map(|(_, &s)| s)
                .max();
            if let Some(b) = barrier {
                load_barriers[x.gseq as usize] = b;
            }
        }
        if x.is_store() {
            last_store[c as usize] = Some(x.gseq);
        }
    }
    PartitionedStream {
        views: views.into_iter().map(StreamView::Selected).collect(),
        assign,
        replica_on,
        send_targets: send_to,
        load_barriers,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};
    use fgstp_ooo::build_exec_stream;

    fn stream(src: &str) -> Vec<ExecInst> {
        let p = assemble(src).unwrap();
        let t = trace_program(&p, 50_000).unwrap();
        build_exec_stream(t.insts())
    }

    /// `chains` completely independent chains interleaved.
    fn n_chains(chains: usize) -> Vec<ExecInst> {
        let mut src = String::new();
        for c in 0..chains {
            src.push_str(&format!("li x{}, 1\n", c + 1));
        }
        for _ in 0..50 {
            for c in 0..chains {
                src.push_str(&format!("add x{r}, x{r}, x{r}\n", r = c + 1));
            }
        }
        src.push_str("halt\n");
        stream(&src)
    }

    fn two_chains() -> Vec<ExecInst> {
        n_chains(2)
    }

    /// Every core's view of `s`, expanded to the instructions it runs.
    fn per_core(s: &[ExecInst], p: &PartitionedStream) -> Vec<Vec<ExecInst>> {
        p.views.iter().map(|view| view.iter(s).collect()).collect()
    }

    #[test]
    fn modn_alternates_chunks() {
        let s = two_chains();
        let p = partition_stream(
            &s,
            &PartitionConfig {
                policy: PartitionPolicy::ModN { chunk: 4 },
                replication: false,
                balance_slack: 0.15,
            },
            2,
        );
        assert_eq!(&p.assign[0..8], &[0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn modn_cycles_through_all_cores() {
        let s = two_chains();
        let p = partition_stream(
            &s,
            &PartitionConfig {
                policy: PartitionPolicy::ModN { chunk: 2 },
                replication: false,
                balance_slack: 0.15,
            },
            3,
        );
        assert_eq!(&p.assign[0..8], &[0, 0, 1, 1, 2, 2, 0, 0]);
        assert_eq!(p.num_cores(), 3);
    }

    #[test]
    fn greedy_separates_independent_chains() {
        let s = two_chains();
        let p = partition_stream(
            &s,
            &PartitionConfig {
                policy: PartitionPolicy::GreedyDep,
                replication: false,
                balance_slack: 0.15,
            },
            2,
        );
        // The two chains should mostly land on different cores, producing
        // very few cross deps.
        assert!(
            p.stats.comms_per_inst() < 0.1,
            "independent chains need almost no communication, got {}",
            p.stats.comms_per_inst()
        );
        let bal = p.stats.balance();
        assert!((0.3..=0.7).contains(&bal), "balance {bal}");
    }

    #[test]
    fn lookahead_beats_modn_on_cut() {
        let s = two_chains();
        let naive = partition_stream(
            &s,
            &PartitionConfig {
                policy: PartitionPolicy::ModN { chunk: 4 },
                replication: false,
                balance_slack: 0.15,
            },
            2,
        );
        let smart = partition_stream(
            &s,
            &PartitionConfig {
                policy: PartitionPolicy::fgstp_default(),
                replication: false,
                balance_slack: 0.15,
            },
            2,
        );
        assert!(
            smart.stats.cross_reg_deps < naive.stats.cross_reg_deps,
            "lookahead {} should cut less than modn {}",
            smart.stats.cross_reg_deps,
            naive.stats.cross_reg_deps
        );
    }

    #[test]
    fn four_chains_spread_over_four_cores() {
        let s = n_chains(4);
        let p = partition_stream(
            &s,
            &PartitionConfig {
                policy: PartitionPolicy::fgstp_default(),
                replication: false,
                balance_slack: 0.2,
            },
            4,
        );
        // Four independent chains: every core gets real work and the cut
        // stays tiny.
        for (c, &n) in p.stats.insts.iter().enumerate() {
            assert!(n > 0, "core {c} got no instructions: {:?}", p.stats.insts);
        }
        assert!(
            p.stats.comms_per_inst() < 0.1,
            "independent chains need almost no communication, got {}",
            p.stats.comms_per_inst()
        );
    }

    #[test]
    fn replication_reduces_communications() {
        // One shared cheap producer feeding both chains every iteration.
        let mut src = String::from("li x1, 1\nli x2, 1\nli x3, 3\n");
        for _ in 0..50 {
            src.push_str("li x3, 5\nadd x1, x1, x3\nadd x2, x2, x3\n");
        }
        src.push_str("halt\n");
        let s = stream(&src);
        let without = partition_stream(
            &s,
            &PartitionConfig {
                replication: false,
                ..PartitionConfig::default()
            },
            2,
        );
        let with = partition_stream(
            &s,
            &PartitionConfig {
                replication: true,
                ..PartitionConfig::default()
            },
            2,
        );
        assert!(with.stats.replicated > 0, "the shared li should replicate");
        assert!(
            with.stats.cross_reg_deps < without.stats.cross_reg_deps,
            "replication should remove communications: {} vs {}",
            with.stats.cross_reg_deps,
            without.stats.cross_reg_deps
        );
    }

    #[test]
    fn replicas_appear_in_both_streams_in_order() {
        let s = two_chains();
        let p = partition_stream(&s, &PartitionConfig::default(), 2);
        let streams = per_core(&s, &p);
        let total: usize = streams.iter().map(Vec::len).sum();
        assert_eq!(total as u64, s.len() as u64 + p.stats.replicated);
        for st in &streams {
            for w in st.windows(2) {
                assert!(
                    w[0].gseq < w[1].gseq,
                    "per-core streams stay in global order"
                );
            }
        }
    }

    #[test]
    fn cross_flags_match_assignment() {
        let s = two_chains();
        for n in [2usize, 3] {
            let p = partition_stream(&s, &PartitionConfig::default(), n);
            for (core, st) in per_core(&s, &p).iter().enumerate() {
                for x in st {
                    for dep in x.deps.iter().flatten() {
                        let prod = dep.producer as usize;
                        let local = p.assign[prod] as usize == core
                            || p.replica_on[prod] & (1 << core) != 0;
                        assert_eq!(dep.cross, !local, "inst {} dep {}", x.gseq, dep.producer);
                    }
                }
            }
        }
    }

    #[test]
    fn load_barriers_point_to_older_remote_stores() {
        let src = r#"
            li x1, 0x100
            li x2, 1
            sd x2, 0(x1)
            sd x2, 8(x1)
            ld x3, 0(x1)
            ld x4, 8(x1)
            halt
        "#;
        let s = stream(src);
        let p = partition_stream(
            &s,
            &PartitionConfig {
                policy: PartitionPolicy::ModN { chunk: 3 },
                replication: false,
                balance_slack: 0.15,
            },
            2,
        );
        // chunk 3: seqs 0,1,2 on core 0; 3,4,5 on core 1.
        // Load 4 (core 1) has older store 2 on core 0 -> barrier.
        assert_eq!(p.load_barriers[4], 2);
        for (load, &store) in p.load_barriers.iter().enumerate() {
            if store == u64::MAX {
                continue;
            }
            assert!(store < load as u64);
            assert_ne!(p.assign[store as usize], p.assign[load]);
        }
    }

    #[test]
    fn sends_marked_only_for_remote_consumers() {
        let s = two_chains();
        let p = partition_stream(&s, &PartitionConfig::default(), 2);
        // Count sends in streams and verify every cross dep has a sending
        // producer targeting the consumer's core.
        let streams = per_core(&s, &p);
        let mut senders = std::collections::HashSet::new();
        for st in &streams {
            for x in st {
                if x.sends {
                    senders.insert(x.gseq);
                }
            }
        }
        for (core, st) in streams.iter().enumerate() {
            for x in st {
                for dep in x.deps.iter().flatten() {
                    if dep.cross {
                        assert!(
                            senders.contains(&dep.producer),
                            "cross dep on {} lacks a sender",
                            dep.producer
                        );
                        assert_ne!(
                            p.send_targets[dep.producer as usize] & (1 << core),
                            0,
                            "producer {} does not target core {core}",
                            dep.producer
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_core_partition_is_trivial() {
        let s = two_chains();
        let p = partition_stream(&s, &PartitionConfig::default(), 1);
        assert_eq!(p.num_cores(), 1);
        assert_eq!(per_core(&s, &p), [s], "every instruction, as annotated");
        assert!(p.assign.iter().all(|&c| c == 0));
        assert_eq!(p.stats.cross_reg_deps, 0);
        assert_eq!(p.stats.replicated, 0);
        assert!(p.load_barriers.iter().all(|&b| b == u64::MAX));
        assert!(p.send_targets.iter().all(|&m| m == 0));
    }

    #[test]
    fn empty_stream_partitions_to_empty() {
        let p = partition_stream(&[], &PartitionConfig::default(), 2);
        assert!(p.views.iter().all(|v| v.len(&[]) == 0));
        assert_eq!(p.stats.total_insts(), 0);
        assert_eq!(p.stats.cross_reg_deps, 0);
    }

    #[test]
    #[should_panic(expected = "num_cores")]
    fn zero_cores_is_rejected() {
        partition_stream(&[], &PartitionConfig::default(), 0);
    }

    #[test]
    fn uniform_capacities_reproduce_unweighted_partition_exactly() {
        let s = n_chains(4);
        for n in [2usize, 3, 4] {
            for policy in [
                PartitionPolicy::fgstp_default(),
                PartitionPolicy::GreedyDep,
                PartitionPolicy::ModN { chunk: 4 },
            ] {
                let cfg = PartitionConfig {
                    policy,
                    ..PartitionConfig::default()
                };
                let plain = partition_stream(&s, &cfg, n);
                let weighted = partition_stream_weighted(&s, &cfg, &vec![3; n]);
                assert_eq!(plain.assign, weighted.assign, "{policy:?} n={n}");
                assert_eq!(plain.stats, weighted.stats);
            }
        }
    }

    #[test]
    fn wide_core_absorbs_more_of_the_balance_points() {
        let s = n_chains(6);
        let cfg = PartitionConfig {
            replication: false,
            ..PartitionConfig::default()
        };
        let even = partition_stream_weighted(&s, &cfg, &[1, 1]);
        let skewed = partition_stream_weighted(&s, &cfg, &[3, 1]);
        assert!(
            skewed.stats.insts[0] > even.stats.insts[0],
            "a 3x-capacity core 0 must take more instructions: {:?} vs {:?}",
            skewed.stats.insts,
            even.stats.insts
        );
    }

    #[test]
    #[should_panic(expected = "capacities must be > 0")]
    fn zero_capacity_is_rejected() {
        partition_stream_weighted(&[], &PartitionConfig::default(), &[1, 0]);
    }
}
