//! Multi-program co-run scenarios: independent workloads on disjoint core
//! sets of one machine, coupled through the shared levels of the memory
//! hierarchy.
//!
//! A [`CoRunPlan`] places one Fg-STP machine instance per program (a
//! one-core program is the conventional core running alone, exactly as
//! the single-core presets run it) on consecutive core ranges of one
//! chip. The driver advances a single global cycle counter and steps
//! each active program's machine in fixed program order on every cycle
//! at which it can act (a machine skips its idle cycles exactly as it
//! does running alone), so shared-resource arbitration (L2 tags, L2
//! MSHRs, the optional finite-bandwidth DRAM channel) sees requests in a
//! deterministic fixed-priority order among same-cycle requestors, with
//! slots recycling round-robin as they free — results are bit-identical
//! regardless of how many worker threads the surrounding harness uses,
//! because a co-run is always one job on one thread.
//!
//! Degenerate cases are exact by construction:
//!
//! * one program on all cores with [`CoRunContention::shared_unlimited`]
//!   runs against the same shared hierarchy a solo run uses, and is
//!   bit-identical to [`run_fgstp`](crate::run_fgstp);
//! * with [`CoRunContention::isolated`] every program gets a private
//!   hierarchy shaped exactly like its solo machine, and reproduces its
//!   solo cycle count exactly (co-scheduling without coupling).
//!
//! [`CoRunContention::shared`] adds the finite DRAM bandwidth model on top
//! of the shared L2 — the configuration the E16 interference experiments
//! use.

use fgstp_isa::DynInst;
use fgstp_mem::{DramBandwidth, Hierarchy, HierarchyConfig, HierarchyStats};
use fgstp_ooo::{PredictorState, RunResult};
use fgstp_telemetry::NullSink;

use crate::machine::{FgstpConfig, FgstpMachine, FgstpStats, PreparedProgram};

/// One co-running program: its machine shape and arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct CoRunProgram {
    /// The Fg-STP machine this program owns (its `num_cores` cores are a
    /// contiguous range of the chip).
    pub cfg: FgstpConfig,
    /// Global cycle the program arrives and starts executing.
    pub start_cycle: u64,
}

impl CoRunProgram {
    /// A program present from cycle 0.
    pub fn new(cfg: FgstpConfig) -> CoRunProgram {
        CoRunProgram {
            cfg,
            start_cycle: 0,
        }
    }

    /// A program arriving at `start_cycle`.
    pub fn arriving_at(cfg: FgstpConfig, start_cycle: u64) -> CoRunProgram {
        CoRunProgram { cfg, start_cycle }
    }
}

/// How the co-running programs couple through the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoRunContention {
    /// Whether the programs share one L2 (and its MSHR file). When false,
    /// every program gets a private hierarchy identical to its solo shape.
    pub shared_l2: bool,
    /// Finite DRAM bandwidth (requires `shared_l2`); `None` keeps the
    /// unlimited fixed-latency DRAM.
    pub dram: Option<DramBandwidth>,
}

impl CoRunContention {
    /// The standard contended configuration: shared L2 plus the default
    /// finite-bandwidth DRAM channel.
    pub fn shared() -> CoRunContention {
        CoRunContention {
            shared_l2: true,
            dram: Some(DramBandwidth::default()),
        }
    }

    /// Shared L2 only, unlimited DRAM: a lone program behaves bit-identically
    /// to its solo run.
    pub fn shared_unlimited() -> CoRunContention {
        CoRunContention {
            shared_l2: true,
            dram: None,
        }
    }

    /// No shared resources at all: per-program private hierarchies.
    pub fn isolated() -> CoRunContention {
        CoRunContention {
            shared_l2: false,
            dram: None,
        }
    }
}

/// A full co-run scenario: programs on disjoint core ranges plus the
/// contention model.
#[derive(Debug, Clone, PartialEq)]
pub struct CoRunPlan {
    /// The co-running programs, in chip core order (program 0 owns cores
    /// `0..k0`, program 1 owns `k0..k0+k1`, ...). The stepping order is
    /// also the fixed arbitration priority among same-cycle requests.
    pub programs: Vec<CoRunProgram>,
    /// Shared-resource coupling.
    pub contention: CoRunContention,
}

impl CoRunPlan {
    /// A contended plan ([`CoRunContention::shared`]) over `programs`.
    pub fn new(programs: Vec<CoRunProgram>) -> CoRunPlan {
        CoRunPlan {
            programs,
            contention: CoRunContention::shared(),
        }
    }

    /// Total chip cores across all programs.
    pub fn total_cores(&self) -> usize {
        self.programs.iter().map(|p| p.cfg.num_cores).sum()
    }

    /// The requestor (program) id per chip core.
    fn requestor_map(&self) -> Vec<usize> {
        let mut map = Vec::with_capacity(self.total_cores());
        for (p, prog) in self.programs.iter().enumerate() {
            map.extend(std::iter::repeat_n(p, prog.cfg.num_cores));
        }
        map
    }
}

/// One program's outcome inside a co-run.
#[derive(Debug, Clone)]
pub struct CoRunProgramResult {
    /// The program's timing result. `cycles` counts from its arrival to
    /// its own completion; `mem` is the program's slice of the hierarchy
    /// (its cores' L1s plus its requestor share of L2/DRAM).
    pub result: RunResult,
    /// Fg-STP machine statistics.
    pub stats: FgstpStats,
    /// Global cycle the program started.
    pub start_cycle: u64,
    /// Global cycle the program finished.
    pub finish_cycle: u64,
    /// First chip core the program owns.
    pub first_core: usize,
}

/// Outcome of a whole co-run.
#[derive(Debug, Clone)]
pub struct CoRunResult {
    /// Per-program results, in plan order.
    pub programs: Vec<CoRunProgramResult>,
    /// Global cycles until the last program finished.
    pub total_cycles: u64,
    /// Machine-wide hierarchy statistics (the shared hierarchy, or the
    /// merge of the per-program hierarchies when isolated).
    pub mem: HierarchyStats,
}

/// Runs `traces[i]` under `plan.programs[i]` on one machine; see the
/// [module docs](self) for the determinism and degeneracy contracts.
///
/// `base` supplies the cache geometries and DRAM latency; its `cores`
/// field is ignored (the plan dictates the chip's core count).
///
/// # Panics
///
/// Panics if `traces.len() != plan.programs.len()`, if the plan is empty,
/// or if a machine deadlocks (a model bug).
pub fn run_corun(traces: &[&[DynInst]], plan: &CoRunPlan, base: &HierarchyConfig) -> CoRunResult {
    assert_eq!(
        traces.len(),
        plan.programs.len(),
        "one trace per co-running program"
    );
    assert!(
        !plan.programs.is_empty(),
        "co-run needs at least one program"
    );
    if plan.contention.shared_l2 {
        run_corun_shared(traces, plan, base)
    } else {
        run_corun_isolated(traces, plan, base)
    }
}

/// Shared-hierarchy co-run: the lockstep global cycle loop.
fn run_corun_shared(
    traces: &[&[DynInst]],
    plan: &CoRunPlan,
    base: &HierarchyConfig,
) -> CoRunResult {
    let hcfg = HierarchyConfig {
        cores: plan.total_cores(),
        ..*base
    };
    let requestors = plan.requestor_map();
    let mut mem = Hierarchy::new_shared(&hcfg, &requestors, plan.contention.dram);

    let progs: Vec<PreparedProgram> = traces
        .iter()
        .zip(&plan.programs)
        .map(|(t, p)| PreparedProgram::new(t, &p.cfg))
        .collect();
    let mut first_core = Vec::with_capacity(plan.programs.len());
    let mut next = 0;
    for p in &plan.programs {
        first_core.push(next);
        next += p.cfg.num_cores;
    }
    let mut machines: Vec<FgstpMachine> = progs
        .iter()
        .zip(&plan.programs)
        .zip(&first_core)
        .map(|((prog, p), &base_core)| {
            FgstpMachine::new(
                prog,
                &p.cfg,
                base_core,
                &mut PredictorState::new(&p.cfg.core),
            )
        })
        .collect();

    let mut finish: Vec<Option<u64>> = machines
        .iter()
        .zip(&plan.programs)
        // An empty program is finished the moment it arrives.
        .map(|(m, p)| m.done().then_some(p.start_cycle))
        .collect();
    // The cycle each program's machine is stepped next: its start, then
    // the cycle its last step returned. A machine is stepped only on its
    // own cycles and the clock jumps to the earliest of them; a skipped
    // machine changes nothing a partner sees (it touches the hierarchy
    // only in cycles it acts).
    let mut due: Vec<u64> = plan.programs.iter().map(|p| p.start_cycle).collect();
    let mut now = 0u64;
    while finish.iter().any(Option::is_none) {
        let mut next = u64::MAX;
        for (i, m) in machines.iter_mut().enumerate() {
            if finish[i].is_some() {
                continue;
            }
            if due[i] == now {
                due[i] = m.step(now, &mut mem, &mut NullSink);
                if m.done() {
                    finish[i] = Some(now + 1);
                    continue;
                }
            }
            next = next.min(due[i]);
        }
        now = next;
    }

    let global = mem.stats();
    let total_cycles = finish.iter().map(|f| f.unwrap()).max().unwrap_or(0);
    let programs = machines
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            let start = plan.programs[i].start_cycle;
            let end = finish[i].unwrap();
            let cores = first_core[i]..first_core[i] + plan.programs[i].cfg.num_cores;
            let view = program_view(&global, cores, i);
            let (result, stats) = m.finish(end - start, view);
            CoRunProgramResult {
                result,
                stats,
                start_cycle: start,
                finish_cycle: end,
                first_core: first_core[i],
            }
        })
        .collect();
    CoRunResult {
        programs,
        total_cycles,
        mem: global,
    }
}

/// Isolated co-run: private hierarchies, so each program reproduces its
/// solo cycle count exactly; only the schedule (arrival offsets) is shared.
fn run_corun_isolated(
    traces: &[&[DynInst]],
    plan: &CoRunPlan,
    base: &HierarchyConfig,
) -> CoRunResult {
    let mut first_core = 0;
    let mut merged = HierarchyStats::default();
    let mut total_cycles = 0;
    let mut programs = Vec::with_capacity(plan.programs.len());
    for (trace, p) in traces.iter().zip(&plan.programs) {
        let hcfg = HierarchyConfig {
            cores: p.cfg.num_cores,
            ..*base
        };
        let (result, stats) = crate::machine::run_fgstp(trace, &p.cfg, &hcfg);
        let finish = p.start_cycle + result.cycles;
        total_cycles = total_cycles.max(finish);
        merged.merge(&result.mem);
        programs.push(CoRunProgramResult {
            result,
            stats,
            start_cycle: p.start_cycle,
            finish_cycle: finish,
            first_core,
        });
        first_core += p.cfg.num_cores;
    }
    CoRunResult {
        programs,
        total_cycles,
        mem: merged,
    }
}

/// A program's slice of the shared hierarchy: its cores' L1s plus its
/// requestor share of the L2/DRAM traffic. Merging all program views with
/// [`HierarchyStats::merge`] reconstructs the machine-wide view.
fn program_view(
    global: &HierarchyStats,
    cores: std::ops::Range<usize>,
    requestor: usize,
) -> HierarchyStats {
    let r = global.by_requestor[requestor];
    HierarchyStats {
        l1i: global.l1i[cores.clone()].to_vec(),
        l1d: global.l1d[cores].to_vec(),
        l2: r.l2,
        invalidations: r.invalidations,
        dram: r.dram,
        by_requestor: vec![r],
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

    /// A pointer-chase-ish loop with a data footprint: misses in L1/L2.
    fn memory_trace(lines: u64) -> Trace {
        let src = format!(
            r#"
                li x1, 0x10000
                li x9, {lines}
            loop:
                ld x3, 0(x1)
                add x4, x3, x9
                addi x1, x1, 256
                addi x9, x9, -1
                bne x9, x0, loop
                halt
            "#
        );
        trace(&src)
    }

    fn compute_trace() -> Trace {
        let mut src = String::from("li x1, 1\nli x2, 1\nli x9, 120\n");
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
    fn lone_program_on_all_cores_is_bit_identical_to_solo() {
        let t = memory_trace(200);
        let cfg = FgstpConfig::small();
        let hcfg = HierarchyConfig::small(2);
        let (solo, solo_stats) = crate::machine::run_fgstp(t.insts(), &cfg, &hcfg);
        let plan = CoRunPlan {
            programs: vec![CoRunProgram::new(cfg)],
            contention: CoRunContention::shared_unlimited(),
        };
        let co = run_corun(&[t.insts()], &plan, &hcfg);
        let p = &co.programs[0];
        assert_eq!(p.result.cycles, solo.cycles, "cycles must be bit-identical");
        assert_eq!(p.result.committed, solo.committed);
        assert_eq!(p.result.cores, solo.cores);
        assert_eq!(p.result.branches, solo.branches);
        assert_eq!(p.result.mem.l2, solo.mem.l2);
        assert_eq!(p.result.mem.l1d, solo.mem.l1d);
        assert_eq!(p.stats.partition, solo_stats.partition);
        assert_eq!(co.total_cycles, solo.cycles);
    }

    #[test]
    fn isolated_corunners_reproduce_solo_cycles_exactly() {
        let a = memory_trace(150);
        let b = compute_trace();
        let cfg = FgstpConfig::small();
        let hcfg = HierarchyConfig::small(2);
        let (solo_a, _) = crate::machine::run_fgstp(a.insts(), &cfg, &hcfg);
        let (solo_b, _) = crate::machine::run_fgstp(b.insts(), &cfg, &hcfg);
        let plan = CoRunPlan {
            programs: vec![
                CoRunProgram::new(cfg.clone()),
                CoRunProgram::new(cfg.clone()),
            ],
            contention: CoRunContention::isolated(),
        };
        let co = run_corun(&[a.insts(), b.insts()], &plan, &hcfg);
        assert_eq!(co.programs[0].result.cycles, solo_a.cycles);
        assert_eq!(co.programs[1].result.cycles, solo_b.cycles);
        assert_eq!(co.total_cycles, solo_a.cycles.max(solo_b.cycles));
        // The machine-wide view concatenates both programs' L1 sets.
        assert_eq!(co.mem.l1d.len(), 4);
    }

    #[test]
    fn shared_l2_contention_slows_corunners_down() {
        let t = memory_trace(400);
        let cfg = FgstpConfig::small();
        let hcfg = HierarchyConfig::small(2);
        let solo = {
            let plan = CoRunPlan {
                programs: vec![CoRunProgram::new(cfg.clone())],
                contention: CoRunContention::shared(),
            };
            run_corun(&[t.insts()], &plan, &hcfg).programs[0]
                .result
                .cycles
        };
        let plan = CoRunPlan {
            programs: vec![
                CoRunProgram::new(cfg.clone()),
                CoRunProgram::new(cfg.clone()),
            ],
            contention: CoRunContention::shared(),
        };
        let co = run_corun(&[t.insts(), t.insts()], &plan, &hcfg);
        assert!(
            co.programs.iter().any(|p| p.result.cycles > solo),
            "two memory-bound co-runners must contend: solo {} vs {:?}",
            solo,
            co.programs
                .iter()
                .map(|p| p.result.cycles)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn corun_is_deterministic_across_repeats() {
        let a = memory_trace(120);
        let b = compute_trace();
        let plan = CoRunPlan::new(vec![
            CoRunProgram::new(FgstpConfig::small()),
            CoRunProgram::new(FgstpConfig::small()),
        ]);
        let hcfg = HierarchyConfig::small(2);
        let r1 = run_corun(&[a.insts(), b.insts()], &plan, &hcfg);
        let r2 = run_corun(&[a.insts(), b.insts()], &plan, &hcfg);
        for (p1, p2) in r1.programs.iter().zip(&r2.programs) {
            assert_eq!(p1.result.cycles, p2.result.cycles);
            assert_eq!(p1.result.mem.l2, p2.result.mem.l2);
        }
        assert_eq!(r1.total_cycles, r2.total_cycles);
    }

    #[test]
    fn late_arrival_shifts_a_programs_window() {
        let b = compute_trace();
        let plan = CoRunPlan {
            programs: vec![CoRunProgram::arriving_at(FgstpConfig::small(), 500)],
            contention: CoRunContention::shared_unlimited(),
        };
        let hcfg = HierarchyConfig::small(2);
        let co = run_corun(&[b.insts()], &plan, &hcfg);
        let p = &co.programs[0];
        assert_eq!(p.start_cycle, 500);
        assert_eq!(p.finish_cycle, 500 + p.result.cycles);
        assert_eq!(co.total_cycles, p.finish_cycle);
    }

    #[test]
    fn program_views_merge_back_to_the_machine_view() {
        let a = memory_trace(100);
        let b = compute_trace();
        let plan = CoRunPlan::new(vec![
            CoRunProgram::new(FgstpConfig::small()),
            CoRunProgram::new(FgstpConfig::small()),
        ]);
        let co = run_corun(&[a.insts(), b.insts()], &plan, &HierarchyConfig::small(2));
        let mut merged = co.programs[0].result.mem.clone();
        merged.merge(&co.programs[1].result.mem);
        assert_eq!(merged.l2, co.mem.l2);
        assert_eq!(merged.dram, co.mem.dram);
        assert_eq!(merged.l1d, co.mem.l1d);
        assert_eq!(merged.invalidations, co.mem.invalidations);
    }

    #[test]
    fn heterogeneous_corun_commits_everything() {
        use fgstp_ooo::CoreConfig;
        let a = compute_trace();
        let b = memory_trace(80);
        let wide =
            FgstpConfig::small().with_per_core(vec![CoreConfig::medium(), CoreConfig::small()]);
        let narrow = FgstpConfig::small().with_cores(1);
        let plan = CoRunPlan::new(vec![CoRunProgram::new(wide), CoRunProgram::new(narrow)]);
        let co = run_corun(&[a.insts(), b.insts()], &plan, &HierarchyConfig::small(2));
        assert_eq!(co.programs[0].result.committed, a.len() as u64);
        assert_eq!(co.programs[1].result.committed, b.len() as u64);
        assert_eq!(co.programs[1].first_core, 2);
    }

    #[test]
    #[should_panic(expected = "one trace per co-running program")]
    fn trace_count_mismatch_is_rejected() {
        let plan = CoRunPlan::new(vec![CoRunProgram::new(FgstpConfig::small())]);
        run_corun(&[], &plan, &HierarchyConfig::small(2));
    }
}
