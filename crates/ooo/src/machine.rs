//! Single-core machine driver (also runs the fused Core Fusion core).

use fgstp_isa::DynInst;
use fgstp_mem::{HierarchyConfig, HierarchyStats};
use fgstp_telemetry::{CycleOutcome, CycleSink, NullSink};

use crate::accounting::{classify_single, stat_delta};
use crate::config::CoreConfig;
use crate::core::{Core, CoreStats};
use crate::env::SingleEnv;
use crate::stream::build_exec_stream;
use crate::warm::WarmState;

/// Result of running a trace through a machine model.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total cycles from first fetch to last commit.
    pub cycles: u64,
    /// Architectural instructions committed.
    pub committed: u64,
    /// Per-core pipeline statistics.
    pub cores: Vec<CoreStats>,
    /// (branches, mispredicts) across the machine.
    pub branches: (u64, u64),
    /// Memory-hierarchy statistics.
    pub mem: HierarchyStats,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline executing the same trace.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        debug_assert_eq!(self.committed, baseline.committed, "same trace expected");
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }
}

/// Result of a warm-entry (sampled) run: the usual [`RunResult`] over the
/// whole window plus the cycle at which the measured region began.
#[derive(Debug, Clone)]
pub struct WarmRun {
    /// Timing result over the *entire* detailed window (warmup included).
    pub result: RunResult,
    /// Cycles spent before the `measure_from`-th commit landed (the
    /// detailed-warmup prefix whose cycles the sampler discards); 0 when
    /// `measure_from` is 0.
    pub warmup_cycles: u64,
}

impl WarmRun {
    /// Cycles of the measured region (total minus discarded warmup).
    pub fn measured_cycles(&self) -> u64 {
        self.result.cycles - self.warmup_cycles
    }
}

/// Upper bound on cycles per instruction before declaring a deadlock.
const DEADLOCK_CPI: u64 = 2_000;

/// Runs `trace` through a single core described by `cfg` (a conventional
/// core, or a fused Core Fusion core when `cfg` has two clusters), from
/// cold state: [`run_single_warm`] on a fresh [`WarmState`], measured from
/// the first commit, with no instrumentation.
///
/// # Panics
///
/// Panics if the pipeline deadlocks (a model bug, not an input condition).
pub fn run_single(trace: &[DynInst], cfg: &CoreConfig, hcfg: &HierarchyConfig) -> RunResult {
    run_single_warm(trace, cfg, &mut WarmState::new(cfg, hcfg), 0, &mut NullSink).result
}

/// Runs `trace` through a single core entered with the long-lived state
/// in `warm` — a fresh [`WarmState`] for a whole-trace run, or the warmed
/// state of a sampled detailed window.
///
/// The run executes on `warm.mem` and `warm.pred`; short-lived pipeline
/// state starts cold and ramps up during the first `measure_from` commits,
/// whose cycles are reported separately as [`WarmRun::warmup_cycles`]. The
/// reported `branches` are this run's; the `mem` statistics are cumulative
/// over everything `warm` has seen.
///
/// Every cycle (warmup included) is charged into `sink` — a commit, or one
/// [`fgstp_telemetry::StallCategory`] per non-commit cycle — together with
/// every pipeline stage each instruction reaches. Timing is bit-identical
/// for every sink: the accounting probes never mutate pipeline, predictor
/// or cache state.
///
/// # Panics
///
/// Panics if the pipeline deadlocks (a model bug, not an input condition).
pub fn run_single_warm<S: CycleSink>(
    trace: &[DynInst],
    cfg: &CoreConfig,
    warm: &mut WarmState,
    measure_from: u64,
    sink: &mut S,
) -> WarmRun {
    let stream = build_exec_stream(trace);
    let mut env = SingleEnv::new(&mut warm.pred);
    let mem = &mut warm.mem;
    let branches_before = env.branch_stats();
    let mut core = Core::new(0, cfg, &stream);
    let cap = stream.len() as u64 * DEADLOCK_CPI + 100_000;
    let mut now = 0u64;
    let mut warmup_cycles = 0u64;
    while !core.done() {
        // A cycle that starts before the `measure_from`-th commit is warmup.
        if env.committed() < measure_from {
            warmup_cycles = now + 1;
        }
        let before = if S::ENABLED {
            *core.stats()
        } else {
            CoreStats::default()
        };
        core.cycle(now, &mut env, mem, sink);
        if S::ENABLED {
            let d = stat_delta(&before, core.stats());
            let outcome = if d.committed > 0 {
                CycleOutcome::Commit(d.committed as u32)
            } else {
                let stall = core.commit_stall(&mut env, now);
                CycleOutcome::Stall(classify_single(stall, &d))
            };
            sink.record(0, now, outcome);
        }
        now += 1;
        assert!(
            now < cap,
            "single-core pipeline deadlocked at cycle {now}: {}",
            core.pipeline_snapshot()
        );
    }
    let branches_after = env.branch_stats();
    let result = RunResult {
        cycles: now,
        committed: env.committed(),
        cores: vec![*core.stats()],
        branches: (
            branches_after.0 - branches_before.0,
            branches_after.1 - branches_before.1,
        ),
        mem: mem.stats(),
    };
    WarmRun {
        result,
        warmup_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};

    fn trace(src: &str) -> fgstp_isa::Trace {
        let p = assemble(src).unwrap();
        trace_program(&p, 200_000).unwrap()
    }

    /// A small loop kernel with a mix of ALU, memory and branches.
    fn kernel() -> fgstp_isa::Trace {
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

    #[test]
    fn ipc_is_positive_and_bounded() {
        let t = kernel();
        let r = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
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
        let small = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let medium = run_single(
            t.insts(),
            &CoreConfig::medium(),
            &HierarchyConfig::medium(1),
        );
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
        let small = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let fused = run_single(
            t.insts(),
            &CoreConfig::fused(&CoreConfig::small()),
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
        let r = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let (branches, mispredicts) = r.branches;
        assert_eq!(branches, 200);
        assert!(mispredicts < branches / 2, "loop branch is predictable");
    }

    #[test]
    fn mem_stats_are_reported() {
        let t = kernel();
        let r = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
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
        let a = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let b = run_single(
            t.insts(),
            &CoreConfig::medium(),
            &HierarchyConfig::medium(1),
        );
        let s = b.speedup_over(&a);
        assert!((s - a.cycles as f64 / b.cycles as f64).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let r = run_single(&[], &CoreConfig::small(), &HierarchyConfig::small(1));
        assert_eq!(r.committed, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn recorded_run_captures_every_stage_in_order() {
        let t = kernel();
        let cfg = CoreConfig::small();
        let hcfg = HierarchyConfig::small(1);
        let mut rec = crate::pipeview::PipeRecorder::new();
        let r = run_single_warm(
            t.insts(),
            &cfg,
            &mut WarmState::new(&cfg, &hcfg),
            0,
            &mut rec,
        )
        .result;
        assert_eq!(r.cycles, run_single(t.insts(), &cfg, &hcfg).cycles);
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
        let cfg = CoreConfig::small();
        let hcfg = HierarchyConfig::small(1);
        let plain = run_single(t.insts(), &cfg, &hcfg);
        let mut sink = fgstp_telemetry::CpiSink::new(1);
        let r = run_single_warm(
            t.insts(),
            &cfg,
            &mut WarmState::new(&cfg, &hcfg),
            0,
            &mut sink,
        )
        .result;
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
}
