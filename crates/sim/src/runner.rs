//! Low-level run primitives: one trace through one machine model.
//!
//! The primary driver API is [`crate::Session`] — it owns tracing, the
//! on-disk live-point cache and the worker pool. This module keeps the
//! per-trace primitives the session is built from ([`run_on`],
//! [`trace_workload`]) plus the result types, and retains the historical
//! free functions ([`run_suite`]) as thin compatibility shims over a
//! default session.

use fgstp::{run_corun, run_fgstp_warm, CoRunContention, CoRunPlan, CoRunProgram, FgstpStats};
use fgstp_isa::{DynInst, Trace};
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::{run_single_warm, CoreConfig, RunResult, WarmState};
use fgstp_sampling::{run_plan, SampleConfig, SamplePlan, SampledRun, TimingModel, WindowPool};
use fgstp_telemetry::{CpiSink, CpiStack, CycleSink, Episode, NullSink};
use fgstp_workloads::{Scale, Workload};

use crate::presets::MachineKind;
use crate::session::Session;

/// Where one program sat inside a co-run (see [`run_on_corun`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoRunInfo {
    /// Index of the program in the co-run plan.
    pub program: usize,
    /// First chip core the program owned.
    pub first_core: usize,
    /// Cores the program's machine instance owned.
    pub cores: usize,
    /// Global cycle the program started.
    pub start_cycle: u64,
    /// Global cycle the program finished.
    pub finish_cycle: u64,
    /// Global cycles until the whole co-run drained.
    pub total_cycles: u64,
    /// Whether the co-run ran with private hierarchies (contention off).
    pub isolated: bool,
}

/// Outcome of one (workload, machine) run.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// Machine model that ran.
    pub kind: MachineKind,
    /// Timing result.
    pub result: RunResult,
    /// Fg-STP-specific statistics, when `kind` is an Fg-STP preset.
    pub fgstp: Option<FgstpStats>,
    /// Aggregate CPI stack (all cores merged), when the run was
    /// instrumented (see [`run_on_instrumented`] and
    /// [`Session::telemetry`]).
    pub cpi: Option<CpiStack>,
    /// The sampled-simulation record, when the run came from
    /// [`run_on_sampled`] (or [`Session::sample`]): interval schedule, CPI
    /// estimate with its 95% confidence interval, and detail-reduction
    /// accounting. `result` then carries *projected* totals.
    pub sampled: Option<SampledRun>,
    /// The program's placement and window inside a co-run, when the run
    /// came from [`run_on_corun`] (or a `--corun` spec). `result.cycles`
    /// then counts from the program's arrival to its own completion, and
    /// `result.mem` is the program's slice of the shared hierarchy.
    pub corun: Option<CoRunInfo>,
}

impl MachineRun {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.result.ipc()
    }
}

/// Results of one workload across the requested machines.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload name.
    pub name: &'static str,
    /// Dynamic instructions executed.
    pub committed: u64,
    /// One entry per requested machine, in request order. Empty when the
    /// workload failed to trace (see [`BenchResult::error`]).
    pub runs: Vec<MachineRun>,
    /// Why the workload produced no runs (e.g. its trace exceeded the
    /// budget), or `None` on success.
    pub error: Option<String>,
}

impl BenchResult {
    /// The run of machine `kind`, if it was part of the run set.
    pub fn run_of(&self, kind: MachineKind) -> Option<&MachineRun> {
        self.runs.iter().find(|r| r.kind == kind)
    }

    /// Speedup of machine `of` over machine `over` on this workload, or
    /// `None` if either machine was not part of the run set.
    pub fn try_speedup(&self, of: MachineKind, over: MachineKind) -> Option<f64> {
        Some(
            self.run_of(of)?
                .result
                .speedup_over(&self.run_of(over)?.result),
        )
    }

    /// Speedup of machine `of` over machine `over` on this workload.
    ///
    /// # Panics
    ///
    /// Panics if either machine was not part of the run set — use
    /// [`BenchResult::try_speedup`] when the machine set is not static.
    pub fn speedup(&self, of: MachineKind, over: MachineKind) -> f64 {
        self.try_speedup(of, over).unwrap_or_else(|| {
            let missing = if self.run_of(of).is_none() { of } else { over };
            panic!("machine {missing} not in result set for {}", self.name)
        })
    }
}

/// Runs one trace through one machine preset.
pub fn run_on(kind: MachineKind, trace: &[DynInst]) -> MachineRun {
    run_on_with_cores(kind, trace, None, &mut NullSink)
}

/// Like [`run_on`], but overrides the Fg-STP core count when `cores` is
/// set (the CLI `--cores` flag and the E13 scaling sweep), and charges
/// every core-cycle into `sink` (timing is bit-identical for every sink).
///
/// # Panics
///
/// Panics if `cores` is set for a non-Fg-STP preset (those machines have a
/// fixed shape).
pub fn run_on_with_cores<S: CycleSink>(
    kind: MachineKind,
    trace: &[DynInst],
    cores: Option<usize>,
    sink: &mut S,
) -> MachineRun {
    let (result, fgstp) = if let Some(mut cfg) = kind.try_fgstp_config() {
        if let Some(n) = cores {
            cfg = cfg.with_cores(n);
        }
        let mut warm = WarmState::new(&cfg.core, &kind.hierarchy_for(cfg.num_cores));
        let (run, stats) = run_fgstp_warm(trace, &cfg, &mut warm, 0, sink);
        (run.result, Some(stats))
    } else {
        assert!(
            cores.is_none(),
            "--cores only applies to Fg-STP machines, not {kind}"
        );
        let cfg = kind.core_config();
        let mut warm = WarmState::new(&cfg, &kind.hierarchy_config());
        (
            run_single_warm(trace, &cfg, &mut warm, 0, sink).result,
            None,
        )
    };
    MachineRun {
        kind,
        result,
        fgstp,
        cpi: None,
        sampled: None,
        corun: None,
    }
}

/// Runs a multi-program co-run on one Fg-STP machine preset: program `i`
/// is `workloads[i]`/`traces[i]` on `cores[i]` consecutive chip cores (see
/// [`fgstp::run_corun`] for the arbitration and determinism contracts).
/// With `isolated` every program instead gets a private hierarchy and
/// reproduces its solo cycle count exactly.
///
/// Returns one [`BenchResult`] per program, in plan order, each holding a
/// single [`MachineRun`] whose [`MachineRun::corun`] records the
/// placement; `result.mem` is the program's slice of the shared hierarchy
/// (its L1s plus its requestor share of L2/DRAM traffic).
///
/// # Panics
///
/// Panics if `kind` is not an Fg-STP preset or the slice lengths disagree
/// — `--corun` specs are validated upstream by
/// [`crate::ExperimentSpec::validate`].
pub fn run_on_corun(
    kind: MachineKind,
    workloads: &[Workload],
    traces: &[Trace],
    cores: &[usize],
    isolated: bool,
) -> Vec<BenchResult> {
    assert!(
        workloads.len() == traces.len() && traces.len() == cores.len(),
        "one workload, trace and core count per co-running program"
    );
    let base = kind
        .try_fgstp_config()
        .unwrap_or_else(|| panic!("--corun needs an Fg-STP machine, not {kind}"));
    let plan = CoRunPlan {
        programs: cores
            .iter()
            .map(|&n| CoRunProgram::new(base.clone().with_cores(n)))
            .collect(),
        contention: if isolated {
            CoRunContention::isolated()
        } else {
            CoRunContention::shared()
        },
    };
    let hcfg = kind.hierarchy_for(plan.total_cores());
    let insts: Vec<&[DynInst]> = traces.iter().map(|t| t.insts()).collect();
    let co = run_corun(&insts, &plan, &hcfg);
    workloads
        .iter()
        .zip(traces)
        .zip(co.programs)
        .enumerate()
        .map(|(i, ((w, t), p))| BenchResult {
            name: w.name,
            committed: t.len() as u64,
            runs: vec![MachineRun {
                kind,
                fgstp: Some(p.stats),
                cpi: None,
                sampled: None,
                corun: Some(CoRunInfo {
                    program: i,
                    first_core: p.first_core,
                    cores: cores[i],
                    start_cycle: p.start_cycle,
                    finish_cycle: p.finish_cycle,
                    total_cycles: co.total_cycles,
                    isolated,
                }),
                result: p.result,
            }],
            error: None,
        })
        .collect()
}

/// Runs one trace through one machine preset under SMARTS-style systematic
/// sampling (see [`fgstp_sampling`]): most of the trace retires through
/// functional warming, and only periodic windows run on the detailed
/// machine. The returned [`MachineRun::result`] carries *projected* totals
/// — `cycles` is the rounded CPI-estimate projection, `committed` the full
/// trace length — while [`MachineRun::sampled`] holds the interval record
/// and confidence interval. With `telemetry` the merged CPI stack over the
/// detailed windows lands in [`MachineRun::cpi`].
pub fn run_on_sampled(
    kind: MachineKind,
    trace: &[DynInst],
    scfg: &SampleConfig,
    telemetry: bool,
) -> MachineRun {
    let plan = plan_on_sampled(kind, trace.iter().copied(), scfg);
    run_on_sampled_plan(kind, &plan, telemetry, None)
}

/// The functional-warming machine shape a preset samples with: the core
/// configuration (an Fg-STP preset warms with its per-core config) and
/// the hierarchy built for the preset's core count. Live-point snapshots
/// are keyed on a fingerprint of this shape, so a preset change orphans
/// its stored snapshots instead of replaying them on the wrong machine.
pub fn warm_shape(kind: MachineKind) -> (CoreConfig, HierarchyConfig) {
    if let Some(cfg) = kind.try_fgstp_config() {
        let hcfg = kind.hierarchy_for(cfg.num_cores);
        (cfg.core, hcfg)
    } else {
        (kind.core_config(), kind.hierarchy_config())
    }
}

/// Plans a sampled run of `kind` over a trace: one pass of continuous
/// functional warming that captures a live-point per detailed window (see
/// [`fgstp_sampling::SamplePlan::plan`]).
pub fn plan_on_sampled(
    kind: MachineKind,
    trace: impl IntoIterator<Item = DynInst>,
    scfg: &SampleConfig,
) -> SamplePlan {
    let (ccfg, hcfg) = warm_shape(kind);
    SamplePlan::plan(trace, &ccfg, &hcfg, scfg)
}

/// Executes a prepared [`SamplePlan`] on machine `kind`. With `telemetry`
/// the detailed windows run serially through a shared CPI sink (cycle
/// results still match the uninstrumented path exactly); otherwise the
/// caller-supplied `exec` hook dispatches the pure window jobs — the
/// session passes its worker pool here, making sampled runs
/// embarrassingly parallel. Results are merged in systematic-interval
/// order, so every pool size produces bit-identical estimates.
pub fn run_on_sampled_plan(
    kind: MachineKind,
    plan: &SamplePlan,
    telemetry: bool,
    exec: Option<WindowPool>,
) -> MachineRun {
    match kind.try_fgstp_config() {
        Some(cfg) => {
            let hcfg = kind.hierarchy_for(cfg.num_cores);
            run_sampled(kind, TimingModel::Fgstp(&cfg), &hcfg, plan, telemetry, exec)
        }
        None => {
            let ccfg = kind.core_config();
            let hcfg = kind.hierarchy_config();
            run_sampled(
                kind,
                TimingModel::Single(&ccfg),
                &hcfg,
                plan,
                telemetry,
                exec,
            )
        }
    }
}

/// Executes `plan` on `model` (see [`run_on_sampled_plan`]) and wraps the
/// [`SampledRun`] in the standard [`MachineRun`] projection: `result.cycles`
/// is the rounded CPI-estimate projection, `committed` the full trace
/// length.
fn run_sampled(
    kind: MachineKind,
    model: TimingModel,
    hcfg: &HierarchyConfig,
    plan: &SamplePlan,
    telemetry: bool,
    exec: Option<WindowPool>,
) -> MachineRun {
    let mut sink = telemetry.then(|| CpiSink::new(model.cores()));
    let sampled = match &mut sink {
        Some(sink) => run_plan(plan, model, hcfg, exec, sink),
        None => run_plan(plan, model, hcfg, exec, &mut NullSink),
    };
    let result = RunResult {
        cycles: sampled.est_cycles().round() as u64,
        committed: sampled.total_insts,
        cores: Vec::new(),
        branches: sampled.branches,
        mem: sampled.mem.clone(),
    };
    MachineRun {
        kind,
        result,
        fgstp: None,
        cpi: sink.map(|s| s.merged()),
        sampled: Some(sampled),
        corun: None,
    }
}

/// The functional-warming machine shape of one program in a sampled
/// isolated co-run: the base Fg-STP preset's per-core configuration plus
/// a private hierarchy sized for the program's core slice. This is the
/// shape live-point snapshots of co-run programs are fingerprinted on.
///
/// # Panics
///
/// Panics if `kind` is not an Fg-STP preset.
pub fn corun_warm_shape(kind: MachineKind, cores: usize) -> (CoreConfig, HierarchyConfig) {
    let base = kind
        .try_fgstp_config()
        .unwrap_or_else(|| panic!("--corun needs an Fg-STP machine, not {kind}"));
    (base.with_cores(cores).core, kind.hierarchy_for(cores))
}

/// Executes prepared per-program [`SamplePlan`]s as an *isolated* sampled
/// co-run: each program is sampled independently on its own core slice
/// (`cores[i]`-core machine, private hierarchy), which is exactly what an
/// isolated co-run computes in full detail. Shared-hierarchy co-runs
/// cannot be sampled — contention couples the programs' timing, so there
/// is no per-program interval schedule — and `--corun --sample` without
/// `--isolated` is rejected upstream by spec validation. The optional
/// `exec` hook dispatches each plan's pure window jobs, exactly as in
/// [`run_on_sampled_plan`].
///
/// Returns one [`BenchResult`] per program in plan order, each carrying
/// the sampled record and its co-run placement.
///
/// # Panics
///
/// Panics if `kind` is not an Fg-STP preset or the slice lengths
/// disagree.
pub fn run_on_sampled_corun_isolated_plans(
    kind: MachineKind,
    workloads: &[Workload],
    plans: Vec<SamplePlan>,
    cores: &[usize],
    exec: Option<WindowPool>,
) -> Vec<BenchResult> {
    assert!(
        workloads.len() == plans.len() && plans.len() == cores.len(),
        "one workload, plan and core count per co-running program"
    );
    let base = kind
        .try_fgstp_config()
        .unwrap_or_else(|| panic!("--corun needs an Fg-STP machine, not {kind}"));
    let mut results = Vec::with_capacity(workloads.len());
    let mut first_core = 0usize;
    let runs: Vec<(MachineRun, usize)> = plans
        .iter()
        .zip(cores)
        .map(|(plan, &n)| {
            let cfg = base.clone().with_cores(n);
            let hcfg = kind.hierarchy_for(n);
            let model = TimingModel::Fgstp(&cfg);
            (run_sampled(kind, model, &hcfg, plan, false, exec), n)
        })
        .collect();
    let total_cycles = runs.iter().map(|(r, _)| r.result.cycles).max().unwrap_or(0);
    for (i, (w, (mut run, n))) in workloads.iter().zip(runs).enumerate() {
        run.corun = Some(CoRunInfo {
            program: i,
            first_core,
            cores: n,
            start_cycle: 0,
            finish_cycle: run.result.cycles,
            total_cycles,
            isolated: true,
        });
        first_core += n;
        results.push(BenchResult {
            name: w.name,
            committed: run.result.committed,
            runs: vec![run],
            error: None,
        });
    }
    results
}

/// Runs one trace through one machine preset with cycle accounting: the
/// returned [`MachineRun`] carries the merged CPI stack, and when
/// `episodes` is set the per-core stall timeline comes back alongside it
/// (for [`fgstp_telemetry::write_chrome_trace`] export).
///
/// Timing is bit-identical to [`run_on`]; only the observability differs.
pub fn run_on_instrumented(
    kind: MachineKind,
    trace: &[DynInst],
    episodes: bool,
) -> (MachineRun, Vec<Episode>) {
    run_on_instrumented_with_cores(kind, trace, episodes, None)
}

/// Like [`run_on_instrumented`], with the Fg-STP core-count override of
/// [`run_on_with_cores`].
///
/// # Panics
///
/// Panics if `cores` is set for a non-Fg-STP preset.
pub fn run_on_instrumented_with_cores(
    kind: MachineKind,
    trace: &[DynInst],
    episodes: bool,
    cores: Option<usize>,
) -> (MachineRun, Vec<Episode>) {
    let n = cores.unwrap_or(kind.cores());
    let mut sink = if episodes {
        CpiSink::with_episodes(n)
    } else {
        CpiSink::new(n)
    };
    let mut run = run_on_with_cores(kind, trace, cores, &mut sink);
    run.cpi = Some(sink.merged());
    let timeline = sink.finish_episodes(run.result.cycles);
    (run, timeline)
}

/// Traces one workload (panicking on a kernel fault, which would be a
/// suite bug) and returns its committed path.
///
/// Use [`try_trace_workload`] to handle failures gracefully.
pub fn trace_workload(w: &Workload, scale: Scale) -> fgstp_isa::Trace {
    try_trace_workload(w, scale).unwrap_or_else(|e| panic!("{e}"))
}

/// Traces one workload, reporting a tracing failure (budget exhaustion, a
/// kernel fault) as an error instead of panicking — a single bad workload
/// must not take down a whole suite run.
pub fn try_trace_workload(w: &Workload, scale: Scale) -> Result<fgstp_isa::Trace, String> {
    w.try_trace(scale.trace_budget())
        .map_err(|e| format!("workload {} failed to trace: {e}", w.name))
}

/// Runs the whole suite at `scale` on each machine in `kinds`.
///
/// Compatibility shim: delegates to a default [`Session`] (all cores,
/// live-point cache on). Prefer building a `Session` directly for explicit
/// control of threads and caching.
pub fn run_suite(scale: Scale, kinds: &[MachineKind]) -> Vec<BenchResult> {
    Session::new()
        .scale(scale)
        .machines(kinds.iter().copied())
        .run_suite()
}

/// Geometric mean of a slice of positive values (0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_workloads::by_name;

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn one_workload_runs_on_all_machines() {
        let w = by_name("perl_hash", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        for k in MachineKind::ALL {
            let r = run_on(k, t.insts());
            assert_eq!(r.result.committed, t.len() as u64, "{k}");
            assert!(r.ipc() > 0.0, "{k}");
            assert_eq!(r.fgstp.is_some(), k.is_fgstp(), "{k}");
        }
    }

    #[test]
    fn speedup_lookup_matches_cycle_ratio() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let runs: Vec<_> = MachineKind::SMALL_CMP
            .iter()
            .map(|&k| run_on(k, t.insts()))
            .collect();
        let b = BenchResult {
            name: w.name,
            committed: t.len() as u64,
            runs,
            error: None,
        };
        let s = b.speedup(MachineKind::FgstpSmall, MachineKind::SingleSmall);
        let expected = b.runs[0].result.cycles as f64 / b.runs[2].result.cycles as f64;
        assert!((s - expected).abs() < 1e-12);
    }

    #[test]
    fn try_speedup_is_none_on_partial_machine_sets() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let b = BenchResult {
            name: w.name,
            committed: t.len() as u64,
            runs: vec![run_on(MachineKind::SingleSmall, t.insts())],
            error: None,
        };
        assert!(b
            .try_speedup(MachineKind::FgstpSmall, MachineKind::SingleSmall)
            .is_none());
        assert!(b
            .try_speedup(MachineKind::SingleSmall, MachineKind::FgstpSmall)
            .is_none());
        assert_eq!(
            b.try_speedup(MachineKind::SingleSmall, MachineKind::SingleSmall),
            Some(1.0)
        );
    }

    #[test]
    #[should_panic(expected = "fgstp-small not in result set")]
    fn speedup_panics_with_the_missing_machine_name() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let b = BenchResult {
            name: w.name,
            committed: t.len() as u64,
            runs: vec![run_on(MachineKind::SingleSmall, t.insts())],
            error: None,
        };
        b.speedup(MachineKind::FgstpSmall, MachineKind::SingleSmall);
    }

    #[test]
    fn instrumented_run_matches_plain_timing_and_reconciles() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        for k in [
            MachineKind::SingleSmall,
            MachineKind::FgstpSmall,
            MachineKind::FgstpSmall4,
        ] {
            let plain = run_on(k, t.insts());
            let (inst, episodes) = run_on_instrumented(k, t.insts(), true);
            assert_eq!(inst.result.cycles, plain.result.cycles, "{k}");
            assert_eq!(inst.result.committed, plain.result.committed, "{k}");
            let stack = inst.cpi.as_ref().expect("instrumented run has a stack");
            let cores = k.cores() as u64;
            stack.check_against(cores * inst.result.cycles).unwrap();
            // The episode timeline tiles the same core-cycles.
            let episode_cycles: u64 = episodes.iter().map(Episode::cycles).sum();
            assert_eq!(episode_cycles, cores * inst.result.cycles, "{k}");
        }
    }

    #[test]
    fn uninstrumented_run_has_no_stack() {
        let w = by_name("perl_hash", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        assert!(run_on(MachineKind::SingleSmall, t.insts()).cpi.is_none());
    }

    #[test]
    fn cores_override_changes_the_machine_shape() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let r = run_on_with_cores(MachineKind::FgstpSmall, t.insts(), Some(3), &mut NullSink);
        assert_eq!(r.result.cores.len(), 3);
        assert_eq!(r.result.committed, t.len() as u64);
        // The default path matches the preset's own core count.
        let d = run_on(MachineKind::FgstpSmall4, t.insts());
        assert_eq!(d.result.cores.len(), 4);
    }

    #[test]
    fn sampled_run_projects_totals_and_keeps_the_record() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        for k in [MachineKind::SingleSmall, MachineKind::FgstpSmall] {
            let full = run_on(k, t.insts());
            let r = run_on_sampled(k, t.insts(), &scfg, false);
            assert_eq!(r.result.committed, t.len() as u64, "{k}");
            let s = r.sampled.as_ref().expect("sampled record");
            assert_eq!(r.result.cycles, s.est_cycles().round() as u64, "{k}");
            assert!(s.detail_reduction() > 2.0, "{k}");
            // The projection tracks the full-detail run loosely even on a
            // short Test-scale trace (tight bounds live in the long-run
            // acceptance tests).
            let err =
                (s.est_cycles() - full.result.cycles as f64).abs() / full.result.cycles as f64;
            assert!(err < 0.5, "{k}: estimate off by {:.1}%", err * 100.0);
            assert!(r.cpi.is_none(), "{k}: uninstrumented");
        }
    }

    #[test]
    fn instrumented_sampled_run_carries_a_window_stack() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let r = run_on_sampled(MachineKind::FgstpSmall, t.insts(), &scfg, true);
        let s = r.sampled.as_ref().unwrap();
        let stack = r.cpi.as_ref().expect("instrumented sampled run");
        stack.check_against(s.detail_core_cycles).unwrap();
        assert_eq!(stack.committed, s.detailed_insts);
    }

    #[test]
    #[should_panic(expected = "--cores only applies to Fg-STP machines")]
    fn cores_override_rejects_non_fgstp_machines() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        run_on_with_cores(MachineKind::SingleSmall, t.insts(), Some(2), &mut NullSink);
    }
}
