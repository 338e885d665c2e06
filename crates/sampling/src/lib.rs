//! # fgstp-sampling
//!
//! SMARTS-style systematic interval sampling over instruction traces
//! (Wunderlich et al., ISCA 2003 — the standard methodology for the
//! trace-driven simulator class the paper uses), extended with
//! **live-points**: checkpointed, embarrassingly parallel detailed
//! windows.
//!
//! A sampled run is split into two phases:
//!
//! 1. **Planning** ([`SamplePlan::plan`]): one pass of continuous
//!    functional warming over the *entire* trace — every instruction
//!    retires through the [`fgstp_ooo::WarmState`] fast path, updating
//!    only the long-lived microarchitectural state (cache hierarchy,
//!    branch predictors) and the architectural registers. At each
//!    detailed-window boundary the warm state is serialized into the
//!    window's [`WindowJob`] (a *live-point*), so every window carries an
//!    immutable byte-for-byte copy of its pre-window machine state.
//! 2. **Execution** ([`run_plan`]): each window deserializes its own
//!    private warm state and runs `warmup + detail` instructions on the
//!    full timing machine (an [`FgstpConfig`]: one core for the single
//!    and fused baselines, N cores for Fg-STP). The first
//!    [`SampleConfig::warmup`] commits absorb the cold-pipeline ramp and
//!    their cycles are discarded; the remaining [`SampleConfig::detail`]
//!    instructions are the **measurement**.
//!
//! Because windows never share mutable state, they can run in any order
//! or concurrently — [`run_plan`] accepts a pool hook — and the merged
//! results are bit-identical to the serial walk at any pool size. The
//! serialized live-points are also exactly what the `fgstp-tracefile`
//! snapshot cache persists: a re-run of a swept config converts the
//! stored [`SnapshotData`] back into a plan with
//! [`SamplePlan::plan_replay`] and skips functional warming entirely.
//!
//! Per-interval CPIs aggregate into a point estimate with a 95%
//! confidence interval ([`Estimate`], CLT over interval means) from which
//! total-run cycles and machine speedups are projected. The whole path is
//! deterministic: systematic (not random) interval placement, no RNG, no
//! wall-clock.
//!
//! ```
//! use fgstp::FgstpConfig;
//! use fgstp_isa::trace_program;
//! use fgstp_ooo::CoreConfig;
//! use fgstp_mem::HierarchyConfig;
//! use fgstp_sampling::{run_plan, SampleConfig, SamplePlan};
//! use fgstp_telemetry::NullSink;
//! use fgstp_workloads::{by_name, Scale};
//!
//! let w = by_name("hmmer_dp", Scale::Test).unwrap();
//! let trace = trace_program(w.program(), Scale::Test.trace_budget()).unwrap();
//! let scfg = SampleConfig { interval: 2_000, warmup: 300, detail: 150 };
//! let (cfg, hcfg) = (FgstpConfig::single(CoreConfig::small()), HierarchyConfig::small(1));
//! let plan = SamplePlan::plan(trace.insts().iter().copied(), &cfg.core, &hcfg, &scfg);
//! let run = run_plan(&plan, &cfg, &hcfg, None, &mut NullSink);
//! assert!(run.detail_reduction() > 2.0);
//! assert!(run.est_cycles() > 0.0);
//! ```

pub mod stats;

use std::collections::VecDeque;

use fgstp::{run_fgstp_warm, FgstpConfig};
use fgstp_isa::DynInst;
use fgstp_mem::{HierarchyConfig, HierarchyStats};
use fgstp_ooo::{CoreConfig, WarmRun, WarmState};
use fgstp_telemetry::{CycleSink, NullSink};

pub use stats::{geomean_estimate, Estimate, Z95};

/// Sampling-regime parameters, in instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Systematic sampling period: one measurement per `interval`
    /// instructions of the trace.
    pub interval: u64,
    /// Detailed-warmup commits at the head of each timed window whose
    /// cycles are discarded (absorbs the cold ROB/issue/commq ramp).
    pub warmup: u64,
    /// Measured instructions per interval.
    pub detail: u64,
}

impl Default for SampleConfig {
    /// 10k-instruction intervals with a 600-instruction detailed warmup
    /// and a 300-instruction measurement — a ≈11× detail reduction.
    fn default() -> SampleConfig {
        SampleConfig {
            interval: 10_000,
            warmup: 600,
            detail: 300,
        }
    }
}

impl SampleConfig {
    /// Checks the regime is well-formed.
    ///
    /// # Panics
    ///
    /// Panics if `detail` is 0 or `warmup + detail` exceeds `interval`.
    pub fn validate(&self) {
        assert!(self.detail >= 1, "sampling needs a measurement window");
        assert!(
            self.warmup + self.detail <= self.interval,
            "warmup ({}) + detail ({}) must fit in one interval ({})",
            self.warmup,
            self.detail,
            self.interval
        );
    }

    /// Instructions per interval that run on the detailed machine.
    pub fn unit(&self) -> u64 {
        self.warmup + self.detail
    }
}

/// One measured interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalMeasure {
    /// Trace index of the first measured instruction.
    pub start: u64,
    /// Measured instructions.
    pub insts: u64,
    /// Cycles the measured instructions took (detailed warmup excluded).
    pub cycles: u64,
}

impl IntervalMeasure {
    /// Cycles per instruction of this interval.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.insts.max(1) as f64
    }
}

/// Placement of one detailed window, derived arithmetically from the
/// trace length and sampling regime by [`window_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Trace index of the first instruction the window simulates in
    /// detail (warmup included).
    pub start: u64,
    /// Instructions the window simulates in detail.
    pub len: u64,
    /// Leading commits whose cycles are discarded.
    pub measure_from: u64,
    /// Measured instructions (`len - measure_from`).
    pub measured: u64,
}

/// The detailed-window schedule for a trace of `total` instructions under
/// regime `scfg` — a pure function of the two, which is what lets a
/// stored snapshot be validated against a cached trace *before* either is
/// replayed.
///
/// Every `interval`-instruction chunk whose length reaches `warmup +
/// detail` contributes one window over its last `warmup + detail`
/// instructions. A trace too short for even one such window degenerates
/// to a single all-detail window with no discarded warmup, so every
/// non-empty sampled run has at least one measurement.
pub fn window_schedule(total: u64, scfg: &SampleConfig) -> Vec<WindowSpec> {
    scfg.validate();
    let unit = scfg.unit();
    let n_full = total / scfg.interval;
    let tail = total % scfg.interval;
    let mut specs = Vec::with_capacity(n_full as usize + 1);
    for k in 0..n_full {
        specs.push(WindowSpec {
            start: (k + 1) * scfg.interval - unit,
            len: unit,
            measure_from: scfg.warmup,
            measured: scfg.detail,
        });
    }
    if tail >= unit {
        specs.push(WindowSpec {
            start: total - unit,
            len: unit,
            measure_from: scfg.warmup,
            measured: scfg.detail,
        });
    } else if tail > 0 && n_full == 0 {
        specs.push(WindowSpec {
            start: 0,
            len: tail,
            measure_from: 0,
            measured: tail,
        });
    }
    specs
}

/// One detailed window, self-contained: its instructions and a serialized
/// copy of the warm state the machine enters it with (the *live-point*).
///
/// Jobs share nothing mutable, so any subset can run concurrently; the
/// results are merged back in `index` order, which keeps the aggregate
/// estimate bit-identical to a serial walk at any pool size.
#[derive(Debug, Clone)]
pub struct WindowJob {
    /// Position of this window in the systematic schedule.
    pub index: usize,
    /// Trace index of the window's first instruction (warmup included).
    pub start: u64,
    /// Leading commits whose cycles are discarded.
    pub measure_from: u64,
    /// Measured instructions.
    pub measured: u64,
    /// The window's instructions, in commit order.
    pub insts: Vec<DynInst>,
    /// Serialized pre-window [`WarmState`] ([`WarmState::save_state`]).
    pub state: Vec<u8>,
}

/// A fully planned sampled run: every detailed window as an independent
/// [`WindowJob`], plus the warm state after functionally retiring the
/// whole trace (the source of trace-wide branch and memory statistics).
#[derive(Debug, Clone)]
pub struct SamplePlan {
    /// The sampling regime the plan was built for.
    pub config: SampleConfig,
    /// Trace length in dynamic instructions.
    pub total_insts: u64,
    /// The detailed windows, in systematic order.
    pub jobs: Vec<WindowJob>,
    /// Serialized end-of-trace warm state.
    pub final_state: Vec<u8>,
    /// Instructions functionally warmed while building this plan: the
    /// whole trace when planned cold, zero when replayed from a snapshot.
    pub warmed_insts: u64,
    /// Whether this plan was replayed from a stored snapshot.
    pub snapshot_hit: bool,
}

/// The persistable live-points of a plan: exactly what the
/// `fgstp-tracefile` snapshot container stores, kept as a separate type
/// here so this crate stays independent of the on-disk format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// Trace length the snapshot was taken over.
    pub total_insts: u64,
    /// (window start, serialized pre-window warm state), in schedule
    /// order.
    pub windows: Vec<(u64, Vec<u8>)>,
    /// Serialized end-of-trace warm state.
    pub final_state: Vec<u8>,
}

impl SnapshotData {
    /// Whether the snapshot's window placement matches the schedule that
    /// (`total`, `scfg`) implies. Callers check this *before* consuming
    /// the trace, so a stale or mismatched snapshot degrades to cold
    /// planning with the trace intact.
    pub fn matches(&self, total: u64, scfg: &SampleConfig) -> bool {
        if self.total_insts != total {
            return false;
        }
        let schedule = window_schedule(total, scfg);
        self.windows.len() == schedule.len()
            && self
                .windows
                .iter()
                .zip(&schedule)
                .all(|((start, _), spec)| *start == spec.start)
    }

    /// Full validation: schedule placement plus every state payload
    /// deserializing cleanly for the machine shape (`cfg`, `hcfg`). Like
    /// [`SnapshotData::matches`] this needs no trace data, so a snapshot
    /// whose payloads are malformed (or were taken on a different machine
    /// shape) is rejected before any trace is consumed.
    pub fn validate(
        &self,
        total: u64,
        cfg: &CoreConfig,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
    ) -> bool {
        self.matches(total, scfg)
            && WarmState::from_state_bytes(cfg, hcfg, &self.final_state).is_ok()
            && self
                .windows
                .iter()
                .all(|(_, state)| WarmState::from_state_bytes(cfg, hcfg, state).is_ok())
    }
}

impl SamplePlan {
    /// Plans a sampled run by one pass of continuous functional warming:
    /// every instruction retires through the warm fast path exactly once,
    /// and the warm state is serialized into a live-point at each window
    /// boundary. Holds at most one window (`warmup + detail`
    /// instructions) of the trace in flight beyond the plan itself.
    pub fn plan(
        trace: impl IntoIterator<Item = DynInst>,
        cfg: &CoreConfig,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
    ) -> SamplePlan {
        scfg.validate();
        let unit = scfg.unit();
        let mut warm = WarmState::new(cfg, hcfg);
        let mut jobs: Vec<WindowJob> = Vec::new();
        let mut ring: VecDeque<DynInst> = VecDeque::with_capacity(unit as usize);
        let mut it = trace.into_iter();
        let mut pos = 0u64;
        let mut total = 0u64;
        loop {
            // Pull one interval; the ring delays warming of the newest
            // `unit` instructions so the live-point taken at the window
            // boundary reflects exactly the pre-window trace prefix.
            let mut len = 0u64;
            while len < scfg.interval {
                let Some(inst) = it.next() else { break };
                if ring.len() as u64 == unit {
                    let old = ring.pop_front().expect("ring is non-empty");
                    warm.retire(&old);
                }
                ring.push_back(inst);
                len += 1;
            }
            total += len;
            let end = pos + len;
            if len >= unit {
                jobs.push(WindowJob {
                    index: jobs.len(),
                    start: end - unit,
                    measure_from: scfg.warmup,
                    measured: scfg.detail,
                    insts: ring.iter().copied().collect(),
                    state: warm.save_state(),
                });
            } else if len > 0 && jobs.is_empty() {
                // Trace shorter than one window: a single all-detail
                // window from the initial state.
                jobs.push(WindowJob {
                    index: 0,
                    start: pos,
                    measure_from: 0,
                    measured: len,
                    insts: ring.iter().copied().collect(),
                    state: warm.save_state(),
                });
            }
            // Warming is continuous: the window's instructions warm too,
            // so downstream live-points see the full trace prefix.
            for old in ring.drain(..) {
                warm.retire(&old);
            }
            if len < scfg.interval {
                break;
            }
            pos = end;
        }
        SamplePlan {
            config: *scfg,
            total_insts: total,
            jobs,
            final_state: warm.save_state(),
            warmed_insts: total,
            snapshot_hit: false,
        }
    }

    /// Rebuilds a plan from a stored snapshot and the trace it was taken
    /// over, with **zero** functional warming: the trace is only decoded
    /// to recover each window's instructions.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the trace and regime —
    /// callers gate on [`SnapshotData::matches`] (or
    /// [`SnapshotData::validate`]) first, which needs only the trace
    /// *length*, not its contents.
    pub fn plan_replay(
        trace: impl IntoIterator<Item = DynInst>,
        snap: SnapshotData,
        scfg: &SampleConfig,
    ) -> SamplePlan {
        let schedule = window_schedule(snap.total_insts, scfg);
        assert!(
            snap.matches(snap.total_insts, scfg),
            "snapshot does not match the sampling schedule; check matches() first"
        );
        let mut jobs: Vec<WindowJob> = schedule
            .iter()
            .zip(snap.windows)
            .enumerate()
            .map(|(index, (spec, (start, state)))| WindowJob {
                index,
                start,
                measure_from: spec.measure_from,
                measured: spec.measured,
                insts: Vec::with_capacity(spec.len as usize),
                state,
            })
            .collect();
        let mut next = 0usize;
        let mut seen = 0u64;
        for (i, inst) in trace.into_iter().enumerate() {
            let i = i as u64;
            seen += 1;
            if next < jobs.len() {
                let (start, len) = (schedule[next].start, schedule[next].len);
                if i >= start && i < start + len {
                    jobs[next].insts.push(inst);
                    if i + 1 == start + len {
                        next += 1;
                    }
                }
            }
        }
        assert_eq!(
            seen, snap.total_insts,
            "trace length changed under a matching snapshot"
        );
        SamplePlan {
            config: *scfg,
            total_insts: snap.total_insts,
            jobs,
            final_state: snap.final_state,
            warmed_insts: 0,
            snapshot_hit: true,
        }
    }

    /// Extracts the persistable live-points of this plan.
    pub fn to_snapshot(&self) -> SnapshotData {
        SnapshotData {
            total_insts: self.total_insts,
            windows: self
                .jobs
                .iter()
                .map(|j| (j.start, j.state.clone()))
                .collect(),
            final_state: self.final_state.clone(),
        }
    }
}

/// Result of a sampled run on one machine.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// The sampling regime that produced this run.
    pub config: SampleConfig,
    /// Trace length (all of it retired, functionally or in detail).
    pub total_insts: u64,
    /// Instructions inside measurement windows.
    pub measured_insts: u64,
    /// Instructions simulated on the detailed machine (warmup + measured).
    pub detailed_insts: u64,
    /// Instructions accounted to functional warming only.
    pub functional_insts: u64,
    /// Instructions actually retired through the functional-warming fast
    /// path while building the plan: the whole trace when planned cold,
    /// zero when the live-points came from a snapshot.
    pub warmed_insts: u64,
    /// Whether the run's live-points were loaded from a stored snapshot.
    pub snapshot_hit: bool,
    /// Per-interval measurements, in trace order.
    pub intervals: Vec<IntervalMeasure>,
    /// CPI point estimate over the interval means.
    pub cpi: Estimate,
    /// Aggregate core-cycles spent in detailed windows (machine cycles ×
    /// cores, warmup included) — the total a telemetry CPI stack must
    /// reconcile against.
    pub detail_core_cycles: u64,
    /// (branches, mispredicts) over the whole trace: every control
    /// instruction is predicted exactly once by functional warming.
    pub branches: (u64, u64),
    /// Cache-hierarchy statistics over the whole trace (functional
    /// warming traffic).
    pub mem: HierarchyStats,
}

impl SampledRun {
    /// Projected cycles for the full trace: `mean CPI × total
    /// instructions`.
    pub fn est_cycles(&self) -> f64 {
        self.cpi.mean * self.total_insts as f64
    }

    /// 95% CI half-width of the projected cycles.
    pub fn est_cycles_ci95_half(&self) -> f64 {
        self.cpi.ci95_half * self.total_insts as f64
    }

    /// Reduction factor in detail-simulated instructions versus a
    /// full-detail run (≥ 1).
    pub fn detail_reduction(&self) -> f64 {
        if self.detailed_insts == 0 {
            1.0
        } else {
            self.total_insts as f64 / self.detailed_insts as f64
        }
    }

    /// Point estimate of this machine's speedup over `baseline` (ratio of
    /// projected cycles).
    pub fn est_speedup_over(&self, baseline: &SampledRun) -> f64 {
        baseline.est_cycles() / self.est_cycles().max(f64::MIN_POSITIVE)
    }

    /// Paired per-interval speedup estimate over `baseline` with a 95% CI:
    /// both runs must have sampled the same trace with the same regime, so
    /// interval k of one pairs with interval k of the other.
    ///
    /// # Panics
    ///
    /// Panics if the interval schedules do not match.
    pub fn speedup_over(&self, baseline: &SampledRun) -> Estimate {
        assert_eq!(self.total_insts, baseline.total_insts, "same trace");
        assert_eq!(
            self.intervals.len(),
            baseline.intervals.len(),
            "same sampling schedule"
        );
        let ratios: Vec<f64> = baseline
            .intervals
            .iter()
            .zip(&self.intervals)
            .map(|(b, s)| {
                assert_eq!(b.start, s.start, "same sampling schedule");
                b.cycles as f64 / s.cycles.max(1) as f64
            })
            .collect();
        Estimate::from_samples(&ratios)
    }
}

/// Runs one window of a plan on a private deserialized copy of its
/// live-point. Pure: no shared state is touched, so any number of windows
/// may run concurrently.
///
/// # Panics
///
/// Panics if the live-point does not deserialize for this machine shape —
/// impossible for plan-produced jobs, and snapshot-replayed jobs are
/// validated up front by [`SnapshotData::validate`].
fn run_window<S: CycleSink>(
    job: &WindowJob,
    cfg: &FgstpConfig,
    hcfg: &HierarchyConfig,
    sink: &mut S,
) -> WarmRun {
    let mut warm = WarmState::from_state_bytes(&cfg.core, hcfg, &job.state)
        .expect("live-point matches the plan's machine shape");
    run_fgstp_warm(&job.insts, cfg, &mut warm, job.measure_from, sink).0
}

/// A pure per-window runner, handed to a [`WindowPool`].
pub type WindowExec<'a> = &'a (dyn Fn(&WindowJob) -> WarmRun + Sync);

/// A window-dispatch hook: executes each pure [`WindowJob`] through the
/// provided [`WindowExec`] — possibly concurrently — and returns one
/// [`WarmRun`] per job **in job order**. Because the runner is pure, every
/// implementation that preserves order is bit-identical.
pub type WindowPool<'a> = &'a (dyn Fn(&[WindowJob], WindowExec) -> Vec<WarmRun> + Sync);

/// Executes a plan's detailed windows on the machine `cfg` over
/// hierarchies shaped by `hcfg`, and merges them into a [`SampledRun`] in
/// schedule order.
///
/// An enabled `sink` (e.g. a CPI sink, whose stacks then cover every
/// detailed window, warmup cycles included) is shared, so the windows run
/// serially through it. Otherwise `pool` dispatches them — the session
/// passes its worker pool — and `None` runs them serially. The windows are
/// pure either way, so every pool size and every sink yields bit-identical
/// results.
///
/// # Panics
///
/// Panics if `hcfg` does not describe `cfg`'s cores.
pub fn run_plan<S: CycleSink>(
    plan: &SamplePlan,
    cfg: &FgstpConfig,
    hcfg: &HierarchyConfig,
    pool: Option<WindowPool>,
    sink: &mut S,
) -> SampledRun {
    let results: Vec<WarmRun> = if S::ENABLED {
        plan.jobs
            .iter()
            .map(|job| run_window(job, cfg, hcfg, sink))
            .collect()
    } else {
        let run = |job: &WindowJob| run_window(job, cfg, hcfg, &mut NullSink);
        match pool {
            Some(pool) => pool(&plan.jobs, &run),
            None => plan.jobs.iter().map(run).collect(),
        }
    };
    assert_eq!(results.len(), plan.jobs.len(), "one result per window");
    let cores = cfg.num_cores as u64;
    let mut intervals = Vec::with_capacity(plan.jobs.len());
    let mut measured_insts = 0u64;
    let mut detailed_insts = 0u64;
    let mut detail_core_cycles = 0u64;
    for (job, wr) in plan.jobs.iter().zip(&results) {
        intervals.push(IntervalMeasure {
            start: job.start + job.measure_from,
            insts: job.measured,
            cycles: wr.measured_cycles(),
        });
        measured_insts += job.measured;
        detailed_insts += job.insts.len() as u64;
        detail_core_cycles += wr.result.cycles * cores;
    }
    let final_warm = WarmState::from_state_bytes(&cfg.core, hcfg, &plan.final_state)
        .expect("final state matches the plan's machine shape");
    let cpis: Vec<f64> = intervals.iter().map(IntervalMeasure::cpi).collect();
    SampledRun {
        config: plan.config,
        total_insts: plan.total_insts,
        measured_insts,
        detailed_insts,
        functional_insts: plan.total_insts - detailed_insts,
        warmed_insts: plan.warmed_insts,
        snapshot_hit: plan.snapshot_hit,
        intervals,
        cpi: Estimate::from_samples(&cpis),
        detail_core_cycles,
        branches: (final_warm.pred.branches, final_warm.pred.mispredicts),
        mem: final_warm.mem.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp::run_fgstp;
    use fgstp_isa::{assemble, trace_program, Trace};
    use fgstp_telemetry::CpiSink;

    fn loop_trace(iters: u64) -> Trace {
        let src = format!(
            r#"
                li x1, 0x8000
                li x9, {iters}
            loop:
                ld   x4, 0(x1)
                add  x3, x3, x4
                sd   x3, 8(x1)
                addi x1, x1, 16
                addi x9, x9, -1
                bne  x9, x0, loop
                halt
            "#
        );
        let p = assemble(&src).unwrap();
        trace_program(&p, 1_000_000).unwrap()
    }

    fn scfg() -> SampleConfig {
        SampleConfig {
            interval: 1_000,
            warmup: 200,
            detail: 100,
        }
    }

    /// Plans and runs a sampled run of `t` on `cfg`, through `sink`.
    fn sample_with<S: CycleSink>(
        t: &Trace,
        cfg: &FgstpConfig,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
        sink: &mut S,
    ) -> SampledRun {
        let plan = SamplePlan::plan(t.insts().iter().copied(), &cfg.core, hcfg, scfg);
        run_plan(&plan, cfg, hcfg, None, sink)
    }

    /// One small core running alone.
    fn single_small() -> FgstpConfig {
        FgstpConfig::single(CoreConfig::small())
    }

    fn sample_small(t: &Trace, scfg: &SampleConfig) -> SampledRun {
        let hcfg = HierarchyConfig::small(1);
        sample_with(t, &single_small(), &hcfg, scfg, &mut NullSink)
    }

    /// A full-detail run of `t` on one small core.
    fn full_small(t: &Trace) -> fgstp_ooo::RunResult {
        run_fgstp(t.insts(), &single_small(), &HierarchyConfig::small(1)).0
    }

    fn plan_single(t: &Trace) -> SamplePlan {
        let (cfg, hcfg) = (CoreConfig::small(), HierarchyConfig::small(1));
        SamplePlan::plan(t.insts().iter().copied(), &cfg, &hcfg, &scfg())
    }

    fn fingerprint(r: &SampledRun) -> String {
        format!(
            "{:?}|{:?}|{}|{}|{}|{}|{:?}|{:?}",
            r.intervals,
            r.cpi,
            r.measured_insts,
            r.detailed_insts,
            r.functional_insts,
            r.detail_core_cycles,
            r.branches,
            r.mem
        )
    }

    #[test]
    fn every_instruction_is_accounted_exactly_once() {
        let t = loop_trace(2_000);
        let r = sample_small(&t, &scfg());
        assert_eq!(r.total_insts, t.len() as u64);
        assert_eq!(r.functional_insts + r.detailed_insts, r.total_insts);
        assert_eq!(r.intervals.len(), (t.len() as u64 / 1_000) as usize);
        assert!(r.detail_reduction() > 2.0);
        assert_eq!(r.warmed_insts, r.total_insts, "cold plan warms everything");
        assert!(!r.snapshot_hit);
    }

    #[test]
    fn sampled_estimate_tracks_the_full_run_on_a_steady_loop() {
        let t = loop_trace(2_000);
        let full = full_small(&t);
        let r = sample_small(&t, &scfg());
        let err = (r.est_cycles() - full.cycles as f64).abs() / full.cycles as f64;
        assert!(err < 0.05, "estimate off by {:.2}% ", err * 100.0);
        assert!(r.cpi.cov < 0.5, "steady loop, cov {}", r.cpi.cov);
    }

    #[test]
    fn short_trace_degenerates_to_full_detail() {
        let t = loop_trace(10);
        let full = full_small(&t);
        let r = sample_small(&t, &SampleConfig::default());
        assert_eq!(r.intervals.len(), 1);
        assert_eq!(r.detailed_insts, r.total_insts);
        assert_eq!(r.est_cycles(), full.cycles as f64);
        assert_eq!(r.cpi.ci95_half, 0.0, "single interval: degenerate CI");
    }

    #[test]
    fn branch_totals_cover_the_whole_trace() {
        let t = loop_trace(2_000);
        let full = full_small(&t);
        let r = sample_small(&t, &scfg());
        assert_eq!(r.branches.0, full.branches.0, "every branch predicted once");
    }

    #[test]
    fn instrumented_stack_reconciles_with_detailed_cycles() {
        let t = loop_trace(2_000);
        let hcfg = HierarchyConfig::small(1);
        let mut sink = CpiSink::new(1);
        let r = sample_with(&t, &single_small(), &hcfg, &scfg(), &mut sink);
        let stack = sink.merged();
        stack.check_against(r.detail_core_cycles).unwrap();
        assert_eq!(stack.committed, r.detailed_insts);
    }

    #[test]
    fn instrumented_cycles_match_the_uninstrumented_path() {
        let t = loop_trace(2_000);
        for (cfg, hcfg) in [
            (single_small(), HierarchyConfig::small(1)),
            (FgstpConfig::small(), HierarchyConfig::small(2)),
        ] {
            let n = cfg.num_cores;
            let plain = sample_with(&t, &cfg, &hcfg, &scfg(), &mut NullSink);
            let mut sink = CpiSink::new(n);
            let inst = sample_with(&t, &cfg, &hcfg, &scfg(), &mut sink);
            assert_eq!(inst.intervals, plain.intervals, "{n} cores");
            assert_eq!(
                inst.detail_core_cycles, plain.detail_core_cycles,
                "{n} cores"
            );
        }
    }

    #[test]
    fn fgstp_sampling_completes_and_reconciles() {
        let t = loop_trace(2_000);
        let cfg = FgstpConfig::small();
        let hcfg = HierarchyConfig::small(2);
        let mut sink = CpiSink::new(2);
        let r = sample_with(&t, &cfg, &hcfg, &scfg(), &mut sink);
        assert_eq!(r.total_insts, t.len() as u64);
        assert!(r.est_cycles() > 0.0);
        sink.merged().check_against(r.detail_core_cycles).unwrap();
    }

    #[test]
    fn paired_speedup_uses_matching_schedules() {
        let t = loop_trace(2_000);
        let single = sample_small(&t, &scfg());
        let fcfg = FgstpConfig::small();
        let hcfg = HierarchyConfig::small(2);
        let fg = sample_with(&t, &fcfg, &hcfg, &scfg(), &mut NullSink);
        let paired = fg.speedup_over(&single);
        let point = fg.est_speedup_over(&single);
        assert!(paired.mean > 0.0);
        assert!(point > 0.0);
        assert!(
            (paired.mean - point).abs() / point < 0.25,
            "paired {} vs point {}",
            paired.mean,
            point
        );
    }

    #[test]
    fn window_schedule_matches_the_planner() {
        assert!(window_schedule(0, &scfg()).is_empty(), "empty trace");
        for iters in [2_000u64, 137, 60, 3] {
            let t = loop_trace(iters);
            let plan = plan_single(&t);
            let schedule = window_schedule(t.len() as u64, &scfg());
            assert_eq!(plan.jobs.len(), schedule.len(), "iters {iters}");
            for (job, spec) in plan.jobs.iter().zip(&schedule) {
                assert_eq!(job.start, spec.start);
                assert_eq!(job.insts.len() as u64, spec.len);
                assert_eq!(job.measure_from, spec.measure_from);
                assert_eq!(job.measured, spec.measured);
            }
        }
    }

    #[test]
    fn snapshot_replay_is_bit_identical_with_zero_warming() {
        for iters in [2_000u64, 137, 3] {
            let t = loop_trace(iters);
            let cfg = CoreConfig::small();
            let hcfg = HierarchyConfig::small(1);
            let cold_plan = plan_single(&t);
            let snap = cold_plan.to_snapshot();
            assert!(snap.matches(t.len() as u64, &scfg()));
            assert!(snap.validate(t.len() as u64, &cfg, &hcfg, &scfg()));
            assert!(!snap.matches(t.len() as u64 + 1, &scfg()));
            let warm_plan = SamplePlan::plan_replay(t.insts().iter().copied(), snap, &scfg());
            assert_eq!(warm_plan.warmed_insts, 0, "replay does no warming");
            assert!(warm_plan.snapshot_hit);
            let one = single_small();
            let cold = run_plan(&cold_plan, &one, &hcfg, None, &mut NullSink);
            let warm = run_plan(&warm_plan, &one, &hcfg, None, &mut NullSink);
            assert_eq!(fingerprint(&warm), fingerprint(&cold), "iters {iters}");
            assert_eq!(warm.est_cycles(), cold.est_cycles());
        }
    }

    #[test]
    fn stale_snapshots_are_rejected_by_matches() {
        let t = loop_trace(500);
        let cfg = CoreConfig::small();
        let snap = plan_single(&t).to_snapshot();
        let total = t.len() as u64;
        // Wrong trace length.
        assert!(!snap.matches(total + 1, &scfg()));
        // Wrong regime (different window placement).
        let other = SampleConfig {
            interval: 500,
            warmup: 100,
            detail: 50,
        };
        assert!(!snap.matches(total, &other));
        // Wrong machine shape fails payload validation.
        assert!(!snap.validate(total, &cfg, &HierarchyConfig::small(2), &scfg()));
    }

    #[test]
    fn out_of_order_execution_merges_identically() {
        let t = loop_trace(2_000);
        let hcfg = HierarchyConfig::small(1);
        let one = single_small();
        let plan = plan_single(&t);
        let serial = run_plan(&plan, &one, &hcfg, None, &mut NullSink);
        // Run windows back to front, then restore job order — simulating
        // an arbitrary pool completion order.
        let reversed = |jobs: &[WindowJob], run: WindowExec| {
            let mut out: Vec<(usize, WarmRun)> =
                jobs.iter().rev().map(|j| (j.index, run(j))).collect();
            out.sort_by_key(|(i, _)| *i);
            out.into_iter().map(|(_, wr)| wr).collect()
        };
        let shuffled = run_plan(&plan, &one, &hcfg, Some(&reversed), &mut NullSink);
        assert_eq!(fingerprint(&shuffled), fingerprint(&serial));
    }

    #[test]
    fn empty_trace_is_a_zero_run() {
        let r = sample_small(&Trace::from_insts(Vec::new()), &SampleConfig::default());
        assert_eq!(r.total_insts, 0);
        assert!(r.intervals.is_empty());
        assert_eq!(r.est_cycles(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn oversized_window_is_rejected() {
        SampleConfig {
            interval: 100,
            warmup: 80,
            detail: 40,
        }
        .validate();
    }
}
