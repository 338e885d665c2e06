//! The session driver: the primary API for running the evaluation.
//!
//! A [`Session`] owns everything the free-function driver used to do
//! implicitly — workload tracing, the on-disk live-point cache, and a
//! fixed-size worker pool — behind explicit builder knobs:
//!
//! ```no_run
//! use fgstp_sim::{MachineKind, Scale, Session};
//!
//! let session = Session::new()
//!     .scale(Scale::Small)
//!     .machines(MachineKind::SMALL_CMP)
//!     .threads(8);
//! for bench in session.run_suite() {
//!     println!("{}: {:.3}x", bench.name, bench.speedup(
//!         MachineKind::FgstpSmall, MachineKind::SingleSmall));
//! }
//! ```
//!
//! # Parallelism
//!
//! Every (workload, machine) pair is an independent job: the session
//! traces each workload once (in parallel across workloads), then fans the
//! job matrix out over `threads(n)` `std::thread` workers (default
//! [`std::thread::available_parallelism`]). Results always come back in
//! deterministic request order, and every statistic is bit-identical to a
//! `threads(1)` run — the simulators themselves are single-threaded and
//! deterministic, the pool only schedules them.
//!
//! # Live-point cache
//!
//! Traces are never stored: the threaded interpreter regenerates a trace
//! faster than a file of one could be read back, so every run traces its
//! workloads afresh. What the session does persist is the functional
//! warming of sampled runs: live-points go to an on-disk
//! [`fgstp_tracefile::TraceCache`] at `target/trace-cache/` (honouring
//! `CARGO_TARGET_DIR`), keyed by workload, scale, machine, sampling regime
//! and warm-machine shape; corrupt or stale files are detected by
//! checksum/version and silently fall back to re-warming. Opt out with
//! [`Session::no_cache`] or redirect with [`Session::cache_dir`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fgstp_isa::{DynInst, Trace};
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::CoreConfig;
use fgstp_sampling::{SampleConfig, SamplePlan, SnapshotData, WindowExec, WindowJob};
use fgstp_telemetry::NullSink;
use fgstp_tracefile::{fnv1a, SnapshotFile, TraceCache};
use fgstp_workloads::{suite, Scale, Workload};

use crate::presets::MachineKind;
use crate::runner::{
    corun_warm_shape, run_on_corun, run_on_instrumented_with_cores,
    run_on_sampled_corun_isolated_plans, run_on_sampled_plan, run_on_with_cores,
    try_trace_workload, warm_shape, BenchResult, MachineRun,
};
use crate::spec::{scale_word, CoRunSpec};
use fgstp_workloads::by_name;

/// Trace counters of one [`Session`], kept only for the end-to-end
/// benchmark until it reads host-time spans instead: every trace is
/// generated, so every trace counts as a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Always 0: traces are never stored.
    pub hits: u64,
    /// Traces generated by functional simulation.
    pub misses: u64,
}

/// Live-point snapshot counters of one [`Session`] (sampled runs only);
/// see [`Session::snapshot_stats`]. The canonical metric names for these
/// are in [`fgstp_telemetry::names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Sampled runs replayed from a stored snapshot — functional warming
    /// skipped entirely.
    pub hits: u64,
    /// Sampled runs that warmed cold (no usable snapshot; one is stored
    /// for next time).
    pub misses: u64,
    /// Instructions retired through the functional-warming fast path
    /// across all sampled runs. Zero across a fully snapshot-warm rerun.
    pub warmed_insts: u64,
}

#[derive(Debug, Default)]
struct Counters {
    traces: AtomicU64,
    snapshot_hits: AtomicU64,
    snapshot_misses: AtomicU64,
    warmed_insts: AtomicU64,
}

/// The default cache root: `<target dir>/trace-cache`.
fn default_cache_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("trace-cache")
}

/// A configured simulation driver; see the [module docs](self) for the
/// full picture.
#[derive(Debug, Clone)]
pub struct Session {
    threads: usize,
    scale: Scale,
    machines: Vec<MachineKind>,
    workloads: Option<Vec<String>>,
    cores: Option<usize>,
    cache: Option<TraceCache>,
    counters: Arc<Counters>,
    telemetry: bool,
    sample: Option<SampleConfig>,
    corun: Option<CoRunSpec>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session with the default knobs: all available cores, the
    /// experiment-harness default [`Scale::Small`], the small-CMP machine
    /// set, and the live-point cache at `target/trace-cache/`.
    pub fn new() -> Session {
        Session {
            threads: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            scale: Scale::Small,
            machines: MachineKind::SMALL_CMP.to_vec(),
            workloads: None,
            cores: None,
            cache: Some(TraceCache::new(default_cache_dir())),
            counters: Arc::new(Counters::default()),
            telemetry: false,
            sample: None,
            corun: None,
        }
    }

    /// Sets the worker-pool size (clamped to at least 1). `threads(1)`
    /// runs every job on the calling thread, in request order.
    pub fn threads(mut self, n: usize) -> Session {
        self.threads = n.max(1);
        self
    }

    /// Sets the workload scale.
    pub fn scale(mut self, scale: Scale) -> Session {
        self.scale = scale;
        self
    }

    /// Sets the machine set runs execute on, in the given request order.
    pub fn machines(mut self, kinds: impl IntoIterator<Item = MachineKind>) -> Session {
        self.machines = kinds.into_iter().collect();
        self
    }

    /// Restricts the session to the named workloads: [`Session::plan`],
    /// [`Session::run_suite`], [`Session::suite_traces`] and
    /// [`Session::map_suite`] then cover only these names, in suite
    /// order. Names not in the suite are silently absent (validate
    /// upstream with [`crate::ExperimentSpec::validate`]).
    pub fn workloads(mut self, names: impl IntoIterator<Item = String>) -> Session {
        self.workloads = Some(names.into_iter().collect());
        self
    }

    /// Overrides the Fg-STP core count for every run (the `--cores`
    /// flag and the E13 scaling sweep).
    ///
    /// # Panics
    ///
    /// Runs panic if the machine set contains a non-Fg-STP preset (those
    /// machines have a fixed shape) or if sampling is enabled — the
    /// sampler has no core override. [`crate::ExperimentSpec::validate`]
    /// rejects both combinations before a session is built.
    pub fn cores(mut self, n: usize) -> Session {
        self.cores = Some(n);
        self
    }

    /// The suite at the session scale, narrowed to the session's
    /// workload filter (see [`Session::workloads`]). Filter names from
    /// outside the main suite (`*_long`, `rv:*`) resolve through
    /// [`fgstp_workloads::by_name`] and follow the suite members, in
    /// filter order.
    fn filtered_suite(&self) -> Vec<Workload> {
        let mut all = suite(self.scale);
        if let Some(names) = &self.workloads {
            all.retain(|w| names.iter().any(|n| n == w.name));
            for n in names {
                if !all.iter().any(|w| w.name == n) {
                    if let Some(w) = fgstp_workloads::by_name(n, self.scale) {
                        all.push(w);
                    }
                }
            }
        }
        all
    }

    /// Redirects the live-point cache to `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Session {
        self.cache = Some(TraceCache::new(dir));
        self
    }

    /// Disables the live-point cache: sampled runs neither load nor
    /// store live-points, so every one warms from its trace. Estimates
    /// are bit-identical either way — the cache only changes where the
    /// warm state comes from.
    pub fn no_cache(mut self) -> Session {
        self.cache = None;
        self
    }

    /// Enables per-cycle stall accounting: every run carries its merged
    /// CPI stack in [`crate::MachineRun::cpi`], ready for
    /// [`crate::cpi_stack_table`]. Timing results are bit-identical with
    /// the toggle on or off; only the observability differs.
    pub fn telemetry(mut self, on: bool) -> Session {
        self.telemetry = on;
        self
    }

    /// Switches every run to SMARTS-style sampled simulation with the
    /// given regime (see [`fgstp_sampling`]): functional warming between
    /// periodic detailed windows, results carrying projected cycle totals
    /// plus the interval record in [`crate::MachineRun::sampled`].
    /// Composes with [`Session::telemetry`] — the merged CPI stack then
    /// covers the detailed windows only.
    ///
    /// # Panics
    ///
    /// Runs panic if `cfg` is malformed (see
    /// [`fgstp_sampling::SampleConfig::validate`]).
    pub fn sample(mut self, cfg: SampleConfig) -> Session {
        self.sample = Some(cfg);
        self
    }

    /// Switches the session to a multi-program co-run: instead of the
    /// (workload × machine) matrix, [`Session::run_suite`] places the
    /// co-run's programs on disjoint core ranges of one machine (the
    /// session's single Fg-STP preset) and returns one [`BenchResult`]
    /// per program, in plan order. A co-run is always one job: the worker
    /// pool never changes its numbers.
    ///
    /// # Panics
    ///
    /// Runs panic if the machine set is not exactly one Fg-STP preset or
    /// a workload is unknown — [`crate::ExperimentSpec::validate`]
    /// rejects both upstream.
    pub fn corun(mut self, c: CoRunSpec) -> Session {
        self.corun = Some(c);
        self
    }

    /// Traces generated since this session was created, all counted as
    /// misses (see [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: 0,
            misses: self.counters.traces.load(Ordering::Relaxed),
        }
    }

    /// Live-point snapshot hits, misses and warmed instructions since
    /// this session was created (sampled runs only — zero otherwise).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            hits: self.counters.snapshot_hits.load(Ordering::Relaxed),
            misses: self.counters.snapshot_misses.load(Ordering::Relaxed),
            warmed_insts: self.counters.warmed_insts.load(Ordering::Relaxed),
        }
    }

    /// The snapshot-cache key of one sampled run: the workload key, the
    /// machine label, the sampling regime, and an FNV-1a fingerprint of
    /// the functional-warming shape (core + hierarchy configuration). Any
    /// change to the preset's warm shape re-keys its snapshots, so a
    /// stale live-point can never replay on the wrong machine;
    /// [`fgstp_tracefile::SNAPSHOT_VERSION`] is appended by the cache
    /// itself.
    fn snapshot_key(
        &self,
        w: &Workload,
        kind: MachineKind,
        ccfg: &CoreConfig,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
    ) -> String {
        let shape = fnv1a(format!("{ccfg:?}|{hcfg:?}").as_bytes());
        format!(
            "{}-{}-i{}w{}d{}-{shape:016x}",
            self.trace_key(w),
            kind.label(),
            scfg.interval,
            scfg.warmup,
            scfg.detail
        )
    }

    /// Plans one sampled run, preferring a stored live-point snapshot:
    /// a valid snapshot replays with zero functional warming; anything
    /// else (missing, corrupt, stale schedule, wrong machine shape)
    /// silently degrades to cold planning, which then stores a fresh
    /// snapshot for next time. The session's snapshot counters record
    /// which path ran.
    fn sampled_plan(
        &self,
        w: &Workload,
        insts: &[DynInst],
        kind: MachineKind,
        ccfg: &CoreConfig,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
    ) -> SamplePlan {
        let total = insts.len() as u64;
        let cached = (self.cache.as_ref())
            .map(|cache| (cache, self.snapshot_key(w, kind, ccfg, hcfg, scfg)));
        if let Some((cache, key)) = &cached {
            if let Some(file) = cache.load_snapshot(key) {
                let snap = SnapshotData {
                    total_insts: file.total_insts,
                    windows: file.windows,
                    final_state: file.final_state,
                };
                // Full validation needs no trace data, so a bad snapshot
                // is rejected before anything is consumed.
                if snap.validate(total, ccfg, hcfg, scfg) {
                    self.counters.snapshot_hits.fetch_add(1, Ordering::Relaxed);
                    return SamplePlan::plan_replay(insts.iter().copied(), snap, scfg);
                }
            }
            self.counters
                .snapshot_misses
                .fetch_add(1, Ordering::Relaxed);
        }
        let plan = SamplePlan::plan(insts.iter().copied(), ccfg, hcfg, scfg);
        self.counters
            .warmed_insts
            .fetch_add(plan.warmed_insts, Ordering::Relaxed);
        if let Some((cache, key)) = &cached {
            let s = plan.to_snapshot();
            // A failed store only costs the next run a re-warm.
            let _ = cache.store_snapshot(
                key,
                &SnapshotFile {
                    total_insts: s.total_insts,
                    windows: s.windows,
                    final_state: s.final_state,
                },
            );
        }
        plan
    }

    /// Traces one workload at the session scale.
    ///
    /// # Panics
    ///
    /// Panics if tracing fails — use [`Session::try_trace`] when a failure
    /// should not take down the caller.
    pub fn trace(&self, w: &Workload) -> Trace {
        self.try_trace(w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Session::trace`], but reports tracing failures (budget
    /// exhaustion, a kernel fault) as an error instead of panicking.
    pub fn try_trace(&self, w: &Workload) -> Result<Trace, String> {
        self.counters.traces.fetch_add(1, Ordering::Relaxed);
        try_trace_workload(w, self.scale)
    }

    /// The workload part of a live-point key: the workload at the session
    /// scale. The key leads with the frontend — `syn` for SimRISC kernels,
    /// `rv` plus the translation version for RV32 programs — so
    /// live-points warmed from different frontends (or different
    /// translation schemes) can never collide in the cache directory.
    fn trace_key(&self, w: &Workload) -> String {
        match w.frontend() {
            "rv" => format!(
                "rv{}-{}-{}",
                fgstp_rv::TRANSLATION_VERSION,
                w.name.replace(':', "_"),
                scale_word(self.scale)
            ),
            _ => format!("syn-{}-{}", w.name, scale_word(self.scale)),
        }
    }

    /// Traces the (possibly filtered) suite in parallel, in suite order.
    pub fn suite_traces(&self) -> Vec<(Workload, Trace)> {
        let workloads = self.filtered_suite();
        let traces = self.par_map(&workloads, |w| self.trace(w));
        workloads.into_iter().zip(traces).collect()
    }

    /// A run plan over the (possibly filtered) suite and the session's
    /// machine set.
    pub fn plan(&self) -> RunPlan<'_> {
        RunPlan {
            session: self,
            workloads: self.filtered_suite(),
            machines: self.machines.clone(),
        }
    }

    /// Runs the whole suite on the session's machine set — or, when
    /// [`Session::corun`] is set, the co-run scenario (one result per
    /// program).
    pub fn run_suite(&self) -> Vec<BenchResult> {
        if let Some(c) = &self.corun {
            return self.run_corun(c);
        }
        self.plan().execute()
    }

    /// Executes a co-run: traces every program's workload (in parallel),
    /// then runs the whole scenario as one deterministic job on the
    /// single Fg-STP machine of the session.
    fn run_corun(&self, c: &CoRunSpec) -> Vec<BenchResult> {
        assert_eq!(
            self.machines.len(),
            1,
            "a co-run uses exactly one machine preset"
        );
        let kind = self.machines[0];
        let workloads: Vec<Workload> = c
            .programs
            .iter()
            .map(|p| {
                by_name(&p.workload, self.scale)
                    .unwrap_or_else(|| panic!("unknown co-run workload `{}`", p.workload))
            })
            .collect();
        let traces = self.par_map(&workloads, |w| self.trace(w));
        let cores: Vec<usize> = c.programs.iter().map(|p| p.cores).collect();
        if let Some(scfg) = &self.sample {
            // Only an isolated co-run can be sampled: each program has a
            // private hierarchy, so it samples independently on its own
            // core slice. Shared-hierarchy contention couples the
            // programs' timing — there is no per-program schedule.
            assert!(
                c.isolated,
                "a shared-hierarchy co-run cannot be sampled; add --corun-isolated"
            );
            let idx: Vec<usize> = (0..workloads.len()).collect();
            let plans = self.par_map(&idx, |&i| {
                let (ccfg, hcfg) = corun_warm_shape(kind, cores[i]);
                self.sampled_plan(&workloads[i], traces[i].insts(), kind, &ccfg, &hcfg, scfg)
            });
            let pool = |jobs: &[WindowJob], run: WindowExec| self.par_map(jobs, |j| run(j));
            return run_on_sampled_corun_isolated_plans(
                kind,
                &workloads,
                plans,
                &cores,
                Some(&pool),
            );
        }
        run_on_corun(kind, &workloads, &traces, &cores, c.isolated)
    }

    /// Runs one workload on the session's machine set.
    pub fn run_workload(&self, w: &Workload) -> BenchResult {
        let mut results = RunPlan {
            session: self,
            workloads: vec![w.clone()],
            machines: self.machines.clone(),
        }
        .execute();
        results.pop().expect("one workload yields one result")
    }

    /// Applies `f` to every (workload, trace) of the suite on the worker
    /// pool, returning results in suite order. This is the escape hatch
    /// for custom sweeps (config ablations, sensitivity grids) that need
    /// more than the preset machines.
    pub fn map_suite<T: Send>(&self, f: impl Fn(&Workload, &Trace) -> T + Sync) -> Vec<T> {
        let traced = self.suite_traces();
        self.par_map(&traced, |(w, t)| f(w, t))
    }

    /// Runs `f` over `items` on the session's worker pool, returning
    /// results in input order. Panics in `f` propagate to the caller.
    pub fn par_map<I: Sync, T: Send>(&self, items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
        parallel_map(self.threads, items, f)
    }
}

/// A (workload × machine) job matrix bound to a [`Session`].
///
/// Narrow the axes with [`workloads`](RunPlan::workloads) /
/// [`machines`](RunPlan::machines), then [`execute`](RunPlan::execute).
#[derive(Debug, Clone)]
pub struct RunPlan<'s> {
    session: &'s Session,
    workloads: Vec<Workload>,
    machines: Vec<MachineKind>,
}

impl RunPlan<'_> {
    /// Replaces the workload axis.
    pub fn workloads(mut self, ws: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads = ws.into_iter().collect();
        self
    }

    /// Keeps only the named workloads, in suite order.
    pub fn workload_names(mut self, names: &[&str]) -> Self {
        self.workloads.retain(|w| names.contains(&w.name));
        self
    }

    /// Replaces the machine axis.
    pub fn machines(mut self, kinds: impl IntoIterator<Item = MachineKind>) -> Self {
        self.machines = kinds.into_iter().collect();
        self
    }

    /// Executes the matrix on the session's worker pool: each workload is
    /// traced once, every (workload, machine) pair runs as an independent
    /// job, and results come back grouped per workload in request order —
    /// bit-identical for any pool size.
    ///
    /// A workload whose trace fails yields a [`BenchResult`] with no runs
    /// and [`BenchResult::error`] set, rather than aborting the whole
    /// matrix.
    pub fn execute(&self) -> Vec<BenchResult> {
        let traces = self
            .session
            .par_map(&self.workloads, |w| self.session.try_trace(w));
        // Jobs exist only for workloads that traced; failures surface as
        // run-less results below.
        let jobs: Vec<(usize, MachineKind)> = traces
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ok())
            .flat_map(|(wi, _)| self.machines.iter().map(move |&k| (wi, k)))
            .collect();
        let telemetry = self.session.telemetry;
        let sample = self.session.sample;
        let cores = self.session.cores;
        assert!(
            sample.is_none() || cores.is_none(),
            "the sampler has no core override; set one or the other"
        );
        let runs: Vec<MachineRun> = if let Some(scfg) = &sample {
            // Sampled jobs run in two phases. Planning — one pass of
            // functional warming per job, or a zero-warming snapshot
            // replay — fans out across jobs. Execution then dispatches
            // every plan's pure detailed windows over the same worker
            // pool; results merge in systematic-interval order either
            // way, so estimates are bit-identical at any pool size (and
            // cold vs. snapshot-warm, since both paths run windows from
            // the identical serialized state).
            let plans = self.session.par_map(&jobs, |&(wi, kind)| {
                let t = traces[wi].as_ref().expect("jobs cover traced workloads");
                let (ccfg, hcfg) = warm_shape(kind);
                self.session
                    .sampled_plan(&self.workloads[wi], t.insts(), kind, &ccfg, &hcfg, scfg)
            });
            let pool = |jobs: &[WindowJob], run: WindowExec| self.session.par_map(jobs, |j| run(j));
            jobs.iter()
                .zip(&plans)
                .map(|(&(_, kind), plan)| run_on_sampled_plan(kind, plan, telemetry, Some(&pool)))
                .collect()
        } else {
            self.session.par_map(&jobs, |&(wi, kind)| {
                let t = traces[wi].as_ref().expect("jobs cover traced workloads");
                if telemetry {
                    run_on_instrumented_with_cores(kind, t.insts(), false, cores).0
                } else {
                    run_on_with_cores(kind, t.insts(), cores, &mut NullSink)
                }
            })
        };
        let mut runs = runs.into_iter();
        self.workloads
            .iter()
            .zip(&traces)
            .map(|(w, t)| match t {
                Ok(t) => BenchResult {
                    name: w.name,
                    committed: t.len() as u64,
                    runs: (&mut runs).take(self.machines.len()).collect(),
                    error: None,
                },
                Err(e) => BenchResult {
                    name: w.name,
                    committed: 0,
                    runs: Vec::new(),
                    error: Some(e.clone()),
                },
            })
            .collect()
    }
}

/// Maps `f` over `items` on a fixed pool of `threads` scoped workers,
/// writing each result into its input's slot: output order is input
/// order regardless of scheduling. One thread short-circuits to a plain
/// serial map.
fn parallel_map<I: Sync, T: Send>(
    threads: usize,
    items: &[I],
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fgstp-session-unit-{tag}-{}", std::process::id()))
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(8, &items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(parallel_map(1, &items, |&x| x * 2), doubled);
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(4, &empty, |&x: &u64| x).is_empty());
    }

    #[test]
    fn plan_matrix_is_grouped_and_ordered() {
        let session = Session::new().scale(Scale::Test).threads(2).no_cache();
        let results = session
            .plan()
            .workload_names(&["perl_hash", "hmmer_dp"])
            .machines([MachineKind::FgstpSmall, MachineKind::SingleSmall])
            .execute();
        assert_eq!(results.len(), 2);
        for b in &results {
            assert_eq!(b.runs.len(), 2);
            assert_eq!(b.runs[0].kind, MachineKind::FgstpSmall);
            assert_eq!(b.runs[1].kind, MachineKind::SingleSmall);
            for r in &b.runs {
                assert_eq!(r.result.committed, b.committed);
            }
        }
    }

    #[test]
    fn sampled_plan_runs_every_job_through_the_sampler() {
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let session = Session::new()
            .scale(Scale::Test)
            .threads(2)
            .no_cache()
            .sample(scfg);
        let results = session
            .plan()
            .workload_names(&["perl_hash", "hmmer_dp"])
            .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
            .execute();
        for b in &results {
            for r in &b.runs {
                let s = r.sampled.as_ref().expect("sampled run record");
                assert_eq!(s.config, scfg);
                assert_eq!(r.result.committed, b.committed);
                assert!(r.result.cycles > 0);
            }
        }
        // The pool size never changes the numbers.
        let serial = Session::new()
            .scale(Scale::Test)
            .threads(1)
            .no_cache()
            .sample(scfg)
            .plan()
            .workload_names(&["perl_hash", "hmmer_dp"])
            .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
            .execute();
        for (a, b) in results.iter().zip(&serial) {
            for (x, y) in a.runs.iter().zip(&b.runs) {
                assert_eq!(x.result.cycles, y.result.cycles);
                assert_eq!(
                    x.sampled.as_ref().unwrap().intervals,
                    y.sampled.as_ref().unwrap().intervals
                );
            }
        }
    }

    #[test]
    fn workload_filter_narrows_every_suite_entry_point() {
        let session = Session::new()
            .scale(Scale::Test)
            .threads(2)
            .no_cache()
            .workloads(["hmmer_dp".to_owned(), "perl_hash".to_owned()])
            .machines([MachineKind::SingleSmall]);
        let traced = session.suite_traces();
        let names: Vec<&str> = traced.iter().map(|(w, _)| w.name).collect();
        // Suite order, not request order.
        assert_eq!(names, ["perl_hash", "hmmer_dp"]);
        let results = session.run_suite();
        assert_eq!(results.len(), 2);
        assert_eq!(session.map_suite(|_, _| ()).len(), 2);
    }

    #[test]
    fn cores_override_reshapes_every_plan_run() {
        let session = Session::new()
            .scale(Scale::Test)
            .no_cache()
            .workloads(["hmmer_dp".to_owned()])
            .machines([MachineKind::FgstpSmall])
            .cores(3);
        let results = session.run_suite();
        assert_eq!(results[0].runs[0].result.cores.len(), 3);
        // Telemetry path honours the override too, bit-identically.
        let inst = session.clone().telemetry(true).run_suite();
        assert_eq!(inst[0].runs[0].result.cores.len(), 3);
        assert_eq!(
            inst[0].runs[0].result.cycles,
            results[0].runs[0].result.cycles
        );
        assert!(inst[0].runs[0].cpi.is_some());
    }

    #[test]
    fn corun_session_yields_one_row_per_program() {
        use crate::spec::{CoRunProgramSpec, CoRunSpec};
        let corun = CoRunSpec {
            programs: vec![
                CoRunProgramSpec {
                    workload: "perl_hash".to_owned(),
                    cores: 2,
                },
                CoRunProgramSpec {
                    workload: "hmmer_dp".to_owned(),
                    cores: 2,
                },
            ],
            isolated: false,
        };
        let session = Session::new()
            .scale(Scale::Test)
            .threads(2)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .corun(corun.clone());
        let results = session.run_suite();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "perl_hash");
        assert_eq!(results[1].name, "hmmer_dp");
        for (i, b) in results.iter().enumerate() {
            assert_eq!(b.runs.len(), 1);
            let r = &b.runs[0];
            assert_eq!(r.result.committed, b.committed);
            let info = r.corun.expect("co-run placement record");
            assert_eq!(info.program, i);
            assert_eq!(info.cores, 2);
            assert!(!info.isolated);
        }
        assert_eq!(results[1].runs[0].corun.unwrap().first_core, 2);
        // Pool size never changes the numbers: a co-run is one job.
        let serial = Session::new()
            .scale(Scale::Test)
            .threads(1)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .corun(corun)
            .run_suite();
        for (a, b) in results.iter().zip(&serial) {
            assert_eq!(a.runs[0].result.cycles, b.runs[0].result.cycles);
            assert_eq!(a.runs[0].result.mem.l2, b.runs[0].result.mem.l2);
        }
    }

    #[test]
    fn isolated_corun_matches_solo_cycles() {
        use crate::spec::{CoRunProgramSpec, CoRunSpec};
        let solo = Session::new()
            .scale(Scale::Test)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .plan()
            .workload_names(&["perl_hash"])
            .execute();
        let co = Session::new()
            .scale(Scale::Test)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .corun(CoRunSpec {
                programs: vec![
                    CoRunProgramSpec {
                        workload: "perl_hash".to_owned(),
                        cores: 2,
                    },
                    CoRunProgramSpec {
                        workload: "hmmer_dp".to_owned(),
                        cores: 2,
                    },
                ],
                isolated: true,
            })
            .run_suite();
        assert_eq!(
            co[0].runs[0].result.cycles, solo[0].runs[0].result.cycles,
            "contention off reproduces the solo cycle count exactly"
        );
    }

    #[test]
    fn scales_do_not_share_cache_entries() {
        let dir = temp_dir("scales");
        let _ = std::fs::remove_dir_all(&dir);
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let run = |scale: Scale| {
            let s = Session::new()
                .scale(scale)
                .cache_dir(&dir)
                .sample(scfg)
                .machines([MachineKind::SingleSmall]);
            s.plan().workload_names(&["perl_hash"]).execute();
            s.snapshot_stats()
        };
        assert_eq!(run(Scale::Test).misses, 1);
        let small = run(Scale::Small);
        assert_eq!(
            (small.hits, small.misses),
            (0, 1),
            "different scale, fresh live-points"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_sampled_plan_matches_uncached_results() {
        let dir = temp_dir("sampled-cache");
        let _ = std::fs::remove_dir_all(&dir);
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let run = |cached: bool| {
            let mut s = Session::new().scale(Scale::Test).threads(2).sample(scfg);
            s = if cached {
                s.cache_dir(&dir)
            } else {
                s.no_cache()
            };
            s.plan()
                .workload_names(&["perl_hash", "hmmer_dp"])
                .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
                .execute()
        };
        let uncached = run(false);
        // Run the cached variant twice: the first populates the cache, the
        // second reads every trace back from it.
        let first = run(true);
        let second = run(true);
        for (a, bs) in uncached.iter().zip(first.iter().zip(&second)) {
            for (x, (y, z)) in a.runs.iter().zip(bs.0.runs.iter().zip(&bs.1.runs)) {
                assert_eq!(x.result.cycles, y.result.cycles);
                assert_eq!(x.result.cycles, z.result.cycles);
                assert_eq!(
                    x.sampled.as_ref().unwrap().intervals,
                    y.sampled.as_ref().unwrap().intervals
                );
                assert_eq!(
                    x.sampled.as_ref().unwrap().intervals,
                    z.sampled.as_ref().unwrap().intervals
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_warm_rerun_skips_all_warming() {
        let dir = temp_dir("snap");
        let _ = std::fs::remove_dir_all(&dir);
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let run = |cached: bool| {
            let s = Session::new().scale(Scale::Test).threads(2).sample(scfg);
            let s = if cached {
                s.cache_dir(&dir)
            } else {
                s.no_cache()
            };
            let r = s
                .plan()
                .workload_names(&["perl_hash"])
                .machines([MachineKind::FgstpSmall, MachineKind::SingleSmall])
                .execute();
            (r, s.snapshot_stats())
        };
        let (cold, cs) = run(true);
        assert_eq!((cs.hits, cs.misses), (0, 2), "cold run misses per job");
        assert!(cs.warmed_insts > 0, "cold planning warms the trace");
        let (warm, ws) = run(true);
        assert_eq!(
            (ws.hits, ws.misses),
            (2, 0),
            "rerun replays stored live-points"
        );
        assert_eq!(ws.warmed_insts, 0, "snapshot-warm rerun does zero warming");
        for (a, b) in cold.iter().zip(&warm) {
            for (x, y) in a.runs.iter().zip(&b.runs) {
                assert_eq!(x.result.cycles, y.result.cycles, "cold == snapshot-warm");
                assert_eq!(
                    x.sampled.as_ref().unwrap().intervals,
                    y.sampled.as_ref().unwrap().intervals
                );
                assert!(!x.sampled.as_ref().unwrap().snapshot_hit);
                assert!(y.sampled.as_ref().unwrap().snapshot_hit);
            }
        }
        // Cache off: live-points are neither consulted nor stored,
        // warming runs again, figures stay bit-identical.
        let (off, os) = run(false);
        assert_eq!((os.hits, os.misses), (0, 0));
        assert!(os.warmed_insts > 0);
        for (a, b) in cold.iter().zip(&off) {
            for (x, y) in a.runs.iter().zip(&b.runs) {
                assert_eq!(x.result.cycles, y.result.cycles);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sampled_isolated_corun_runs_through_the_planner() {
        use crate::spec::{CoRunProgramSpec, CoRunSpec};
        let corun = CoRunSpec {
            programs: vec![
                CoRunProgramSpec {
                    workload: "perl_hash".to_owned(),
                    cores: 2,
                },
                CoRunProgramSpec {
                    workload: "hmmer_dp".to_owned(),
                    cores: 2,
                },
            ],
            isolated: true,
        };
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let run = |threads: usize| {
            Session::new()
                .scale(Scale::Test)
                .threads(threads)
                .no_cache()
                .machines([MachineKind::FgstpSmall])
                .sample(scfg)
                .corun(corun.clone())
                .run_suite()
        };
        let results = run(2);
        assert_eq!(results.len(), 2);
        for (i, b) in results.iter().enumerate() {
            let r = &b.runs[0];
            let s = r.sampled.as_ref().expect("sampled co-run record");
            assert_eq!(s.config, scfg);
            assert_eq!(r.result.committed, b.committed);
            let info = r.corun.expect("co-run placement record");
            assert_eq!(info.program, i);
            assert!(info.isolated);
        }
        // Pool size never changes the numbers.
        let serial = run(1);
        for (a, b) in results.iter().zip(&serial) {
            assert_eq!(a.runs[0].result.cycles, b.runs[0].result.cycles);
        }
    }

    #[test]
    #[should_panic(expected = "cannot be sampled")]
    fn sampled_shared_corun_panics() {
        use crate::spec::{CoRunProgramSpec, CoRunSpec};
        Session::new()
            .scale(Scale::Test)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .sample(SampleConfig::default())
            .corun(CoRunSpec {
                programs: vec![CoRunProgramSpec {
                    workload: "perl_hash".to_owned(),
                    cores: 2,
                }],
                isolated: false,
            })
            .run_suite();
    }

    #[test]
    fn no_cache_never_touches_disk() {
        let dir = temp_dir("no-cache");
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::new()
            .scale(Scale::Test)
            .cache_dir(&dir)
            .no_cache()
            .sample(SampleConfig {
                interval: 2_000,
                warmup: 300,
                detail: 150,
            })
            .machines([MachineKind::SingleSmall]);
        session.plan().workload_names(&["perl_hash"]).execute();
        let ss = session.snapshot_stats();
        assert_eq!((ss.hits, ss.misses), (0, 0), "live-points never consulted");
        assert!(ss.warmed_insts > 0);
        assert!(!dir.exists(), "nothing stored");
        assert_eq!(
            session.cache_stats(),
            CacheStats { hits: 0, misses: 1 },
            "every trace is generated"
        );
    }
}
