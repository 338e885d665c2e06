//! # fgstp-bench
//!
//! Experiment harness for the Fg-STP reproduction. Each `exp_*` binary in
//! `src/bin/` regenerates one table or figure of the paper's evaluation —
//! see the per-experiment index in `DESIGN.md` and the recorded
//! paper-vs-measured comparison in `EXPERIMENTS.md`. Two more binaries
//! time the simulator itself: `bench_hotloop` (the timing machines) and
//! `bench_functional` (the functional interpreter), both gated by
//! `scripts/perf_gate.sh`.
//!
//! Every binary parses the same flags: an optional scale word,
//! `--workloads=a,b` to narrow the suite, `--threads=N` to size the
//! session's worker pool, `--no-cache` to disable the on-disk live-point
//! cache, `--sample` with optional `--sample-interval=N` /
//! `--sample-warmup=N` / `--sample-detail=N` for SMARTS-style sampled
//! simulation, and `--csv` for machine-readable output. Each binary
//! honours the subset its `Accepts` line names: only E1, E2, E12, E17
//! and E18 run sampled (E18 always does; `--sample*` sets its regime),
//! so only they honour `--sample*`, and `--no-cache` only matters to
//! sampled runs. The spec flags no binary honours — `--machines`,
//! `--cores`, `--corun`, `--corun-isolated` and `--telemetry` — are
//! rejected: each binary picks its own machines, core counts, co-runs
//! and instrumentation. The same spec flags drive the `fgstpd` batch
//! daemon and the `fgstp` client — see `crates/service`.

use fgstp_isa::Trace;
use fgstp_sim::{
    run_on, ExperimentSpec, MachineKind, MachineRun, Scale, Session, SpecError, SpecErrorKind,
    Table, Workload,
};

pub use fgstp_telemetry::json;

/// The flags of the experiment binaries, for usage messages.
pub const EXP_USAGE: &str = "[test|small|reference] [--workloads=a,b,..] [--threads=N] \
[--no-cache] [--sample] [--sample-interval=N] [--sample-warmup=N] [--sample-detail=N] [--csv]";

/// Spec flags no experiment binary honours: each picks its own machines,
/// core counts, co-runs and instrumentation.
const NOT_EXP_FLAGS: [&str; 5] = [
    "--machines",
    "--cores",
    "--corun",
    "--corun-isolated",
    "--telemetry",
];

/// Command-line options shared by all experiment binaries: the
/// [`ExperimentSpec`] their shared flags build, plus the harness-local
/// `--csv` toggle.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// The experiment specification built from the shared flags.
    pub spec: ExperimentSpec,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

impl ExpArgs {
    /// Parses `std::env::args()` (see [`ExpArgs::try_from_args`]),
    /// exiting with the structured error and a usage line on bad input.
    pub fn parse() -> ExpArgs {
        Self::try_from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            eprintln!("usage: exp_* {EXP_USAGE}");
            std::process::exit(2);
        })
    }

    /// Builds the options from an explicit argument stream: `--csv`,
    /// and the rest through [`ExperimentSpec::from_args`]. Errors carry
    /// the offending flag and a [`SpecErrorKind`]; the spec flags no
    /// binary honours are [`SpecErrorKind::UnknownFlag`] errors.
    pub fn try_from_args(args: impl IntoIterator<Item = String>) -> Result<ExpArgs, SpecError> {
        let mut csv = false;
        let mut spec_args = Vec::new();
        for a in args {
            let flag = a.split_once('=').map_or(a.as_str(), |(f, _)| f);
            if NOT_EXP_FLAGS.contains(&flag) {
                return Err(SpecError::new(
                    SpecErrorKind::UnknownFlag,
                    format!(
                        "experiment binaries do not take `{flag}`: each picks its own \
                         machines, core counts, co-runs and instrumentation"
                    ),
                ));
            }
            if a == "--csv" {
                csv = true;
            } else {
                spec_args.push(a);
            }
        }
        Ok(ExpArgs {
            spec: ExperimentSpec::from_args(&spec_args)?,
            csv,
        })
    }

    /// Workload scale (shorthand for `self.spec.scale`).
    pub fn scale(&self) -> Scale {
        self.spec.scale
    }

    /// A [`Session`] configured from the spec (scale, workload filter,
    /// threads, caching and sampling; experiments override machines per
    /// figure).
    pub fn session(&self) -> Session {
        self.spec.session()
    }
}

/// The suite traced at the session's scale plus the single-small-core
/// baseline run on every workload — the shared setup of the sweep
/// experiments (E3–E6, E9, E13): each sweep point compares against the
/// baseline of the same workload.
#[derive(Debug, Clone)]
pub struct SuiteBaseline {
    /// The suite, traced in suite order.
    pub traced: Vec<(Workload, Trace)>,
    /// The [`MachineKind::SingleSmall`] run of each workload, same order.
    pub singles: Vec<MachineRun>,
}

impl SuiteBaseline {
    /// Traces the session's suite and runs the single-small baseline on
    /// every workload, both on the session's worker pool.
    pub fn new(session: &Session) -> SuiteBaseline {
        let traced = session.suite_traces();
        let singles = session.par_map(&traced, |(_, t)| {
            run_on(MachineKind::SingleSmall, t.insts())
        });
        SuiteBaseline { traced, singles }
    }

    /// (workload+trace, baseline-run) pairs, ready for `par_map` sweeps.
    pub fn jobs(&self) -> Vec<(&(Workload, Trace), &MachineRun)> {
        self.traced.iter().zip(&self.singles).collect()
    }
}

/// Prints a rendered experiment table with a title banner, matching the
/// format recorded in `EXPERIMENTS.md`.
pub fn print_experiment(id: &str, caption: &str, args: &ExpArgs, table: &Table) {
    println!("==== {id}: {caption} (scale: {:?}) ====", args.scale());
    if args.csv {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
}

/// Runs the E1/E2-style headline comparison: per-benchmark speedups of
/// `[single, fused, fgstp]` over the single core, plus the geomean row and
/// the Fg-STP-over-fusion summary line. Shared by `exp_e1_small_speedup`
/// and `exp_e2_medium_speedup`.
pub fn run_speedup_experiment(
    id: &str,
    caption: &str,
    args: &ExpArgs,
    kinds: [fgstp_sim::MachineKind; 3],
) {
    let results = args.session().machines(kinds).run_suite();
    let summary = fgstp_sim::speedup_table(&results, kinds);
    print_experiment(id, caption, args, &summary.table);
    for name in &summary.skipped {
        eprintln!("warning: {name} skipped (machine missing from result set)");
    }
    for (name, why) in &summary.failed {
        eprintln!("warning: {name} produced no runs: {why}");
    }
    println!(
        "Fg-STP over Core Fusion (geomean): {:+.1}%",
        (summary.fgstp_over_fused() - 1.0) * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(flags: &[&str]) -> ExpArgs {
        ExpArgs::try_from_args(flags.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn print_experiment_renders_both_formats() {
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        // Smoke test: must not panic in either mode.
        let mut args = args_of(&["test"]);
        print_experiment("T0", "smoke", &args, &t);
        args.csv = true;
        print_experiment("T0", "smoke", &args, &t);
    }

    #[test]
    fn csv_flag_is_separated_from_the_spec() {
        let args = args_of(&["test", "--csv", "--threads=2"]);
        assert!(args.csv);
        assert_eq!(args.scale(), Scale::Test);
        assert_eq!(args.spec.threads, Some(2));
        // Spec errors surface as structured values, not process exits.
        let e = ExpArgs::try_from_args(["--threads=lots".to_owned()]).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Value);
        let e = ExpArgs::try_from_args(["--bogus".to_owned()]).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::UnknownFlag);
    }

    #[test]
    fn flags_no_binary_honours_are_rejected_by_name() {
        for arg in [
            "--machines=single-small",
            "--cores=3",
            "--corun=perl_hash:2",
            "--corun-isolated",
            "--telemetry",
        ] {
            let e = ExpArgs::try_from_args(["test".to_owned(), arg.to_owned()]).unwrap_err();
            assert_eq!(e.kind, SpecErrorKind::UnknownFlag, "{arg}");
            let flag = arg.split('=').next().unwrap();
            assert!(e.message.contains(&format!("`{flag}`")), "{arg}: {e}");
        }
        // The flags the binaries do honour still parse.
        let args = args_of(&[
            "test",
            "--workloads=perl_hash",
            "--threads=2",
            "--no-cache",
            "--sample",
            "--csv",
        ]);
        assert!(args.csv && args.spec.no_cache && args.spec.sample.is_some());
    }

    #[test]
    fn suite_baseline_pairs_every_workload_with_its_single_run() {
        let args = args_of(&["test", "--threads=2", "--no-cache"]);
        let base = SuiteBaseline::new(&args.session());
        assert_eq!(base.traced.len(), base.singles.len());
        for ((w, t), single) in base.jobs() {
            assert_eq!(single.kind, MachineKind::SingleSmall, "{}", w.name);
            assert_eq!(single.result.committed, t.len() as u64, "{}", w.name);
        }
    }

    #[test]
    fn suite_baseline_respects_the_workload_filter() {
        let args = args_of(&["test", "--no-cache", "--workloads=perl_hash,hmmer_dp"]);
        let base = SuiteBaseline::new(&args.session());
        let names: Vec<&str> = base.traced.iter().map(|(w, _)| w.name).collect();
        assert_eq!(names, ["perl_hash", "hmmer_dp"]);
    }

    #[test]
    fn sampled_session_produces_sampled_runs() {
        let args = args_of(&[
            "test",
            "--threads=2",
            "--no-cache",
            "--sample-interval=2000",
            "--sample-warmup=300",
            "--sample-detail=150",
        ]);
        let w = fgstp_workloads::by_name("hmmer_dp", Scale::Test).unwrap();
        let b = args
            .session()
            .machines([MachineKind::SingleSmall])
            .run_workload(&w);
        assert!(b.runs[0].sampled.is_some());
    }

    #[test]
    fn session_reflects_the_arguments() {
        let args = args_of(&[
            "test",
            "--threads=2",
            "--no-cache",
            "--sample-interval=2000",
            "--sample-warmup=300",
            "--sample-detail=150",
        ]);
        let s = args.session().machines([MachineKind::SingleSmall]);
        // A no-cache session never consults or stores live-points.
        let w = &fgstp_workloads::suite(Scale::Test)[0];
        s.run_workload(w);
        let ss = s.snapshot_stats();
        assert_eq!(ss.hits + ss.misses, 0);
        assert!(ss.warmed_insts > 0);
    }
}
