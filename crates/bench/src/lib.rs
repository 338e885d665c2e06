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
//! Every binary accepts the shared [`fgstp_sim::ExperimentSpec`] flag
//! vocabulary (an optional scale word, `--workloads=a,b` to narrow the
//! suite, `--threads=N` to size the session's worker pool, `--no-cache`
//! to disable the on-disk trace cache, and `--sample` with optional
//! `--sample-interval=N` / `--sample-warmup=N` / `--sample-detail=N` for
//! SMARTS-style sampled simulation) plus `--csv` for machine-readable
//! output. The same spec drives the `fgstpd` batch daemon and the
//! `fgstp` client — see `crates/service`.

use fgstp_isa::Trace;
use fgstp_sim::{run_on, ExperimentSpec, MachineKind, MachineRun, Scale, Session, Table, Workload};

pub use fgstp_telemetry::json;

/// Command-line options shared by all experiment binaries: a full
/// [`ExperimentSpec`] (every binary understands the shared spec
/// vocabulary — scale words, `--workloads=`, `--threads=N`, `--no-cache`,
/// the `--sample*` flags, …) plus the harness-local `--csv` toggle.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// The experiment specification built from the shared flags.
    pub spec: ExperimentSpec,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

impl ExpArgs {
    /// Parses `std::env::args()` through the shared
    /// [`ExperimentSpec::apply_arg`] vocabulary plus `--csv`, exiting
    /// with the structured error and a usage line on bad input.
    pub fn parse() -> ExpArgs {
        Self::try_from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            eprintln!("usage: exp_* [--csv] {}", fgstp_sim::spec::SPEC_USAGE);
            std::process::exit(2);
        })
    }

    /// Builds the options from an explicit argument stream; errors carry
    /// the offending flag and a [`fgstp_sim::SpecErrorKind`].
    pub fn try_from_args(
        args: impl IntoIterator<Item = String>,
    ) -> Result<ExpArgs, fgstp_sim::SpecError> {
        let mut spec = ExperimentSpec::default();
        let mut csv = false;
        for a in args {
            if a == "--csv" {
                csv = true;
            } else if !spec.apply_arg(&a)? {
                return Err(fgstp_sim::SpecError::new(
                    fgstp_sim::SpecErrorKind::UnknownFlag,
                    format!("unknown flag `{a}`"),
                ));
            }
        }
        spec.validate()?;
        Ok(ExpArgs { spec, csv })
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
        assert_eq!(e.kind, fgstp_sim::SpecErrorKind::Value);
        let e = ExpArgs::try_from_args(["--bogus".to_owned()]).unwrap_err();
        assert_eq!(e.kind, fgstp_sim::SpecErrorKind::UnknownFlag);
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
        let args = args_of(&["test", "--threads=2", "--no-cache"]);
        let s = args.session();
        // A no-cache session never touches disk, so stats stay at zero.
        let w = &fgstp_workloads::suite(Scale::Test)[0];
        let _ = s.trace(w);
        assert_eq!(s.cache_stats().hits + s.cache_stats().misses, 0);
    }
}
