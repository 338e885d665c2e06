//! The unified experiment specification.
//!
//! An [`ExperimentSpec`] names everything one experiment run needs —
//! workload subset, machine set, scale, optional Fg-STP core-count
//! override, sampling regime, telemetry, and execution knobs — in one
//! validated value. It is the only description of an experiment: a
//! [`Session`] runs one, and every frontend builds one from the same
//! flags:
//!
//! * the experiment binaries (`crates/bench`) and the `fgstp` CLI client
//!   parse their flags with [`ExperimentSpec::from_args`];
//! * the client runs the spec locally ([`ExperimentSpec::run`]) or sends
//!   it to the `fgstpd` daemon as its flags ([`ExperimentSpec::to_args`],
//!   the canonical flag list `from_args` reads back);
//! * the daemon dedups specs on [`ExperimentSpec::dedup_key`], the
//!   normalized flag list, and executes them on a [`Session`].
//!
//! A spec runs its workloads in one order everywhere:
//! [`ExperimentSpec::workload_names`] decides it, and the session, the
//! daemon's row stream and the dedup key all follow it.
//!
//! Validation is structural and total: [`ExperimentSpec::validate`]
//! rejects unknown workload or machine names, zero core/thread counts,
//! and unsatisfiable combinations (`--cores` on a non-Fg-STP machine,
//! `--cores` × `--sample`, sample windows that do not fit the interval)
//! with a typed [`SpecError`] instead of panicking downstream — the
//! error's [`SpecErrorKind`] crosses the daemon protocol as a stable
//! string.

use std::sync::OnceLock;

use fgstp::partition::MAX_PARTITION_CORES;
use fgstp_sampling::SampleConfig;
use fgstp_workloads::{suite, Scale};

use crate::presets::MachineKind;
use crate::runner::BenchResult;
use crate::session::Session;

/// What made a spec invalid; [`SpecErrorKind::label`] is the stable
/// protocol string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// A workload name not in the suite.
    UnknownWorkload,
    /// A machine label or machine-set name no preset matches.
    UnknownMachine,
    /// A scale word other than `test`/`small`/`reference`.
    UnknownScale,
    /// A flag that is not part of the spec vocabulary.
    UnknownFlag,
    /// A value that does not parse or is out of range.
    Value,
    /// Two options that cannot be combined.
    Conflict,
}

impl SpecErrorKind {
    /// Stable kebab-case identifier, used on the wire by `fgstpd`.
    pub fn label(self) -> &'static str {
        match self {
            SpecErrorKind::UnknownWorkload => "unknown-workload",
            SpecErrorKind::UnknownMachine => "unknown-machine",
            SpecErrorKind::UnknownScale => "unknown-scale",
            SpecErrorKind::UnknownFlag => "unknown-flag",
            SpecErrorKind::Value => "bad-value",
            SpecErrorKind::Conflict => "conflict",
        }
    }
}

/// A structured spec rejection: a machine-readable kind plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What class of problem this is.
    pub kind: SpecErrorKind,
    /// The specifics, naming the offending input.
    pub message: String,
}

impl SpecError {
    /// A new error of `kind`.
    pub fn new(kind: SpecErrorKind, message: impl Into<String>) -> SpecError {
        SpecError {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for SpecError {}

/// The main suite's workload names, in suite order. Names do not depend
/// on the scale, and building a suite assembles every program, so the
/// list is built once.
fn suite_names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| suite(Scale::Test).iter().map(|w| w.name).collect())
}

/// Every name [`fgstp_workloads::by_name`] resolves, built once like
/// [`suite_names`].
fn known_names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(fgstp_workloads::all_names)
}

/// The filename- and protocol-safe word for a scale.
pub fn scale_word(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Reference => "reference",
    }
}

/// Parses a scale word.
pub fn parse_scale(word: &str) -> Result<Scale, SpecError> {
    match word {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        "reference" => Ok(Scale::Reference),
        other => Err(SpecError::new(
            SpecErrorKind::UnknownScale,
            format!("unknown scale `{other}` (test|small|reference)"),
        )),
    }
}

/// Parses one machine label.
pub fn parse_machine(label: &str) -> Result<MachineKind, SpecError> {
    MachineKind::WITH_SCALING
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| {
            let labels: Vec<&str> = MachineKind::WITH_SCALING
                .iter()
                .map(|k| k.label())
                .collect();
            SpecError::new(
                SpecErrorKind::UnknownMachine,
                format!("unknown machine `{label}` (one of: {})", labels.join(", ")),
            )
        })
}

/// Parses a machine *set*: a named set (`small-cmp`, `medium-cmp`,
/// `all`, `scaling`) or a comma-separated list of preset labels.
pub fn parse_machine_set(s: &str) -> Result<Vec<MachineKind>, SpecError> {
    match s {
        "small-cmp" => Ok(MachineKind::SMALL_CMP.to_vec()),
        "medium-cmp" => Ok(MachineKind::MEDIUM_CMP.to_vec()),
        "all" => Ok(MachineKind::ALL.to_vec()),
        "scaling" => Ok(MachineKind::WITH_SCALING.to_vec()),
        labels => labels.split(',').map(parse_machine).collect(),
    }
}

/// One co-running program inside a [`CoRunSpec`]: a workload and the
/// number of cores its Fg-STP machine instance owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoRunProgramSpec {
    /// Workload name (must be in the suite).
    pub workload: String,
    /// Cores the program's machine owns (≥ 1).
    pub cores: usize,
}

/// A multi-program co-run request: independent workloads on disjoint core
/// sets of one machine, coupled through the shared L2 (and, unless
/// `isolated`, a finite-bandwidth DRAM channel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoRunSpec {
    /// The co-running programs, in chip core order.
    pub programs: Vec<CoRunProgramSpec>,
    /// Give every program a private hierarchy instead (contention off);
    /// each program then reproduces its solo cycle count exactly.
    pub isolated: bool,
}

impl CoRunSpec {
    /// Total chip cores across all programs.
    pub fn total_cores(&self) -> usize {
        self.programs.iter().map(|p| p.cores).sum()
    }

    /// Parses the `--corun=` value: comma-separated `workload[:cores]`
    /// entries, cores defaulting to 1. The cores suffix is the *last*
    /// `:`-separated field and only when it is numeric, so prefixed
    /// workload names (`rv:quicksort`, `rv:quicksort:2`) parse correctly.
    pub fn parse(value: &str) -> Result<CoRunSpec, SpecError> {
        let mut programs = Vec::new();
        for entry in value.split(',') {
            let (workload, cores) = match entry.rsplit_once(':') {
                Some((w, c)) if c.chars().all(|ch| ch.is_ascii_digit()) && !c.is_empty() => {
                    let n = c.parse::<usize>().map_err(|_| {
                        SpecError::new(
                            SpecErrorKind::Value,
                            format!("bad core count `{c}` in --corun entry `{entry}`"),
                        )
                    })?;
                    (w, n)
                }
                _ => (entry, 1),
            };
            programs.push(CoRunProgramSpec {
                workload: workload.to_owned(),
                cores,
            });
        }
        Ok(CoRunSpec {
            programs,
            isolated: false,
        })
    }
}

/// One experiment, fully specified. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Workload scale.
    pub scale: Scale,
    /// Machine set, in request order.
    pub machines: Vec<MachineKind>,
    /// Workload subset by name; empty means the whole suite.
    pub workloads: Vec<String>,
    /// Fg-STP core-count override (requires an all-Fg-STP machine set).
    pub cores: Option<usize>,
    /// Worker-pool size override (execution knob; not part of the
    /// result identity).
    pub threads: Option<usize>,
    /// Disable the on-disk live-point cache (execution knob): sampled
    /// runs then neither replay nor store warm states. Results are
    /// bit-identical either way.
    pub no_cache: bool,
    /// Collect CPI stacks alongside timing.
    pub telemetry: bool,
    /// SMARTS-style sampling regime, off by default.
    pub sample: Option<SampleConfig>,
    /// Multi-program co-run scenario, off by default. Requires a machine
    /// set of exactly one Fg-STP preset (which supplies the core and
    /// cache shapes) and conflicts with `--cores`, `--sample` and
    /// `--telemetry`.
    pub corun: Option<CoRunSpec>,
}

impl Default for ExperimentSpec {
    /// The experiment-harness default: the full suite at [`Scale::Small`]
    /// on the small 2-core CMP machine set.
    fn default() -> ExperimentSpec {
        ExperimentSpec {
            scale: Scale::Small,
            machines: MachineKind::SMALL_CMP.to_vec(),
            workloads: Vec::new(),
            cores: None,
            threads: None,
            no_cache: false,
            telemetry: false,
            sample: None,
            corun: None,
        }
    }
}

/// The flag vocabulary accepted by [`ExperimentSpec::from_args`], for
/// usage messages.
pub const SPEC_USAGE: &str = "[test|small|reference] [--workloads=a,b,..] \
[--machines=small-cmp|medium-cmp|all|scaling|<label,..>] [--cores=N] \
[--threads=N] [--no-cache] [--telemetry] [--sample] [--sample-interval=N] \
[--sample-warmup=N] [--sample-detail=N] \
[--corun=wl[:cores],..] [--corun-isolated]";

impl ExperimentSpec {
    /// Applies one CLI argument to the spec. Returns `Ok(false)` when the
    /// argument is not part of the spec vocabulary, and an error when it
    /// *is* a spec flag with a bad value.
    fn apply_arg(&mut self, arg: &str) -> Result<bool, SpecError> {
        match arg {
            "test" | "small" | "reference" => {
                self.scale = parse_scale(arg)?;
                return Ok(true);
            }
            "--no-cache" => {
                self.no_cache = true;
                return Ok(true);
            }
            "--telemetry" => {
                self.telemetry = true;
                return Ok(true);
            }
            "--sample" => {
                self.sample.get_or_insert_with(SampleConfig::default);
                return Ok(true);
            }
            "--corun-isolated" => {
                self.corun
                    .get_or_insert_with(|| CoRunSpec {
                        programs: Vec::new(),
                        isolated: false,
                    })
                    .isolated = true;
                return Ok(true);
            }
            _ => {}
        }
        let Some((flag, value)) = arg.split_once('=') else {
            return Ok(false);
        };
        let count = |what: &str| -> Result<u64, SpecError> {
            value.parse::<u64>().map_err(|_| {
                SpecError::new(SpecErrorKind::Value, format!("bad {what} value `{value}`"))
            })
        };
        match flag {
            "--workloads" => {
                self.workloads = value.split(',').map(str::to_owned).collect();
            }
            "--machines" => self.machines = parse_machine_set(value)?,
            "--cores" => self.cores = Some(count(flag)? as usize),
            "--threads" => self.threads = Some(count(flag)? as usize),
            "--sample-interval" => {
                self.sample
                    .get_or_insert_with(SampleConfig::default)
                    .interval = count(flag)?;
            }
            "--sample-warmup" => {
                self.sample.get_or_insert_with(SampleConfig::default).warmup = count(flag)?;
            }
            "--sample-detail" => {
                self.sample.get_or_insert_with(SampleConfig::default).detail = count(flag)?;
            }
            "--corun" => {
                let parsed = CoRunSpec::parse(value)?;
                match &mut self.corun {
                    // --corun-isolated may have arrived first.
                    Some(c) => c.programs = parsed.programs,
                    None => self.corun = Some(parsed),
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Parses a full argument list into a validated spec. Every argument
    /// must be part of the spec vocabulary — unknown flags are an
    /// [`SpecErrorKind::UnknownFlag`] error naming [`SPEC_USAGE`].
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<ExperimentSpec, SpecError> {
        let mut spec = ExperimentSpec::default();
        for a in args {
            if !spec.apply_arg(a.as_ref())? {
                return Err(SpecError::new(
                    SpecErrorKind::UnknownFlag,
                    format!("unknown flag `{}` (usage: {SPEC_USAGE})", a.as_ref()),
                ));
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The canonical flag list of this spec: [`ExperimentSpec::from_args`]
    /// reads it back to an equal spec. The scale and machine set are
    /// always spelled out, every other field only when it is set.
    pub fn to_args(&self) -> Vec<String> {
        let labels: Vec<&str> = self.machines.iter().map(|k| k.label()).collect();
        let mut args = vec![
            scale_word(self.scale).to_owned(),
            format!("--machines={}", labels.join(",")),
        ];
        if !self.workloads.is_empty() {
            args.push(format!("--workloads={}", self.workloads.join(",")));
        }
        if let Some(n) = self.cores {
            args.push(format!("--cores={n}"));
        }
        if let Some(n) = self.threads {
            args.push(format!("--threads={n}"));
        }
        if self.no_cache {
            args.push("--no-cache".to_owned());
        }
        if self.telemetry {
            args.push("--telemetry".to_owned());
        }
        if let Some(s) = &self.sample {
            args.push(format!("--sample-interval={}", s.interval));
            args.push(format!("--sample-warmup={}", s.warmup));
            args.push(format!("--sample-detail={}", s.detail));
        }
        if let Some(c) = &self.corun {
            let programs: Vec<String> = c
                .programs
                .iter()
                .map(|p| format!("{}:{}", p.workload, p.cores))
                .collect();
            args.push(format!("--corun={}", programs.join(",")));
            if c.isolated {
                args.push("--corun-isolated".to_owned());
            }
        }
        args
    }

    /// Checks the spec is satisfiable; see the [module docs](self) for
    /// the full rule list. Every frontend and every [`Session`] run entry
    /// point calls this before executing or enqueueing, so an invalid
    /// spec can never reach a worker pool.
    pub fn validate(&self) -> Result<(), SpecError> {
        let unknown = |what: &str, name: &str| {
            SpecError::new(
                SpecErrorKind::UnknownWorkload,
                format!(
                    "unknown {what} `{name}` (one of: {})",
                    known_names().join(", ")
                ),
            )
        };
        if self.machines.is_empty() {
            return Err(SpecError::new(
                SpecErrorKind::UnknownMachine,
                "machine set is empty",
            ));
        }
        for name in &self.workloads {
            if !known_names().contains(&name.as_str()) {
                return Err(unknown("workload", name));
            }
        }
        if let Some(n) = self.cores {
            if n == 0 {
                return Err(SpecError::new(
                    SpecErrorKind::Value,
                    "--cores needs at least one core",
                ));
            }
            if n > MAX_PARTITION_CORES {
                return Err(SpecError::new(
                    SpecErrorKind::Value,
                    format!("--cores={n} exceeds the maximum of {MAX_PARTITION_CORES} cores"),
                ));
            }
            if let Some(k) = self.machines.iter().find(|k| !k.is_fgstp()) {
                return Err(SpecError::new(
                    SpecErrorKind::Conflict,
                    format!("--cores only applies to Fg-STP machines, not {k}"),
                ));
            }
            if self.sample.is_some() {
                return Err(SpecError::new(
                    SpecErrorKind::Conflict,
                    "--cores cannot be combined with --sample",
                ));
            }
        }
        if let Some(n) = self.threads {
            if n == 0 {
                return Err(SpecError::new(
                    SpecErrorKind::Value,
                    "--threads needs at least one worker",
                ));
            }
        }
        if let Some(s) = &self.sample {
            if s.detail == 0 {
                return Err(SpecError::new(
                    SpecErrorKind::Value,
                    "--sample-detail needs at least one instruction",
                ));
            }
            if s.warmup + s.detail > s.interval {
                return Err(SpecError::new(
                    SpecErrorKind::Value,
                    format!(
                        "sample warmup ({}) + detail ({}) must fit in the interval ({})",
                        s.warmup, s.detail, s.interval
                    ),
                ));
            }
        }
        if let Some(c) = &self.corun {
            if c.programs.is_empty() {
                return Err(SpecError::new(
                    SpecErrorKind::Value,
                    "--corun needs at least one workload[:cores] entry",
                ));
            }
            if self.machines.len() != 1 || !self.machines[0].is_fgstp() {
                return Err(SpecError::new(
                    SpecErrorKind::Conflict,
                    "--corun needs exactly one Fg-STP machine (it supplies the core \
                     and cache shapes); pass e.g. --machines=fgstp-small",
                ));
            }
            if self.cores.is_some() {
                return Err(SpecError::new(
                    SpecErrorKind::Conflict,
                    "--corun sets per-program core counts; --cores does not apply",
                ));
            }
            if self.sample.is_some() && !c.isolated {
                return Err(SpecError::new(
                    SpecErrorKind::Conflict,
                    "--corun with --sample needs --corun-isolated: only private-hierarchy \
                     programs sample independently (shared-hierarchy contention couples \
                     their timing)",
                ));
            }
            if self.telemetry {
                return Err(SpecError::new(
                    SpecErrorKind::Conflict,
                    "--corun does not collect CPI stacks; drop --telemetry",
                ));
            }
            if !self.workloads.is_empty() {
                return Err(SpecError::new(
                    SpecErrorKind::Conflict,
                    "--corun names its own workloads; --workloads does not apply",
                ));
            }
            for p in &c.programs {
                if !known_names().contains(&p.workload.as_str()) {
                    return Err(unknown("co-run workload", &p.workload));
                }
                if p.cores == 0 {
                    return Err(SpecError::new(
                        SpecErrorKind::Value,
                        format!("co-run program `{}` needs at least one core", p.workload),
                    ));
                }
            }
            if c.total_cores() > MAX_PARTITION_CORES {
                return Err(SpecError::new(
                    SpecErrorKind::Value,
                    format!(
                        "co-run asks for {} cores (max {MAX_PARTITION_CORES})",
                        c.total_cores()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The workloads this spec runs, in the one order every frontend
    /// uses — the session's runs, the daemon's row stream, a job's
    /// expected rows and the dedup key. A co-run runs its programs in
    /// plan order, duplicates kept (each program produces its own result
    /// row). Otherwise the suite members among the named workloads come
    /// first, in suite order (all of them when none are named), then the
    /// names from outside the main suite (`*_long`, `rv:*`) as given;
    /// a repeated name runs once.
    pub fn workload_names(&self) -> Vec<String> {
        if let Some(c) = &self.corun {
            return c.programs.iter().map(|p| p.workload.clone()).collect();
        }
        let named = |n: &str| self.workloads.is_empty() || self.workloads.iter().any(|w| w == n);
        let mut names: Vec<String> = suite_names()
            .iter()
            .filter(|n| named(n))
            .map(|n| (*n).to_owned())
            .collect();
        for n in &self.workloads {
            if !names.contains(n) {
                names.push(n.clone());
            }
        }
        names
    }

    /// A [`Session`] that runs this spec.
    pub fn session(&self) -> Session {
        Session::with_spec(self.clone())
    }

    /// Validates and runs the spec to completion on a fresh session.
    pub fn run(&self) -> Result<Vec<BenchResult>, SpecError> {
        self.session().try_run_suite()
    }

    /// The job-deduplication identity of this spec: two specs with equal
    /// keys produce bit-identical result rows, so a batch service can
    /// serve one from the other's cached results.
    ///
    /// The key is the normalized flag list ([`ExperimentSpec::to_args`])
    /// joined by spaces. Normalizing drops the pure execution knobs
    /// (`--threads`, `--no-cache` — the worker pool and the live-point
    /// cache never change a figure) and resolves the workloads to
    /// [`ExperimentSpec::workload_names`], so an empty list, the full
    /// suite spelled out and the same names in another order share a
    /// key. It carries no format versions: keys are compared only within
    /// one running process.
    pub fn dedup_key(&self) -> String {
        let mut normalized = ExperimentSpec {
            threads: None,
            no_cache: false,
            ..self.clone()
        };
        if self.corun.is_none() {
            normalized.workloads = self.workload_names();
        }
        normalized.to_args().join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid_and_round_trips() {
        let spec = ExperimentSpec::default();
        spec.validate().unwrap();
        let back = ExperimentSpec::from_args(&spec.to_args()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn full_spec_round_trips_through_its_flags() {
        let spec = ExperimentSpec {
            scale: Scale::Test,
            machines: vec![MachineKind::FgstpSmall4, MachineKind::FgstpSmall],
            workloads: vec!["perl_hash".to_owned(), "hmmer_dp".to_owned()],
            cores: Some(3),
            threads: Some(2),
            no_cache: true,
            telemetry: true,
            sample: None,
            corun: None,
        };
        spec.validate().unwrap();
        assert_eq!(
            spec.to_args(),
            [
                "test",
                "--machines=fgstp-small-4,fgstp-small",
                "--workloads=perl_hash,hmmer_dp",
                "--cores=3",
                "--threads=2",
                "--no-cache",
                "--telemetry",
            ]
        );
        assert_eq!(ExperimentSpec::from_args(&spec.to_args()).unwrap(), spec);

        let sampled = ExperimentSpec {
            cores: None,
            sample: Some(SampleConfig {
                interval: 2_000,
                warmup: 300,
                detail: 150,
            }),
            ..spec
        };
        assert_eq!(
            ExperimentSpec::from_args(&sampled.to_args()).unwrap(),
            sampled
        );
    }

    #[test]
    fn args_build_every_field_of_the_spec() {
        let spec = ExperimentSpec::from_args(&[
            "test",
            "--workloads=perl_hash,hmmer_dp",
            "--machines=fgstp-small,fgstp-medium",
            "--cores=3",
            "--threads=2",
            "--no-cache",
            "--telemetry",
        ])
        .unwrap();
        assert_eq!(spec.scale, Scale::Test);
        assert_eq!(spec.workloads, ["perl_hash", "hmmer_dp"]);
        assert_eq!(
            spec.machines,
            [MachineKind::FgstpSmall, MachineKind::FgstpMedium]
        );
        assert_eq!(spec.cores, Some(3));
        assert_eq!(spec.threads, Some(2));
        assert!(spec.no_cache && spec.telemetry);
        assert_eq!(ExperimentSpec::from_args(&spec.to_args()).unwrap(), spec);
    }

    /// A deterministic random stream (SplitMix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn coin(&mut self) -> bool {
            self.next() & 1 == 1
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// A random valid spec: a plain machine matrix, an all-Fg-STP matrix
    /// with a core override, or a co-run, each with random execution
    /// knobs and (where allowed) a random sampling regime.
    fn random_spec(rng: &mut Rng) -> ExperimentSpec {
        let names = known_names();
        let fgstp: Vec<MachineKind> = MachineKind::WITH_SCALING
            .into_iter()
            .filter(|k| k.is_fgstp())
            .collect();
        let mut spec = ExperimentSpec {
            scale: rng.pick(&[Scale::Test, Scale::Small, Scale::Reference]),
            threads: rng.coin().then(|| 1 + rng.below(16)),
            no_cache: rng.coin(),
            sample: rng.coin().then(|| {
                let interval = 1 + rng.below(100_000) as u64;
                let detail = 1 + rng.below(interval as usize) as u64;
                let warmup = rng.below((interval - detail + 1) as usize) as u64;
                SampleConfig {
                    interval,
                    warmup,
                    detail,
                }
            }),
            ..ExperimentSpec::default()
        };
        let workloads = |rng: &mut Rng| -> Vec<String> {
            (0..rng.below(5))
                .map(|_| rng.pick(names).to_owned())
                .collect()
        };
        match rng.below(3) {
            0 => {
                spec.machines = (0..1 + rng.below(4))
                    .map(|_| rng.pick(&MachineKind::WITH_SCALING))
                    .collect();
                spec.workloads = workloads(rng);
                spec.telemetry = rng.coin();
            }
            1 => {
                spec.machines = (0..1 + rng.below(3)).map(|_| rng.pick(&fgstp)).collect();
                spec.workloads = workloads(rng);
                spec.cores = Some(1 + rng.below(8));
                spec.telemetry = rng.coin();
                spec.sample = None;
            }
            _ => {
                spec.machines = vec![rng.pick(&fgstp)];
                let programs = (0..1 + rng.below(4))
                    .map(|_| CoRunProgramSpec {
                        workload: rng.pick(names).to_owned(),
                        cores: 1 + rng.below(4),
                    })
                    .collect();
                spec.corun = Some(CoRunSpec {
                    programs,
                    isolated: spec.sample.is_some() || rng.coin(),
                });
            }
        }
        spec
    }

    #[test]
    fn random_specs_round_trip_through_their_flags() {
        let mut rng = Rng(0x5eed);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            let spec = random_spec(&mut rng);
            spec.validate()
                .unwrap_or_else(|e| panic!("{e}: {:?}", spec.to_args()));
            let back = ExperimentSpec::from_args(&spec.to_args())
                .unwrap_or_else(|e| panic!("{e}: {:?}", spec.to_args()));
            assert_eq!(back, spec, "{:?}", spec.to_args());
            // Record which fields this spec exercised.
            let fields = [
                ("scale-small", spec.scale == Scale::Small),
                ("several-machines", spec.machines.len() > 1),
                ("workloads", !spec.workloads.is_empty()),
                (
                    "rv-workload",
                    spec.workloads.iter().any(|w| w.starts_with("rv:")),
                ),
                (
                    "long-workload",
                    spec.workloads.iter().any(|w| w.ends_with("_long")),
                ),
                ("cores", spec.cores.is_some()),
                ("threads", spec.threads.is_some()),
                ("no-cache", spec.no_cache),
                ("telemetry", spec.telemetry),
                ("sample", spec.sample.is_some()),
                ("corun", spec.corun.as_ref().is_some_and(|c| !c.isolated)),
                (
                    "corun-isolated",
                    spec.corun.as_ref().is_some_and(|c| c.isolated),
                ),
                (
                    "corun-rv",
                    spec.corun
                        .as_ref()
                        .is_some_and(|c| c.programs.iter().any(|p| p.workload.starts_with("rv:"))),
                ),
            ];
            seen.extend(fields.iter().filter(|f| f.1).map(|f| f.0));
        }
        assert_eq!(seen.len(), 13, "fields covered: {seen:?}");
    }

    #[test]
    fn workload_names_follow_the_suite_then_the_names_given() {
        let spec = ExperimentSpec::from_args(&[
            "test",
            "--workloads=rv:crc32,hmmer_dp,chase_long,perl_hash,hmmer_dp,rv:crc32",
        ])
        .unwrap();
        assert_eq!(
            spec.workload_names(),
            ["perl_hash", "hmmer_dp", "rv:crc32", "chase_long"]
        );
        let all = ExperimentSpec::default().workload_names();
        assert_eq!(all.len(), 18);
        assert_eq!(all[0], "perl_hash");
        // A co-run keeps its plan order and its repeats.
        let co = ExperimentSpec::from_args(&[
            "test",
            "--machines=fgstp-small",
            "--corun=hmmer_dp,perl_hash,hmmer_dp",
        ])
        .unwrap();
        assert_eq!(co.workload_names(), ["hmmer_dp", "perl_hash", "hmmer_dp"]);
    }

    #[test]
    fn machine_sets_resolve_by_name() {
        assert_eq!(
            parse_machine_set("small-cmp").unwrap(),
            MachineKind::SMALL_CMP.to_vec()
        );
        assert_eq!(
            parse_machine_set("medium-cmp").unwrap(),
            MachineKind::MEDIUM_CMP.to_vec()
        );
        assert_eq!(parse_machine_set("all").unwrap(), MachineKind::ALL.to_vec());
        assert_eq!(
            parse_machine_set("scaling").unwrap(),
            MachineKind::WITH_SCALING.to_vec()
        );
        assert_eq!(
            parse_machine_set("single-small,fgstp-small-4").unwrap(),
            vec![MachineKind::SingleSmall, MachineKind::FgstpSmall4]
        );
        assert_eq!(
            parse_machine_set("nope").unwrap_err().kind,
            SpecErrorKind::UnknownMachine
        );
    }

    #[test]
    fn cores_beyond_the_partitioner_limit_are_a_bad_value() {
        let at_limit = format!("--cores={MAX_PARTITION_CORES}");
        assert!(ExperimentSpec::from_args(&["--machines=fgstp-small", &at_limit]).is_ok());
        let over = format!("--cores={}", MAX_PARTITION_CORES + 1);
        let e = ExperimentSpec::from_args(&["--machines=fgstp-small", &over]).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Value, "{e:?}");
        assert!(e.message.contains("65"), "{e:?}");
        // The same limit bounds a co-run's total.
        let corun = format!("--corun=perl_hash:{MAX_PARTITION_CORES},mcf_pointer:1");
        let e = ExperimentSpec::from_args(&["--machines=fgstp-small", &corun]).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Value, "{e:?}");
    }

    #[test]
    fn validation_rejects_each_unsatisfiable_shape() {
        let base = ExperimentSpec {
            scale: Scale::Test,
            ..ExperimentSpec::default()
        };

        let mut s = base.clone();
        s.workloads = vec!["nope".to_owned()];
        assert_eq!(
            s.validate().unwrap_err().kind,
            SpecErrorKind::UnknownWorkload
        );

        let mut s = base.clone();
        s.machines.clear();
        assert_eq!(
            s.validate().unwrap_err().kind,
            SpecErrorKind::UnknownMachine
        );

        let mut s = base.clone();
        s.cores = Some(2); // SMALL_CMP includes non-Fg-STP machines.
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Conflict);

        let mut s = base.clone();
        s.machines = vec![MachineKind::FgstpSmall];
        s.cores = Some(0);
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Value);

        let mut s = base.clone();
        s.machines = vec![MachineKind::FgstpSmall];
        s.cores = Some(2);
        s.sample = Some(SampleConfig::default());
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Conflict);

        let mut s = base.clone();
        s.threads = Some(0);
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Value);

        let mut s = base.clone();
        s.sample = Some(SampleConfig {
            interval: 100,
            warmup: 80,
            detail: 30,
        });
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Value);

        let mut s = base;
        s.sample = Some(SampleConfig {
            interval: 100,
            warmup: 50,
            detail: 0,
        });
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Value);
    }

    #[test]
    fn from_args_rejects_unknown_flags_with_usage() {
        let e = ExperimentSpec::from_args(&["--bogus"]).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::UnknownFlag);
        assert!(e.message.contains("--workloads="), "{e}");
        let e = ExperimentSpec::from_args(&["--threads=lots"]).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Value);
    }

    #[test]
    fn dedup_key_ignores_execution_knobs_but_not_figures() {
        let a = ExperimentSpec {
            scale: Scale::Test,
            ..ExperimentSpec::default()
        };
        let mut b = a.clone();
        b.threads = Some(7);
        b.no_cache = true;
        assert_eq!(
            a.dedup_key(),
            b.dedup_key(),
            "execution knobs (threads, caching) normalize away"
        );

        // An explicit full-suite workload list equals the implicit one.
        let mut c = a.clone();
        c.workloads = a.workload_names();
        assert_eq!(a.dedup_key(), c.dedup_key());

        let mut d = a.clone();
        d.telemetry = true;
        assert_ne!(
            a.dedup_key(),
            d.dedup_key(),
            "telemetry changes row content"
        );

        let mut e = a.clone();
        e.scale = Scale::Small;
        assert_ne!(a.dedup_key(), e.dedup_key());

        let mut f = a.clone();
        f.workloads = vec!["perl_hash".to_owned()];
        assert_ne!(a.dedup_key(), f.dedup_key());

        // The key is the normalized flag list; the order the workloads
        // are named in does not change what runs, so it does not change
        // the key either.
        let mut g = a.clone();
        g.machines = vec![MachineKind::SingleSmall];
        g.workloads = vec!["hmmer_dp".to_owned(), "perl_hash".to_owned()];
        g.threads = Some(2);
        assert_eq!(
            g.dedup_key(),
            "test --machines=single-small --workloads=perl_hash,hmmer_dp"
        );
        let mut h = g.clone();
        h.workloads.reverse();
        h.workloads.push("perl_hash".to_owned());
        assert_eq!(g.dedup_key(), h.dedup_key());
    }

    #[test]
    fn corun_flags_build_a_validated_spec_that_round_trips() {
        let spec = ExperimentSpec::from_args(&[
            "test",
            "--machines=fgstp-small",
            "--corun=perl_hash:2,hmmer_dp:2",
        ])
        .unwrap();
        let c = spec.corun.as_ref().unwrap();
        assert_eq!(c.programs.len(), 2);
        assert_eq!(c.programs[0].workload, "perl_hash");
        assert_eq!(c.programs[0].cores, 2);
        assert!(!c.isolated);
        assert_eq!(c.total_cores(), 4);
        assert_eq!(spec.workload_names(), ["perl_hash", "hmmer_dp"]);
        assert_eq!(ExperimentSpec::from_args(&spec.to_args()).unwrap(), spec);

        // Flag order does not matter; cores default to 1.
        let iso = ExperimentSpec::from_args(&[
            "test",
            "--corun-isolated",
            "--machines=fgstp-small",
            "--corun=perl_hash,hmmer_dp:3",
        ])
        .unwrap();
        let c = iso.corun.as_ref().unwrap();
        assert!(c.isolated);
        assert_eq!(c.programs[0].cores, 1);
        assert_eq!(c.programs[1].cores, 3);
        assert_eq!(ExperimentSpec::from_args(&iso.to_args()).unwrap(), iso);
        assert_ne!(spec.dedup_key(), iso.dedup_key());
    }

    #[test]
    fn corun_validation_rejects_each_conflict() {
        let base = || {
            let mut s = ExperimentSpec {
                scale: Scale::Test,
                machines: vec![MachineKind::FgstpSmall],
                ..ExperimentSpec::default()
            };
            s.corun = Some(CoRunSpec::parse("perl_hash:2,hmmer_dp").unwrap());
            s
        };
        base().validate().unwrap();

        let mut s = base();
        s.machines = MachineKind::SMALL_CMP.to_vec();
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Conflict);

        let mut s = base();
        s.machines = vec![MachineKind::SingleSmall];
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Conflict);

        let mut s = base();
        s.cores = Some(2);
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Conflict);

        // A shared-hierarchy co-run cannot be sampled; an isolated one can.
        let mut s = base();
        s.sample = Some(SampleConfig::default());
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Conflict);
        s.corun.as_mut().unwrap().isolated = true;
        s.validate().unwrap();

        let mut s = base();
        s.telemetry = true;
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Conflict);

        let mut s = base();
        s.workloads = vec!["perl_hash".to_owned()];
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Conflict);

        let mut s = base();
        s.corun.as_mut().unwrap().programs.clear();
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Value);

        let mut s = base();
        s.corun.as_mut().unwrap().programs[0].workload = "nope".to_owned();
        assert_eq!(
            s.validate().unwrap_err().kind,
            SpecErrorKind::UnknownWorkload
        );

        let mut s = base();
        s.corun.as_mut().unwrap().programs[0].cores = 0;
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Value);

        let mut s = base();
        s.corun.as_mut().unwrap().programs[0].cores = 100;
        assert_eq!(s.validate().unwrap_err().kind, SpecErrorKind::Value);

        // A non-numeric suffix is part of the workload name (it may be a
        // prefixed name like `rv:quicksort`), so the mistake surfaces at
        // validation as an unknown workload, not at parse time.
        let mut s = base();
        s.corun = Some(CoRunSpec::parse("perl_hash:lots").unwrap());
        assert_eq!(
            s.validate().unwrap_err().kind,
            SpecErrorKind::UnknownWorkload
        );
    }

    #[test]
    fn corun_parse_keeps_prefixed_workload_names_intact() {
        let c = CoRunSpec::parse("rv:quicksort,rv:crc32:2,perl_hash:3").unwrap();
        assert_eq!(
            c.programs,
            vec![
                CoRunProgramSpec {
                    workload: "rv:quicksort".to_owned(),
                    cores: 1,
                },
                CoRunProgramSpec {
                    workload: "rv:crc32".to_owned(),
                    cores: 2,
                },
                CoRunProgramSpec {
                    workload: "perl_hash".to_owned(),
                    cores: 3,
                },
            ]
        );
        let spec = ExperimentSpec {
            machines: vec![MachineKind::FgstpSmall4],
            corun: Some(c),
            ..ExperimentSpec::default()
        };
        spec.validate().unwrap();
    }

    #[test]
    fn spec_session_runs_the_filtered_matrix() {
        let spec = ExperimentSpec::from_args(&[
            "test",
            "--workloads=perl_hash,hmmer_dp",
            "--machines=single-small,fgstp-small",
            "--threads=2",
            "--no-cache",
        ])
        .unwrap();
        let results = spec.run().unwrap();
        assert_eq!(results.len(), 2);
        for b in &results {
            assert_eq!(b.runs.len(), 2);
            assert_eq!(b.runs[0].kind, MachineKind::SingleSmall);
            assert_eq!(b.runs[1].kind, MachineKind::FgstpSmall);
        }
    }

    #[test]
    fn cores_override_flows_through_the_session() {
        let spec = ExperimentSpec::from_args(&[
            "test",
            "--workloads=hmmer_dp",
            "--machines=fgstp-small",
            "--cores=3",
            "--no-cache",
        ])
        .unwrap();
        let results = spec.run().unwrap();
        assert_eq!(results[0].runs[0].result.cores.len(), 3);
    }
}
