//! The unified experiment specification.
//!
//! An [`ExperimentSpec`] names everything one experiment run needs —
//! workload subset, machine set, scale, optional Fg-STP core-count
//! override, sampling regime, telemetry, and execution knobs — in one
//! validated, JSON-serializable value. The same spec drives every
//! frontend:
//!
//! * the experiment binaries (`crates/bench`) parse their shared flags
//!   into a spec via [`ExperimentSpec::apply_arg`];
//! * the `fgstp` CLI client parses the identical flags and either runs
//!   the spec locally ([`ExperimentSpec::run`]) or submits it to a
//!   daemon;
//! * the `fgstpd` batch-simulation daemon receives specs as JSON
//!   ([`ExperimentSpec::from_json`]), dedups them on
//!   [`ExperimentSpec::dedup_key`], and executes them on a [`Session`].
//!
//! Conversion to the driver layer is [`ExperimentSpec::session`]: the
//! returned [`Session`] carries the spec's workload filter, machine set
//! and knobs, so `spec.session().plan()` *is* the spec-to-[`RunPlan`]
//! conversion and `spec.run()` executes it.
//!
//! Validation is structural and total: [`ExperimentSpec::validate`]
//! rejects unknown workload or machine names, zero core/thread counts,
//! and unsatisfiable combinations (`--cores` on a non-Fg-STP machine,
//! `--cores` × `--sample`, sample windows that do not fit the interval)
//! with a typed [`SpecError`] instead of panicking downstream — the
//! error's [`SpecErrorKind`] crosses the daemon protocol as a stable
//! string.

use fgstp_sampling::SampleConfig;
use fgstp_telemetry::json::Json;
use fgstp_workloads::{by_name, suite, Scale};

use crate::presets::MachineKind;
use crate::runner::BenchResult;
#[allow(unused_imports)] // doc link
use crate::session::RunPlan;
use crate::session::Session;

/// What made a spec invalid; [`SpecErrorKind::label`] is the stable
/// protocol string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// Malformed JSON, or a JSON document of the wrong shape.
    Json,
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
            SpecErrorKind::Json => "bad-json",
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

/// The flag vocabulary accepted by [`ExperimentSpec::apply_arg`], for
/// usage messages.
pub const SPEC_USAGE: &str = "[test|small|reference] [--workloads=a,b,..] \
[--machines=small-cmp|medium-cmp|all|scaling|<label,..>] [--cores=N] \
[--threads=N] [--no-cache] [--telemetry] [--sample] [--sample-interval=N] \
[--sample-warmup=N] [--sample-detail=N] \
[--corun=wl[:cores],..] [--corun-isolated]";

impl ExperimentSpec {
    /// Applies one CLI argument to the spec. Returns `Ok(true)` when the
    /// argument was consumed, `Ok(false)` when it is not part of the
    /// spec vocabulary (so callers can layer their own flags, e.g.
    /// `--csv`), and an error when it *is* a spec flag with a bad value.
    pub fn apply_arg(&mut self, arg: &str) -> Result<bool, SpecError> {
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

    /// Checks the spec is satisfiable; see the [module docs](self) for
    /// the full rule list. All frontends call this before executing or
    /// enqueueing, so an invalid spec can never reach a worker pool.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.machines.is_empty() {
            return Err(SpecError::new(
                SpecErrorKind::UnknownMachine,
                "machine set is empty",
            ));
        }
        for name in &self.workloads {
            if by_name(name, Scale::Test).is_none() {
                return Err(SpecError::new(
                    SpecErrorKind::UnknownWorkload,
                    format!(
                        "unknown workload `{name}` (one of: {})",
                        fgstp_workloads::all_names().join(", ")
                    ),
                ));
            }
        }
        if let Some(n) = self.cores {
            if n == 0 {
                return Err(SpecError::new(
                    SpecErrorKind::Value,
                    "--cores needs at least one core",
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
                if by_name(&p.workload, Scale::Test).is_none() {
                    return Err(SpecError::new(
                        SpecErrorKind::UnknownWorkload,
                        format!(
                            "unknown co-run workload `{}` (one of: {})",
                            p.workload,
                            fgstp_workloads::all_names().join(", ")
                        ),
                    ));
                }
                if p.cores == 0 {
                    return Err(SpecError::new(
                        SpecErrorKind::Value,
                        format!("co-run program `{}` needs at least one core", p.workload),
                    ));
                }
            }
            if c.total_cores() > 64 {
                return Err(SpecError::new(
                    SpecErrorKind::Value,
                    format!("co-run asks for {} cores (max 64)", c.total_cores()),
                ));
            }
        }
        Ok(())
    }

    /// The workload names this spec runs — one per co-run program (in
    /// plan order, duplicates kept: each program produces its own result
    /// row), else the explicit subset, else the whole suite, both in
    /// suite order.
    pub fn workload_names(&self) -> Vec<String> {
        if let Some(c) = &self.corun {
            return c.programs.iter().map(|p| p.workload.clone()).collect();
        }
        if self.workloads.is_empty() {
            suite(Scale::Test)
                .iter()
                .map(|w| w.name.to_owned())
                .collect()
        } else {
            self.workloads.clone()
        }
    }

    /// A [`Session`] configured from this spec: scale, machine set,
    /// workload filter, core override, threads, caching, telemetry and
    /// sampling. `spec.session().plan()` is the spec-to-[`RunPlan`]
    /// conversion.
    pub fn session(&self) -> Session {
        let mut s = Session::new()
            .scale(self.scale)
            .machines(self.machines.iter().copied())
            .telemetry(self.telemetry);
        if !self.workloads.is_empty() {
            s = s.workloads(self.workloads.iter().cloned());
        }
        if let Some(n) = self.cores {
            s = s.cores(n);
        }
        if let Some(n) = self.threads {
            s = s.threads(n);
        }
        if self.no_cache {
            s = s.no_cache();
        }
        if let Some(scfg) = self.sample {
            s = s.sample(scfg);
        }
        if let Some(c) = &self.corun {
            s = s.corun(c.clone());
        }
        s
    }

    /// Validates and runs the spec to completion on a fresh session.
    pub fn run(&self) -> Result<Vec<BenchResult>, SpecError> {
        self.validate()?;
        Ok(self.session().run_suite())
    }

    /// Serializes to the canonical JSON shape ([`ExperimentSpec::from_json`]
    /// round-trips it).
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<usize>| match v {
            Some(n) => Json::Num(n as f64),
            None => Json::Null,
        };
        let sample = match &self.sample {
            Some(s) => Json::Obj(vec![
                ("interval".to_owned(), Json::Num(s.interval as f64)),
                ("warmup".to_owned(), Json::Num(s.warmup as f64)),
                ("detail".to_owned(), Json::Num(s.detail as f64)),
            ]),
            None => Json::Null,
        };
        let corun = match &self.corun {
            Some(c) => Json::Obj(vec![
                (
                    "programs".to_owned(),
                    Json::Arr(
                        c.programs
                            .iter()
                            .map(|p| {
                                Json::Obj(vec![
                                    ("workload".to_owned(), Json::Str(p.workload.clone())),
                                    ("cores".to_owned(), Json::Num(p.cores as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("isolated".to_owned(), Json::Bool(c.isolated)),
            ]),
            None => Json::Null,
        };
        Json::Obj(vec![
            (
                "scale".to_owned(),
                Json::Str(scale_word(self.scale).to_owned()),
            ),
            (
                "machines".to_owned(),
                Json::Arr(
                    self.machines
                        .iter()
                        .map(|k| Json::Str(k.label().to_owned()))
                        .collect(),
                ),
            ),
            (
                "workloads".to_owned(),
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| Json::Str(w.clone()))
                        .collect(),
                ),
            ),
            ("cores".to_owned(), opt_num(self.cores)),
            ("threads".to_owned(), opt_num(self.threads)),
            ("no_cache".to_owned(), Json::Bool(self.no_cache)),
            ("telemetry".to_owned(), Json::Bool(self.telemetry)),
            ("sample".to_owned(), sample),
            ("corun".to_owned(), corun),
        ])
    }

    /// Deserializes and validates a spec from its JSON shape. Missing
    /// fields take their defaults; unknown fields are an error (a
    /// misspelled knob silently ignored would run the wrong experiment).
    pub fn from_json(v: &Json) -> Result<ExperimentSpec, SpecError> {
        let bad = |msg: String| SpecError::new(SpecErrorKind::Json, msg);
        let Json::Obj(members) = v else {
            return Err(bad("spec must be a JSON object".to_owned()));
        };
        let mut spec = ExperimentSpec::default();
        let as_count = |v: &Json, what: &str| -> Result<u64, SpecError> {
            match v.as_f64() {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
                _ => Err(bad(format!("spec field `{what}` must be a whole number"))),
            }
        };
        for (key, value) in members {
            match key.as_str() {
                "scale" => {
                    let w = value
                        .as_str()
                        .ok_or_else(|| bad("spec field `scale` must be a string".to_owned()))?;
                    spec.scale = parse_scale(w)?;
                }
                "machines" => {
                    let arr = value
                        .as_arr()
                        .ok_or_else(|| bad("spec field `machines` must be an array".to_owned()))?;
                    spec.machines = arr
                        .iter()
                        .map(|m| {
                            m.as_str()
                                .ok_or_else(|| bad("machine labels must be strings".to_owned()))
                                .and_then(parse_machine)
                        })
                        .collect::<Result<_, _>>()?;
                }
                "workloads" => {
                    let arr = value
                        .as_arr()
                        .ok_or_else(|| bad("spec field `workloads` must be an array".to_owned()))?;
                    spec.workloads = arr
                        .iter()
                        .map(|w| {
                            w.as_str()
                                .map(str::to_owned)
                                .ok_or_else(|| bad("workload names must be strings".to_owned()))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "cores" => {
                    spec.cores = match value {
                        Json::Null => None,
                        v => Some(as_count(v, "cores")? as usize),
                    };
                }
                "threads" => {
                    spec.threads = match value {
                        Json::Null => None,
                        v => Some(as_count(v, "threads")? as usize),
                    };
                }
                "no_cache" => {
                    spec.no_cache = match value {
                        Json::Bool(b) => *b,
                        _ => return Err(bad("spec field `no_cache` must be a bool".to_owned())),
                    };
                }
                "telemetry" => {
                    spec.telemetry = match value {
                        Json::Bool(b) => *b,
                        _ => return Err(bad("spec field `telemetry` must be a bool".to_owned())),
                    };
                }
                "sample" => {
                    spec.sample = match value {
                        Json::Null => None,
                        v => Some(SampleConfig {
                            interval: as_count(
                                v.get("interval").unwrap_or(&Json::Null),
                                "sample.interval",
                            )?,
                            warmup: as_count(
                                v.get("warmup").unwrap_or(&Json::Null),
                                "sample.warmup",
                            )?,
                            detail: as_count(
                                v.get("detail").unwrap_or(&Json::Null),
                                "sample.detail",
                            )?,
                        }),
                    };
                }
                "corun" => {
                    spec.corun = match value {
                        Json::Null => None,
                        v => {
                            let progs =
                                v.get("programs").and_then(Json::as_arr).ok_or_else(|| {
                                    bad("spec field `corun.programs` must be an array".to_owned())
                                })?;
                            let programs = progs
                                .iter()
                                .map(|p| {
                                    let workload = p
                                        .get("workload")
                                        .and_then(Json::as_str)
                                        .ok_or_else(|| {
                                            bad("co-run programs need a `workload` string"
                                                .to_owned())
                                        })?
                                        .to_owned();
                                    let cores = as_count(
                                        p.get("cores").unwrap_or(&Json::Null),
                                        "corun.programs[].cores",
                                    )? as usize;
                                    Ok(CoRunProgramSpec { workload, cores })
                                })
                                .collect::<Result<_, SpecError>>()?;
                            let isolated = match v.get("isolated") {
                                None | Some(Json::Null) => false,
                                Some(Json::Bool(b)) => *b,
                                _ => {
                                    return Err(bad(
                                        "spec field `corun.isolated` must be a bool".to_owned()
                                    ))
                                }
                            };
                            Some(CoRunSpec { programs, isolated })
                        }
                    };
                }
                other => {
                    return Err(bad(format!("unknown spec field `{other}`")));
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text (see [`ExperimentSpec::from_json`]).
    pub fn parse_json(text: &str) -> Result<ExperimentSpec, SpecError> {
        let v = Json::parse(text)
            .map_err(|e| SpecError::new(SpecErrorKind::Json, format!("malformed JSON: {e}")))?;
        ExperimentSpec::from_json(&v)
    }

    /// The job-deduplication identity of this spec: two specs with equal
    /// keys produce bit-identical result rows, so a batch service can
    /// serve one from the other's cached results.
    ///
    /// The key normalizes away pure execution knobs (`threads`,
    /// `no_cache` — the worker pool and the live-point cache never change
    /// a figure) and resolves an empty workload list to the concrete
    /// suite. It carries no format versions: keys are compared only
    /// within one running process.
    pub fn dedup_key(&self) -> String {
        let mut normalized = self.clone();
        if self.corun.is_none() {
            normalized.workloads = self.workload_names();
        }
        let mut body = normalized.to_json();
        if let Json::Obj(members) = &mut body {
            members.retain(|(k, _)| k != "threads" && k != "no_cache");
        }
        // Render on one line: the key is a map key, not a document.
        body.render()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid_and_round_trips() {
        let spec = ExperimentSpec::default();
        spec.validate().unwrap();
        let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn full_spec_round_trips_through_json_text() {
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
        let text = spec.to_json().render();
        assert_eq!(ExperimentSpec::parse_json(&text).unwrap(), spec);

        let sampled = ExperimentSpec {
            cores: None,
            sample: Some(SampleConfig {
                interval: 2_000,
                warmup: 300,
                detail: 150,
            }),
            ..spec
        };
        let text = sampled.to_json().render();
        assert_eq!(ExperimentSpec::parse_json(&text).unwrap(), sampled);
    }

    #[test]
    fn args_build_the_same_spec_as_json() {
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
        assert_eq!(ExperimentSpec::from_json(&spec.to_json()).unwrap(), spec);
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
    fn from_json_rejects_unknown_fields_and_bad_shapes() {
        let e = ExperimentSpec::parse_json(r#"{"scael": "test"}"#).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Json);
        assert!(e.message.contains("scael"), "{e}");

        let e = ExperimentSpec::parse_json(r#"{"scale": 4}"#).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Json);

        let e = ExperimentSpec::parse_json(r#"{"cores": 1.5}"#).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Json);

        let e = ExperimentSpec::parse_json("{not json").unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::Json);

        // Validation runs on the parsed document too.
        let e = ExperimentSpec::parse_json(r#"{"workloads": ["nope"]}"#).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::UnknownWorkload);
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
        assert_eq!(ExperimentSpec::from_json(&spec.to_json()).unwrap(), spec);

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
        assert_eq!(ExperimentSpec::from_json(&iso.to_json()).unwrap(), iso);
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
