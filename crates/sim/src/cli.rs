//! Command-line driver logic (the `fgstpsim` binary is a thin wrapper).
//!
//! Subcommands:
//!
//! * `list` — the workload suite;
//! * `run <workload> [machine] [scale] [--cores N] [--cpi-stack]
//!   [--chrome-trace <path>]` — one run with full statistics; `--cores`
//!   overrides the Fg-STP core count, `--cpi-stack` appends the cycle
//!   accounting breakdown and `--chrome-trace` writes a Chrome
//!   `trace_event` JSON timeline loadable in Perfetto / `chrome://tracing`;
//! * `compare <workload> [scale]` — the paper's six machines side by side;
//! * `pipeview <workload> [first..last]` — render the pipeline timeline of
//!   a range of instructions on the small core;
//! * `pipeview2 <workload> [first..last]` — the same on Fg-STP small, one
//!   timeline per core under the partition summary.
//!
//! All functions return the output as a `String` so the logic is testable
//! without capturing stdout (the only side effect is the `--chrome-trace`
//! output file).

use std::fmt::Write as _;

use fgstp::{run_fgstp_warm, FgstpConfig};
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::{CoreConfig, PipeRecorder, WarmState};
use fgstp_sampling::SampleConfig;
use fgstp_telemetry::{write_chrome_trace, NullSink, StallCategory};
use fgstp_workloads::{by_name, suite, Scale};

use crate::presets::MachineKind;
use crate::report::Table;
use crate::runner::{run_on_instrumented_with_cores, run_on_with_cores};
use crate::session::Session;
use crate::spec::{parse_machine, parse_scale, ExperimentSpec, SpecError};

/// Error for unknown CLI inputs, carrying a usage hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// The CLI reports a spec rejection by its message alone.
impl From<SpecError> for CliError {
    fn from(e: SpecError) -> CliError {
        CliError(e.message)
    }
}

fn find_workload(name: &str, scale: Scale) -> Result<fgstp_workloads::Workload, CliError> {
    by_name(name, scale).ok_or_else(|| {
        CliError(format!(
            "unknown workload `{name}` (one of: {})",
            fgstp_workloads::all_names().join(", ")
        ))
    })
}

/// `list`: one line per workload — the synthetic suite, then the RV32
/// real-program suite.
pub fn list() -> String {
    let mut t = Table::new(["name", "models", "class", "description"]);
    for w in suite(Scale::Test)
        .into_iter()
        .chain(fgstp_workloads::rv_suite(Scale::Test))
    {
        t.row([w.name, w.models, &w.suite.to_string(), w.description]);
    }
    t.to_string()
}

/// `run <workload> [machine] [scale]`. A scale word in the machine
/// position is accepted too (`run hmmer_dp test`), since users naturally
/// drop the machine.
pub fn run(workload: &str, machine: Option<&str>, scale: Option<&str>) -> Result<String, CliError> {
    run_instrumented(workload, machine, scale, None, false, None, None, false)
}

/// `run` with the overrides and observability flags: `cores` overrides the
/// Fg-STP core count, `cpi_stack` appends the CPI-stack breakdown,
/// `chrome_trace` writes the per-core stall timeline as Chrome
/// `trace_event` JSON to the given path, and `sample` switches to
/// SMARTS-style sampled simulation (projected totals plus the interval
/// summary; incompatible with `--cores` and `--chrome-trace`). Sampled
/// runs use the live-point cache unless `no_cache` is set: a re-run of
/// the same configuration skips functional warming by replaying the
/// stored warm states, bit-identically.
///
/// The run is checked by [`ExperimentSpec::validate`], the rule list
/// every frontend shares; only the `--chrome-trace` × `--sample` rule is
/// the CLI's own.
#[allow(clippy::too_many_arguments)]
pub fn run_instrumented(
    workload: &str,
    machine: Option<&str>,
    scale: Option<&str>,
    cores: Option<usize>,
    cpi_stack: bool,
    chrome_trace: Option<&str>,
    sample: Option<SampleConfig>,
    no_cache: bool,
) -> Result<String, CliError> {
    let (machine, scale) = match (machine, scale) {
        (Some(m), None) if parse_machine(m).is_err() && parse_scale(m).is_ok() => (None, Some(m)),
        other => other,
    };
    let scale = scale.map_or(Ok(Scale::Test), parse_scale)?;
    let kind = machine.map_or(Ok(MachineKind::FgstpSmall), parse_machine)?;
    let spec = ExperimentSpec {
        scale,
        machines: vec![kind],
        workloads: vec![workload.to_owned()],
        cores,
        no_cache,
        telemetry: cpi_stack,
        sample,
        ..ExperimentSpec::default()
    };
    spec.validate()?;
    if sample.is_some() && chrome_trace.is_some() {
        return Err(CliError(
            "--chrome-trace is not available under --sample (no episode timeline)".to_owned(),
        ));
    }
    let w = find_workload(workload, scale)?;
    let session = spec.session();
    let instrumented = cpi_stack || chrome_trace.is_some();
    let (r, committed, episodes, snap_stats) = if sample.is_some() {
        // The session path gives sampled runs the full live-point
        // machinery: snapshot load/store and parallel window dispatch.
        let mut bench = session.run_workload(&w);
        if let Some(e) = bench.error {
            return Err(CliError(e));
        }
        let r = bench.runs.pop().expect("one machine yields one run");
        (
            r,
            bench.committed,
            Vec::new(),
            Some(session.snapshot_stats()),
        )
    } else {
        let trace = session.trace(&w);
        let (r, ep) = if instrumented {
            run_on_instrumented_with_cores(kind, trace.insts(), chrome_trace.is_some(), cores)
        } else {
            let r = run_on_with_cores(kind, trace.insts(), cores, &mut NullSink);
            (r, Vec::new())
        };
        (r, trace.len() as u64, ep, None)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload:  {} ({committed} dynamic instructions)",
        w.name,
    );
    let _ = writeln!(out, "machine:   {kind}");
    let _ = writeln!(out, "cycles:    {}", r.result.cycles);
    let _ = writeln!(out, "ipc:       {:.3}", r.ipc());
    let (branches, mispredicts) = r.result.branches;
    let _ = writeln!(out, "branches:  {branches} ({mispredicts} mispredicted)");
    if let Some(s) = &r.sampled {
        let _ = writeln!(
            out,
            "sampling:  interval {} / warmup {} / detail {} ({} intervals)",
            s.config.interval,
            s.config.warmup,
            s.config.detail,
            s.intervals.len()
        );
        if s.cpi.ci_defined() {
            let _ = writeln!(
                out,
                "estimate:  {:.0} ± {:.0} cycles (95% CI), cpi {:.3} (cov {:.3})",
                s.est_cycles(),
                s.est_cycles_ci95_half(),
                s.cpi.mean,
                s.cpi.cov
            );
        } else {
            // A single interval carries no dispersion information; an
            // exact "± 0" would be misleading.
            let _ = writeln!(
                out,
                "estimate:  {:.0} cycles (CI unavailable: single interval), cpi {:.3}",
                s.est_cycles(),
                s.cpi.mean
            );
        }
        let _ = writeln!(
            out,
            "detail:    {} of {} insts in detail ({:.1}x reduction)",
            s.detailed_insts,
            s.total_insts,
            s.detail_reduction()
        );
        if let Some(st) = &snap_stats {
            let source = if st.hits > 0 { "replayed" } else { "stored" };
            let _ = writeln!(
                out,
                "live-points: {} hit / {} miss ({source}), {} insts warmed",
                st.hits, st.misses, st.warmed_insts
            );
        }
    }
    for (i, c) in r.result.cores.iter().enumerate() {
        let _ = writeln!(
            out,
            "core {i}:    fetched {} issued {} committed {} (+{} replicas), {} fwd, {} viol",
            c.fetched,
            c.issued,
            c.committed,
            c.replica_committed,
            c.store_forwards,
            c.load_violations + c.cross_violations,
        );
    }
    for (i, l1d) in r.result.mem.l1d.iter().enumerate() {
        let _ = writeln!(out, "l1d {i}:     {l1d}");
    }
    let _ = writeln!(out, "l2:        {}", r.result.mem.l2);
    if let Some(s) = &r.fgstp {
        let per_core: Vec<String> = s.partition.insts.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "partition: {} insts, {} replicated, {} comms ({:.2}/100 insts)",
            per_core.join("/"),
            s.partition.replicated,
            s.partition.cross_reg_deps,
            100.0 * s.partition.comms_per_inst(),
        );
    }
    if cpi_stack {
        let stack = r.cpi.as_ref().expect("instrumented run has a stack");
        let _ = writeln!(out, "\ncpi stack (aggregate core-cycles/inst):");
        let mut t = Table::new(["component", "cpi", "share"]);
        let total = stack.total_cycles().max(1);
        t.row([
            "base (committing)".to_owned(),
            format!(
                "{:.3}",
                stack.base_cycles as f64 / stack.committed.max(1) as f64
            ),
            format!("{:.1}%", 100.0 * stack.base_cycles as f64 / total as f64),
        ]);
        for c in StallCategory::ALL {
            if stack.stall(c) == 0 {
                continue;
            }
            t.row([
                format!("{} ({})", c.label(), c.describe()),
                format!("{:.3}", stack.category_cpi(c)),
                format!("{:.1}%", 100.0 * stack.fraction(c)),
            ]);
        }
        t.row([
            "TOTAL".to_owned(),
            format!("{:.3}", stack.cpi()),
            "100.0%".to_owned(),
        ]);
        let _ = write!(out, "{t}");
    }
    if let Some(path) = chrome_trace {
        let json = write_chrome_trace(kind.label(), &episodes);
        std::fs::write(path, &json)
            .map_err(|e| CliError(format!("cannot write chrome trace to {path}: {e}")))?;
        let _ = writeln!(
            out,
            "\nchrome trace: {path} ({} events, load in Perfetto or chrome://tracing)",
            episodes.len()
        );
    }
    Ok(out)
}

/// `compare <workload> [scale]`: all machines side by side (run in
/// parallel by the session's worker pool).
pub fn compare(workload: &str, scale: Option<&str>) -> Result<String, CliError> {
    let scale = scale.map_or(Ok(Scale::Test), parse_scale)?;
    let w = find_workload(workload, scale)?;
    let session = Session::new().scale(scale).machines(MachineKind::ALL);
    let bench = session.run_workload(&w);
    let base = &bench
        .run_of(MachineKind::SingleSmall)
        .expect("ALL includes single-small")
        .result;
    let mut t = Table::new(["machine", "cycles", "ipc", "vs single-small"]);
    for r in &bench.runs {
        t.row([
            r.kind.label().to_owned(),
            r.result.cycles.to_string(),
            format!("{:.3}", r.ipc()),
            format!("{:.3}x", r.result.speedup_over(base)),
        ]);
    }
    Ok(format!(
        "{} ({} instructions)\n{t}",
        w.name, bench.committed
    ))
}

/// `pipeview <workload> [first..last]`: timeline on the small core.
pub fn pipeview(workload: &str, range: Option<&str>) -> Result<String, CliError> {
    render_pipeview(workload, range, &FgstpConfig::single(CoreConfig::small()))
}

/// `pipeview2 <workload> [first..last]`: side-by-side per-core timeline of
/// the Fg-STP machine, showing the partitioned execution (replica rows
/// appear on every core holding a copy).
pub fn pipeview2(workload: &str, range: Option<&str>) -> Result<String, CliError> {
    render_pipeview(workload, range, &FgstpConfig::small())
}

/// The pipeline timeline of instructions `first..last` of `workload` at
/// test scale on the machine `cfg` with small caches. One core shows its
/// timeline alone; several show the partition summary, then one timeline
/// per core.
fn render_pipeview(
    workload: &str,
    range: Option<&str>,
    cfg: &FgstpConfig,
) -> Result<String, CliError> {
    let (from, to) = parse_range(range)?;
    let w = find_workload(workload, Scale::Test)?;
    let trace = Session::new().scale(Scale::Test).trace(&w);
    let mut warm = WarmState::new(&cfg.core, &HierarchyConfig::small(cfg.num_cores));
    let mut rec = PipeRecorder::with_limit(to);
    let (_, stats) = run_fgstp_warm(trace.insts(), cfg, &mut warm, 0, &mut rec);
    if cfg.num_cores == 1 {
        return Ok(rec.render(trace.insts(), 0, from, to));
    }
    let per_core: Vec<String> = stats.partition.insts.iter().map(u64::to_string).collect();
    let mut out = format!(
        "partition: {} instructions, {} replicated, {} communications\n",
        per_core.join("/"),
        stats.partition.replicated,
        stats.partition.cross_reg_deps,
    );
    for i in 0..cfg.num_cores {
        let view = rec.render(trace.insts(), i, from, to);
        let _ = write!(out, "\n--- core {i} ---\n{view}");
    }
    Ok(out)
}

/// Pulls the value of a `--sample-*` count flag off the argument stream.
fn parse_count_flag(it: &mut std::slice::Iter<'_, &str>, flag: &str) -> Result<u64, CliError> {
    let v = it
        .next()
        .copied()
        .ok_or_else(|| CliError(format!("{flag} needs an instruction count")))?;
    v.parse()
        .map_err(|_| CliError(format!("bad {flag} value `{v}`")))
}

fn parse_range(range: Option<&str>) -> Result<(u64, u64), CliError> {
    match range {
        None => Ok((0, 32)),
        Some(r) => {
            let (a, b) = r
                .split_once("..")
                .ok_or_else(|| CliError(format!("malformed range `{r}` (want first..last)")))?;
            let a = a
                .parse()
                .map_err(|_| CliError(format!("bad range start `{a}`")))?;
            let b = b
                .parse()
                .map_err(|_| CliError(format!("bad range end `{b}`")))?;
            if a >= b {
                return Err(CliError(format!("empty range `{r}`")));
            }
            Ok((a, b))
        }
    }
}

/// Dispatches a full argument vector (excluding argv\[0\]).
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["list"] => Ok(list()),
        ["run", w, rest @ ..] => {
            let mut cpi_stack = false;
            let mut chrome_trace: Option<&str> = None;
            let mut cores: Option<usize> = None;
            let mut sample = false;
            let mut no_cache = false;
            let mut scfg = SampleConfig::default();
            let mut positional: Vec<&str> = Vec::new();
            let mut it = rest.iter();
            while let Some(&a) = it.next() {
                match a {
                    "--cpi-stack" => cpi_stack = true,
                    "--no-cache" => no_cache = true,
                    "--chrome-trace" => {
                        chrome_trace = Some(it.next().copied().ok_or_else(|| {
                            CliError("--chrome-trace needs an output path".to_owned())
                        })?);
                    }
                    "--cores" => {
                        let n = it
                            .next()
                            .copied()
                            .ok_or_else(|| CliError("--cores needs a count".to_owned()))?;
                        cores = Some(
                            n.parse()
                                .map_err(|_| CliError(format!("bad core count `{n}`")))?,
                        );
                    }
                    "--sample" => sample = true,
                    "--sample-interval" => {
                        scfg.interval = parse_count_flag(&mut it, a)?;
                        sample = true;
                    }
                    "--sample-warmup" => {
                        scfg.warmup = parse_count_flag(&mut it, a)?;
                        sample = true;
                    }
                    "--sample-detail" => {
                        scfg.detail = parse_count_flag(&mut it, a)?;
                        sample = true;
                    }
                    _ => positional.push(a),
                }
            }
            run_instrumented(
                w,
                positional.first().copied(),
                positional.get(1).copied(),
                cores,
                cpi_stack,
                chrome_trace,
                sample.then_some(scfg),
                no_cache,
            )
        }
        ["compare", w, rest @ ..] => compare(w, rest.first().copied()),
        ["pipeview", w, rest @ ..] => pipeview(w, rest.first().copied()),
        ["pipeview2", w, rest @ ..] => pipeview2(w, rest.first().copied()),
        _ => Err(CliError(
            "usage: fgstpsim <list | run <workload> [machine] [scale] [--cores N] [--cpi-stack] [--chrome-trace <path>] [--sample] [--sample-interval N] [--sample-warmup N] [--sample-detail N] [--no-cache] | compare <workload> [scale] | pipeview <workload> [first..last] | pipeview2 <workload> [first..last]>"
                .to_owned(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_names_every_workload() {
        let out = list();
        for w in suite(Scale::Test) {
            assert!(out.contains(w.name), "{}", w.name);
        }
    }

    #[test]
    fn run_prints_core_stats() {
        let out = run("perl_hash", Some("fgstp-small"), Some("test")).unwrap();
        assert!(out.contains("core 0:"));
        assert!(out.contains("core 1:"));
        assert!(out.contains("partition:"));
    }

    #[test]
    fn run_rejects_unknown_inputs() {
        assert!(run("nope", None, None).is_err());
        assert!(run("perl_hash", Some("nope"), None).is_err());
        assert!(run("perl_hash", None, Some("nope")).is_err());
    }

    #[test]
    fn run_accepts_scale_in_the_machine_position() {
        // `fgstpsim run <workload> test` — users naturally drop the machine.
        let out = run("perl_hash", Some("test"), None).unwrap();
        assert!(out.contains("fgstp-small"), "default machine used: {out}");
    }

    #[test]
    fn compare_lists_all_machines() {
        let out = compare("hmmer_dp", Some("test")).unwrap();
        for k in MachineKind::ALL {
            assert!(out.contains(k.label()), "{}", k.label());
        }
    }

    #[test]
    fn pipeview_renders_a_timeline() {
        let out = pipeview("perl_hash", Some("0..8")).unwrap();
        assert!(out.contains("cycles"));
        assert!(out.lines().count() >= 9, "{out}");
    }

    #[test]
    fn pipeview_rejects_bad_ranges() {
        assert!(pipeview("perl_hash", Some("8..8")).is_err());
        assert!(pipeview("perl_hash", Some("abc")).is_err());
    }

    #[test]
    fn dispatch_routes_subcommands() {
        assert!(dispatch(&["list".into()]).is_ok());
        assert!(dispatch(&["bogus".into()]).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn run_cpi_stack_flag_appends_the_breakdown() {
        let out = dispatch(&[
            "run".into(),
            "perl_hash".into(),
            "fgstp-small".into(),
            "test".into(),
            "--cpi-stack".into(),
        ])
        .unwrap();
        assert!(out.contains("cpi stack"), "{out}");
        assert!(out.contains("base (committing)"), "{out}");
        assert!(out.contains("TOTAL"), "{out}");
    }

    #[test]
    fn run_chrome_trace_flag_writes_a_json_file() {
        let path =
            std::env::temp_dir().join(format!("fgstp-cli-chrome-{}.json", std::process::id()));
        let out = dispatch(&[
            "run".into(),
            "perl_hash".into(),
            "--chrome-trace".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("chrome trace:"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chrome_trace_flag_requires_a_path() {
        let e = dispatch(&["run".into(), "perl_hash".into(), "--chrome-trace".into()]);
        assert!(e.is_err());
    }

    #[test]
    fn pipeview2_shows_both_cores_and_the_partition() {
        let out = pipeview2("hmmer_dp", Some("0..24")).unwrap();
        assert!(out.contains("--- core 0 ---"));
        assert!(out.contains("--- core 1 ---"));
        assert!(out.contains("partition:"));
    }

    #[test]
    fn cores_flag_overrides_the_fgstp_core_count() {
        let out = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "fgstp-small".into(),
            "test".into(),
            "--cores".into(),
            "3".into(),
        ])
        .unwrap();
        assert!(out.contains("core 2:"), "{out}");
        assert!(!out.contains("core 3:"), "{out}");
    }

    #[test]
    fn cores_flag_rejects_bad_inputs() {
        assert!(run_instrumented(
            "hmmer_dp",
            Some("single-small"),
            None,
            Some(2),
            false,
            None,
            None,
            false
        )
        .is_err());
        assert!(
            run_instrumented("hmmer_dp", None, None, Some(0), false, None, None, false).is_err()
        );
        let e = dispatch(&["run".into(), "hmmer_dp".into(), "--cores".into()]);
        assert!(e.is_err());
        let e = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--cores".into(),
            "many".into(),
        ]);
        assert!(e.is_err());
    }

    #[test]
    fn sample_flag_switches_to_projected_totals() {
        let out = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "fgstp-small".into(),
            "test".into(),
            "--sample".into(),
            "--sample-interval".into(),
            "2000".into(),
            "--sample-warmup".into(),
            "300".into(),
            "--sample-detail".into(),
            "150".into(),
        ])
        .unwrap();
        assert!(
            out.contains("sampling:  interval 2000 / warmup 300 / detail 150"),
            "{out}"
        );
        assert!(out.contains("estimate:"), "{out}");
        assert!(out.contains("x reduction"), "{out}");
    }

    #[test]
    fn sample_value_flags_imply_sampling() {
        let out = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample-interval".into(),
            "3000".into(),
        ])
        .unwrap();
        assert!(out.contains("sampling:  interval 3000"), "{out}");
    }

    #[test]
    fn sample_flag_composes_with_cpi_stack() {
        let out = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample".into(),
            "--cpi-stack".into(),
        ])
        .unwrap();
        assert!(out.contains("sampling:"), "{out}");
        assert!(out.contains("cpi stack"), "{out}");
    }

    #[test]
    fn sample_flag_rejects_bad_combinations() {
        let chrome = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample".into(),
            "--chrome-trace".into(),
            "/tmp/x.json".into(),
        ]);
        assert!(chrome.is_err());
        let cores = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample".into(),
            "--cores".into(),
            "2".into(),
        ]);
        assert!(cores.is_err());
        let oversized = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample-interval".into(),
            "100".into(),
        ]);
        assert!(oversized.is_err(), "default window no longer fits");
        let missing = dispatch(&["run".into(), "hmmer_dp".into(), "--sample-detail".into()]);
        assert!(missing.is_err());
        let bad = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample-detail".into(),
            "lots".into(),
        ]);
        assert!(bad.is_err());
    }

    /// Validation matrix: every combination of `--sample` with the flags
    /// it excludes is rejected, in either flag order, and the error names
    /// the offending flag. A combination that merely *implies* sampling
    /// (`--sample-interval`) conflicts exactly like the explicit flag.
    #[test]
    fn sample_exclusion_matrix() {
        let sample_forms: [&[&str]; 2] = [&["--sample"], &["--sample-interval", "2000"]];
        let excluded: [(&[&str], &str); 2] = [
            (&["--cores", "2"], "--cores"),
            (
                &["--chrome-trace", "/tmp/fgstp-matrix.json"],
                "--chrome-trace",
            ),
        ];
        for sample in sample_forms {
            for (conflict, flag) in excluded {
                for order in 0..2 {
                    let mut args = vec!["run".to_owned(), "hmmer_dp".to_owned()];
                    let (first, second) = if order == 0 {
                        (sample, conflict)
                    } else {
                        (conflict, sample)
                    };
                    args.extend(first.iter().map(|s| s.to_string()));
                    args.extend(second.iter().map(|s| s.to_string()));
                    let e = dispatch(&args).expect_err(&format!("{args:?} must be rejected"));
                    assert!(
                        e.0.contains(flag),
                        "error for {args:?} names {flag}: {}",
                        e.0
                    );
                }
            }
        }
        // Both conflicts at once still fail (whichever is reported first).
        let e = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample".into(),
            "--cores".into(),
            "2".into(),
            "--chrome-trace".into(),
            "/tmp/fgstp-matrix.json".into(),
        ]);
        assert!(e.is_err());
    }

    /// `--sample-*` parsing edges: exact-fit windows are accepted, the
    /// first over-budget instruction is rejected, zero detail is rejected,
    /// and every value flag needs a numeric argument.
    #[test]
    fn sample_value_parsing_edges() {
        let run_with = |interval: &str, warmup: &str, detail: &str| {
            dispatch(&[
                "run".into(),
                "hmmer_dp".into(),
                "--sample-interval".into(),
                interval.into(),
                "--sample-warmup".into(),
                warmup.into(),
                "--sample-detail".into(),
                detail.into(),
            ])
        };
        // warmup + detail == interval is the largest window that fits.
        assert!(run_with("1000", "500", "500").is_ok());
        // One instruction over the interval fails with the budget message.
        let e = run_with("1000", "500", "501").unwrap_err();
        assert!(e.0.contains("must fit in the interval"), "{}", e.0);
        // Zero-instruction detail windows measure nothing.
        let e = run_with("1000", "100", "0").unwrap_err();
        assert!(e.0.contains("--sample-detail"), "{}", e.0);
        // Each value flag demands an argument...
        for flag in ["--sample-interval", "--sample-warmup", "--sample-detail"] {
            let e = dispatch(&["run".into(), "hmmer_dp".into(), flag.into()]).unwrap_err();
            assert!(e.0.contains(flag), "{}", e.0);
            // ...and a numeric one: negatives and words don't parse as u64.
            for bad in ["many", "-5", "1e6"] {
                let e = dispatch(&["run".into(), "hmmer_dp".into(), flag.into(), bad.into()])
                    .unwrap_err();
                assert!(e.0.contains(flag) && e.0.contains(bad), "{}", e.0);
            }
        }
    }

    /// `--cores` validation composes with machine selection: valid on any
    /// Fg-STP preset, rejected on every non-Fg-STP preset and for zero.
    #[test]
    fn cores_machine_matrix() {
        for kind in MachineKind::ALL {
            let r = run_instrumented(
                "hmmer_dp",
                Some(kind.label()),
                Some("test"),
                Some(2),
                false,
                None,
                None,
                false,
            );
            if kind.is_fgstp() {
                assert!(r.is_ok(), "{}: {r:?}", kind.label());
            } else {
                let e = r.expect_err(kind.label());
                assert!(e.0.contains("--cores"), "{}", e.0);
            }
        }
        let e = run_instrumented("hmmer_dp", None, None, Some(0), false, None, None, false)
            .unwrap_err();
        assert!(e.0.contains("at least one core"), "{}", e.0);
    }

    #[test]
    fn scaling_presets_are_reachable_by_label() {
        let out = run("hmmer_dp", Some("fgstp-small-4"), Some("test")).unwrap();
        assert!(out.contains("core 3:"), "{out}");
        assert!(out.contains("fgstp-small-4"), "{out}");
    }
}
