//! `bench_e2e`: the repository's end-to-end benchmark. It times whole
//! workloads the way users run them, checks every simulated result
//! against a recorded table, and with `--trace 1` splits host time by
//! layer. See README.md for the workloads, the metrics and why.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! bench_e2e --smoke
//! bench_e2e compare <A.json> <B.json>
//! bench_e2e golden > golden.tsv
//! ```

mod compare;
mod golden;
mod heap;
mod layers;
mod run;
mod spans;
mod stats;
mod suite;

use std::collections::BTreeSet;
use std::time::Instant;

use crate::layers::Scale;
use crate::suite::{Def, Kind, SAMPLE, WORKLOADS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str = "usage: bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
       bench_e2e --smoke
       bench_e2e compare <A.json> <B.json>
       bench_e2e golden";

/// `--seconds` when none is given.
const DEFAULT_SECONDS: f64 = 10.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("golden") => write_golden(),
        _ => bench(&args),
    };
    std::process::exit(code);
}

/// Parsed benchmark options.
#[derive(Debug, PartialEq)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_owned())),
            None => (arg.as_str(), None),
        };
        match flag {
            "--smoke" => opts.smoke = true,
            "--traced" => opts.traced = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = inline
                    .or_else(|| it.next().cloned())
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = || format!("bad {flag} value `{value}`");
                match flag {
                    "--workload" => opts.workload = Some(value.clone()),
                    "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        opts.seconds = value.parse().map_err(|_| bad())?;
                        if !opts.seconds.is_finite() || opts.seconds < 0.0 {
                            return Err(bad());
                        }
                    }
                    _ => {
                        opts.traced = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad()),
                        }
                    }
                }
            }
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    Ok(opts)
}

fn bench(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return 2;
        }
    };
    if opts.smoke {
        return smoke();
    }
    let Some(def) = opts.workload.as_deref().and_then(suite::find) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|d| d.name).collect();
        eprintln!(
            "bench_e2e: --workload must be one of {}\n{USAGE}",
            names.join(", ")
        );
        return 2;
    };
    match run::run(def, opts.seed, opts.seconds, opts.traced) {
        Ok(report) => {
            let list = |xs: &[f64]| {
                xs.iter()
                    .map(|s| format!("{s:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            eprintln!(
                "bench_e2e: {} seed {}: set-ups [{}] s, passes [{}] s, results fingerprint {:016x}",
                def.name,
                opts.seed,
                list(&report.setup_secs),
                list(&report.pass_secs),
                report.fingerprint
            );
            println!("{}", result_line(&report));
            i32::from(report.failed > 0)
        }
        Err(e) => {
            eprintln!("bench_e2e: {}: {e}", def.name);
            1
        }
    }
}

/// The result object, on one line.
fn result_line(report: &run::Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a non-finite figure is a bug.
            assert!(value.is_finite(), "{name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The same workload at `test` scale.
fn at_test_scale(def: Def) -> Def {
    Def {
        scale: Scale::Test,
        ..def
    }
}

/// Every workload at `test` scale, one pass each: a quick end-to-end
/// check that exits non-zero on any failed op.
fn smoke() -> i32 {
    let start = Instant::now();
    let mut failed = 0;
    for def in WORKLOADS.map(at_test_scale) {
        let t = Instant::now();
        match run::run(def, 0, 0.0, false) {
            Ok(r) => {
                println!(
                    "smoke {:<14} {:>4} ops {:>2} failed  {:>6.2} s",
                    def.name,
                    r.attempted,
                    r.failed,
                    t.elapsed().as_secs_f64()
                );
                failed += r.failed;
            }
            Err(e) => {
                println!("smoke {:<14} error: {e}", def.name);
                failed += 1;
            }
        }
    }
    println!(
        "smoke: {} failed op(s) in {:.2} s",
        failed,
        start.elapsed().as_secs_f64()
    );
    i32::from(failed > 0)
}

/// Prints the correctness table: every job of every workload at its own
/// scale and at `test` scale (the smoke run), and of the service pool.
fn write_golden() -> i32 {
    let mut rows = BTreeSet::new();
    let mut defs: Vec<Def> = WORKLOADS.to_vec();
    defs.extend(WORKLOADS.map(at_test_scale));
    for def in defs {
        let scale = layers::scale_word(def.scale);
        let jobs = match def.kind {
            Kind::Service => layers::service_pool(def.scale).and_then(|pool| {
                pool.iter()
                    .map(layers::pool_jobs)
                    .collect::<Result<Vec<_>, _>>()
                    .map(|j| j.concat())
            }),
            kind => {
                let sample = (kind != Kind::Detail).then_some(SAMPLE);
                layers::uncached_jobs(def.scale, def.kernels, def.machines, sample)
            }
        };
        match jobs {
            Ok(jobs) => rows.extend(jobs.iter().map(|j| golden::row(scale, j))),
            Err(e) => {
                eprintln!("bench_e2e golden: {}: {e}", def.name);
                return 1;
            }
        }
    }
    println!("{}", golden::HEADER);
    for r in rows {
        println!("{r}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_telemetry::json::Json;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn both_flag_spellings_parse() {
        let a = parse(&args("--workload service --seed 3 --seconds 10 --trace 1")).unwrap();
        let b = parse(&args("--workload=service --seed=3 --traced")).unwrap();
        assert_eq!(a, Opts { seconds: 10.0, ..b });
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus")).is_err());
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let report = run::Report {
            attempted: 28,
            failed: 0,
            metrics: vec![("wall_s", 1.25, "s"), ("sim_mips", 0.000_001, "MIPS")],
            fingerprint: 0,
            setup_secs: vec![0.5],
            pass_secs: vec![1.25],
        };
        let line = result_line(&report);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("wall_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(
            m.get("sim_mips").unwrap().get("unit").unwrap().as_str(),
            Some("MIPS")
        );
    }

    /// `BENCHMARK.json` names exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&run::END_TO_END));
        assert_eq!(listed("per_layer"), own(&run::PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        let own: Vec<String> = WORKLOADS.iter().map(|d| d.name.to_owned()).collect();
        assert_eq!(workloads, own);
    }
}
