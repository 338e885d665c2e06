//! `fgstp` — command-line client for the batch-simulation service.
//!
//! Every subcommand that takes an experiment uses the shared
//! [`ExperimentSpec`] flag vocabulary — the exact flags the `exp_*`
//! harness binaries accept — so a spec can be rehearsed locally with
//! `run` and then submitted verbatim.
//!
//! ```text
//! fgstp run    <spec flags> [--csv]            # daemonless local run
//! fgstp submit [--addr=H:P] <spec flags> [--wait] [--csv]
//! fgstp status [--addr=H:P] [--job=N]
//! fgstp results [--addr=H:P] --job=N [--wait] [--csv]
//! fgstp stats  [--addr=H:P]
//! fgstp shutdown [--addr=H:P] [--now]
//! ```
//!
//! `--addr` defaults to `127.0.0.1:4655` (the `fgstpd` default).
//! Comparison-triple machine sets render as the E1-style speedup table;
//! anything else as a long-format run table. Exit status: 0 on success,
//! 1 on a failed job or daemon error, 2 on usage errors.

use std::process::exit;

use fgstp_service::client::Client;
use fgstp_service::protocol::bench_result_row;
use fgstp_service::render::render_rows;
use fgstp_sim::spec::SPEC_USAGE;
use fgstp_sim::ExperimentSpec;
use fgstp_telemetry::json::Json;

const DEFAULT_ADDR: &str = "127.0.0.1:4655";

const USAGE: &str = "usage: fgstp <run|submit|status|results|stats|shutdown> \
[--addr=HOST:PORT] [--timeout=SECS] [--job=N] [--wait] [--now] [--csv] <spec flags>\n\
spec flags: ";

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}{SPEC_USAGE}");
    exit(2)
}

/// Flags shared by the subcommands, split off the spec vocabulary.
struct Cli {
    addr: String,
    timeout: std::time::Duration,
    job: Option<u64>,
    wait: bool,
    now: bool,
    csv: bool,
    spec: ExperimentSpec,
}

impl Cli {
    fn parse(args: &[String]) -> Cli {
        let mut cli = Cli {
            addr: DEFAULT_ADDR.to_owned(),
            timeout: std::time::Duration::from_secs(10),
            job: None,
            wait: false,
            now: false,
            csv: false,
            spec: ExperimentSpec::default(),
        };
        let mut spec_args = Vec::new();
        for a in args {
            if let Some(v) = a.strip_prefix("--addr=") {
                cli.addr = v.to_owned();
            } else if let Some(v) = a.strip_prefix("--timeout=") {
                match v.parse::<f64>() {
                    Ok(s) if s > 0.0 => cli.timeout = std::time::Duration::from_secs_f64(s),
                    _ => usage_exit(&format!("bad --timeout value `{v}`")),
                }
            } else if let Some(v) = a.strip_prefix("--job=") {
                match v.parse() {
                    Ok(n) => cli.job = Some(n),
                    Err(_) => usage_exit(&format!("bad --job value `{v}`")),
                }
            } else if a == "--wait" {
                cli.wait = true;
            } else if a == "--now" {
                cli.now = true;
            } else if a == "--csv" {
                cli.csv = true;
            } else {
                spec_args.push(a.as_str());
            }
        }
        cli.spec =
            ExperimentSpec::from_args(&spec_args).unwrap_or_else(|e| usage_exit(&e.to_string()));
        cli
    }

    fn connect(&self) -> Client {
        // The connect deadline keeps a dead daemon from hanging the CLI;
        // reads stay unbounded because `--wait` legitimately blocks while
        // a job runs.
        Client::connect_timeout(self.addr.as_str(), self.timeout).unwrap_or_else(|e| {
            eprintln!("fgstp: cannot connect to {}: {e}", self.addr);
            exit(1);
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage_exit("missing subcommand");
    };
    let cli = Cli::parse(rest);
    match cmd.as_str() {
        "run" => run_local(&cli),
        "submit" => submit(&cli),
        "status" => status(&cli),
        "results" => results(&cli),
        "stats" => stats(&cli),
        "shutdown" => shutdown(&cli),
        other => usage_exit(&format!("unknown subcommand `{other}`")),
    }
}

/// `fgstp run`: execute the spec in-process, no daemon involved.
fn run_local(cli: &Cli) {
    let results = cli.spec.run().unwrap_or_else(|e| {
        eprintln!("fgstp: {e}");
        exit(1);
    });
    let rows: Vec<Json> = results.iter().map(bench_result_row).collect();
    print!("{}", render_rows(&rows, &cli.spec.machines, cli.csv));
    if let Some(b) = results.iter().find(|b| b.error.is_some()) {
        eprintln!(
            "fgstp: workload {} failed: {}",
            b.name,
            b.error.as_deref().unwrap_or("unknown")
        );
        exit(1);
    }
}

fn submit(cli: &Cli) {
    let mut client = cli.connect();
    let sub = client.submit(&cli.spec).unwrap_or_else(|e| {
        eprintln!("fgstp: submit failed: {e}");
        exit(1);
    });
    eprintln!(
        "fgstp: job {} {}",
        sub.job,
        if sub.dedup {
            "(deduplicated against an existing job)"
        } else {
            "queued"
        }
    );
    if cli.wait {
        wait_and_render(&mut client, sub.job, cli);
    } else {
        println!("{}", sub.job);
    }
}

fn results(cli: &Cli) {
    let Some(job) = cli.job else {
        usage_exit("results needs --job=N");
    };
    let mut client = cli.connect();
    wait_and_render(&mut client, job, cli);
}

/// Collects a job's rows (waiting if asked) and renders them.
fn wait_and_render(client: &mut Client, job: u64, cli: &Cli) {
    let mut rows = Vec::new();
    let outcome = client
        .results(job, cli.wait, |row| rows.push(row.clone()))
        .unwrap_or_else(|e| {
            eprintln!("fgstp: results failed: {e}");
            exit(1);
        });
    print!("{}", render_rows(&rows, &cli.spec.machines, cli.csv));
    if !cli.wait && !outcome.is_done() {
        eprintln!(
            "fgstp: job {job} is {} ({} rows so far)",
            outcome.state, outcome.rows
        );
    }
    if outcome.state == "failed" {
        eprintln!(
            "fgstp: job {job} failed: {}",
            outcome.error.as_deref().unwrap_or("unknown")
        );
        exit(1);
    }
}

fn status(cli: &Cli) {
    let mut client = cli.connect();
    let jobs = client.status(cli.job).unwrap_or_else(|e| {
        eprintln!("fgstp: status failed: {e}");
        exit(1);
    });
    println!("job  state    rows");
    for j in &jobs {
        println!(
            "{:<4} {:<8} {}/{}",
            j.get("job").and_then(Json::as_f64).unwrap_or_default() as u64,
            j.get("state").and_then(Json::as_str).unwrap_or("?"),
            j.get("rows").and_then(Json::as_f64).unwrap_or_default() as u64,
            j.get("expected_rows")
                .and_then(Json::as_f64)
                .unwrap_or_default() as u64,
        );
    }
}

fn stats(cli: &Cli) {
    let mut client = cli.connect();
    let v = client.stats().unwrap_or_else(|e| {
        eprintln!("fgstp: stats failed: {e}");
        exit(1);
    });
    print!("{}", v.render());
}

fn shutdown(cli: &Cli) {
    let mut client = cli.connect();
    client.shutdown(!cli.now).unwrap_or_else(|e| {
        eprintln!("fgstp: shutdown failed: {e}");
        exit(1);
    });
    eprintln!(
        "fgstp: daemon shutting down ({})",
        if cli.now { "immediate" } else { "drain" }
    );
}
