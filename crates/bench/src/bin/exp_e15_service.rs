//! E15 — batch-service throughput, dedup, and bit-identity (methodology
//! extension).
//!
//! Boots an in-process `fgstpd` daemon, drives it with concurrent
//! clients submitting a mix of distinct and duplicate
//! [`fgstp_sim::ExperimentSpec`]s, and reports three things the service
//! must deliver to be usable as an experiment backend:
//!
//! 1. **Bit-identity** — every result row streamed by the daemon is
//!    byte-identical to the row a direct in-process
//!    [`fgstp_sim::ExperimentSpec::run`] of the same spec produces, for
//!    every client at once (the paper's figures cannot depend on *how*
//!    the simulator was invoked).
//! 2. **Dedup** — duplicate submissions are served from the first job's
//!    rows, measured as a hit rate.
//! 3. **Throughput** — completed experiments per second and rows per
//!    second over the batch, the figure recorded in
//!    `results/experiments_e15_service.txt`.
//!
//! Accepts the shared [`fgstp_sim::ExperimentSpec`] flag vocabulary
//! (scale word, `--workloads=a,b`, `--threads=N`, `--no-cache`,
//! `--sample*`) plus `--csv`; see `fgstp_bench::ExpArgs`. The scale word
//! sizes the specs in the batch; `--threads` sizes the daemon's worker
//! pool.
//!
//! Run at the recorded scale with: `exp_e15_service small`.

use std::thread;

use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_service::client::Client;
use fgstp_service::daemon::{Daemon, DaemonConfig};
use fgstp_service::protocol::{bench_result_row, wire_line};
use fgstp_sim::{ExperimentSpec, Table};

/// How many concurrent clients drive the daemon.
const CLIENTS: usize = 4;

/// The distinct specs in the batch; each is submitted by two clients,
/// so half the submissions are dedup hits.
fn batch_specs(args: &ExpArgs) -> Vec<ExperimentSpec> {
    let scale = fgstp_sim::spec::scale_word(args.scale());
    let specs = [
        vec![
            scale,
            "--workloads=perl_hash,hmmer_dp",
            "--machines=small-cmp",
        ],
        vec![
            scale,
            "--workloads=gcc_expr,mcf_pointer",
            "--machines=small-cmp",
        ],
        vec![
            scale,
            "--workloads=perl_hash",
            "--machines=fgstp-small,fgstp-small-4",
        ],
        vec![
            scale,
            "--workloads=hmmer_dp",
            "--machines=small-cmp",
            "--telemetry",
        ],
    ];
    specs
        .iter()
        .map(|flags| {
            let mut spec = ExperimentSpec::from_args(flags).expect("batch specs are valid");
            spec.no_cache = args.spec.no_cache;
            spec
        })
        .collect()
}

fn main() {
    let args = ExpArgs::parse();
    let specs = batch_specs(&args);

    // Reference rows: each spec run directly, no daemon involved.
    let reference: Vec<Vec<String>> = specs
        .iter()
        .map(|spec| {
            spec.run()
                .expect("direct run succeeds")
                .iter()
                .map(|b| wire_line(&bench_result_row(b)))
                .collect()
        })
        .collect();

    let daemon = Daemon::bind(DaemonConfig {
        workers: args.spec.threads.unwrap_or(0),
        ..DaemonConfig::default()
    })
    .expect("bind loopback");
    let addr = daemon.local_addr().expect("bound address");
    let queue = daemon.queue();
    let server = thread::spawn(move || daemon.run().expect("daemon run"));

    let started = std::time::Instant::now();
    // Each client submits every spec, offset so duplicates overlap in
    // flight; every client independently checks bit-identity.
    let client_rows: Vec<(usize, Vec<usize>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let specs = &specs;
                let reference = &reference;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut dedup_hits = 0;
                    let mut rows_seen = Vec::new();
                    for i in 0..specs.len() {
                        let spec = &specs[(i + c) % specs.len()];
                        let expect = &reference[(i + c) % specs.len()];
                        let (sub, rows, outcome) =
                            client.run_to_completion(spec).expect("job completes");
                        assert!(outcome.is_done(), "job {} ended {}", sub.job, outcome.state);
                        let got: Vec<String> = rows.iter().map(wire_line).collect();
                        assert_eq!(
                            &got, expect,
                            "daemon rows must be bit-identical to a direct run"
                        );
                        dedup_hits += sub.dedup as usize;
                        rows_seen.push(rows.len());
                    }
                    (dedup_hits, rows_seen)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let submitted = queue.counter("service.submitted");
    let dedup = queue.counter("service.dedup-hits");
    let completed = queue.counter("service.completed");
    let rows = queue.counter("service.rows");

    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown(true)
        .expect("shutdown");
    server.join().expect("daemon thread");

    let client_checked: usize = client_rows
        .iter()
        .map(|(_, r)| r.iter().sum::<usize>())
        .sum();
    let pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    let mut table = Table::new(["metric", "value"]);
    table.row(["clients".to_owned(), CLIENTS.to_string()]);
    table.row(["distinct specs".to_owned(), specs.len().to_string()]);
    table.row(["submissions".to_owned(), submitted.to_string()]);
    table.row(["jobs executed".to_owned(), completed.to_string()]);
    table.row([
        "dedup hits".to_owned(),
        format!("{dedup} ({:.1}%)", pct(dedup, submitted)),
    ]);
    table.row(["result rows".to_owned(), rows.to_string()]);
    table.row([
        "rows checked bit-identical".to_owned(),
        client_checked.to_string(),
    ]);
    table.row([
        "experiments/sec (executed)".to_owned(),
        format!("{:.2}", completed as f64 / elapsed),
    ]);
    table.row([
        "experiments/sec (served)".to_owned(),
        format!("{:.2}", submitted as f64 / elapsed),
    ]);
    table.row([
        "rows/sec".to_owned(),
        format!("{:.2}", rows as f64 / elapsed),
    ]);
    print_experiment(
        "E15",
        "batch-service throughput, dedup and bit-identity",
        &args,
        &table,
    );
    assert!(dedup > 0, "duplicate submissions must hit the dedup cache");
    println!(
        "{CLIENTS} clients x {} submissions -> {completed} executions; all {client_checked} rows bit-identical to direct runs",
        specs.len()
    );
}
