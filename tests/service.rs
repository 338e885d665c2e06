//! End-to-end tests of the `fgstpd` batch-simulation service: protocol
//! round-trips, dedup against the spec's dedup key, concurrent
//! clients receiving rows bit-identical to direct `Session` runs,
//! structured rejection of malformed and unsatisfiable specs, and
//! graceful drain shutdown with a non-empty queue.
//!
//! Every test boots its own in-process daemon on a fresh loopback port
//! (`127.0.0.1:0`) and talks to it over real sockets — the same path
//! the `fgstpd`/`fgstp` binaries use.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;

use fg_stp_repro::service::client::Client;
use fg_stp_repro::service::daemon::{Daemon, DaemonConfig};
use fg_stp_repro::service::protocol::{bench_result_row, wire_line};
use fg_stp_repro::service::queue::JobQueue;
use fg_stp_repro::sim::ExperimentSpec;
use fg_stp_repro::telemetry::json::Json;

/// Boots a daemon with `workers` workers; returns its address, queue
/// handle, and the server thread (joined by `shutdown_and_join`).
fn boot(workers: usize) -> (SocketAddr, std::sync::Arc<JobQueue>, thread::JoinHandle<()>) {
    let daemon = Daemon::bind(DaemonConfig {
        workers,
        queue_capacity: 32,
        ..DaemonConfig::default()
    })
    .expect("bind 127.0.0.1:0");
    let addr = daemon.local_addr().expect("bound address");
    let queue = daemon.queue();
    let server = thread::spawn(move || daemon.run().expect("daemon run"));
    (addr, queue, server)
}

fn shutdown_and_join(addr: SocketAddr, server: thread::JoinHandle<()>) {
    Client::connect(addr)
        .expect("connect")
        .shutdown(true)
        .expect("shutdown");
    server.join().expect("daemon thread exits");
}

fn spec_of(flags: &[&str]) -> ExperimentSpec {
    ExperimentSpec::from_args(flags).expect("test spec is valid")
}

#[test]
fn spec_survives_the_wire_and_rows_match_a_direct_session_run() {
    let spec = spec_of(&[
        "test",
        "--workloads=perl_hash,hmmer_dp",
        "--machines=small-cmp",
        "--no-cache",
        "--telemetry",
    ]);
    // The JSON the client sends decodes to the same spec.
    assert_eq!(
        ExperimentSpec::parse_json(&spec.to_json().render()).unwrap(),
        spec
    );

    let (addr, _queue, server) = boot(2);
    let mut client = Client::connect(addr).expect("connect");
    let (sub, rows, outcome) = client.run_to_completion(&spec).expect("job runs");
    assert!(!sub.dedup);
    assert!(outcome.is_done());

    // Bit-identity with a direct in-process run of the same spec.
    let direct: Vec<String> = spec
        .run()
        .unwrap()
        .iter()
        .map(|b| wire_line(&bench_result_row(b)))
        .collect();
    let served: Vec<String> = rows.iter().map(wire_line).collect();
    assert_eq!(served, direct);
    shutdown_and_join(addr, server);
}

#[test]
fn duplicate_submissions_are_served_from_the_first_job() {
    let (addr, queue, server) = boot(2);
    let spec = spec_of(&[
        "test",
        "--workloads=perl_hash",
        "--machines=small-cmp",
        "--no-cache",
    ]);
    let mut a = Client::connect(addr).expect("connect");
    let (sub_a, rows_a, _) = a.run_to_completion(&spec).expect("first run");

    // Same figure with different execution knobs: same job.
    let mut tweaked = spec.clone();
    tweaked.threads = Some(2);
    let mut b = Client::connect(addr).expect("connect");
    let (sub_b, rows_b, outcome_b) = b.run_to_completion(&tweaked).expect("dedup run");
    assert_eq!(sub_b.job, sub_a.job);
    assert!(sub_b.dedup);
    assert!(outcome_b.is_done());
    assert_eq!(
        rows_b.iter().map(wire_line).collect::<Vec<_>>(),
        rows_a.iter().map(wire_line).collect::<Vec<_>>(),
        "deduplicated job serves the original rows"
    );
    assert!(queue.counter("service.dedup-hits") > 0);
    assert_eq!(
        queue.counter("service.completed"),
        1,
        "one execution for two submissions"
    );
    shutdown_and_join(addr, server);
}

#[test]
fn four_concurrent_clients_get_bit_identical_rows() {
    let specs: Vec<ExperimentSpec> = ["perl_hash", "hmmer_dp", "gcc_expr", "mcf_pointer"]
        .iter()
        .map(|w| {
            spec_of(&[
                "test",
                &format!("--workloads={w}"),
                "--machines=single-small,fgstp-small",
                "--no-cache",
            ])
        })
        .collect();
    let direct: Vec<Vec<String>> = specs
        .iter()
        .map(|s| {
            s.run()
                .unwrap()
                .iter()
                .map(|b| wire_line(&bench_result_row(b)))
                .collect()
        })
        .collect();

    let (addr, queue, server) = boot(3);
    thread::scope(|s| {
        for (spec, expect) in specs.iter().zip(&direct) {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (_, rows, outcome) = client.run_to_completion(spec).expect("job runs");
                assert!(outcome.is_done());
                assert_eq!(&rows.iter().map(wire_line).collect::<Vec<_>>(), expect);
            });
        }
    });
    assert_eq!(queue.counter("service.completed"), 4);
    shutdown_and_join(addr, server);
}

#[test]
fn malformed_and_unsatisfiable_requests_get_structured_errors() {
    let (addr, _queue, server) = boot(1);

    // Raw protocol: malformed JSON, bad shapes, bad specs — each one
    // reply line, and the daemon survives them all on one connection.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    let mut ask = |line: &str| -> Json {
        w.write_all(format!("{line}\n").as_bytes()).expect("write");
        w.flush().expect("flush");
        let mut reply = String::new();
        r.read_line(&mut reply).expect("read");
        Json::parse(reply.trim_end()).expect("reply parses")
    };
    let kind_of = |v: &Json| -> String {
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };

    let v = ask("{this is not json");
    assert_eq!(kind_of(&v), "bad-json");
    let v = ask(r#"{"cmd": "frobnicate"}"#);
    assert_eq!(kind_of(&v), "bad-request");
    let v = ask(r#"{"cmd": "submit", "spec": {"workloads": ["nope"]}}"#);
    assert_eq!(kind_of(&v), "unknown-workload");
    let v = ask(r#"{"cmd": "submit", "spec": {"machines": ["warp-drive"]}}"#);
    assert_eq!(kind_of(&v), "unknown-machine");
    // --cores on a non-Fg-STP machine set and --cores with --sample are
    // unsatisfiable combinations, not crashes.
    let v = ask(r#"{"cmd": "submit", "spec": {"cores": 3}}"#);
    assert_eq!(kind_of(&v), "conflict");
    let v = ask(
        r#"{"cmd": "submit", "spec": {"machines": ["fgstp-small"], "cores": 3,
            "sample": {"interval": 1000, "warmup": 100, "detail": 100}}}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert_eq!(kind_of(&v), "conflict");
    let v = ask(r#"{"cmd": "results", "job": 999}"#);
    assert_eq!(kind_of(&v), "unknown-job");

    // The daemon is still fully functional afterwards.
    let v = ask(wire_line(
        &fg_stp_repro::service::protocol::Request::Submit {
            spec: spec_of(&[
                "test",
                "--workloads=perl_hash",
                "--machines=single-small",
                "--no-cache",
            ]),
        }
        .to_json(),
    )
    .trim_end());
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    shutdown_and_join(addr, server);
}

#[test]
fn queue_capacity_pushes_back_with_a_structured_error() {
    let daemon = Daemon::bind(DaemonConfig {
        // No workers: jobs stay pending so the queue genuinely fills.
        workers: 1,
        queue_capacity: 1,
        ..DaemonConfig::default()
    })
    .expect("bind");
    let queue = daemon.queue();
    // Fill the queue before any worker exists to drain it.
    let slow = spec_of(&[
        "test",
        "--workloads=perl_hash",
        "--machines=small-cmp",
        "--no-cache",
    ]);
    let other = spec_of(&[
        "test",
        "--workloads=hmmer_dp",
        "--machines=small-cmp",
        "--no-cache",
    ]);
    queue.submit(slow).expect("fits");
    let e = queue.submit(other).expect_err("overflow");
    assert_eq!(e.kind, "queue-full");
    drop(daemon);
}

#[test]
fn drain_shutdown_completes_a_non_empty_queue() {
    // One worker and several queued jobs: shutdown(drain) must finish
    // them all before the daemon exits.
    let (addr, queue, server) = boot(1);
    let names = ["perl_hash", "hmmer_dp", "gcc_expr"];
    let mut client = Client::connect(addr).expect("connect");
    let jobs: Vec<u64> = names
        .iter()
        .map(|w| {
            client
                .submit(&spec_of(&[
                    "test",
                    &format!("--workloads={w}"),
                    "--machines=single-small",
                    "--no-cache",
                ]))
                .expect("submit")
                .job
        })
        .collect();

    let mut shut = Client::connect(addr).expect("connect");
    shut.shutdown(true).expect("drain shutdown");
    server.join().expect("daemon drains then exits");

    // Every job ran to completion despite the shutdown racing them.
    assert_eq!(queue.counter("service.completed"), names.len() as u64);
    for (job, w) in jobs.iter().zip(names) {
        let st = &queue.status(Some(*job)).expect("status")[0];
        assert_eq!(
            (st.state.label(), st.rows),
            ("done", 1),
            "job {job} ({w}) must drain to done"
        );
    }
    // And new submissions are refused once shutdown started.
    let e = queue
        .submit(spec_of(&[
            "test",
            "--workloads=perl_hash",
            "--machines=single-small",
        ]))
        .expect_err("no submissions after shutdown");
    assert_eq!(e.kind, "shutting-down");
}
