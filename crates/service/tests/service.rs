//! End-to-end daemon tests over a real loopback socket: co-run jobs,
//! the client's connect/read deadlines, and round-trip latency.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use fgstp_service::client::{Client, ClientError};
use fgstp_service::daemon::{Daemon, DaemonConfig};
use fgstp_sim::ExperimentSpec;
use fgstp_telemetry::json::Json;

fn start_daemon() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let daemon = Daemon::bind(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr().unwrap();
    let handle = std::thread::spawn(move || daemon.run().unwrap());
    (addr, handle)
}

#[test]
fn corun_spec_round_trips_through_the_daemon() {
    let (addr, handle) = start_daemon();
    let spec = ExperimentSpec::from_args(&[
        "test",
        "--machines=fgstp-small",
        "--corun=perl_hash:2,hmmer_dp:2",
        "--no-cache",
    ])
    .unwrap();

    let mut client = Client::connect_timeout(addr, Duration::from_secs(5)).unwrap();
    let (sub, rows, outcome) = client.run_to_completion(&spec).unwrap();
    assert!(outcome.is_done(), "co-run job must finish: {outcome:?}");
    assert_eq!(rows.len(), 2, "one row per co-running program");
    for (i, row) in rows.iter().enumerate() {
        let runs = row.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 1);
        let corun = runs[0].get("corun").expect("co-run rows carry placement");
        assert_eq!(corun.get("program").and_then(Json::as_f64), Some(i as f64));
        assert_eq!(corun.get("cores").and_then(Json::as_f64), Some(2.0));
        assert_eq!(corun.get("isolated"), Some(&Json::Bool(false)));
        let cycles = runs[0].get("cycles").and_then(Json::as_f64).unwrap();
        assert!(cycles > 0.0);
    }
    assert_eq!(
        rows[1].get("runs").unwrap().as_arr().unwrap()[0]
            .get("corun")
            .unwrap()
            .get("first_core")
            .and_then(Json::as_f64),
        Some(2.0)
    );

    // The same spec resubmitted dedups against the first job's rows,
    // which also proves a co-run is a deterministic, cacheable identity.
    let (sub2, rows2, _) = client.run_to_completion(&spec).unwrap();
    assert!(sub2.dedup);
    assert_eq!(sub2.job, sub.job);
    for (a, b) in rows.iter().zip(&rows2) {
        assert_eq!(a.render(), b.render(), "dedup serves identical rows");
    }

    // The queue counted the co-run submissions.
    let stats = client.stats().unwrap();
    let counters = stats.get("counters").unwrap();
    assert_eq!(
        counters.get("service.corun-jobs").and_then(Json::as_f64),
        Some(2.0)
    );

    client.shutdown(false).unwrap();
    handle.join().unwrap();
}

#[test]
fn results_of_a_finished_job_round_trip_without_a_delayed_ack_stall() {
    // A reply of several small writes would wait on the client's delayed
    // ACK (~40 ms on Linux loopback) under Nagle's algorithm; one write
    // per reply on a TCP_NODELAY socket leaves at once.
    let (addr, handle) = start_daemon();
    let spec = ExperimentSpec::from_args(&[
        "test",
        "--workloads=perl_hash",
        "--machines=small-cmp",
        "--no-cache",
    ])
    .unwrap();
    let mut client = Client::connect_timeout(addr, Duration::from_secs(5)).unwrap();
    let (sub, _, outcome) = client.run_to_completion(&spec).unwrap();
    assert!(outcome.is_done(), "{outcome:?}");

    let mut times: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let mut rows = 0;
            let end = client.results(sub.job, true, |_| rows += 1).unwrap();
            let took = started.elapsed();
            assert!(rows >= 1, "a finished job replays its rows");
            assert!(end.is_done(), "{end:?}");
            took
        })
        .collect();
    times.sort();
    assert!(
        times[times.len() / 2] < Duration::from_millis(10),
        "median results round trip {:?} (all: {times:?})",
        times[times.len() / 2]
    );

    client.shutdown(false).unwrap();
    handle.join().unwrap();
}

#[test]
fn invalid_corun_spec_is_refused_at_submit() {
    let (addr, handle) = start_daemon();
    let mut client = Client::connect_timeout(addr, Duration::from_secs(5)).unwrap();
    // Bypass local validation: hand-build a spec with a conflict the
    // daemon must catch (co-run over a machine *set*).
    let mut spec =
        ExperimentSpec::from_args(&["test", "--machines=fgstp-small", "--corun=perl_hash:2"])
            .unwrap();
    spec.machines = fgstp_sim::MachineKind::SMALL_CMP.to_vec();
    match client.submit(&spec) {
        Err(ClientError::Protocol(e)) => assert_eq!(e.kind, "conflict", "{e}"),
        other => panic!("expected a protocol refusal, got {other:?}"),
    }
    client.shutdown(true).unwrap();
    handle.join().unwrap();
}

#[test]
fn read_timeout_surfaces_as_a_structured_error() {
    // A listener that accepts but never replies: the read deadline must
    // fire instead of blocking the client forever.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = Client::connect_timeout(addr, Duration::from_secs(5)).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    match client.stats() {
        Err(ClientError::Timeout { phase, after }) => {
            assert_eq!(phase, "read");
            assert_eq!(after, Duration::from_millis(100));
        }
        other => panic!("expected a read timeout, got {other:?}"),
    }
    drop(listener);
}

#[test]
fn connect_timeout_to_a_dead_port_fails_fast() {
    // Bind a port, then close it: connecting must fail promptly (refused
    // or timed out — either way a structured error, not a hang).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);
    let started = std::time::Instant::now();
    let result = Client::connect_timeout(addr, Duration::from_millis(500));
    assert!(result.is_err());
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "connect must not hang"
    );
}
