//! `fgstpd` — the Fg-STP batch-simulation daemon.
//!
//! Binds a loopback TCP socket, then serves [`fgstp_service::protocol`]
//! until a `shutdown` request: experiment specs in, result rows out,
//! with FIFO scheduling, dedup, and bounded backpressure (see the
//! [`fgstp_service`] crate docs).
//!
//! ```text
//! fgstpd [--listen=HOST:PORT] [--workers=N] [--queue-cap=N]
//!        [--cache-dir=PATH] [--port-file=PATH]
//! ```
//!
//! Defaults: listen on `127.0.0.1:4655`, auto-sized workers, queue
//! capacity 64, the session default live-point cache directory. With
//! `--listen=127.0.0.1:0` the kernel picks a free port; `--port-file`
//! writes the bound port to a file once listening, so scripts can wait
//! for readiness and discover the port in one step.

use std::process::exit;

use fgstp_service::daemon::{Daemon, DaemonConfig};

const USAGE: &str = "usage: fgstpd [--listen=HOST:PORT] [--workers=N] \
[--queue-cap=N] [--cache-dir=PATH] [--port-file=PATH]";

fn main() {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:4655".to_owned(),
        ..DaemonConfig::default()
    };
    let mut port_file = None;
    for arg in std::env::args().skip(1) {
        let Some((flag, value)) = arg.split_once('=') else {
            eprintln!("unknown argument `{arg}`\n{USAGE}");
            exit(2);
        };
        let count = |what: &str| -> usize {
            value.parse().unwrap_or_else(|_| {
                eprintln!("bad {what} value `{value}`\n{USAGE}");
                exit(2);
            })
        };
        match flag {
            "--listen" => config.addr = value.to_owned(),
            "--workers" => config.workers = count(flag),
            "--queue-cap" => config.queue_capacity = count(flag),
            "--cache-dir" => config.cache_dir = Some(value.into()),
            "--port-file" => port_file = Some(value.to_owned()),
            _ => {
                eprintln!("unknown flag `{flag}`\n{USAGE}");
                exit(2);
            }
        }
    }

    let daemon = Daemon::bind(config.clone()).unwrap_or_else(|e| {
        eprintln!("fgstpd: cannot bind {}: {e}", config.addr);
        exit(1);
    });
    let addr = daemon.local_addr().expect("bound listener has an address");
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", addr.port())) {
            eprintln!("fgstpd: cannot write port file {path}: {e}");
            exit(1);
        }
    }
    eprintln!(
        "fgstpd: listening on {addr} ({} workers, queue capacity {})",
        config.effective_workers(),
        config.queue_capacity
    );
    if let Err(e) = daemon.run() {
        eprintln!("fgstpd: {e}");
        exit(1);
    }
    eprintln!("fgstpd: shut down");
}
