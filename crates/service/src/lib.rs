//! # fgstp-service
//!
//! The batch-simulation service of the Fg-STP reproduction: `fgstpd`, a
//! dependency-free daemon that accepts [`ExperimentSpec`] jobs over a
//! newline-delimited JSON protocol on a loopback TCP socket, and
//! `fgstp`, its command-line client.
//!
//! The daemon exists for one workflow: sweeping many experiment
//! configurations without paying process startup per run. Jobs land in
//! a FIFO [`queue::JobQueue`] with submission-time validation, dedup on
//! [`ExperimentSpec::dedup_key`] (a resubmitted configuration is served
//! from the first job's rows), bounded backpressure, and a pool of
//! panic-isolated workers executing each job workload-by-workload so
//! result rows stream to waiting clients as they finish.
//!
//! Layering:
//!
//! | module | role |
//! |---|---|
//! | [`protocol`] | wire shapes: requests, structured errors, result rows |
//! | [`queue`] | FIFO + dedup + backpressure + waiter wakeup |
//! | [`daemon`] | listener, handler threads, worker pool |
//! | [`client`] | blocking client used by `fgstp` and the tests |
//! | [`render`] | rows back into E1-style tables on the client side |
//!
//! In-process quickstart (the binaries wrap exactly this):
//!
//! ```no_run
//! use fgstp_service::client::Client;
//! use fgstp_service::daemon::{Daemon, DaemonConfig};
//! use fgstp_sim::ExperimentSpec;
//!
//! let daemon = Daemon::bind(DaemonConfig::default()).unwrap();
//! let addr = daemon.local_addr().unwrap();
//! std::thread::spawn(move || daemon.run().unwrap());
//!
//! let spec = ExperimentSpec::from_args(&["test", "--workloads=perl_hash"]).unwrap();
//! let mut client = Client::connect(addr).unwrap();
//! let (sub, rows, outcome) = client.run_to_completion(&spec).unwrap();
//! println!("job {} ({} rows, dedup: {})", sub.job, rows.len(), sub.dedup);
//! assert!(outcome.is_done());
//! ```

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod queue;
pub mod render;

pub use client::{Client, ClientError, JobOutcome, Submitted};
pub use daemon::{Daemon, DaemonConfig};
pub use protocol::{bench_result_row, ProtocolError, Request};
pub use queue::{JobQueue, JobState, JobStatus};
pub use render::render_rows;

#[allow(unused_imports)] // doc links
use fgstp_sim::ExperimentSpec;
