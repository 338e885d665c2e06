//! The `fgstpd` daemon: socket handling and worker execution.
//!
//! [`Daemon::bind`] opens a loopback TCP listener; [`Daemon::run`] then
//! spawns the worker pool, accepts connections, and serves the
//! [`protocol`](crate::protocol) until a `shutdown` request lands. Each
//! connection gets a handler thread reading one request per line; each
//! worker thread loops on [`JobQueue::take_next`] and executes jobs
//! *one workload at a time* so result rows stream out as they finish
//! rather than all at once at job end.
//!
//! Workers are panic-isolated: a job that panics (or fails to trace)
//! marks only that job [`JobState::Failed`](crate::queue::JobState) with
//! the panic text — the worker thread, the queue, and every other job
//! keep going. Combined with spec validation at submit time this is the
//! daemon's no-crash contract: no client input reaches an `unwrap` that
//! can take the service down.
//!
//! Determinism: a job runs on a session built from its spec alone —
//! same scale, machine set, workload filter, sampling — so its rows are
//! bit-identical to a direct [`ExperimentSpec::run`] in-process, no
//! matter how many clients or workers are active. The daemon pins each
//! job's session to one thread by default (jobs parallelize *across*
//! workers instead) unless the spec asks for its own pool.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use fgstp_sim::ExperimentSpec;
use fgstp_telemetry::json::Json;

use crate::protocol::{bench_result_row, wire_line, Request};
use crate::queue::JobQueue;

/// Daemon settings; every field has a serviceable default.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Worker threads executing jobs (0 means available parallelism).
    pub workers: usize,
    /// Pending-queue capacity before submissions are refused.
    pub queue_capacity: usize,
    /// Live-point cache directory override for job sessions.
    pub cache_dir: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_capacity: 64,
            cache_dir: None,
        }
    }
}

impl DaemonConfig {
    /// The worker-pool size after resolving the 0-means-auto default.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            thread::available_parallelism().map_or(2, |n| n.get())
        }
    }
}

/// A bound, not-yet-running daemon. See the [module docs](self).
#[derive(Debug)]
pub struct Daemon {
    listener: TcpListener,
    queue: Arc<JobQueue>,
    config: DaemonConfig,
}

impl Daemon {
    /// Binds the listener and builds the queue; does not serve yet.
    pub fn bind(config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let queue = Arc::new(JobQueue::with_capacity(config.queue_capacity));
        Ok(Daemon {
            listener,
            queue,
            config,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared queue (test and stats hook).
    pub fn queue(&self) -> Arc<JobQueue> {
        self.queue.clone()
    }

    /// Serves until a `shutdown` request completes: spawns the workers,
    /// accepts and handles connections, then joins workers and any
    /// still-streaming handlers before returning.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.local_addr()?;
        let workers: Vec<_> = (0..self.config.effective_workers())
            .map(|_| {
                let queue = self.queue.clone();
                let cache_dir = self.config.cache_dir.clone();
                thread::spawn(move || worker_loop(&queue, cache_dir.as_deref()))
            })
            .collect();

        let mut handlers = Vec::new();
        for stream in self.listener.incoming() {
            if self.queue.is_shutting_down() {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let queue = self.queue.clone();
            handlers.push(thread::spawn(move || {
                let _ = handle_connection(stream, &queue, addr);
            }));
        }
        for h in workers {
            let _ = h.join();
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Capacity of a connection's reply buffer: large enough that a results
/// batch (a row is well under 1 KiB) and its `end` line leave in one
/// write.
const REPLY_BUFFER_BYTES: usize = 64 * 1024;

/// One worker: claim jobs until shutdown, panic-isolating each.
fn worker_loop(queue: &JobQueue, cache_dir: Option<&std::path::Path>) {
    while let Some((id, spec)) = queue.take_next() {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(queue, id, &spec, cache_dir)))
            .unwrap_or_else(|payload| Err(panic_text(&payload)));
        queue.finish(id, outcome);
    }
}

/// Executes one job workload-by-workload, streaming a row per finished
/// workload. Returns `Err` on the first workload whose `BenchResult`
/// carries a tracing error, after pushing that row.
fn run_job(
    queue: &JobQueue,
    id: u64,
    spec: &ExperimentSpec,
    cache_dir: Option<&std::path::Path>,
) -> Result<(), String> {
    let mut session = spec.session();
    if spec.threads.is_none() {
        // Jobs parallelize across workers; keep each session serial.
        session = session.threads(1);
    }
    if let Some(dir) = cache_dir {
        session = session.cache_dir(dir);
    }
    if spec.corun.is_some() {
        // A co-run is one deterministic job: the programs couple through
        // the shared hierarchy, so it cannot stream workload-by-workload.
        // All rows (one per program) land when the scenario drains.
        let results = session.run_suite();
        let mut failure = None;
        for b in &results {
            if failure.is_none() {
                if let Some(e) = &b.error {
                    failure = Some(format!("workload {}: {e}", b.name));
                }
            }
            queue.push_row(id, bench_result_row(b));
        }
        let ss = session.snapshot_stats();
        queue.add_snapshot_stats(ss.hits, ss.misses, ss.warmed_insts);
        return match failure {
            None => Ok(()),
            Some(e) => Err(e),
        };
    }
    let mut failure = None;
    for name in spec.workload_names() {
        let results = session.plan().workload_names(&[name.as_str()]).execute();
        for b in &results {
            if failure.is_none() {
                if let Some(e) = &b.error {
                    failure = Some(format!("workload {name}: {e}"));
                }
            }
            queue.push_row(id, bench_result_row(b));
        }
        if failure.is_some() {
            break;
        }
    }
    let ss = session.snapshot_stats();
    queue.add_snapshot_stats(ss.hits, ss.misses, ss.warmed_insts);
    match failure {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// Best-effort text of a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_owned()
    }
}

/// Serves one connection: a request per line until EOF or shutdown.
///
/// Reads run under a short timeout so an idle connection notices
/// daemon shutdown and releases its handler thread (which
/// [`Daemon::run`] joins) instead of blocking forever on a client that
/// never speaks again.
///
/// Replies go out through one buffer flushed once per batch: a reply
/// line, or the rows of one results poll (plus the `end` line when the
/// poll is terminal). With `TCP_NODELAY` set, each flush leaves at once;
/// under Nagle's algorithm a second small write would wait for the
/// client's delayed ACK (~40 ms on Linux loopback).
fn handle_connection(
    stream: TcpStream,
    queue: &JobQueue,
    daemon_addr: SocketAddr,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_millis(100)))?;
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::with_capacity(REPLY_BUFFER_BYTES, stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    // The line buffer persists across read timeouts: a timeout may
    // leave a partial line in it, finished by a later read.
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if queue.is_shutting_down() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        if line.trim().is_empty() {
            line.clear();
            continue;
        }
        let (reply_lines, shutdown) = match Request::parse_line(line.trim_end()) {
            Err(e) => (vec![e.to_reply()], false),
            Ok(req) => {
                let shutdown = matches!(req, Request::Shutdown { .. });
                (dispatch(req, queue, &mut writer)?, shutdown)
            }
        };
        line.clear();
        for v in &reply_lines {
            writer.write_all(wire_line(v).as_bytes())?;
        }
        writer.flush()?;
        if shutdown {
            // Wake the acceptor so Daemon::run can observe the shutdown
            // flag and stop accepting.
            let _ = TcpStream::connect(daemon_addr);
            return Ok(());
        }
    }
}

/// Executes one decoded request, buffering streamed rows in `writer` and
/// returning the trailing reply lines.
fn dispatch(req: Request, queue: &JobQueue, writer: &mut impl Write) -> std::io::Result<Vec<Json>> {
    let reply = match req {
        Request::Submit { spec } => match queue.submit(spec) {
            Ok((job, dedup)) => Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("job".to_owned(), Json::Num(job as f64)),
                ("dedup".to_owned(), Json::Bool(dedup)),
            ]),
            Err(e) => e.to_reply(),
        },
        Request::Status { job } => match queue.status(job) {
            Ok(list) => Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(true)),
                (
                    "jobs".to_owned(),
                    Json::Arr(list.iter().map(|s| s.to_json()).collect()),
                ),
            ]),
            Err(e) => e.to_reply(),
        },
        Request::Results { job, wait } => {
            return stream_results(queue, writer, job, wait).map(|end| vec![end]);
        }
        Request::Stats => queue.stats(),
        Request::Shutdown { drain } => {
            queue.shutdown(drain);
            Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("draining".to_owned(), Json::Bool(drain)),
            ])
        }
    };
    Ok(vec![reply])
}

/// Streams `{"event": "row"}` lines for a job (blocking on `wait`) and
/// returns the terminating `{"event": "end"}` line. Each non-terminal
/// batch of rows is flushed as it lands; the last batch stays buffered
/// so the caller sends it together with the `end` line.
fn stream_results(
    queue: &JobQueue,
    writer: &mut impl Write,
    job: u64,
    wait: bool,
) -> std::io::Result<Json> {
    let mut cursor = 0usize;
    loop {
        let poll = match queue.poll(job, cursor, wait) {
            Ok(p) => p,
            Err(e) => return Ok(e.to_reply()),
        };
        for row in &poll.rows {
            let event = Json::Obj(vec![
                ("event".to_owned(), Json::Str("row".to_owned())),
                ("job".to_owned(), Json::Num(job as f64)),
                ("row".to_owned(), row.clone()),
            ]);
            writer.write_all(wire_line(&event).as_bytes())?;
            cursor += 1;
        }
        match poll.terminal {
            Some((state, error)) => {
                return Ok(Json::Obj(vec![
                    ("event".to_owned(), Json::Str("end".to_owned())),
                    ("job".to_owned(), Json::Num(job as f64)),
                    ("state".to_owned(), Json::Str(state.label().to_owned())),
                    ("rows".to_owned(), Json::Num(cursor as f64)),
                    (
                        "error".to_owned(),
                        match error {
                            None => Json::Null,
                            Some(e) => Json::Str(e),
                        },
                    ),
                ]));
            }
            None if wait => writer.flush()?,
            None => {
                return Ok(Json::Obj(vec![
                    ("event".to_owned(), Json::Str("end".to_owned())),
                    ("job".to_owned(), Json::Num(job as f64)),
                    ("state".to_owned(), Json::Str("pending".to_owned())),
                    ("rows".to_owned(), Json::Num(cursor as f64)),
                    ("error".to_owned(), Json::Null),
                ]));
            }
        }
    }
}
