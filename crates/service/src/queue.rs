//! The FIFO job queue behind `fgstpd`.
//!
//! A [`JobQueue`] is the single shared structure of the daemon: handler
//! threads submit validated [`ExperimentSpec`]s into it, worker threads
//! block on [`JobQueue::take_next`] for work, and result rows flow back
//! through [`JobQueue::push_row`] where waiting `results` handlers pick
//! them up ([`JobQueue::poll`]). All coordination is one mutex plus one
//! condvar — submissions, row arrivals and terminal transitions all
//! notify the same condvar, and every waiter re-checks its own
//! predicate.
//!
//! Deduplication is keyed on [`ExperimentSpec::dedup_key`], the spec's
//! normalized flag list: a resubmitted spec whose key matches a live
//! (queued, running, or completed) job returns that job's id instead of
//! enqueueing a copy, so duplicate experiments are served from the first
//! job's cached rows. A job expects one row per entry of
//! [`ExperimentSpec::workload_names`], the order its rows stream in. A
//! *failed* job does not capture its key — resubmitting after a failure
//! retries.
//!
//! Backpressure is a hard cap on the pending queue
//! ([`JobQueue::with_capacity`]): submissions beyond it are refused with
//! a structured [`ERR_QUEUE_FULL`] error rather than letting a client
//! grow the daemon without bound.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use fgstp_sim::ExperimentSpec;
use fgstp_telemetry::json::Json;
use fgstp_telemetry::Registry;

use crate::protocol::{ProtocolError, ERR_QUEUE_FULL, ERR_SHUTTING_DOWN, ERR_UNKNOWN_JOB};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the pending queue, not yet picked up by a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// All rows produced; terminal.
    Done,
    /// Aborted by a worker panic, a row-level error, or a non-drain
    /// shutdown; terminal.
    Failed,
}

impl JobState {
    /// Stable wire word.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Whether no further transitions can happen.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// A point-in-time view of one job, for `status` replies.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id (daemon-unique, monotonically assigned).
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Result rows produced so far.
    pub rows: usize,
    /// Total rows this job will produce (its workload count).
    pub expected_rows: usize,
    /// Failure message, for [`JobState::Failed`].
    pub error: Option<String>,
    /// The job's dedup key.
    pub key: String,
}

impl JobStatus {
    /// The `status` reply member for this job.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("job".to_owned(), Json::Num(self.id as f64)),
            ("state".to_owned(), Json::Str(self.state.label().to_owned())),
            ("rows".to_owned(), Json::Num(self.rows as f64)),
            (
                "expected_rows".to_owned(),
                Json::Num(self.expected_rows as f64),
            ),
            (
                "error".to_owned(),
                match &self.error {
                    None => Json::Null,
                    Some(e) => Json::Str(e.clone()),
                },
            ),
            ("key".to_owned(), Json::Str(self.key.clone())),
        ])
    }
}

/// What [`JobQueue::poll`] observed: any new rows past the caller's
/// cursor, and the terminal state once the job reaches one.
#[derive(Debug, Clone)]
pub struct PollResult {
    /// Rows past the cursor, in production order.
    pub rows: Vec<Json>,
    /// `Some((state, error))` once the job is terminal.
    pub terminal: Option<(JobState, Option<String>)>,
}

#[derive(Debug)]
struct Job {
    spec: ExperimentSpec,
    key: String,
    state: JobState,
    rows: Vec<Json>,
    expected_rows: usize,
    error: Option<String>,
}

#[derive(Debug)]
struct Inner {
    jobs: BTreeMap<u64, Job>,
    pending: VecDeque<u64>,
    by_key: HashMap<String, u64>,
    next_id: u64,
    shutdown: bool,
    drain: bool,
    registry: Registry,
}

/// The shared queue; see the [module docs](self).
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    cond: Condvar,
    capacity: usize,
    started: Instant,
}

impl JobQueue {
    /// A queue refusing submissions past `capacity` pending jobs.
    pub fn with_capacity(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                pending: VecDeque::new(),
                by_key: HashMap::new(),
                next_id: 1,
                shutdown: false,
                drain: true,
                registry: Registry::new(),
            }),
            cond: Condvar::new(),
            capacity,
            started: Instant::now(),
        }
    }

    /// Submits a validated spec. Returns the job id and whether it was
    /// served by dedup from an existing job.
    pub fn submit(&self, spec: ExperimentSpec) -> Result<(u64, bool), ProtocolError> {
        let mut g = self.inner.lock().unwrap();
        if g.shutdown {
            return Err(ProtocolError::new(
                ERR_SHUTTING_DOWN,
                "daemon is shutting down; not accepting jobs",
            ));
        }
        g.registry.inc("service.submitted", 1);
        if spec.corun.is_some() {
            g.registry.inc("service.corun-jobs", 1);
        }
        let key = spec.dedup_key();
        if let Some(&id) = g.by_key.get(&key) {
            g.registry.inc("service.dedup-hits", 1);
            return Ok((id, true));
        }
        if g.pending.len() >= self.capacity {
            g.registry.inc("service.rejected", 1);
            return Err(ProtocolError::new(
                ERR_QUEUE_FULL,
                format!("pending queue is at capacity ({} jobs)", self.capacity),
            ));
        }
        let id = g.next_id;
        g.next_id += 1;
        let expected_rows = spec.workload_names().len();
        g.jobs.insert(
            id,
            Job {
                spec,
                key: key.clone(),
                state: JobState::Queued,
                rows: Vec::new(),
                expected_rows,
                error: None,
            },
        );
        g.by_key.insert(key, id);
        g.pending.push_back(id);
        let depth = g.pending.len() as f64;
        g.registry.set_gauge("service.queue-depth", depth);
        self.cond.notify_all();
        Ok((id, false))
    }

    /// Blocks until a job is available and claims it (marking it
    /// running), or returns `None` when the daemon is shut down and —
    /// under drain — the queue is empty. Worker threads loop on this.
    pub fn take_next(&self) -> Option<(u64, ExperimentSpec)> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.shutdown && (!g.drain || g.pending.is_empty()) {
                return None;
            }
            if let Some(id) = g.pending.pop_front() {
                let depth = g.pending.len() as f64;
                g.registry.set_gauge("service.queue-depth", depth);
                let job = g.jobs.get_mut(&id).expect("pending id has a job");
                job.state = JobState::Running;
                let spec = job.spec.clone();
                self.cond.notify_all();
                return Some((id, spec));
            }
            g = self.cond.wait(g).unwrap();
        }
    }

    /// Appends one result row to a running job and wakes waiters.
    pub fn push_row(&self, id: u64, row: Json) {
        let mut g = self.inner.lock().unwrap();
        g.registry.inc("service.rows", 1);
        if let Some(job) = g.jobs.get_mut(&id) {
            job.rows.push(row);
        }
        self.cond.notify_all();
    }

    /// Moves a job to its terminal state and wakes waiters. A failed
    /// job's key is released so an identical spec can be retried.
    pub fn finish(&self, id: u64, outcome: Result<(), String>) {
        let mut g = self.inner.lock().unwrap();
        match outcome {
            Ok(()) => {
                g.registry.inc("service.completed", 1);
                if let Some(job) = g.jobs.get_mut(&id) {
                    job.state = JobState::Done;
                }
            }
            Err(e) => {
                g.registry.inc("service.failed", 1);
                if let Some(job) = g.jobs.get_mut(&id) {
                    job.state = JobState::Failed;
                    job.error = Some(e);
                    let key = job.key.clone();
                    if g.by_key.get(&key) == Some(&id) {
                        g.by_key.remove(&key);
                    }
                }
            }
        }
        self.cond.notify_all();
    }

    /// Adds live-point snapshot counts observed while running a sampled
    /// job, under the shared [`fgstp_telemetry::names`] keys — a daemon
    /// serving snapshot-warm reruns shows hits climbing while
    /// `sampling.warmed-insts` stays flat.
    pub fn add_snapshot_stats(&self, hits: u64, misses: u64, warmed_insts: u64) {
        if hits == 0 && misses == 0 && warmed_insts == 0 {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        g.registry.inc(fgstp_telemetry::names::SNAPSHOT_HITS, hits);
        g.registry
            .inc(fgstp_telemetry::names::SNAPSHOT_MISSES, misses);
        g.registry
            .inc(fgstp_telemetry::names::WARMED_INSTS, warmed_insts);
    }

    /// Rows past `cursor` for a job; with `wait`, blocks until there is
    /// something new (a row or the terminal transition) to report.
    pub fn poll(&self, id: u64, cursor: usize, wait: bool) -> Result<PollResult, ProtocolError> {
        let mut g = self.inner.lock().unwrap();
        loop {
            let job = g
                .jobs
                .get(&id)
                .ok_or_else(|| ProtocolError::new(ERR_UNKNOWN_JOB, format!("no job {id}")))?;
            let fresh = job.rows.len() > cursor;
            if fresh || job.state.is_terminal() || !wait {
                return Ok(PollResult {
                    rows: job.rows.get(cursor..).unwrap_or_default().to_vec(),
                    terminal: if job.state.is_terminal() {
                        Some((job.state, job.error.clone()))
                    } else {
                        None
                    },
                });
            }
            g = self.cond.wait(g).unwrap();
        }
    }

    /// Point-in-time view of one job or (id `None`) every job, ascending.
    pub fn status(&self, id: Option<u64>) -> Result<Vec<JobStatus>, ProtocolError> {
        let g = self.inner.lock().unwrap();
        let view = |id: u64, job: &Job| JobStatus {
            id,
            state: job.state,
            rows: job.rows.len(),
            expected_rows: job.expected_rows,
            error: job.error.clone(),
            key: job.key.clone(),
        };
        match id {
            Some(id) => g
                .jobs
                .get(&id)
                .map(|j| vec![view(id, j)])
                .ok_or_else(|| ProtocolError::new(ERR_UNKNOWN_JOB, format!("no job {id}"))),
            None => Ok(g.jobs.iter().map(|(&id, j)| view(id, j)).collect()),
        }
    }

    /// Service counters and derived throughput as a `stats` reply body:
    /// every registry metric, plus uptime and experiments-per-second
    /// (completed jobs over uptime).
    pub fn stats(&self) -> Json {
        let g = self.inner.lock().unwrap();
        let uptime = self.started.elapsed().as_secs_f64();
        let completed = g.registry.counter("service.completed") as f64;
        let rows = g.registry.counter("service.rows") as f64;
        Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("counters".to_owned(), g.registry.to_json()),
            ("uptime_secs".to_owned(), Json::Num(uptime)),
            (
                "experiments_per_sec".to_owned(),
                Json::Num(if uptime > 0.0 {
                    completed / uptime
                } else {
                    0.0
                }),
            ),
            (
                "rows_per_sec".to_owned(),
                Json::Num(if uptime > 0.0 { rows / uptime } else { 0.0 }),
            ),
        ])
    }

    /// The current value of one service counter (test/report hook).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().unwrap().registry.counter(name)
    }

    /// Starts shutdown. With `drain`, queued jobs still run to
    /// completion; without, every queued job fails immediately with an
    /// `aborted by shutdown` error. Either way no new submission is
    /// accepted afterwards.
    pub fn shutdown(&self, drain: bool) {
        let mut g = self.inner.lock().unwrap();
        g.shutdown = true;
        g.drain = drain;
        if !drain {
            let aborted: Vec<u64> = g.pending.drain(..).collect();
            for id in aborted {
                g.registry.inc("service.failed", 1);
                if let Some(job) = g.jobs.get_mut(&id) {
                    job.state = JobState::Failed;
                    job.error = Some("aborted by shutdown".to_owned());
                    let key = job.key.clone();
                    if g.by_key.get(&key) == Some(&id) {
                        g.by_key.remove(&key);
                    }
                }
            }
            g.registry.set_gauge("service.queue-depth", 0.0);
        }
        self.cond.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.lock().unwrap().shutdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_for(workload: &str) -> ExperimentSpec {
        ExperimentSpec::from_args(&[
            "test",
            &format!("--workloads={workload}"),
            "--machines=single-small",
            "--no-cache",
        ])
        .unwrap()
    }

    #[test]
    fn submit_take_row_finish_is_the_happy_path() {
        let q = JobQueue::with_capacity(8);
        let (id, dedup) = q.submit(spec_for("perl_hash")).unwrap();
        assert!(!dedup);
        assert_eq!(q.status(Some(id)).unwrap()[0].state, JobState::Queued);

        let (taken, spec) = q.take_next().unwrap();
        assert_eq!(taken, id);
        assert_eq!(spec.workloads, ["perl_hash"]);
        assert_eq!(q.status(Some(id)).unwrap()[0].state, JobState::Running);

        q.push_row(id, Json::Str("row".to_owned()));
        q.finish(id, Ok(()));
        let st = &q.status(Some(id)).unwrap()[0];
        assert_eq!(st.state, JobState::Done);
        assert_eq!((st.rows, st.expected_rows), (1, 1));

        let p = q.poll(id, 0, true).unwrap();
        assert_eq!(p.rows.len(), 1);
        assert_eq!(p.terminal, Some((JobState::Done, None)));
    }

    #[test]
    fn duplicate_specs_share_one_job() {
        let q = JobQueue::with_capacity(8);
        let (a, _) = q.submit(spec_for("perl_hash")).unwrap();
        let (b, dedup) = q.submit(spec_for("perl_hash")).unwrap();
        assert_eq!((a, dedup), (b, true));
        // Execution knobs do not defeat dedup.
        let mut tweaked = spec_for("perl_hash");
        tweaked.threads = Some(3);
        tweaked.no_cache = false;
        let (c, dedup) = q.submit(tweaked).unwrap();
        assert_eq!((a, dedup), (c, true));
        assert_eq!(q.counter("service.dedup-hits"), 2);
        // A different figure is a different job.
        let (d, dedup) = q.submit(spec_for("hmmer_dp")).unwrap();
        assert!(d != a && !dedup);
    }

    #[test]
    fn failed_jobs_release_their_key_for_retry() {
        let q = JobQueue::with_capacity(8);
        let (a, _) = q.submit(spec_for("perl_hash")).unwrap();
        let _ = q.take_next().unwrap();
        q.finish(a, Err("worker panicked".to_owned()));
        let st = &q.status(Some(a)).unwrap()[0];
        assert_eq!(st.state, JobState::Failed);
        assert_eq!(st.error.as_deref(), Some("worker panicked"));
        let (b, dedup) = q.submit(spec_for("perl_hash")).unwrap();
        assert!(b != a && !dedup, "retry enqueues a fresh job");
    }

    #[test]
    fn capacity_overflow_is_a_structured_refusal() {
        let q = JobQueue::with_capacity(1);
        q.submit(spec_for("perl_hash")).unwrap();
        let e = q.submit(spec_for("hmmer_dp")).unwrap_err();
        assert_eq!(e.kind, ERR_QUEUE_FULL);
        // Dedup of the queued job still works at capacity.
        let (_, dedup) = q.submit(spec_for("perl_hash")).unwrap();
        assert!(dedup);
    }

    #[test]
    fn drain_shutdown_serves_the_queue_then_stops() {
        let q = JobQueue::with_capacity(8);
        let (a, _) = q.submit(spec_for("perl_hash")).unwrap();
        q.shutdown(true);
        assert_eq!(
            q.submit(spec_for("hmmer_dp")).unwrap_err().kind,
            ERR_SHUTTING_DOWN
        );
        let (taken, _) = q.take_next().unwrap();
        assert_eq!(taken, a);
        q.finish(a, Ok(()));
        assert!(q.take_next().is_none(), "drained queue ends the workers");
    }

    #[test]
    fn immediate_shutdown_fails_the_pending_queue() {
        let q = JobQueue::with_capacity(8);
        let (a, _) = q.submit(spec_for("perl_hash")).unwrap();
        q.shutdown(false);
        assert!(q.take_next().is_none());
        let st = &q.status(Some(a)).unwrap()[0];
        assert_eq!(st.state, JobState::Failed);
        assert_eq!(st.error.as_deref(), Some("aborted by shutdown"));
    }

    #[test]
    fn unknown_jobs_are_structured_errors() {
        let q = JobQueue::with_capacity(8);
        assert_eq!(q.poll(99, 0, false).unwrap_err().kind, ERR_UNKNOWN_JOB);
        assert_eq!(q.status(Some(99)).unwrap_err().kind, ERR_UNKNOWN_JOB);
    }
}
