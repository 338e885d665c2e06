//! The adapter between the benchmark and the simulator. Every call into a
//! layer's public functions lives in this file, so a change to those
//! APIs needs a change here and nowhere else in the benchmark.
//!
//! The layers are the crates: `workloads` (with the `isa` and `rv`
//! frontends), `tracefile`, `ooo`, `core` (the `fgstp` crate), `mem`,
//! `sampling`, `sim` and `service`. Untraced passes drive the user-facing
//! API (`Session`, the `fgstpd` daemon). Traced passes repeat the same
//! work serially through the entry points `Session` is built from, timing
//! each call into a [`Spans`] recorder.

use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use fgstp::partition_stream_weighted;
use fgstp_isa::Trace;
use fgstp_ooo::{build_exec_stream, ExecInst};
use fgstp_sampling::{SamplePlan, SnapshotData};
use fgstp_service::protocol::wire_line;
use fgstp_service::{bench_result_row, Client, Daemon, DaemonConfig};
use fgstp_sim::runner::{plan_on_sampled, run_on_sampled_plan, warm_shape};
use fgstp_sim::{
    run_on, run_on_corun, run_on_instrumented, BenchResult, CpiStack, ExperimentSpec, MachineRun,
    StallCategory, Workload,
};
use fgstp_telemetry::json::Json;
use fgstp_tracefile::{SnapshotFile, TraceCache};

pub use fgstp_sim::spec::scale_word;
pub use fgstp_sim::{MachineKind, SampleConfig, Scale, Session};

use crate::spans::Spans;

/// One simulated job's outcome, in the shape the correctness table holds.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// `detail`, `sampled` or `corun`.
    pub mode: &'static str,
    /// Kernel name; for a co-run, `<co-run>/<program index>`.
    pub workload: String,
    /// Machine preset label.
    pub machine: String,
    /// Simulated cycles (the rounded projection for a sampled job).
    pub cycles: u64,
    /// Committed instructions (the whole trace for a sampled job).
    pub committed: u64,
    /// Sampled CPI estimate.
    pub cpi_mean: Option<f64>,
}

/// Every kernel the service pool draws from: the 18-kernel suite, then
/// the five RV32 programs.
pub fn service_kernels() -> Vec<&'static str> {
    fgstp_workloads::suite(Scale::Test)
        .iter()
        .chain(fgstp_workloads::rv_suite(Scale::Test).iter())
        .map(|w| w.name)
        .collect()
}

fn workload(name: &str, scale: Scale) -> Result<Workload, String> {
    fgstp_workloads::by_name(name, scale).ok_or_else(|| format!("unknown kernel `{name}`"))
}

/// Runs `f`, turning a panic into an error carrying its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}

fn job_result(workload: &str, run: &MachineRun) -> JobResult {
    JobResult {
        mode: if run.sampled.is_some() {
            "sampled"
        } else {
            "detail"
        },
        workload: workload.to_owned(),
        machine: run.kind.label().to_owned(),
        cycles: run.result.cycles,
        committed: run.result.committed,
        cpi_mean: run.sampled.as_ref().map(|s| s.cpi.mean),
    }
}

/// A session over the cache directory `dir`.
pub fn session(
    dir: &Path,
    scale: Scale,
    threads: usize,
    machines: &[MachineKind],
    sample: Option<SampleConfig>,
) -> Session {
    let s = Session::new()
        .scale(scale)
        .threads(threads)
        .cache_dir(dir)
        .machines(machines.iter().copied());
    match sample {
        Some(scfg) => s.sample(scfg),
        None => s,
    }
}

/// Fills the session's trace cache with every kernel's trace.
pub fn fill_trace_cache(session: &Session, scale: Scale, kernels: &[&str]) -> Result<(), String> {
    for name in kernels {
        let w = workload(name, scale)?;
        guarded(|| session.try_trace(&w))??;
    }
    Ok(())
}

/// The jobs of one untraced pass, in plan order (kernel-major), and the
/// instructions they simulated.
#[derive(Debug)]
pub struct PassJobs {
    pub jobs: Vec<Result<JobResult, String>>,
    pub insts: u64,
}

/// One untraced pass: the kernels, in the given order, through
/// `Session::plan().workloads(..).execute()`.
pub fn run_plan(session: &Session, scale: Scale, kernels: &[&str]) -> Result<PassJobs, String> {
    let ws = kernels
        .iter()
        .map(|n| workload(n, scale))
        .collect::<Result<Vec<_>, _>>()?;
    let results = guarded(|| session.plan().workloads(ws).execute())?;
    Ok(bench_jobs(&results))
}

fn bench_jobs(results: &[BenchResult]) -> PassJobs {
    let mut jobs = Vec::new();
    let mut insts = 0;
    for b in results {
        if let Some(e) = &b.error {
            jobs.push(Err(format!("{}: {e}", b.name)));
            continue;
        }
        for r in &b.runs {
            insts += r.result.committed;
            jobs.push(Ok(job_result(b.name, r)));
        }
    }
    PassJobs { jobs, insts }
}

/// Every (kernel, machine) job computed with no cache at all — the
/// correctness table's source for detail and sampled jobs.
pub fn uncached_jobs(
    scale: Scale,
    kernels: &[&str],
    machines: &[MachineKind],
    sample: Option<SampleConfig>,
) -> Result<Vec<JobResult>, String> {
    let mut s = Session::new()
        .scale(scale)
        .no_cache()
        .machines(machines.iter().copied());
    if let Some(scfg) = sample {
        s = s.sample(scfg);
    }
    run_plan(&s, scale, kernels)?.jobs.into_iter().collect()
}

/// Trace-cache and snapshot hit fractions of a session so far.
pub fn hit_fractions(session: &Session) -> (f64, f64) {
    let frac = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let c = session.cache_stats();
    let s = session.snapshot_stats();
    (frac(c.hits, c.misses), frac(s.hits, s.misses))
}

/// Total bytes of trace (`.fgtr`) and snapshot (`.fgss`) files in `dir`;
/// with `prefix`, only files whose names start with it.
pub fn cache_bytes(dir: &Path, prefix: &str) -> (u64, u64) {
    let mut traces = 0;
    let mut snaps = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().map_or(0, |m| m.len());
        if !name.starts_with(prefix) {
            continue;
        }
        if name.ends_with(".fgtr") {
            traces += len;
        } else if name.ends_with(".fgss") {
            snaps += len;
        }
    }
    (traces, snaps)
}

/// Charges one timed run of `kind` to the model layers: the annotation
/// (`build_exec_stream`) and, on Fg-STP, the partitioning each run
/// repeats internally are timed separately on the side, and the rest of
/// the run is the cycle loop.
fn charge_run(
    spans: &mut Spans,
    stream: &[ExecInst],
    annotate_s: f64,
    run: &MachineRun,
    secs: f64,
) {
    spans.charge("ooo.annotate_s", annotate_s);
    spans.count("mem.l2_misses", run.result.mem.l2.misses);
    spans.count("mem.committed", run.result.committed);
    match (run.kind.try_fgstp_config(), &run.fgstp) {
        (Some(cfg), Some(stats)) => {
            let (_, partition_s) = spans
                .probe(|| partition_stream_weighted(stream, &cfg.partition, &cfg.steering_caps()));
            spans.charge("core.partition_s", partition_s);
            spans.charge("core.cycle_s", secs - annotate_s - partition_s);
            spans.count("core.cycles", run.result.cycles);
            spans.count("core.comm_sends", stats.comm_total().sends);
        }
        _ => {
            spans.charge("ooo.cycle_s", secs - annotate_s);
            spans.count("ooo.cycles", run.result.cycles);
        }
    }
}

/// Full-detail runs of every (kernel, machine) job, serially, with the
/// kernel's trace read through the session's cache.
pub fn traced_detail(
    spans: &mut Spans,
    session: &Session,
    scale: Scale,
    kernels: &[&str],
    machines: &[MachineKind],
) -> Result<Vec<Result<JobResult, String>>, String> {
    let mut jobs = Vec::new();
    for name in kernels {
        let w = workload(name, scale)?;
        let trace = spans.time("tracefile.load_s", || guarded(|| session.try_trace(&w)))??;
        jobs.extend(traced_runs(spans, name, &trace, machines));
    }
    Ok(jobs)
}

fn traced_runs(
    spans: &mut Spans,
    name: &str,
    trace: &Trace,
    machines: &[MachineKind],
) -> Vec<Result<JobResult, String>> {
    let (stream, annotate_s) = spans.probe(|| build_exec_stream(trace.insts()));
    machines
        .iter()
        .map(|&k| {
            let (run, secs) = spans.lap(|| guarded(|| run_on(k, trace.insts())));
            let run = run?;
            charge_run(spans, &stream, annotate_s, &run, secs);
            Ok(job_result(name, &run))
        })
        .collect()
}

/// The snapshot key traced passes store live-points under (the session
/// keys its own files privately).
fn snapshot_key(name: &str, scale: Scale, kind: MachineKind) -> String {
    format!(
        "bench-{}-{}-{}",
        name.replace(':', "_"),
        scale_word(scale),
        kind.label()
    )
}

/// Sampled runs planned cold: each kernel is traced and stored through
/// the session (an empty cache misses), then every job plans by
/// functional warming, extracts and writes its live-points, and runs its
/// windows serially.
pub fn traced_sampled_cold(
    spans: &mut Spans,
    session: &Session,
    dir: &Path,
    scale: Scale,
    kernels: &[&str],
    machines: &[MachineKind],
    scfg: &SampleConfig,
) -> Result<Vec<Result<JobResult, String>>, String> {
    let cache = TraceCache::new(dir);
    let mut jobs = Vec::new();
    for name in kernels {
        let w = workload(name, scale)?;
        let (_, trace_s) = spans.probe(|| w.try_trace(scale.trace_budget()));
        let (trace, secs) = spans.lap(|| guarded(|| session.try_trace(&w)));
        let trace = trace??;
        spans.charge("workloads.trace_s", trace_s);
        spans.charge("tracefile.store_s", secs - trace_s);
        spans.count("workloads.trace_insts", trace.len() as u64);
        for &k in machines {
            let plan = spans.time("sampling.plan_s", || {
                guarded(|| plan_on_sampled(k, trace.insts().iter().copied(), scfg))
            })?;
            let snap = spans.time("sampling.encode_s", || plan.to_snapshot());
            let file = SnapshotFile {
                total_insts: snap.total_insts,
                windows: snap.windows,
                final_state: snap.final_state,
            };
            spans
                .time("tracefile.snapshot_write_s", || {
                    cache.store_snapshot(&snapshot_key(name, scale, k), &file)
                })
                .map_err(|e| format!("{name} on {k}: snapshot store failed: {e}"))?;
            jobs.push(traced_windows(spans, name, k, &plan));
        }
    }
    Ok(jobs)
}

/// Sampled runs replayed from the live-points [`traced_sampled_cold`]
/// stored: each kernel's trace is read through the session's cache, each
/// job reads its snapshot, validates it and rebuilds its plan with no
/// warming, then runs its windows serially.
pub fn traced_sampled_warm(
    spans: &mut Spans,
    session: &Session,
    dir: &Path,
    scale: Scale,
    kernels: &[&str],
    machines: &[MachineKind],
    scfg: &SampleConfig,
) -> Result<Vec<Result<JobResult, String>>, String> {
    let cache = TraceCache::new(dir);
    let mut jobs = Vec::new();
    for name in kernels {
        let w = workload(name, scale)?;
        let trace = spans.time("tracefile.load_s", || guarded(|| session.try_trace(&w)))??;
        for &k in machines {
            let file = spans
                .time("tracefile.snapshot_read_s", || {
                    cache.load_snapshot(&snapshot_key(name, scale, k))
                })
                .ok_or_else(|| format!("{name} on {k}: no stored snapshot"))?;
            let plan = spans.time("sampling.plan_s", || {
                let (ccfg, hcfg) = warm_shape(k);
                let snap = SnapshotData {
                    total_insts: file.total_insts,
                    windows: file.windows,
                    final_state: file.final_state,
                };
                snap.validate(trace.len() as u64, &ccfg, &hcfg, scfg)
                    .then(|| SamplePlan::plan_replay(trace.insts().iter().copied(), snap, scfg))
            });
            let plan = plan.ok_or_else(|| format!("{name} on {k}: stale snapshot"))?;
            jobs.push(traced_windows(spans, name, k, &plan));
        }
    }
    Ok(jobs)
}

fn traced_windows(
    spans: &mut Spans,
    name: &str,
    kind: MachineKind,
    plan: &SamplePlan,
) -> Result<JobResult, String> {
    spans.count("sampling.warmed_insts", plan.warmed_insts);
    spans.count("sampling.window_count", plan.jobs.len() as u64);
    let run = spans.time("sampling.windows_s", || {
        guarded(|| run_on_sampled_plan(kind, plan, false, None))
    })?;
    spans.count("mem.l2_misses", run.result.mem.l2.misses);
    spans.count("mem.committed", run.result.committed);
    Ok(job_result(name, &run))
}

/// Shares of core-cycles stalled on memory (single-core and fused runs;
/// Fg-STP runs) and on cross-core synchronisation (Fg-STP runs), from
/// CPI stacks over every job. Zero where a class of machine is absent.
pub fn stall_fractions(
    session: &Session,
    scale: Scale,
    kernels: &[&str],
    machines: &[MachineKind],
) -> Result<(f64, f64, f64), String> {
    let mut single = CpiStack::new();
    let mut fgstp = CpiStack::new();
    for name in kernels {
        let trace = guarded(|| session.try_trace(&workload(name, scale)?))??;
        for &k in machines {
            let (run, _) = guarded(|| run_on_instrumented(k, trace.insts(), false))?;
            let stack = run.cpi.expect("instrumented runs carry a CPI stack");
            let into = if k.is_fgstp() {
                &mut fgstp
            } else {
                &mut single
            };
            into.committed += stack.committed;
            into.base_cycles += stack.base_cycles;
            for (a, b) in into.stalls.iter_mut().zip(stack.stalls) {
                *a += b;
            }
        }
    }
    let share = |s: &CpiStack, cats: &[StallCategory]| {
        let total = s.total_cycles();
        if total == 0 {
            return 0.0;
        }
        cats.iter().map(|&c| s.stall(c)).sum::<u64>() as f64 / total as f64
    };
    let mem = [
        StallCategory::MemL1,
        StallCategory::MemL2,
        StallCategory::MemDram,
    ];
    let sync = [
        StallCategory::CommWait,
        StallCategory::CommBackpressure,
        StallCategory::CommitSync,
    ];
    Ok((
        share(&single, &mem),
        share(&fgstp, &mem),
        share(&fgstp, &sync),
    ))
}

/// One spec of the service pool.
#[derive(Debug)]
pub struct PoolSpec {
    spec: ExperimentSpec,
    /// The co-run scenario, when the spec is one.
    corun: Option<String>,
}

/// The service pool at `scale`: every kernel of [`service_kernels`] on
/// each of three machines (one core, Fg-STP on two small cores, Fg-STP
/// on four medium cores), then one shared-hierarchy co-run.
pub fn service_pool(scale: Scale) -> Result<Vec<PoolSpec>, String> {
    let scale = scale_word(scale);
    let mut pool = Vec::new();
    for kernel in service_kernels() {
        for machines in ["single-small", "fgstp-small", "fgstp-medium-4"] {
            let args = [
                scale.to_owned(),
                format!("--workloads={kernel}"),
                format!("--machines={machines}"),
            ];
            pool.push(PoolSpec {
                spec: ExperimentSpec::from_args(&args).map_err(|e| e.to_string())?,
                corun: None,
            });
        }
    }
    let corun = "perl_hash:2,mcf_pointer:2";
    let args = [
        scale.to_owned(),
        "--machines=fgstp-small".to_owned(),
        format!("--corun={corun}"),
    ];
    pool.push(PoolSpec {
        spec: ExperimentSpec::from_args(&args).map_err(|e| e.to_string())?,
        corun: Some(corun.to_owned()),
    });
    Ok(pool)
}

/// One service request as the client saw it.
#[derive(Debug)]
pub struct Reply {
    /// Index into the pool.
    pub spec: usize,
    /// Seconds from the pass start to the submission.
    pub submit_s: f64,
    /// Seconds from the pass start to reading the `end` event.
    pub end_s: f64,
    /// Whether the daemon served it from an earlier job.
    pub dedup: bool,
    /// The result rows, each as its exact wire line.
    pub lines: Vec<String>,
    /// The rows as checkable jobs.
    pub jobs: Vec<JobResult>,
    /// Why the request failed, if it did.
    pub error: Option<String>,
}

/// Converts result rows to jobs; `corun` names the scenario of a co-run
/// spec.
fn row_jobs(rows: &[Json], corun: Option<&str>) -> Result<Vec<JobResult>, String> {
    let num = |v: &Json, k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .map(|n| n as u64)
            .ok_or_else(|| format!("row without `{k}`"))
    };
    let mut jobs = Vec::new();
    for row in rows {
        let name = row
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("row without a workload")?;
        if let Some(Json::Str(e)) = row.get("error") {
            return Err(format!("{name}: {e}"));
        }
        for run in row.get("runs").and_then(Json::as_arr).unwrap_or_default() {
            let (mode, workload) = match corun {
                Some(c) => {
                    let program = run.get("corun").ok_or("co-run row without placement")?;
                    ("corun", format!("{c}/{}", num(program, "program")?))
                }
                None => ("detail", name.to_owned()),
            };
            jobs.push(JobResult {
                mode,
                workload,
                machine: run
                    .get("machine")
                    .and_then(Json::as_str)
                    .ok_or("run without a machine")?
                    .to_owned(),
                cycles: num(run, "cycles")?,
                committed: num(run, "committed")?,
                cpi_mean: None,
            });
        }
    }
    Ok(jobs)
}

/// Every job of one pool spec, run in-process (the correctness table's
/// source for service rows).
pub fn pool_jobs(p: &PoolSpec) -> Result<Vec<JobResult>, String> {
    let mut spec = p.spec.clone();
    spec.no_cache = true;
    let results = guarded(|| spec.run())?.map_err(|e| e.to_string())?;
    let rows: Vec<Json> = results.iter().map(bench_result_row).collect();
    row_jobs(&rows, p.corun.as_deref())
}

/// A pool spec's label for error messages.
pub fn pool_label(p: &PoolSpec) -> String {
    match &p.corun {
        Some(c) => format!("corun {c}"),
        None => format!("{} on {:?}", p.spec.workloads.join(","), p.spec.machines),
    }
}

/// One pass of the service workload: an in-process `fgstpd` with one
/// worker and a fresh cache directory, and one client connection that
/// submits `order` in a closed loop with at most two submissions
/// outstanding. The daemon is shut down and joined before returning.
pub fn service_pass(dir: &Path, pool: &[PoolSpec], order: &[usize]) -> Result<Vec<Reply>, String> {
    let daemon = Daemon::bind(DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_capacity: 8,
        cache_dir: Some(dir.to_path_buf()),
    })
    .map_err(|e| format!("daemon bind: {e}"))?;
    let addr = daemon.local_addr().map_err(|e| e.to_string())?;
    let queue = daemon.queue();
    let server = std::thread::spawn(move || daemon.run());
    let replies = drive_client(addr, pool, order);
    // Stop without draining (a failed pass may leave jobs queued), then
    // wake the acceptor so the daemon notices.
    queue.shutdown(false);
    let _ = TcpStream::connect(addr);
    let joined = server.join();
    let replies = replies?;
    match joined {
        Ok(Ok(())) => Ok(replies),
        Ok(Err(e)) => Err(format!("daemon: {e}")),
        Err(_) => Err("daemon thread panicked".to_owned()),
    }
}

fn drive_client(
    addr: std::net::SocketAddr,
    pool: &[PoolSpec],
    order: &[usize],
) -> Result<Vec<Reply>, String> {
    let mut client =
        Client::connect_timeout(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut replies: Vec<Reply> = Vec::with_capacity(order.len());
    let mut jobs: Vec<u64> = Vec::with_capacity(order.len());
    let mut waited = 0;
    for (i, &spec) in order.iter().enumerate() {
        if i - waited == 2 {
            await_reply(&mut client, pool, &mut replies[waited], jobs[waited], start);
            waited += 1;
        }
        let submit_s = start.elapsed().as_secs_f64();
        let mut reply = Reply {
            spec,
            submit_s,
            end_s: submit_s,
            dedup: false,
            lines: Vec::new(),
            jobs: Vec::new(),
            error: None,
        };
        match client.submit(&pool[spec].spec) {
            Ok(sub) => {
                reply.dedup = sub.dedup;
                jobs.push(sub.job);
            }
            Err(e) => {
                reply.error = Some(format!("submit: {e}"));
                jobs.push(u64::MAX);
            }
        }
        replies.push(reply);
    }
    while waited < replies.len() {
        await_reply(&mut client, pool, &mut replies[waited], jobs[waited], start);
        waited += 1;
    }
    Ok(replies)
}

fn await_reply(
    client: &mut Client,
    pool: &[PoolSpec],
    reply: &mut Reply,
    job: u64,
    start: Instant,
) {
    if reply.error.is_some() {
        return;
    }
    let mut rows = Vec::new();
    let outcome = client.results(job, true, |row| rows.push(row.clone()));
    reply.end_s = start.elapsed().as_secs_f64();
    match outcome {
        Ok(o) if o.is_done() => {
            reply.lines = rows.iter().map(wire_line).collect();
            match row_jobs(&rows, pool[reply.spec].corun.as_deref()) {
                Ok(jobs) => reply.jobs = jobs,
                Err(e) => reply.error = Some(e),
            }
        }
        Ok(o) => reply.error = Some(format!("job {job} ended {}: {:?}", o.state, o.error)),
        Err(e) => reply.error = Some(format!("results: {e}")),
    }
}

/// Repeats one service job's work in-process through the layer entry
/// points, mirroring the daemon's session (one thread, the cache in
/// `dir`): each kernel is traced and stored on its first use and read
/// back afterwards, then runs on each machine.
pub fn replay_pool_spec(spans: &mut Spans, dir: &Path, p: &PoolSpec) -> Result<(), String> {
    let session = Session::new().threads(1).cache_dir(dir).scale(p.spec.scale);
    let names = p.spec.workload_names();
    let mut traces = Vec::new();
    for name in &names {
        let w = workload(name, p.spec.scale)?;
        let misses = session.cache_stats().misses;
        let (trace, secs) = spans.lap(|| guarded(|| session.try_trace(&w)));
        let trace = trace??;
        if session.cache_stats().misses > misses {
            let (_, trace_s) = spans.probe(|| w.try_trace(p.spec.scale.trace_budget()));
            spans.charge("workloads.trace_s", trace_s);
            spans.charge("tracefile.store_s", secs - trace_s);
            spans.count("workloads.trace_insts", trace.len() as u64);
        } else {
            spans.charge("tracefile.load_s", secs);
        }
        traces.push((w, trace));
    }
    if let Some(c) = &p.spec.corun {
        let kind = p.spec.machines[0];
        let cores: Vec<usize> = c.programs.iter().map(|p| p.cores).collect();
        let (ws, ts): (Vec<Workload>, Vec<Trace>) = traces.into_iter().unzip();
        let (rows, secs) = spans.lap(|| guarded(|| run_on_corun(kind, &ws, &ts, &cores, false)));
        let rows = rows?;
        // Each program is annotated and partitioned before the shared
        // cycle loop; time both on the side.
        let mut setup_s = 0.0;
        for (t, &n) in ts.iter().zip(&cores) {
            let cfg = kind.fgstp_config().with_cores(n);
            let (stream, a) = spans.probe(|| build_exec_stream(t.insts()));
            let (_, p) = spans
                .probe(|| partition_stream_weighted(&stream, &cfg.partition, &cfg.steering_caps()));
            spans.charge("ooo.annotate_s", a);
            spans.charge("core.partition_s", p);
            setup_s += a + p;
        }
        spans.charge("core.cycle_s", secs - setup_s);
        for b in &rows {
            for r in &b.runs {
                spans.count("core.cycles", r.result.cycles);
                spans.count("mem.committed", r.result.committed);
                spans.count("mem.l2_misses", r.result.mem.l2.misses);
            }
        }
        return Ok(());
    }
    for (w, trace) in &traces {
        for job in traced_runs(spans, w.name, trace, &p.spec.machines) {
            job?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_service_pool_has_seventy_distinct_specs() {
        let pool = service_pool(Scale::Test).unwrap();
        assert_eq!(service_kernels().len(), 23);
        assert_eq!(pool.len(), 70);
        let mut keys: Vec<String> = pool.iter().map(|p| p.spec.dedup_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 70, "no two pool specs dedup against each other");
    }
}
