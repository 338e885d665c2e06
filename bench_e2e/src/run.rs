//! Running one workload: set-up, timed passes or traced passes, and the
//! correctness checks every pass's results go through.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::golden::{self, Golden};
use crate::heap;
use crate::layers::{self, JobResult, PoolSpec, Reply};
use crate::spans::{Breakdown, Spans, RESIDUAL};
use crate::stats::{median, percentile};
use crate::suite::{self, Def, Kind, SAMPLE};

/// Set-ups per timed run; `setup_s` is their median. They run before
/// the first passes rather than back to back, so one burst of contention
/// from other tenants of the host cannot slow them all.
const SETUP_REPS: usize = 5;

/// The end-to-end metrics (printed without `--trace`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("cache_mb", "MB"),
];

/// The per-layer metrics (printed with `--trace 1`), with units. Every
/// workload prints all of them; a layer a workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("traced_wall_s", "s"),
    (RESIDUAL, "s"),
    ("workloads.trace_s", "s"),
    ("workloads.trace_mips", "MIPS"),
    ("tracefile.store_s", "s"),
    ("tracefile.load_s", "s"),
    ("tracefile.trace_mb", "MB"),
    ("tracefile.snapshot_write_s", "s"),
    ("tracefile.snapshot_read_s", "s"),
    ("tracefile.snapshot_mb", "MB"),
    ("sampling.plan_s", "s"),
    ("sampling.encode_s", "s"),
    ("sampling.windows_s", "s"),
    ("sampling.warmed_insts", "count"),
    ("sampling.window_count", "count"),
    ("ooo.annotate_s", "s"),
    ("ooo.cycle_s", "s"),
    ("ooo.cycles", "count"),
    ("ooo.ns_per_cycle", "ns"),
    ("ooo.mem_stall_frac", "fraction"),
    ("core.partition_s", "s"),
    ("core.cycle_s", "s"),
    ("core.cycles", "count"),
    ("core.ns_per_cycle", "ns"),
    ("core.comm_sends", "count"),
    ("core.mem_stall_frac", "fraction"),
    ("core.sync_stall_frac", "fraction"),
    ("mem.l2_mpki", "1/kinst"),
    ("sim.cache_hit_frac", "fraction"),
    ("sim.snapshot_hit_frac", "fraction"),
    ("sim.pool_speedup", "x"),
    ("service.req_p50_ms", "ms"),
    ("service.req_p90_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.exec_p50_ms", "ms"),
    ("service.overhead_p50_ms", "ms"),
    ("service.overhead_s", "s"),
    ("service.dedup_frac", "fraction"),
];

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Order-independent fingerprint of the last pass's results.
    pub fingerprint: u64,
    /// Seconds of each set-up.
    pub setup_secs: Vec<f64>,
    /// Seconds of each untraced pass.
    pub pass_secs: Vec<f64>,
}

/// The workload's cache directory, `$CARGO_TARGET_DIR/bench-e2e/<name>`,
/// removed (with `bench-e2e` itself once empty) when dropped.
#[derive(Debug)]
struct CacheDir(PathBuf);

impl CacheDir {
    fn new(name: &str) -> Result<CacheDir, String> {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let dir = CacheDir(PathBuf::from(target).join("bench-e2e").join(name));
        dir.clear(&dir.0)?;
        Ok(dir)
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Empties `path` (the cache directory or one below it).
    fn clear(&self, path: &Path) -> Result<(), String> {
        match std::fs::remove_dir_all(path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot clear {}: {e}", path.display())),
        }
        std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Ops attempted and failed, checked against the correctness table.
struct Tally {
    golden: Golden,
    scale: &'static str,
    attempted: u64,
    failed: u64,
    last: Vec<JobResult>,
}

impl Tally {
    fn fail(&mut self, n: usize, why: &str) {
        self.attempted += n as u64;
        self.failed += n as u64;
        eprintln!("bench_e2e: {n} op(s) failed: {why}");
    }

    /// Counts `expected` ops, of which `outcomes` finished; the rest
    /// failed.
    fn record(&mut self, expected: usize, outcomes: Vec<Result<(), String>>) {
        let finished = outcomes.len();
        for outcome in outcomes {
            match outcome {
                Ok(()) => self.attempted += 1,
                Err(e) => self.fail(1, &e),
            }
        }
        if finished < expected {
            self.fail(expected - finished, "pass ended early");
        }
    }

    /// Counts `expected` ops whose outcomes are `jobs`, each checked
    /// against the correctness table.
    fn jobs(&mut self, expected: usize, jobs: &[Result<JobResult, String>]) {
        let outcomes = jobs
            .iter()
            .map(|j| j.clone().and_then(|j| self.golden.check(self.scale, &j)))
            .collect();
        self.last = jobs.iter().filter_map(|j| j.clone().ok()).collect();
        self.record(expected, outcomes);
    }
}

/// One untraced pass.
struct Pass {
    secs: f64,
    insts: u64,
    /// Trace-cache and snapshot hit fractions of the pass's session.
    hits: (f64, f64),
}

/// Per-pass figures of the service stream.
#[derive(Debug, Default)]
struct ServiceFigures {
    req_p50_ms: f64,
    req_p90_ms: f64,
    queue_wait_p50_ms: f64,
    exec_p50_ms: f64,
    overhead_p50_ms: f64,
    dedup_frac: f64,
}

struct Runner {
    def: Def,
    dir: CacheDir,
    tally: Tally,
    kernels: Vec<&'static str>,
    pool: Vec<PoolSpec>,
    requests: Vec<usize>,
}

/// Runs workload `def`: set-up, then timed passes (or, with `traced`,
/// alternating untraced and traced passes) until `seconds` have passed,
/// at least one of each.
pub fn run(def: Def, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut r = Runner {
        def,
        dir: CacheDir::new(def.name)?,
        tally: Tally {
            golden: Golden::load()?,
            scale: layers::scale_word(def.scale),
            attempted: 0,
            failed: 0,
            last: Vec::new(),
        },
        kernels: suite::kernel_order(&def, seed),
        pool: Vec::new(),
        requests: Vec::new(),
    };
    let setup_s = r.timed_setup()?;
    if def.kind == Kind::Service {
        r.requests = suite::service_order(seed, r.pool.len());
    }
    let m = if traced {
        r.traced_run(seconds)?
    } else {
        r.timed_run(seconds, setup_s)?
    };
    Ok(Report {
        attempted: r.tally.attempted,
        failed: r.tally.failed,
        fingerprint: golden::fingerprint(r.tally.scale, &r.tally.last),
        metrics: m.metrics,
        setup_secs: m.setups,
        pass_secs: m.passes,
    })
}

/// What a timed or traced run measured.
struct Measured {
    metrics: Vec<(&'static str, f64, &'static str)>,
    setups: Vec<f64>,
    passes: Vec<f64>,
}

impl Runner {
    fn ops_per_pass(&self) -> usize {
        match self.def.kind {
            Kind::Service => self.requests.len(),
            _ => self.def.kernels.len() * self.def.machines.len(),
        }
    }

    fn session(&self) -> layers::Session {
        let sample =
            matches!(self.def.kind, Kind::SampledCold | Kind::SampledWarm).then_some(SAMPLE);
        layers::session(
            &self.dir.0,
            self.def.scale,
            self.def.threads,
            self.def.machines,
            sample,
        )
    }

    /// Prepares the state every pass starts from. Detail workloads fill
    /// the trace cache; sampled workloads run one cold pass (the state
    /// sampled-warm replays, and first-touch costs sampled-cold would
    /// otherwise put in its first pass); the service builds its spec pool.
    fn setup(&mut self) -> Result<(), String> {
        self.dir.clear(&self.dir.0)?;
        match self.def.kind {
            Kind::Detail => {
                layers::fill_trace_cache(&self.session(), self.def.scale, &self.kernels)
            }
            Kind::SampledCold | Kind::SampledWarm => {
                let pass = layers::run_plan(&self.session(), self.def.scale, &self.kernels)?;
                self.tally.jobs(self.ops_per_pass(), &pass.jobs);
                Ok(())
            }
            Kind::Service => {
                self.pool = layers::service_pool(self.def.scale)?;
                Ok(())
            }
        }
    }

    /// One untraced pass.
    fn pass(&mut self) -> Result<Pass, String> {
        if self.def.kind == Kind::Service {
            let (secs, replies) = self.service_stream()?;
            let insts = replies
                .iter()
                .filter(|r| !r.dedup)
                .flat_map(|r| &r.jobs)
                .map(|j| j.committed)
                .sum();
            return Ok(Pass {
                secs,
                insts,
                hits: (0.0, 0.0),
            });
        }
        if self.def.kind == Kind::SampledCold {
            self.dir.clear(&self.dir.0)?;
        }
        let session = self.session();
        let t = Instant::now();
        let jobs = layers::run_plan(&session, self.def.scale, &self.kernels)?;
        let secs = t.elapsed().as_secs_f64();
        self.tally.jobs(self.ops_per_pass(), &jobs.jobs);
        Ok(Pass {
            secs,
            insts: jobs.insts,
            hits: layers::hit_fractions(&session),
        })
    }

    /// The directory whose files `cache_mb` counts.
    fn data_dir(&self) -> PathBuf {
        match self.def.kind {
            Kind::Service => self.dir.sub("daemon"),
            _ => self.dir.0.clone(),
        }
    }

    fn timed_setup(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        self.setup()?;
        Ok(t.elapsed().as_secs_f64())
    }

    fn timed_run(&mut self, seconds: f64, first_setup_s: f64) -> Result<Measured, String> {
        let mut setups = vec![first_setup_s];
        let mut walls = Vec::new();
        let mut mips = Vec::new();
        let mut heap_mb = Vec::new();
        let mut spent = 0.0;
        loop {
            let t = Instant::now();
            heap::reset_peak();
            let pass = match self.pass() {
                Ok(p) => p,
                Err(e) => {
                    self.tally.fail(self.ops_per_pass(), &e);
                    break;
                }
            };
            walls.push(pass.secs);
            mips.push(pass.insts as f64 / pass.secs / 1e6);
            heap_mb.push(heap::peak_mb());
            spent += t.elapsed().as_secs_f64();
            if spent + median(&walls) > seconds {
                break;
            }
            if setups.len() < SETUP_REPS {
                setups.push(self.timed_setup()?);
            }
        }
        if walls.is_empty() {
            return Err("no pass completed".to_owned());
        }
        let (traces, snaps) = layers::cache_bytes(&self.data_dir(), "");
        while setups.len() < SETUP_REPS {
            setups.push(self.timed_setup()?);
        }
        // Contention from other tenants only ever adds time, and it comes
        // in bursts that last a few passes, so the fastest pass is the
        // steadiest figure for the code's own cost.
        let values = [
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            mips.iter().copied().fold(0.0, f64::max),
            median(&setups),
            median(&heap_mb),
            (traces + snaps) as f64 / 1e6,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        Ok(Measured {
            metrics,
            setups,
            passes: walls,
        })
    }

    fn traced_run(&mut self, seconds: f64) -> Result<Measured, String> {
        if self.def.kind == Kind::SampledWarm {
            // Store live-points under the traced passes' own keys.
            let mut scratch = Spans::start();
            layers::traced_sampled_cold(
                &mut scratch,
                &self.session(),
                &self.dir.0,
                self.def.scale,
                &self.kernels,
                self.def.machines,
                &SAMPLE,
            )?;
        }
        let start = Instant::now();
        let mut walls = Vec::new();
        let mut hits;
        let mut traced: Vec<(Breakdown, ServiceFigures)> = Vec::new();
        loop {
            let pass = self.pass()?;
            walls.push(pass.secs);
            hits = pass.hits;
            traced.push(self.traced_pass()?);
            let per_round = median(&walls) + median(&column(&traced, |b| b.traced_wall_s));
            if start.elapsed().as_secs_f64() + per_round > seconds {
                break;
            }
        }
        let (stalls_single_mem, stalls_core_mem, stalls_core_sync) = match self.def.kind {
            Kind::Detail => layers::stall_fractions(
                &self.session(),
                self.def.scale,
                &self.kernels,
                self.def.machines,
            )?,
            _ => (0.0, 0.0, 0.0),
        };
        let (trace_bytes, snap_bytes) = match self.def.kind {
            Kind::Service => layers::cache_bytes(&self.data_dir(), ""),
            _ => (
                layers::cache_bytes(&self.dir.0, "").0,
                layers::cache_bytes(&self.dir.0, "bench-").1,
            ),
        };
        let part = |name: &str| {
            median(&column(&traced, |b| {
                b.parts.get(name).copied().unwrap_or(0.0)
            }))
        };
        let last = &traced.last().expect("at least one traced pass").0;
        let count = |name: &str| last.counts.get(name).copied().unwrap_or(0) as f64;
        let per = |num: f64, den: f64, scale: f64| if den > 0.0 { num * scale / den } else { 0.0 };
        let svc = |f: fn(&ServiceFigures) -> f64| {
            median(&traced.iter().map(|t| f(&t.1)).collect::<Vec<_>>())
        };
        let traced_wall = median(&column(&traced, |b| b.traced_wall_s));
        let mut v: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            if name.ends_with("_s") {
                v.insert(name, part(name));
            }
        }
        v.insert("traced_wall_s", traced_wall);
        v.insert(
            "workloads.trace_mips",
            per(
                count("workloads.trace_insts"),
                part("workloads.trace_s"),
                1e-6,
            ),
        );
        v.insert("tracefile.trace_mb", trace_bytes as f64 / 1e6);
        v.insert("tracefile.snapshot_mb", snap_bytes as f64 / 1e6);
        for name in [
            "sampling.warmed_insts",
            "sampling.window_count",
            "ooo.cycles",
            "core.cycles",
            "core.comm_sends",
        ] {
            v.insert(name, count(name));
        }
        v.insert(
            "ooo.ns_per_cycle",
            per(part("ooo.cycle_s"), count("ooo.cycles"), 1e9),
        );
        v.insert(
            "core.ns_per_cycle",
            per(part("core.cycle_s"), count("core.cycles"), 1e9),
        );
        v.insert("ooo.mem_stall_frac", stalls_single_mem);
        v.insert("core.mem_stall_frac", stalls_core_mem);
        v.insert("core.sync_stall_frac", stalls_core_sync);
        v.insert(
            "mem.l2_mpki",
            per(count("mem.l2_misses"), count("mem.committed"), 1e3),
        );
        v.insert("sim.cache_hit_frac", hits.0);
        v.insert("sim.snapshot_hit_frac", hits.1);
        v.insert("sim.pool_speedup", traced_wall / median(&walls));
        v.insert("service.req_p50_ms", svc(|f| f.req_p50_ms));
        v.insert("service.req_p90_ms", svc(|f| f.req_p90_ms));
        v.insert("service.queue_wait_p50_ms", svc(|f| f.queue_wait_p50_ms));
        v.insert("service.exec_p50_ms", svc(|f| f.exec_p50_ms));
        v.insert("service.overhead_p50_ms", svc(|f| f.overhead_p50_ms));
        v.insert("service.dedup_frac", svc(|f| f.dedup_frac));
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, v[name], unit))
            .collect();
        Ok(Measured {
            metrics,
            setups: Vec::new(),
            passes: walls,
        })
    }

    /// One traced pass and, on the service, its stream figures.
    fn traced_pass(&mut self) -> Result<(Breakdown, ServiceFigures), String> {
        let (dir, scale, machines) = (&self.dir.0, self.def.scale, self.def.machines);
        match self.def.kind {
            Kind::Service => return self.traced_service(),
            Kind::SampledCold => self.dir.clear(dir)?,
            Kind::Detail | Kind::SampledWarm => {}
        }
        let session = self.session();
        let kernels = &self.kernels;
        let mut spans = Spans::start();
        let jobs = match self.def.kind {
            Kind::SampledCold => layers::traced_sampled_cold(
                &mut spans, &session, dir, scale, kernels, machines, &SAMPLE,
            )?,
            Kind::SampledWarm => layers::traced_sampled_warm(
                &mut spans, &session, dir, scale, kernels, machines, &SAMPLE,
            )?,
            _ => layers::traced_detail(&mut spans, &session, scale, kernels, machines)?,
        };
        self.tally.jobs(self.ops_per_pass(), &jobs);
        Ok((spans.finish(), ServiceFigures::default()))
    }

    /// Runs the service stream once on a fresh daemon and checks every
    /// reply: no error, the daemon dedups exactly the repeated specs, a
    /// first reply's rows match the correctness table, and a repeat's rows
    /// are byte-identical to the first rows served for its spec. Returns
    /// the stream's wall time and the replies.
    fn service_stream(&mut self) -> Result<(f64, Vec<Reply>), String> {
        let dir = self.dir.sub("daemon");
        self.dir.clear(&dir)?;
        let t = Instant::now();
        let replies = layers::service_pass(&dir, &self.pool, &self.requests)?;
        let secs = t.elapsed().as_secs_f64();
        let mut first: HashMap<usize, &[String]> = HashMap::new();
        let mut outcomes = Vec::new();
        for r in &replies {
            let label = || layers::pool_label(&self.pool[r.spec]);
            let seen = first.get(&r.spec).copied();
            outcomes.push(if let Some(e) = &r.error {
                Err(e.clone())
            } else if r.dedup != seen.is_some() {
                Err(format!(
                    "{}: dedup {} on a {} submission",
                    label(),
                    r.dedup,
                    if seen.is_some() { "repeated" } else { "first" }
                ))
            } else if let Some(lines) = seen {
                if lines == r.lines.as_slice() {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: repeated rows differ from the first rows served",
                        label()
                    ))
                }
            } else if r.jobs.is_empty() {
                Err(format!("{}: no rows", label()))
            } else {
                first.insert(r.spec, &r.lines);
                r.jobs
                    .iter()
                    .try_for_each(|j| self.tally.golden.check(self.tally.scale, j))
            });
        }
        self.tally.record(self.requests.len(), outcomes);
        self.tally.last = replies
            .iter()
            .filter(|r| !r.dedup)
            .flat_map(|r| r.jobs.iter().cloned())
            .collect();
        Ok((secs, replies))
    }

    fn traced_service(&mut self) -> Result<(Breakdown, ServiceFigures), String> {
        let replay_dir = self.dir.sub("replay");
        self.dir.clear(&replay_dir)?;
        let mut spans = Spans::start();
        let (stream, _) = spans.lap(|| self.service_stream());
        let (_, replies) = stream?;
        let served: Vec<&Reply> = replies
            .iter()
            .filter(|r| !r.dedup && r.error.is_none())
            .collect();
        // Repeat each executed job in-process, in order, on the side: its
        // per-layer split stands for the daemon's execution of that job.
        let (replayed, _) = spans.probe(|| {
            served
                .iter()
                .map(|r| {
                    let mut s = Spans::start();
                    layers::replay_pool_spec(&mut s, &replay_dir, &self.pool[r.spec])
                        .map(|()| s.finish())
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let replayed = replayed?;
        let mut inproc = Vec::new();
        for b in &replayed {
            for (&k, &v) in b.parts.iter().filter(|(k, _)| **k != RESIDUAL) {
                spans.charge(k, v);
            }
            for (&k, &n) in &b.counts {
                spans.count(k, n);
            }
            inproc.push(b.traced_wall_s - b.parts[RESIDUAL]);
        }
        // One FIFO worker: a job starts when it is submitted or when the
        // job before it finishes, whichever is later.
        let mut done = 0.0f64;
        let (mut waits, mut execs) = (Vec::new(), Vec::new());
        for r in &served {
            let start = r.submit_s.max(done);
            waits.push(start - r.submit_s);
            execs.push(r.end_s - start);
            done = r.end_s;
        }
        spans.charge(
            "service.overhead_s",
            execs.iter().sum::<f64>() - inproc.iter().sum::<f64>(),
        );
        let overheads: Vec<f64> = execs.iter().zip(&inproc).map(|(e, i)| e - i).collect();
        let latencies: Vec<f64> = replies.iter().map(|r| r.end_s - r.submit_s).collect();
        let ms = |xs: &[f64], p: f64| percentile(xs, p).map_or(0.0, |v| v * 1e3);
        let figures = ServiceFigures {
            req_p50_ms: ms(&latencies, 0.5),
            req_p90_ms: ms(&latencies, 0.9),
            queue_wait_p50_ms: ms(&waits, 0.5),
            exec_p50_ms: ms(&execs, 0.5),
            overhead_p50_ms: ms(&overheads, 0.5),
            dedup_frac: replies.iter().filter(|r| r.dedup).count() as f64 / replies.len() as f64,
        };
        Ok((spans.finish(), figures))
    }
}

fn column<T>(traced: &[(Breakdown, T)], f: impl Fn(&Breakdown) -> f64) -> Vec<f64> {
    traced.iter().map(|(b, _)| f(b)).collect()
}
