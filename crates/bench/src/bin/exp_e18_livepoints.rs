//! E18 — live-points: checkpointed, parallel sampled simulation.
//!
//! Runs the long-run suite (plus one RV32 program, so both frontends are
//! covered) under the standard ≥10× sampling regime three times; every
//! phase traces its workloads afresh:
//!
//! 1. **cold** — an empty live-point cache: one pass of continuous
//!    functional warming per (workload, machine-shape) job, detailed
//!    windows fanned out across the worker pool, snapshots stored;
//! 2. **snapshot-warm** — the same configuration replayed against that
//!    cache: every job loads its stored live-points, functional warming
//!    is skipped entirely (zero instructions warmed), only the detailed
//!    windows run;
//! 3. **snapshots off** — the control, with no cache: warming repeats and
//!    nothing is consulted or written.
//!
//! The experiment reports wall-clock, snapshot hit/miss counts, and
//! instructions warmed per phase, plus the bytes of live-point (`.fgss`)
//! files the cold leg stored, and checks the projected figures are
//! bit-identical across all three — the live-point contract: checkpoints
//! buy time, never accuracy.
//!
//! Accepts the shared [`fgstp_sim::ExperimentSpec`] flag vocabulary
//! (scale word, `--threads=N`, `--sample=I,W,D`) plus `--csv`; the cache
//! directory is a private temporary one so the cold leg is really cold.

use std::path::Path;
use std::time::Instant;

use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_sim::{geomean, BenchResult, MachineKind, SampleConfig, Table};
use fgstp_workloads::{by_name, long_suite};

/// Projected cycles per (workload, machine), the identity the phases
/// must agree on bit-for-bit.
fn figures(results: &[BenchResult]) -> Vec<(&'static str, Vec<u64>)> {
    results
        .iter()
        .map(|b| (b.name, b.runs.iter().map(|r| r.result.cycles).collect()))
        .collect()
}

fn geomean_speedup(results: &[BenchResult]) -> f64 {
    let speedups: Vec<f64> = results
        .iter()
        .filter(|b| b.runs.len() == 2)
        .map(|b| b.runs[0].result.cycles as f64 / b.runs[1].result.cycles as f64)
        .collect();
    geomean(&speedups)
}

/// Total size in bytes and number of the live-point (`.fgss`) files in
/// `dir`.
fn livepoint_bytes(dir: &Path) -> (u64, usize) {
    let sizes: Vec<u64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "fgss"))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .collect();
    (sizes.iter().sum(), sizes.len())
}

fn main() {
    let args = ExpArgs::parse();
    let scfg = args.spec.sample.unwrap_or(SampleConfig {
        interval: 10_000,
        warmup: 600,
        detail: 300,
    });
    let machines = [MachineKind::SingleSmall, MachineKind::FgstpSmall];
    let mut workloads = long_suite(args.scale());
    if let Some(rv) = by_name("rv:quicksort", args.scale()) {
        workloads.push(rv);
    }

    let dir = std::env::temp_dir().join(format!("fgstp-e18-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run_phase = |cached: bool| {
        let s = args.session().sample(scfg).machines(machines);
        let s = if cached {
            s.cache_dir(&dir)
        } else {
            s.no_cache()
        };
        let t0 = Instant::now();
        let results = s.plan().workloads(workloads.clone()).execute();
        (results, s.snapshot_stats(), t0.elapsed())
    };

    let (cold, cold_stats, cold_wall) = run_phase(true);
    let (stored_bytes, stored_files) = livepoint_bytes(&dir);
    let (warm, warm_stats, warm_wall) = run_phase(true);
    let (off, off_stats, off_wall) = run_phase(false);

    let reference = figures(&cold);
    let phases = [
        ("cold (store)", &cold, cold_stats, cold_wall),
        ("snapshot-warm", &warm, warm_stats, warm_wall),
        ("snapshots off", &off, off_stats, off_wall),
    ];
    let mut table = Table::new([
        "phase",
        "wall (ms)",
        "live-points",
        "insts warmed",
        "geomean speedup",
        "identical",
    ]);
    let mut all_identical = true;
    for (name, results, stats, wall) in &phases {
        let identical = figures(results) == reference;
        all_identical &= identical;
        table.row([
            (*name).to_owned(),
            format!("{:.0}", wall.as_secs_f64() * 1e3),
            format!("{} hit / {} miss", stats.hits, stats.misses),
            format!("{}", stats.warmed_insts),
            format!("{:.3}", geomean_speedup(results)),
            if identical { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    print_experiment(
        "E18",
        "live-points: snapshot-warm parallel sampling vs cold warming",
        &args,
        &table,
    );
    println!(
        "snapshot-warm replay: {:.2}x the cold wall-clock, {} insts warmed (cold warmed {}); figures identical: {}",
        warm_wall.as_secs_f64() / cold_wall.as_secs_f64(),
        phases[1].2.warmed_insts,
        cold_stats.warmed_insts,
        if all_identical { "yes" } else { "NO" }
    );
    println!(
        "live-points stored by the cold leg: {stored_bytes} bytes in {stored_files} .fgss files"
    );
    assert!(all_identical, "live-points changed the figures");
    assert_eq!(
        phases[1].2.warmed_insts, 0,
        "snapshot-warm phase must skip functional warming entirely"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
