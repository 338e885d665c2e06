//! E14 — sampled-simulation accuracy and cost (methodology extension).
//!
//! Runs the long-run suite (`fgstp_workloads::long_suite`) full-detail on
//! the single small core and the small Fg-STP machine, then repeats the
//! comparison under SMARTS-style systematic sampling at several sampling
//! ratios. For each regime it reports the geomean Fg-STP speedup estimate
//! with its 95% confidence interval, the error against the full-detail
//! geomean, how many per-workload intervals cover the full-detail value,
//! and the reduction in detail-simulated instructions.
//!
//! The paper simulates every benchmark in full detail (its traces are
//! short enough); sampling is the standard methodology for the trace
//! lengths a real SPEC run would produce, and this experiment validates
//! the substitution: the sampled geomean should sit within a couple of
//! percent of full detail at a ≥10× detail reduction.
//!
//! Accepts a scale word, `--threads=N` and `--csv`: the workloads are
//! the long-run suite and the sampling regimes are fixed. See
//! `fgstp_bench::ExpArgs`.

use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_sim::{
    geomean, geomean_estimate, run_on, run_on_sampled, Estimate, MachineKind, SampleConfig, Table,
};
use fgstp_workloads::long_suite;

/// The sampling regimes swept, coarse to fine.
const REGIMES: [SampleConfig; 3] = [
    SampleConfig {
        interval: 2_000,
        warmup: 300,
        detail: 150,
    },
    SampleConfig {
        interval: 5_000,
        warmup: 450,
        detail: 250,
    },
    SampleConfig {
        interval: 10_000,
        warmup: 600,
        detail: 300,
    },
];

fn main() {
    let args = ExpArgs::parse();
    let session = args.session();
    let workloads = long_suite(args.scale());
    let traces = session.par_map(&workloads, |w| session.trace(w));
    let traced: Vec<_> = workloads.into_iter().zip(traces).collect();

    // Full-detail reference speedups, one per workload.
    let full: Vec<f64> = session.par_map(&traced, |(_, t)| {
        let single = run_on(MachineKind::SingleSmall, t.insts());
        let fgstp = run_on(MachineKind::FgstpSmall, t.insts());
        single.result.cycles as f64 / fgstp.result.cycles as f64
    });
    let full_geo = geomean(&full);

    let mut table = Table::new([
        "regime (I/W/D)",
        "geomean speedup",
        "95% CI",
        "vs full (%)",
        "CI covers full",
        "detail reduction",
    ]);
    table.row([
        "full detail".to_owned(),
        format!("{full_geo:.3}"),
        "-".to_owned(),
        "+0.00".to_owned(),
        format!("{}/{}", traced.len(), traced.len()),
        "1.0x".to_owned(),
    ]);

    let mut summary: Option<(Estimate, f64)> = None;
    for scfg in REGIMES {
        // Per workload: paired per-interval speedup estimate + reduction.
        let points: Vec<(Estimate, f64)> = session.par_map(&traced, |(_, t)| {
            let single = run_on_sampled(MachineKind::SingleSmall, t.insts(), &scfg, false);
            let fgstp = run_on_sampled(MachineKind::FgstpSmall, t.insts(), &scfg, false);
            let est = fgstp
                .sampled
                .as_ref()
                .unwrap()
                .speedup_over(single.sampled.as_ref().unwrap());
            (est, single.sampled.as_ref().unwrap().detail_reduction())
        });
        let estimates: Vec<Estimate> = points.iter().map(|p| p.0).collect();
        let reductions: Vec<f64> = points.iter().map(|p| p.1).collect();
        let covered = estimates
            .iter()
            .zip(&full)
            .filter(|(e, &f)| e.covers(f))
            .count();
        let geo = geomean_estimate(&estimates);
        let err = 100.0 * (geo.mean / full_geo - 1.0);
        table.row([
            format!("{}/{}/{}", scfg.interval, scfg.warmup, scfg.detail),
            format!("{:.3}", geo.mean),
            format!("±{:.3}", geo.ci95_half),
            format!("{err:+.2}"),
            format!("{covered}/{}", traced.len()),
            format!("{:.1}x", geomean(&reductions)),
        ]);
        if summary.is_none() && geomean(&reductions) >= 10.0 {
            summary = Some((geo, geomean(&reductions)));
        }
    }
    print_experiment(
        "E14",
        "sampled vs full-detail Fg-STP speedup on the long-run suite",
        &args,
        &table,
    );
    if let Some((geo, reduction)) = summary {
        println!(
            "coarsest >=10x regime: geomean {:.3} +-{:.3} vs full {:.3} ({:+.2}%, {:.1}x less detail)",
            geo.mean,
            geo.ci95_half,
            full_geo,
            100.0 * (geo.mean / full_geo - 1.0),
            reduction
        );
    }
}
