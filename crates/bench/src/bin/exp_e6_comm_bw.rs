//! E6 — communication bandwidth and queue occupancy.
//!
//! Sweeps the register-queue bandwidth (values per cycle per direction)
//! and reports speedup, mean queue occupancy and producer-side
//! back-pressure — the data that sizes the paper's queues.
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N` and `--csv`;
//! see `fgstp_bench::ExpArgs`.

use fgstp::{run_fgstp, FgstpConfig};
use fgstp_bench::{print_experiment, ExpArgs, SuiteBaseline};
use fgstp_mem::HierarchyConfig;
use fgstp_sim::{geomean, Table};

fn main() {
    let args = ExpArgs::parse();
    let session = args.session();
    let base = SuiteBaseline::new(&session);
    let jobs = base.jobs();

    let mut table = Table::new([
        "bandwidth (values/cycle)",
        "geomean speedup",
        "mean occupancy",
        "backpressure cycles (sum)",
    ]);
    for bandwidth in [1u32, 2, 4] {
        let points = session.par_map(&jobs, |((_, t), single)| {
            let mut cfg = FgstpConfig::small();
            cfg.comm.bandwidth = bandwidth;
            let (r, s) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
            let occupancy = s
                .comm
                .iter()
                .map(|c| c.mean_occupancy())
                .fold(1e-9, f64::max);
            (
                r.speedup_over(&single.result),
                occupancy,
                s.comm_total().backpressure_cycles,
            )
        });
        let speedups: Vec<f64> = points.iter().map(|p| p.0).collect();
        let occupancy: Vec<f64> = points.iter().map(|p| p.1).collect();
        let backpressure: u64 = points.iter().map(|p| p.2).sum();
        table.row([
            bandwidth.to_string(),
            format!("{:.3}", geomean(&speedups)),
            format!("{:.2}", geomean(&occupancy)),
            backpressure.to_string(),
        ]);
    }
    print_experiment(
        "E6",
        "communication bandwidth and queue occupancy",
        &args,
        &table,
    );
}
