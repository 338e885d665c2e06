//! E5 — partition lookahead window size.
//!
//! Fg-STP "looks for parallelism on large instruction windows"; this
//! experiment sweeps the lookahead window from 32 to 1024 instructions.
//! The window doubles as the fetch-skew bound between the cores, so small
//! windows both partition worse and couple the frontends tighter.
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N` and `--csv`;
//! see `fgstp_bench::ExpArgs`.

use fgstp::{run_fgstp, FgstpConfig, PartitionPolicy};
use fgstp_bench::{print_experiment, ExpArgs, SuiteBaseline};
use fgstp_mem::HierarchyConfig;
use fgstp_sim::{geomean, Table};

fn main() {
    let args = ExpArgs::parse();
    let session = args.session();
    let base = SuiteBaseline::new(&session);
    let jobs = base.jobs();

    let mut table = Table::new(["window (insts)", "geomean speedup", "geomean comms/100"]);
    for window in [32usize, 64, 128, 256, 512, 1024] {
        let points = session.par_map(&jobs, |((_, t), single)| {
            let mut cfg = FgstpConfig::small();
            cfg.partition.policy = PartitionPolicy::SliceLookahead {
                window,
                refine_passes: 2,
            };
            let (r, s) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
            (
                r.speedup_over(&single.result),
                (s.partition.comms_per_inst() * 100.0).max(1e-9),
            )
        });
        let (speedups, comm_rates): (Vec<f64>, Vec<f64>) = points.into_iter().unzip();
        table.row([
            window.to_string(),
            format!("{:.3}", geomean(&speedups)),
            format!("{:.2}", geomean(&comm_rates)),
        ]);
    }
    print_experiment("E5", "partition lookahead window sweep", &args, &table);
}
