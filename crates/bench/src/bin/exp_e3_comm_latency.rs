//! E3 — sensitivity to inter-core communication latency.
//!
//! Sweeps the register-queue latency from 1 to 16 cycles and reports the
//! geomean Fg-STP speedup over one small core. The curve motivates the
//! paper's dedicated queues between adjacent cores: speedup degrades
//! gracefully but monotonically with latency.
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
        "comm latency (cycles)",
        "geomean speedup",
        "geomean comms/100 insts",
    ]);
    for latency in [1u64, 2, 4, 6, 8, 12, 16] {
        let points = session.par_map(&jobs, |((_, t), single)| {
            let mut cfg = FgstpConfig::small();
            cfg.comm.latency = latency;
            let (r, s) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
            (
                r.speedup_over(&single.result),
                (s.partition.comms_per_inst() * 100.0).max(1e-9),
            )
        });
        let (speedups, comm_rates): (Vec<f64>, Vec<f64>) = points.into_iter().unzip();
        table.row([
            latency.to_string(),
            format!("{:.3}", geomean(&speedups)),
            format!("{:.2}", geomean(&comm_rates)),
        ]);
    }
    print_experiment(
        "E3",
        "Fg-STP sensitivity to communication latency",
        &args,
        &table,
    );
}
