//! E4 — ablation of Fg-STP's two signature mechanisms.
//!
//! Runs the suite with dependence speculation and/or replication disabled
//! and reports the geomean speedup over one small core. The paper's claim
//! that Fg-STP "differs from previous proposals on the extensive use of
//! dependence speculation, replication and communication" predicts that
//! removing either mechanism costs performance.
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

    let variants: [(&str, bool, bool); 4] = [
        ("full fg-stp", true, true),
        ("no dep. speculation", false, true),
        ("no replication", true, false),
        ("neither", false, false),
    ];
    let mut table = Table::new([
        "variant",
        "geomean speedup",
        "geomean comms/100",
        "violations (sum)",
    ]);
    for (label, dep_spec, replication) in variants {
        let points = session.par_map(&jobs, |((_, t), single)| {
            let mut cfg = FgstpConfig::small();
            cfg.dep_speculation = dep_spec;
            cfg.partition.replication = replication;
            let (r, s) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
            (
                r.speedup_over(&single.result),
                (s.partition.comms_per_inst() * 100.0).max(1e-9),
                s.cross_violations,
            )
        });
        let speedups: Vec<f64> = points.iter().map(|p| p.0).collect();
        let comm_rates: Vec<f64> = points.iter().map(|p| p.1).collect();
        let violations: u64 = points.iter().map(|p| p.2).sum();
        table.row([
            label.to_owned(),
            format!("{:.3}", geomean(&speedups)),
            format!("{:.2}", geomean(&comm_rates)),
            violations.to_string(),
        ]);
    }
    print_experiment(
        "E4",
        "dependence speculation / replication ablation",
        &args,
        &table,
    );
}
