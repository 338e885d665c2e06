//! E9 — partitioning policy comparison.
//!
//! Fg-STP's slice-lookahead partitioner against the round-robin chunk
//! baseline and classic online greedy dependence steering, at the same
//! machine configuration. This isolates how much of the win comes from
//! *how* the stream is partitioned.
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

    let policies: [(&str, PartitionPolicy); 4] = [
        ("mod-64 round robin", PartitionPolicy::ModN { chunk: 64 }),
        ("greedy dependence", PartitionPolicy::GreedyDep),
        ("lookahead-256 (Fg-STP)", PartitionPolicy::fgstp_default()),
        (
            "lookahead-256, 0 refine",
            PartitionPolicy::SliceLookahead {
                window: 256,
                refine_passes: 0,
            },
        ),
    ];
    let mut table = Table::new(["policy", "geomean speedup", "geomean comms/100"]);
    for (label, policy) in policies {
        let points = session.par_map(&jobs, |((_, t), single)| {
            let mut cfg = FgstpConfig::small();
            cfg.partition.policy = policy;
            let (r, s) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
            (
                r.speedup_over(&single.result),
                (s.partition.comms_per_inst() * 100.0).max(1e-9),
            )
        });
        let (speedups, comm_rates): (Vec<f64>, Vec<f64>) = points.into_iter().unzip();
        table.row([
            label.to_owned(),
            format!("{:.3}", geomean(&speedups)),
            format!("{:.2}", geomean(&comm_rates)),
        ]);
    }
    print_experiment("E9", "partitioning policy comparison", &args, &table);
}
