//! E7 — work distribution between the cores.
//!
//! For each benchmark: the fraction of instructions on each core, the
//! replication overhead, and the communication rate. This is the figure
//! that shows Fg-STP's partitioner balancing real codes while keeping the
//! cut small.
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N` and `--csv`;
//! see `fgstp_bench::ExpArgs`.

use fgstp::{run_fgstp, FgstpConfig};
use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_mem::HierarchyConfig;
use fgstp_sim::Table;

fn main() {
    let args = ExpArgs::parse();
    let rows = args.session().map_suite(|w, t| {
        let (_, s) = run_fgstp(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(2));
        let total = (s.partition.insts[0] + s.partition.insts[1]) as f64;
        [
            w.name.to_owned(),
            format!("{:.1}", 100.0 * s.partition.insts[0] as f64 / total),
            format!("{:.1}", 100.0 * s.partition.insts[1] as f64 / total),
            format!("{:.1}", 100.0 * s.partition.replicated as f64 / total),
            format!("{:.2}", 100.0 * s.partition.comms_per_inst()),
            s.partition.cross_mem_deps.to_string(),
        ]
    });
    let mut table = Table::new([
        "benchmark",
        "core0 %",
        "core1 %",
        "replicated %",
        "comms/100 insts",
        "cross mem deps",
    ]);
    for row in rows {
        table.row(row);
    }
    print_experiment(
        "E7",
        "instruction distribution, replication and communication",
        &args,
        &table,
    );
}
