//! E12 — CPI stacks: where the cycles go on every machine.
//!
//! Runs the whole suite with cycle accounting enabled and prints one
//! CPI-stack table per machine preset (baseline, Core Fusion and Fg-STP,
//! small and medium). Every row decomposes the machine's aggregate
//! core-cycles per instruction into a committing base component plus the
//! thirteen stall categories, so `base + Σ categories = cpi` per row —
//! the Fg-STP tables additionally expose the scheme's own overheads
//! (communication wait, lookahead backpressure, replication, cross-core
//! memory-dependence replay, global commit sync).
//!
//! Telemetry never changes timing: the cycles and speedups measured here
//! are bit-identical to E1/E2.
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N`, `--no-cache`,
//! the `--sample*` flags (a sampled run of the suite) and `--csv`; see
//! `fgstp_bench::ExpArgs`.

use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_sim::{cpi_stack_table, MachineKind};

fn main() {
    let args = ExpArgs::parse();
    let session = args.session().telemetry(true).machines(MachineKind::ALL);
    let results = session.run_suite();
    for b in &results {
        if let Some(why) = &b.error {
            eprintln!("warning: {} produced no runs: {why}", b.name);
        }
    }
    for kind in MachineKind::ALL {
        let table = cpi_stack_table(&results, kind);
        print_experiment(
            "E12",
            &format!("CPI stack, {kind} (aggregate core-cycles/inst)"),
            &args,
            &table,
        );
    }
}
