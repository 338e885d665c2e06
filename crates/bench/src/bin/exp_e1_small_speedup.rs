//! E1 — per-benchmark speedup on the small 2-core CMP.
//!
//! Core Fusion and Fg-STP vs one small core, for every workload plus the
//! geomean. The paper's headline: Fg-STP beats Core Fusion by ~7% on
//! average on the small configuration.
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N`, `--no-cache`,
//! the `--sample*` flags (a sampled run of the suite) and `--csv`; see
//! `fgstp_bench::ExpArgs`.

use fgstp_bench::{run_speedup_experiment, ExpArgs};
use fgstp_sim::MachineKind;

fn main() {
    let args = ExpArgs::parse();
    run_speedup_experiment(
        "E1",
        "speedup over one small core (small 2-core CMP)",
        &args,
        MachineKind::SMALL_CMP,
    );
}
