//! E2 — per-benchmark speedup on the medium 2-core CMP.
//!
//! Core Fusion and Fg-STP vs one medium core. The paper's headline:
//! Fg-STP beats Core Fusion by ~18% on average on the medium
//! configuration — a larger margin than on the small one, because fusing
//! two already-capable cores buys less while its front-end overheads stay.
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N`, `--no-cache`,
//! the `--sample*` flags (a sampled run of the suite) and `--csv`; see
//! `fgstp_bench::ExpArgs`.

use fgstp_bench::{run_speedup_experiment, ExpArgs};
use fgstp_sim::MachineKind;

fn main() {
    let args = ExpArgs::parse();
    run_speedup_experiment(
        "E2",
        "speedup over one medium core (medium 2-core CMP)",
        &args,
        MachineKind::MEDIUM_CMP,
    );
}
