//! E17 — RV32 real programs through the Fg-STP pipeline (extension
//! beyond the paper).
//!
//! The paper evaluates Fg-STP on SPEC traces; the in-repo synthetic
//! kernels stand in for those. E17 closes the loop with *real* programs:
//! five classic algorithms written in RV32IM assembly, assembled and
//! emulated by the `fgstp-rv` frontend, translated into the same dynamic
//! stream format the synthetic suite produces, and run through the
//! identical machine presets. Two tables:
//!
//! 1. **Speedup** — the E1 comparison (Core Fusion and Fg-STP vs one
//!    small core) over the RV suite, plus the geomean and the
//!    Fg-STP-over-fusion summary line. Real control flow and real memory
//!    access patterns, same partitioning hardware.
//! 2. **Dynamic-stream mix** — per program: committed instructions and
//!    the fraction of loads, stores, branches, jumps, multiplies and
//!    divides in the translated stream, pinning how the RV programs
//!    differ from the synthetic kernels they complement.
//!
//! The binary re-runs one RV workload and asserts bit-identical cycles
//! before printing — the frontend feeds the deterministic pipeline
//! deterministically.
//!
//! Accepts a scale word, `--workloads=a,b` to narrow the RV set,
//! `--threads=N`, `--no-cache`, the `--sample*` flags (a sampled speedup
//! table) and `--csv`; see `fgstp_bench::ExpArgs`.

use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_isa::InstClass;
use fgstp_sim::{run_on, speedup_table, MachineKind, Table};
use fgstp_workloads::{rv_suite, Workload};

fn main() {
    let args = ExpArgs::parse();
    let session = args.session();
    let kinds = MachineKind::SMALL_CMP;

    // The session's suite is the synthetic one; E17's axis is the RV
    // suite, narrowed by the shared --workloads filter when given.
    let mut workloads: Vec<Workload> = rv_suite(args.scale());
    if !args.spec.workloads.is_empty() {
        workloads.retain(|w| args.spec.workloads.iter().any(|f| f == w.name));
    }

    // Table 1: E1-style speedups over the RV programs.
    let results = session
        .plan()
        .workloads(workloads.clone())
        .machines(kinds)
        .execute();
    let summary = speedup_table(&results, kinds);
    print_experiment(
        "E17",
        "RV32 real programs: speedup over one small core (small 2-core CMP)",
        &args,
        &summary.table,
    );
    for name in &summary.skipped {
        eprintln!("warning: {name} skipped (machine missing from result set)");
    }
    for (name, why) in &summary.failed {
        eprintln!("warning: {name} produced no runs: {why}");
    }
    println!(
        "Fg-STP over Core Fusion (geomean): {:+.1}%",
        (summary.fgstp_over_fused() - 1.0) * 100.0
    );

    // Table 2: what the translated streams look like.
    let traces = session.par_map(&workloads, |w| session.trace(w));
    let mut mix = Table::new([
        "program", "insts", "load", "store", "branch", "jump", "mul", "div",
    ]);
    let pct = |f: f64| format!("{:.1}%", f * 100.0);
    for (w, t) in workloads.iter().zip(&traces) {
        mix.row([
            w.name.to_string(),
            t.len().to_string(),
            pct(t.class_fraction(InstClass::Load)),
            pct(t.class_fraction(InstClass::Store)),
            pct(t.class_fraction(InstClass::Branch)),
            pct(t.class_fraction(InstClass::Jump)),
            pct(t.class_fraction(InstClass::IntMul)),
            pct(t.class_fraction(InstClass::IntDiv)),
        ]);
    }
    print_experiment(
        "E17",
        "RV32 dynamic-stream mix (translated committed stream)",
        &args,
        &mix,
    );

    // Determinism gate: re-running the first program must reproduce the
    // Fg-STP cycle count bit-for-bit.
    if let (Some(w), Some(t)) = (workloads.first(), traces.first()) {
        let a = run_on(MachineKind::FgstpSmall, t.insts());
        let b = run_on(MachineKind::FgstpSmall, session.trace(w).insts());
        assert_eq!(
            a.result.cycles, b.result.cycles,
            "RV-fed Fg-STP run must be deterministic across reruns"
        );
        println!("determinism: {} rerun bit-identical on fgstp-small", w.name);
    }
}
