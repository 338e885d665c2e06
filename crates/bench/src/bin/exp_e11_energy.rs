//! E11 — activity-based energy comparison (extension).
//!
//! The paper motivates Fg-STP with power and complexity constraints; this
//! experiment prices each machine with the relative activity model of
//! `fgstp-sim::energy`: energy per instruction (EPI) and energy–delay
//! product, normalized to one small core with its partner power-gated.
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N` and `--csv`;
//! see `fgstp_bench::ExpArgs`.

use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_sim::energy::{energy_of, EnergyModel};
use fgstp_sim::{geomean, run_on, MachineKind, Table};

fn main() {
    let args = ExpArgs::parse();
    let m = EnergyModel::default();

    let points = args.session().map_suite(|w, t| {
        let single = run_on(MachineKind::SingleSmall, t.insts());
        let fused = run_on(MachineKind::FusedSmall, t.insts());
        let fg = run_on(MachineKind::FgstpSmall, t.insts());
        let committed = single.result.committed;
        let base_epi = energy_of(&m, &single).per_instruction(committed);
        let base_ed = base_epi * single.result.cycles as f64;
        let rel = |run: &fgstp_sim::MachineRun| {
            let epi_abs = energy_of(&m, run).per_instruction(committed);
            (
                epi_abs / base_epi,
                epi_abs * run.result.cycles as f64 / base_ed,
            )
        };
        (w.name, rel(&fused), rel(&fg))
    });

    let mut table = Table::new([
        "benchmark",
        "fused EPI",
        "fgstp EPI",
        "fused ED",
        "fgstp ED",
    ]);
    let mut epi_fused = Vec::new();
    let mut epi_fg = Vec::new();
    let mut ed_fused = Vec::new();
    let mut ed_fg = Vec::new();
    for (name, (ef, edf), (eg, edg)) in points {
        epi_fused.push(ef);
        epi_fg.push(eg);
        ed_fused.push(edf);
        ed_fg.push(edg);
        table.row([
            name.to_owned(),
            format!("{ef:.2}"),
            format!("{eg:.2}"),
            format!("{edf:.2}"),
            format!("{edg:.2}"),
        ]);
    }
    table.row([
        "GEOMEAN".to_owned(),
        format!("{:.2}", geomean(&epi_fused)),
        format!("{:.2}", geomean(&epi_fg)),
        format!("{:.2}", geomean(&ed_fused)),
        format!("{:.2}", geomean(&ed_fg)),
    ]);
    print_experiment(
        "E11",
        "relative energy per instruction and energy-delay vs one small core",
        &args,
        &table,
    );
    println!("(EPI/ED of 1.00 = one small core with its CMP partner power-gated)");
}
