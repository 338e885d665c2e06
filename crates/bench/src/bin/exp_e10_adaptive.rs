//! E10 — reconfiguration policy (extension).
//!
//! Fg-STP *reconfigures* two cores; a deployed design needs a policy for
//! when to couple them. This experiment compares always-single,
//! always-Fg-STP, an implementable sampling controller (one interval per
//! mode, then commit, with reconfiguration penalties), and the oracle
//! upper bound — per benchmark and in geomean.
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N` and `--csv`;
//! see `fgstp_bench::ExpArgs`.

use fgstp::{run_fgstp, run_oracle, run_sampling, FgstpConfig, SamplingConfig};
use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_mem::HierarchyConfig;
use fgstp_sim::{geomean, Table};

fn main() {
    let args = ExpArgs::parse();
    let cfg = FgstpConfig::small();
    let hcfg = HierarchyConfig::small(2);
    let one_core = FgstpConfig::single(cfg.core.clone());
    let single_h = HierarchyConfig::small(1);
    let sampling = SamplingConfig::default();

    let points = args.session().map_suite(|w, t| {
        let (single, _) = run_fgstp(t.insts(), &one_core, &single_h);
        let (fg, _) = run_fgstp(t.insts(), &cfg, &hcfg);
        let oracle = run_oracle(t.insts(), &cfg, &hcfg);
        let sampled = run_sampling(t.insts(), &cfg, &hcfg, &sampling);
        let base = single.cycles as f64;
        (
            w.name,
            base / fg.cycles as f64,
            base / sampled.cycles as f64,
            base / oracle.cycles as f64,
            sampled.mode.to_string(),
        )
    });

    let mut table = Table::new([
        "benchmark",
        "fgstp speedup",
        "sampling speedup",
        "oracle speedup",
        "sampled mode",
    ]);
    let mut fg_all = Vec::new();
    let mut sampled_all = Vec::new();
    let mut oracle_all = Vec::new();
    for (name, s_fg, s_sam, s_or, mode) in points {
        fg_all.push(s_fg);
        sampled_all.push(s_sam);
        oracle_all.push(s_or);
        table.row([
            name.to_owned(),
            format!("{s_fg:.3}"),
            format!("{s_sam:.3}"),
            format!("{s_or:.3}"),
            mode,
        ]);
    }
    table.row([
        "GEOMEAN".to_owned(),
        format!("{:.3}", geomean(&fg_all)),
        format!("{:.3}", geomean(&sampled_all)),
        format!("{:.3}", geomean(&oracle_all)),
        String::new(),
    ]);
    print_experiment(
        "E10",
        "reconfiguration policy: always / sampling / oracle",
        &args,
        &table,
    );
}
