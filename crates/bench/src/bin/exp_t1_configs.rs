//! T1 — Table 1: machine configurations.
//!
//! Prints the small/medium core parameters and the Fg-STP/Core Fusion
//! coupling parameters used by every other experiment.
//!
//! Accepts `--csv`; a scale word only labels the banner. See
//! `fgstp_bench::ExpArgs`.

use fgstp::FgstpConfig;
use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_ooo::CoreConfig;
use fgstp_sim::Table;

fn core_row(t: &mut Table, c: &CoreConfig) {
    let fu = &c.clusters[0].fu;
    t.row([
        c.name.to_owned(),
        format!("{}/{}/{}", c.fetch_width, c.issue_width, c.commit_width),
        c.rob_size.to_string(),
        c.iq_size.to_string(),
        format!("{}/{}", c.lq_size, c.sq_size),
        format!(
            "{}i {}m {}f",
            fu.int_alu,
            fu.mem_ports,
            fu.fp_add + fu.fp_mul
        ),
        format!("{} clusters", c.clusters.len()),
        format!("{}", c.predictor),
        c.mispredict_penalty.to_string(),
    ]);
}

fn main() {
    let args = ExpArgs::parse();

    let mut cores = Table::new([
        "core",
        "fetch/issue/commit",
        "rob",
        "iq",
        "lq/sq",
        "fu (per cluster)",
        "backend",
        "predictor",
        "mispred pen.",
    ]);
    core_row(&mut cores, &CoreConfig::small());
    core_row(&mut cores, &CoreConfig::medium());
    core_row(&mut cores, &CoreConfig::fused(&CoreConfig::small()));
    core_row(&mut cores, &CoreConfig::fused(&CoreConfig::medium()));
    print_experiment("T1a", "core configurations", &args, &cores);

    let mut coupling = Table::new(["machine", "parameter", "value"]);
    let fg = FgstpConfig::small();
    coupling.row([
        "fgstp",
        "comm latency",
        &format!("{} cycles", fg.comm.latency),
    ]);
    coupling.row([
        "fgstp",
        "comm bandwidth",
        &format!("{} values/cycle", fg.comm.bandwidth),
    ]);
    coupling.row([
        "fgstp",
        "queue capacity",
        &format!("{} entries", fg.comm.capacity),
    ]);
    coupling.row([
        "fgstp",
        "store visibility",
        &format!("{} cycles", fg.store_vis_latency),
    ]);
    coupling.row([
        "fgstp",
        "cross violation penalty",
        &format!("{} cycles", fg.cross_violation_penalty),
    ]);
    coupling.row([
        "fgstp",
        "partition lookahead",
        &format!("{} instructions", fg.fetch_skew()),
    ]);
    let fused = CoreConfig::fused(&CoreConfig::small());
    coupling.row([
        "fusion",
        "collective fetch overhead",
        &format!("{} cycles", fused.extra_fetch_latency),
    ]);
    coupling.row([
        "fusion",
        "remote rename overhead",
        &format!("{} cycles", fused.extra_rename_latency),
    ]);
    coupling.row([
        "fusion",
        "inter-cluster bypass",
        &format!("{} cycles", fused.intercluster_latency),
    ]);
    print_experiment("T1b", "coupling parameters", &args, &coupling);
}
