//! Warm-path ≡ cold-path identity: entering a detailed window through the
//! sampled-simulation warm APIs with `measure_from = 0` and *fresh* warm
//! state is bit-identical to the ordinary cold runs.
//!
//! This pins the invariant the SMARTS-style sampler depends on — the warm
//! entry points share the same hot loop as the cold ones, so any hot-loop
//! optimization that changed warm-entry timing (ready-set filtering, the
//! completion wheel, scratch reuse) would show up here as a cycle drift.

use fg_stp_repro::ooo::WarmState;
use fg_stp_repro::prelude::*;
use fg_stp_repro::telemetry::NullSink;
use fg_stp_repro::workloads::{suite, Scale};
use fgstp::run_fgstp_warm;

/// A spread of suite kernels: pointer-chasing, dense DP, streaming and
/// control-heavy behaviour all exercise different stall paths.
const KERNELS: [&str; 4] = ["perl_hash", "hmmer_dp", "libq_stream", "mcf_pointer"];

fn traced(name: &str) -> Vec<fg_stp_repro::isa::DynInst> {
    let w = suite(Scale::Test)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("kernel {name} in suite"));
    trace_program(w.program(), Scale::Test.trace_budget())
        .expect("suite kernel terminates")
        .insts()
        .to_vec()
}

/// A warm entry with fresh state and `measure_from = 0` on the machine
/// `cfg` reproduces the cold run of every kernel exactly.
fn assert_warm_entry_matches_cold_run(label: &str, cfg: &FgstpConfig, hcfg: &HierarchyConfig) {
    for name in KERNELS {
        let trace = traced(name);
        let (cold, cold_stats) = run_fgstp(&trace, cfg, hcfg);
        let mut warm = WarmState::new(&cfg.core, hcfg);
        let (wr, warm_stats) = run_fgstp_warm(&trace, cfg, &mut warm, 0, &mut NullSink);
        assert_eq!(wr.result.cycles, cold.cycles, "{name}/{label}: cycles");
        assert_eq!(
            wr.result.committed, cold.committed,
            "{name}/{label}: committed"
        );
        assert_eq!(
            wr.result.branches, cold.branches,
            "{name}/{label}: branches"
        );
        assert_eq!(wr.warmup_cycles, 0, "{name}/{label}: nothing to discard");
        assert_eq!(wr.measured_cycles(), cold.cycles, "{name}/{label}");
        assert_eq!(
            warm_stats.partition.insts, cold_stats.partition.insts,
            "{name}/{label}: same partition"
        );
    }
}

#[test]
fn single_core_warm_entry_matches_cold_run() {
    // The one-core machine on every core shape the single and fused
    // presets use.
    for kind in [
        MachineKind::SingleSmall,
        MachineKind::SingleMedium,
        MachineKind::FusedSmall,
        MachineKind::FusedMedium,
    ] {
        let cfg = FgstpConfig::single(kind.core_config());
        assert_warm_entry_matches_cold_run(kind.label(), &cfg, &kind.hierarchy_config());
    }
}

#[test]
fn fgstp_warm_entry_matches_cold_run_at_2_and_4_cores() {
    for n in [2usize, 4] {
        let cfg = FgstpConfig::small().with_cores(n);
        let label = format!("{n} cores");
        assert_warm_entry_matches_cold_run(&label, &cfg, &HierarchyConfig::small(n));
    }
}
