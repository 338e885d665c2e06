//! Integration: the whole stack is bit-deterministic.
//!
//! Every layer — workload generation, tracing, partitioning, timing — must
//! produce identical results run to run, or recorded experiments are
//! meaningless.

use fg_stp_repro::core::{partition_stream, run_fgstp, FgstpConfig, PartitionConfig};
use fg_stp_repro::ooo::build_exec_stream;
use fg_stp_repro::prelude::*;
use fg_stp_repro::sim::runner::trace_workload;
use fg_stp_repro::workloads::by_name;

#[test]
fn traces_are_identical_across_runs() {
    let a = trace_workload(&by_name("gcc_expr", Scale::Test).unwrap(), Scale::Test);
    let b = trace_workload(&by_name("gcc_expr", Scale::Test).unwrap(), Scale::Test);
    assert_eq!(a, b);
}

#[test]
fn partitions_are_identical_across_runs() {
    let t = trace_workload(&by_name("hmmer_dp", Scale::Test).unwrap(), Scale::Test);
    let s = build_exec_stream(t.insts());
    let p1 = partition_stream(&s, &PartitionConfig::default(), 2);
    let p2 = partition_stream(&s, &PartitionConfig::default(), 2);
    assert_eq!(p1.assign, p2.assign);
    assert_eq!(p1.replica_on, p2.replica_on);
    assert_eq!(p1.views, p2.views);
    assert_eq!(p1.stats, p2.stats);
}

#[test]
fn timing_results_are_identical_across_runs() {
    let t = trace_workload(&by_name("sjeng_eval", Scale::Test).unwrap(), Scale::Test);
    for kind in [MachineKind::SingleSmall, MachineKind::FusedSmall] {
        let a = run_on(kind, t.insts());
        let b = run_on(kind, t.insts());
        assert_eq!(a.result.cycles, b.result.cycles, "{kind}");
        assert_eq!(a.result.cores, b.result.cores, "{kind}");
    }
    let (a, sa) = run_fgstp(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(2));
    let (b, sb) = run_fgstp(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(2));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(sa.comm, sb.comm);
    assert_eq!(sa.partition, sb.partition);
}
