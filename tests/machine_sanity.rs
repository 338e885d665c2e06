//! Integration: cross-machine timing sanity.
//!
//! These pin the *orderings* the models must respect regardless of exact
//! numbers: widths bound IPC, bigger machines don't lose on ILP-rich
//! code, and the Fg-STP statistics are internally consistent.

use fg_stp_repro::prelude::*;
use fg_stp_repro::sim::runner::trace_workload;
use fg_stp_repro::workloads::by_name;

fn run(name: &str, kind: MachineKind) -> fg_stp_repro::sim::MachineRun {
    let w = by_name(name, Scale::Test).unwrap();
    let t = trace_workload(&w, Scale::Test);
    run_on(kind, t.insts())
}

#[test]
fn ipc_never_exceeds_machine_width() {
    for (kind, width) in [
        (MachineKind::SingleSmall, 2.0),
        (MachineKind::SingleMedium, 4.0),
        (MachineKind::FusedSmall, 4.0),
        (MachineKind::FgstpSmall, 4.0),
    ] {
        let r = run("hmmer_dp", kind);
        assert!(
            r.ipc() <= width,
            "{kind}: ipc {} exceeds width {width}",
            r.ipc()
        );
        assert!(r.ipc() > 0.05, "{kind}: ipc {} suspiciously low", r.ipc());
    }
}

#[test]
fn medium_core_dominates_small_core() {
    for name in ["hmmer_dp", "libq_stream", "gcc_expr"] {
        let small = run(name, MachineKind::SingleSmall);
        let medium = run(name, MachineKind::SingleMedium);
        assert!(
            medium.result.cycles <= small.result.cycles * 11 / 10,
            "{name}: medium {} vs small {}",
            medium.result.cycles,
            small.result.cycles
        );
    }
}

#[test]
fn fgstp_beats_single_core_on_partitionable_code() {
    for name in ["hmmer_dp", "h264_sad", "namd_force"] {
        let single = run(name, MachineKind::SingleSmall);
        let fgstp = run(name, MachineKind::FgstpSmall);
        assert!(
            fgstp.result.cycles < single.result.cycles,
            "{name}: fgstp {} should beat single {}",
            fgstp.result.cycles,
            single.result.cycles
        );
    }
}

#[test]
fn fgstp_stats_are_internally_consistent() {
    let r = run("hmmer_dp", MachineKind::FgstpSmall);
    let s = r.fgstp.expect("fgstp run has stats");
    assert_eq!(
        s.partition.total_insts(),
        r.result.committed,
        "primary instructions commit once each"
    );
    let core_commits: u64 = r.result.cores.iter().map(|c| c.committed).sum();
    assert_eq!(core_commits, r.result.committed);
    let replicas: u64 = r.result.cores.iter().map(|c| c.replica_committed).sum();
    assert_eq!(
        replicas, s.partition.replicated,
        "every planned replica commits"
    );
    // Every cross register dependence is served by a delivery.
    assert!(s.comm_total().sends <= s.partition.cross_reg_deps);
}

#[test]
fn both_cores_fetch_and_commit_on_balanced_code() {
    let r = run("libq_stream", MachineKind::FgstpSmall);
    for (i, c) in r.result.cores.iter().enumerate() {
        assert!(c.fetched > 0, "core {i} fetched nothing");
        assert!(c.committed > 0, "core {i} committed nothing");
    }
}

#[test]
fn fused_core_is_reported_as_one_core() {
    let r = run("hmmer_dp", MachineKind::FusedSmall);
    assert_eq!(r.result.cores.len(), 1);
    assert!(r.fgstp.is_none());
}
