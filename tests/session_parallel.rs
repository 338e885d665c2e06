//! The parallel session runner is an optimization, not a model change:
//! every statistic it produces must be bit-identical to a single-threaded
//! run, for any pool size.

use fg_stp_repro::prelude::*;

/// Renders every statistic of every run; two equal strings mean the
/// results are bit-identical (Debug prints exact integers and the full
/// float bits of ratios are derived from them).
fn fingerprint(results: &[fg_stp_repro::sim::BenchResult]) -> String {
    format!("{results:#?}")
}

#[test]
fn parallel_runs_are_bit_identical_to_serial() {
    let machines = [
        MachineKind::SingleSmall,
        MachineKind::FusedSmall,
        MachineKind::FgstpSmall,
    ];
    let serial = Session::new()
        .scale(Scale::Test)
        .machines(machines)
        .threads(1)
        .no_cache()
        .run_suite();
    let parallel = Session::new()
        .scale(Scale::Test)
        .machines(machines)
        .threads(4)
        .no_cache()
        .run_suite();
    assert_eq!(serial.len(), 18, "full suite");
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "threads(4) must be bit-identical to threads(1)"
    );
}

#[test]
fn plan_narrowing_matches_the_full_suite_rows() {
    let session = Session::new()
        .scale(Scale::Test)
        .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
        .no_cache();
    let full = session.run_suite();
    let narrowed = session
        .plan()
        .workload_names(&["hmmer_dp", "mcf_pointer"])
        .execute();
    assert_eq!(narrowed.len(), 2);
    for b in &narrowed {
        let row = full.iter().find(|f| f.name == b.name).unwrap();
        assert_eq!(
            fingerprint(std::slice::from_ref(b)),
            fingerprint(std::slice::from_ref(row))
        );
    }
    // Suite order is preserved regardless of the name order given.
    let reordered = session
        .plan()
        .workload_names(&["mcf_pointer", "hmmer_dp"])
        .execute();
    assert_eq!(
        narrowed.iter().map(|b| b.name).collect::<Vec<_>>(),
        reordered.iter().map(|b| b.name).collect::<Vec<_>>(),
    );
}
