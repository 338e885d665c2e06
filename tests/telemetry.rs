//! Telemetry is an observer, not a participant: cycle accounting must
//! reconcile exactly with the timing model, be bit-identical for any
//! worker-pool size, and change no measured figure when enabled. A
//! workload that fails to trace must surface as a reported error, never a
//! panic, with telemetry on or off.

use fg_stp_repro::prelude::*;
use fg_stp_repro::sim::{cpi_stack_table, speedup_table, BenchResult};

const MACHINES: [MachineKind; 3] = [
    MachineKind::SingleSmall,
    MachineKind::FusedSmall,
    MachineKind::FgstpSmall,
];

/// Cores modeled by `kind` — the CPI-stack total is per *core* cycle, so
/// a two-core Fg-STP stack covers twice the machine cycles.
fn cores(kind: MachineKind) -> u64 {
    if kind.try_fgstp_config().is_some() {
        2
    } else {
        1
    }
}

fn fingerprint(results: &[BenchResult]) -> String {
    format!("{results:#?}")
}

fn instrumented_suite(threads: usize) -> Vec<BenchResult> {
    Session::new()
        .scale(Scale::Test)
        .machines(MACHINES)
        .telemetry(true)
        .threads(threads)
        .no_cache()
        .run_suite()
}

#[test]
fn cpi_stacks_are_bit_identical_across_pool_sizes() {
    let serial = instrumented_suite(1);
    let parallel = instrumented_suite(4);
    assert_eq!(serial.len(), 18, "full suite");
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "telemetry under threads(4) must be bit-identical to threads(1)"
    );
}

#[test]
fn every_stack_reconciles_with_its_machine_cycles() {
    for b in instrumented_suite(4) {
        for run in &b.runs {
            let stack = run.cpi.as_ref().expect("telemetry(true) fills every run");
            // base + every stall category account for every core-cycle.
            stack
                .check_against(cores(run.kind) * run.result.cycles)
                .unwrap_or_else(|e| panic!("{} on {:?}: {e}", b.name, run.kind));
            assert_eq!(stack.committed, run.result.committed, "{}", b.name);
        }
    }
}

/// A plain run skips idle cycles, while an instrumented one steps every
/// cycle to record it, so this also checks skipping against per-cycle
/// stepping on the whole suite.
#[test]
fn telemetry_changes_no_measured_figure() {
    let plain = Session::new()
        .scale(Scale::Test)
        .machines(MACHINES)
        .no_cache()
        .run_suite();
    let instrumented = instrumented_suite(4);
    for (p, i) in plain.iter().zip(&instrumented) {
        assert_eq!(p.name, i.name);
        for (pr, ir) in p.runs.iter().zip(&i.runs) {
            assert_eq!(
                format!("{:?}", pr.result),
                format!("{:?}", ir.result),
                "{} on {:?}: instrumentation moved a timing statistic",
                p.name,
                pr.kind
            );
            assert_eq!(format!("{:?}", pr.fgstp), format!("{:?}", ir.fgstp));
        }
    }
    // The rendered stack table reconciles row by row (base + categories).
    for kind in MACHINES {
        let table = cpi_stack_table(&instrumented, kind);
        assert_eq!(table.to_csv().lines().count(), 1 + 18, "{kind:?}");
    }
}

#[test]
fn a_workload_that_fails_to_trace_is_reported_not_fatal() {
    // A branch-to-self never halts, so tracing exhausts the budget.
    let spin = Workload {
        name: "spin_forever",
        models: "none",
        suite: SuiteClass::Int,
        description: "infinite loop; must fail to trace",
        source: fg_stp_repro::workloads::WorkloadSource::Synthetic(
            fg_stp_repro::isa::assemble("top:\nbeq x0, x0, top\n").unwrap(),
        ),
    };
    let good = fg_stp_repro::workloads::by_name("hmmer_dp", Scale::Test).unwrap();
    let results = Session::new()
        .scale(Scale::Test)
        .machines(MACHINES)
        .telemetry(true)
        .no_cache()
        .plan()
        .workloads([spin, good])
        .execute();
    assert_eq!(results.len(), 2);

    let bad = &results[0];
    assert_eq!(bad.name, "spin_forever");
    assert!(bad.runs.is_empty());
    let why = bad.error.as_ref().expect("failure must carry a reason");
    assert!(why.contains("spin_forever"), "got: {why}");

    let ok = &results[1];
    assert!(ok.error.is_none());
    assert_eq!(ok.runs.len(), MACHINES.len());

    // The report skips the failed row and names it instead of panicking.
    let summary = speedup_table(&results, MACHINES);
    assert_eq!(summary.failed.len(), 1);
    assert_eq!(summary.failed[0].0, "spin_forever");
    let rendered = summary.table.to_string();
    assert!(rendered.contains("hmmer_dp"));
    assert!(!rendered.contains("spin_forever"));
}

#[test]
fn chrome_trace_export_covers_the_whole_run() {
    let w = fg_stp_repro::workloads::by_name("mcf_pointer", Scale::Test).unwrap();
    let session = Session::new().scale(Scale::Test).no_cache();
    let trace = session.trace(&w);
    let (run, episodes) = run_on_instrumented(MachineKind::FgstpSmall, trace.insts(), true);

    // The episode timeline tiles both cores' cycles exactly.
    let covered: u64 = episodes.iter().map(|e| e.cycles()).sum();
    assert_eq!(covered, 2 * run.result.cycles);

    let json = write_chrome_trace("fgstp_small", &episodes);
    assert!(json.starts_with("{\"traceEvents\":["), "not a trace header");
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("\"ph\":\"X\""), "no duration events");
    assert!(json.contains("\"ph\":\"M\""), "no metadata events");
    // One complete event per episode; balanced braces outside strings
    // would need a parser, but event count is a strong proxy.
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        episodes.len(),
        "one duration event per episode"
    );
}
