//! Figure invariance: the N-core generalization is behavior-preserving at
//! `num_cores = 2`, and the one-core machine is the single and fused cores.
//!
//! The E1 and E3 cycle counts below were captured from the dual-core
//! implementation *before* the N-core refactor (Scale::Test, default
//! configurations) and pin E1 (small-CMP speedup comparison) and E3
//! (communication-latency sweep) bit-exactly. The E2 counts (medium-CMP
//! comparison) were captured while the single and fused cores still ran
//! on a cycle driver of their own, before they moved onto the one-core
//! Fg-STP machine. Any timing drift in the generalized steering,
//! replication, communication-fabric or commit logic fails here with the
//! exact workload and knob that moved.

use fg_stp_repro::core::{run_fgstp, FgstpConfig};
use fg_stp_repro::prelude::*;
use fg_stp_repro::sim::Session;

/// E1 at Scale::Test: (workload, single-small, fused-small, fgstp-small).
const E1_SMALL_CYCLES: [(&str, u64, u64, u64); 18] = [
    ("perl_hash", 50091, 59814, 36937),
    ("bzip_rle", 23137, 26083, 21132),
    ("gcc_expr", 59325, 75528, 51677),
    ("mcf_pointer", 108353, 108473, 108348),
    ("gobmk_board", 41888, 47088, 38342),
    ("hmmer_dp", 8269, 6527, 6583),
    ("sjeng_eval", 45146, 48750, 40088),
    ("libq_stream", 75071, 37598, 36758),
    ("h264_sad", 7440, 5284, 4702),
    ("astar_grid", 30017, 30275, 26305),
    ("xalanc_tree", 13690, 14032, 11581),
    ("milc_su3", 15277, 16638, 17279),
    ("namd_force", 15981, 11410, 12748),
    ("lbm_stencil", 47396, 40770, 41735),
    ("omnetpp_queue", 22747, 26734, 20094),
    ("soplex_sparse", 21445, 15869, 16539),
    ("povray_trace", 24058, 18565, 15967),
    ("bwaves_block", 8978, 6018, 6292),
];

/// E2 at Scale::Test: (workload, single-medium, fused-medium, fgstp-medium).
const E2_MEDIUM_CYCLES: [(&str, u64, u64, u64); 18] = [
    ("perl_hash", 42540, 54655, 36102),
    ("bzip_rle", 18397, 22359, 18165),
    ("gcc_expr", 51070, 67821, 48049),
    ("mcf_pointer", 124751, 124757, 124751),
    ("gobmk_board", 39344, 47985, 38465),
    ("hmmer_dp", 2942, 1949, 1941),
    ("sjeng_eval", 40453, 47706, 38598),
    ("libq_stream", 5770, 3734, 3790),
    ("h264_sad", 4097, 2979, 2764),
    ("astar_grid", 25913, 29991, 23387),
    ("xalanc_tree", 11598, 10525, 7991),
    ("milc_su3", 13756, 15661, 16842),
    ("namd_force", 11864, 9277, 6399),
    ("lbm_stencil", 8694, 6672, 6778),
    ("omnetpp_queue", 20132, 24303, 19449),
    ("soplex_sparse", 9743, 7418, 8269),
    ("povray_trace", 16932, 10152, 10076),
    ("bwaves_block", 5097, 4467, 3746),
];

/// E3 at Scale::Test: (queue latency, fgstp-small cycles in suite order).
const E3_LATENCY_CYCLES: [(u64, [u64; 18]); 7] = [
    (
        1,
        [
            36643, 21004, 51669, 108348, 38342, 6561, 39938, 36738, 4702, 26233, 11424, 14632,
            12317, 41237, 19943, 16477, 15837, 6228,
        ],
    ),
    (
        2,
        [
            36714, 21046, 51670, 108348, 38342, 6566, 39990, 36751, 4702, 26258, 11472, 15394,
            12488, 41352, 19984, 16498, 15878, 6239,
        ],
    ),
    (
        4,
        [
            36937, 21132, 51677, 108348, 38342, 6583, 40088, 36758, 4702, 26305, 11581, 17279,
            12748, 41735, 20094, 16539, 15967, 6292,
        ],
    ),
    (
        6,
        [
            37210, 21250, 51668, 108348, 38342, 6617, 40182, 36817, 4701, 26363, 11616, 19169,
            13089, 42256, 20198, 16593, 16055, 6443,
        ],
    ),
    (
        8,
        [
            37543, 21376, 51671, 108348, 38344, 6661, 40299, 36873, 4701, 26419, 11759, 21059,
            13432, 42812, 20321, 16659, 16115, 6618,
        ],
    ),
    (
        12,
        [
            38324, 21638, 51650, 108348, 38350, 6829, 40519, 37124, 4711, 26525, 11938, 24839,
            14122, 44062, 20627, 16829, 16320, 7047,
        ],
    ),
    (
        16,
        [
            39406, 21953, 51651, 108351, 38357, 7044, 40862, 37387, 4759, 26661, 12206, 28619,
            14822, 45204, 20993, 17097, 16564, 7643,
        ],
    ),
];

/// Runs the suite on a CMP comparison's three machines and checks every
/// cycle count against `table`.
fn assert_cmp_cycles(machines: [MachineKind; 3], table: &[(&str, u64, u64, u64); 18]) {
    let session = Session::new().scale(Scale::Test);
    let traced = session.suite_traces();
    assert_eq!(traced.len(), table.len(), "suite changed size");
    for ((w, t), &(name, single, fused, fgstp)) in traced.iter().zip(table) {
        assert_eq!(w.name, name, "suite order changed");
        for (kind, expected) in machines.into_iter().zip([single, fused, fgstp]) {
            let r = run_on(kind, t.insts());
            assert_eq!(r.result.cycles, expected, "{name}: {kind} drifted");
        }
    }
}

#[test]
fn e1_small_cmp_cycles_match_the_dual_core_implementation() {
    assert_cmp_cycles(MachineKind::SMALL_CMP, &E1_SMALL_CYCLES);
}

#[test]
fn e2_medium_cmp_cycles_match_the_two_driver_implementation() {
    assert_cmp_cycles(MachineKind::MEDIUM_CMP, &E2_MEDIUM_CYCLES);
}

#[test]
fn e3_latency_sweep_cycles_match_the_dual_core_implementation() {
    let session = Session::new().scale(Scale::Test);
    let traced = session.suite_traces();
    for &(latency, expected) in &E3_LATENCY_CYCLES {
        for ((w, t), &cycles) in traced.iter().zip(&expected) {
            let mut cfg = FgstpConfig::small();
            cfg.comm.latency = latency;
            let (r, _) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
            assert_eq!(
                r.cycles, cycles,
                "{} at queue latency {latency} drifted",
                w.name
            );
        }
    }
}
