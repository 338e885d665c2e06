//! Property tests: partitioning preserves sequential semantics on *random*
//! programs, and the timing machines commit exactly what the functional
//! machine executed.
//!
//! This is the strongest form of the paper's correctness claim the
//! workspace can check: for any program, any partitioning policy and any
//! core count, the partitioned execution with explicit communication
//! computes the same values as the sequential reference.
//!
//! Cases come from the workspace's deterministic
//! [`Xorshift`](fg_stp_repro::workloads::gen::Xorshift) generator; every
//! assertion names its case seed so failures replay exactly.

use fg_stp_repro::core::{check_partition, partition_stream, PartitionConfig, PartitionPolicy};
use fg_stp_repro::isa::{trace_program, Inst, Op, Program, Reg};
use fg_stp_repro::ooo::build_exec_stream;
use fg_stp_repro::prelude::*;
use fg_stp_repro::workloads::gen::Xorshift;

const CASES: u64 = 48;

/// One random body instruction, over registers x1..x12 and a 2 KiB data
/// region addressed through x15.
fn arb_inst(g: &mut Xorshift) -> Inst {
    let reg = |g: &mut Xorshift| Reg::int(g.range_u64(1, 13) as u8);
    let mem_off = |g: &mut Xorshift| g.range_i64(0, 240) * 8;
    match g.below(11) {
        0 => Inst::rrr(Op::Add, reg(g), reg(g), reg(g)),
        1 => Inst::rrr(Op::Sub, reg(g), reg(g), reg(g)),
        2 => Inst::rrr(Op::Xor, reg(g), reg(g), reg(g)),
        3 => Inst::rrr(Op::Mul, reg(g), reg(g), reg(g)),
        4 => Inst::rrr(Op::Slt, reg(g), reg(g), reg(g)),
        5 => Inst::rri(Op::Addi, reg(g), reg(g), g.range_i64(-64, 64)),
        6 => Inst::ri(Op::Li, reg(g), g.range_i64(-1000, 1000)),
        7 => Inst::rri(Op::Ld, reg(g), Reg::int(15), mem_off(g)),
        8 => Inst::rri(Op::Lw, reg(g), Reg::int(15), mem_off(g)),
        9 => Inst::store(Op::Sd, reg(g), Reg::int(15), mem_off(g)),
        _ => Inst::store(Op::Sb, reg(g), Reg::int(15), mem_off(g)),
    }
}

/// A random program: register setup, a counted loop around a random body,
/// then halt. Always terminates.
fn arb_program(g: &mut Xorshift) -> Program {
    let mut insts = Vec::new();
    insts.push(Inst::ri(Op::Li, Reg::int(15), 0x1000));
    for i in 0..12u8 {
        insts.push(Inst::ri(
            Op::Li,
            Reg::int(1 + i),
            (g.next_u64() as i64) % 10_000,
        ));
    }
    let loop_count = g.range_i64(1, 4);
    insts.push(Inst::ri(Op::Li, Reg::int(14), loop_count));
    let loop_start = insts.len() as i64;
    for _ in 0..g.range_usize(5, 60) {
        insts.push(arb_inst(g));
    }
    insts.push(Inst::rri(Op::Addi, Reg::int(14), Reg::int(14), -1));
    insts.push(Inst::branch(Op::Bne, Reg::int(14), Reg::ZERO, loop_start));
    insts.push(Inst::halt());
    Program::new(insts)
}

fn arb_policy(g: &mut Xorshift) -> PartitionPolicy {
    match g.below(3) {
        0 => PartitionPolicy::ModN {
            chunk: g.range_usize(1, 10),
        },
        1 => PartitionPolicy::GreedyDep,
        _ => PartitionPolicy::SliceLookahead {
            window: g.range_usize(8, 64),
            refine_passes: g.range_usize(0, 3),
        },
    }
}

/// Any partition of any program preserves sequential semantics.
#[test]
fn partition_preserves_semantics() {
    for case in 0..CASES {
        let mut g = Xorshift::new(0x41_0001 + case);
        let program = arb_program(&mut g);
        let policy = arb_policy(&mut g);
        let replication = g.flip();
        let trace = trace_program(&program, 100_000).expect("program terminates");
        let stream = build_exec_stream(trace.insts());
        let cfg = PartitionConfig {
            policy,
            replication,
            balance_slack: 0.2,
        };
        let part = partition_stream(&stream, &cfg, 2);
        check_partition(&stream, &part, &[]).expect("partition preserves semantics");
        // Structural invariants of the partition itself.
        let total: u64 = part.stats.insts.iter().sum();
        assert_eq!(total, stream.len() as u64, "case {case}");
        let viewed: usize = part.views.iter().map(|v| v.len(&stream)).sum();
        assert_eq!(viewed as u64, total + part.stats.replicated, "case {case}");
    }
}

/// Per-core streams stay in global program order, and cross flags are
/// consistent with the assignment.
#[test]
fn partition_streams_are_ordered_and_consistent() {
    for case in 0..CASES {
        let mut g = Xorshift::new(0x42_0001 + case);
        let program = arb_program(&mut g);
        let policy = arb_policy(&mut g);
        let trace = trace_program(&program, 100_000).expect("terminates");
        let stream = build_exec_stream(trace.insts());
        let cfg = PartitionConfig {
            policy,
            replication: true,
            balance_slack: 0.2,
        };
        let num_cores = 2 + (case as usize % 3);
        let part = partition_stream(&stream, &cfg, num_cores);
        for (core, view) in part.views.iter().enumerate() {
            let st: Vec<_> = view.iter(&stream).collect();
            for w in st.windows(2) {
                assert!(w[0].gseq <= w[1].gseq, "case {case}");
            }
            for x in &st {
                for dep in x.deps.iter().flatten() {
                    let p = dep.producer as usize;
                    let local =
                        part.assign[p] as usize == core || part.replica_on[p] & (1 << core) != 0;
                    assert_eq!(dep.cross, !local, "case {case}");
                }
            }
        }
    }
}

/// The N-way functional executor produces architectural state identical to
/// the sequential interpreter, for N ∈ {2, 3, 4}. (`check_partition`
/// verifies every produced register value, store value, branch outcome and
/// memory address against the sequential reference trace.)
#[test]
fn nway_partition_matches_sequential_interpreter() {
    for case in 0..CASES {
        let mut g = Xorshift::new(0x45_0001 + case);
        let program = arb_program(&mut g);
        let policy = arb_policy(&mut g);
        let replication = g.flip();
        let trace = trace_program(&program, 100_000).expect("terminates");
        let stream = build_exec_stream(trace.insts());
        let cfg = PartitionConfig {
            policy,
            replication,
            balance_slack: 0.2,
        };
        for num_cores in [2usize, 3, 4] {
            let part = partition_stream(&stream, &cfg, num_cores);
            check_partition(&stream, &part, &[])
                .unwrap_or_else(|e| panic!("case {case} on {num_cores} cores: {e}"));
            let total: u64 = part.stats.insts.iter().sum();
            assert_eq!(total, stream.len() as u64, "case {case}/{num_cores}");
        }
    }
}

/// Every machine model commits exactly the committed-path trace.
#[test]
fn machines_commit_the_whole_trace() {
    for case in 0..CASES {
        let mut g = Xorshift::new(0x43_0001 + case);
        let program = arb_program(&mut g);
        let trace = trace_program(&program, 100_000).expect("terminates");
        for kind in [
            MachineKind::SingleSmall,
            MachineKind::FusedSmall,
            MachineKind::FgstpSmall,
        ] {
            let r = run_on(kind, trace.insts());
            assert_eq!(r.result.committed, trace.len() as u64, "case {case} {kind}");
            assert!(
                r.result.cycles > 0 || trace.is_empty(),
                "case {case} {kind}"
            );
        }
    }
}

/// The geometric mean lies between min and max.
#[test]
fn geomean_is_bounded() {
    for case in 0..256u64 {
        let mut g = Xorshift::new(0x44_0001 + case);
        let xs: Vec<f64> = (0..g.range_usize(1, 20))
            .map(|_| 0.01 + (g.below(1_000_000) as f64 / 1_000_000.0) * 99.99)
            .collect();
        let gm = geomean(&xs);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(0.0f64, f64::max);
        assert!(
            gm >= min * 0.999 && gm <= max * 1.001,
            "case {case}: g={gm} min={min} max={max}"
        );
    }
}
