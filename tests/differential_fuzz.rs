//! Differential fuzzing: random programs through the full Fg-STP timing
//! machine against the sequential `fgstp-isa` interpreter.
//!
//! Every case assembles a random (but always-terminating) program, runs it
//! to completion on the functional [`Machine`] interpreter, then drives the
//! committed-path trace through [`run_fgstp`] at 1, 2 and 4 cores. The
//! timing machine must commit the entire trace (no lost, duplicated or
//! deadlocked instructions), and the architectural state it commits —
//! reconstructed by replaying the committed destination-register writes and
//! store values in commit order — must match the interpreter's final
//! register file and memory image byte for byte.
//!
//! The same programs also check the cycle loop against itself: a run that
//! skips idle cycles must match one that steps every cycle, field by field.
//!
//! Seeds are fixed, so every run covers the same programs and any failure
//! replays exactly; divergences are collected and reported together rather
//! than stopping at the first.

use fg_stp_repro::core::run_fgstp_warm;
use fg_stp_repro::isa::{
    trace_program, DynInst, Inst, Machine, Op, PreProgram, Program, Reg, ThreadedMachine, Trace,
};
use fg_stp_repro::ooo::WarmState;
use fg_stp_repro::prelude::*;
use fg_stp_repro::telemetry::{CycleOutcome, CycleSink};
use fg_stp_repro::workloads::gen::Xorshift;
use fg_stp_repro::workloads::CHECKSUM_ADDR;

/// Number of random programs; each runs at 1, 2 and 4 cores.
const CASES: u64 = 200;

/// Base address of the data region all generated loads/stores hit.
const DATA_BASE: u64 = 0x1000;
/// Bytes compared around the data region (covers every reachable address
/// with margin on both sides to catch stray writes).
const IMAGE_START: u64 = 0x0800;
const IMAGE_END: u64 = 0x2000;

/// One random body instruction, over registers x1..x12 and the data
/// region addressed through x15. Richer than the partitioner property
/// tests: shifts, divisions and sub-word memory traffic are all in play.
fn arb_inst(g: &mut Xorshift) -> Inst {
    let reg = |g: &mut Xorshift| Reg::int(g.range_u64(1, 13) as u8);
    let mem_off = |g: &mut Xorshift| g.range_i64(0, 240) * 8;
    match g.below(16) {
        0 => Inst::rrr(Op::Add, reg(g), reg(g), reg(g)),
        1 => Inst::rrr(Op::Sub, reg(g), reg(g), reg(g)),
        2 => Inst::rrr(Op::Xor, reg(g), reg(g), reg(g)),
        3 => Inst::rrr(Op::And, reg(g), reg(g), reg(g)),
        4 => Inst::rrr(Op::Or, reg(g), reg(g), reg(g)),
        5 => Inst::rrr(Op::Mul, reg(g), reg(g), reg(g)),
        6 => Inst::rrr(Op::Div, reg(g), reg(g), reg(g)),
        7 => Inst::rrr(Op::Rem, reg(g), reg(g), reg(g)),
        8 => Inst::rrr(Op::Slt, reg(g), reg(g), reg(g)),
        9 => Inst::rri(Op::Srli, reg(g), reg(g), g.range_i64(0, 63)),
        10 => Inst::rri(Op::Addi, reg(g), reg(g), g.range_i64(-64, 64)),
        11 => Inst::ri(Op::Li, reg(g), g.range_i64(-1000, 1000)),
        12 => Inst::rri(Op::Ld, reg(g), Reg::int(15), mem_off(g)),
        13 => Inst::rri(Op::Lw, reg(g), Reg::int(15), mem_off(g)),
        14 => Inst::store(Op::Sd, reg(g), Reg::int(15), mem_off(g)),
        _ => Inst::store(Op::Sb, reg(g), Reg::int(15), mem_off(g)),
    }
}

/// A random program: register setup, a counted loop around a random body
/// with occasional data-dependent forward skips, then halt. The loop
/// counter (x14) and data base (x15) are never clobbered by the body, so
/// the program always terminates.
fn arb_program(g: &mut Xorshift) -> Program {
    let mut insts = Vec::new();
    insts.push(Inst::ri(Op::Li, Reg::int(15), DATA_BASE as i64));
    for i in 0..12u8 {
        insts.push(Inst::ri(
            Op::Li,
            Reg::int(1 + i),
            (g.next_u64() as i64) % 10_000,
        ));
    }
    let loop_count = g.range_i64(1, 6);
    insts.push(Inst::ri(Op::Li, Reg::int(14), loop_count));
    let loop_start = insts.len() as i64;
    for _ in 0..g.range_usize(5, 70) {
        if g.below(8) == 0 {
            // Data-dependent forward skip over a short block, so control
            // flow (and therefore the branch predictor and fetch redirects)
            // varies with the computed values.
            let skipped = g.range_usize(1, 4);
            let target = insts.len() as i64 + 1 + skipped as i64;
            insts.push(Inst::branch(
                Op::Bne,
                Reg::int(g.range_u64(1, 13) as u8),
                Reg::ZERO,
                target,
            ));
            for _ in 0..skipped {
                insts.push(arb_inst(g));
            }
        } else {
            insts.push(arb_inst(g));
        }
    }
    insts.push(Inst::rri(Op::Addi, Reg::int(14), Reg::int(14), -1));
    insts.push(Inst::branch(Op::Bne, Reg::int(14), Reg::ZERO, loop_start));
    insts.push(Inst::halt());
    Program::new(insts)
}

/// Architectural state reconstructed from a committed instruction stream.
struct ReplayState {
    regs: Vec<u64>,
    image: Vec<u8>,
}

/// Replays committed destination-register writes and store values in
/// commit order. The timing machine is trace-driven and commits exactly
/// the dynamic instructions it was handed, so this is the architectural
/// state an Fg-STP run retires — provided it committed the whole trace,
/// which the caller asserts separately.
fn replay(insts: &[DynInst], num_regs: usize) -> ReplayState {
    let mut regs = vec![0u64; num_regs];
    let mut image = vec![0u8; (IMAGE_END - IMAGE_START) as usize];
    for di in insts {
        if let (Some(rd), Some(v)) = (di.inst.dest(), di.rd_value) {
            regs[rd.index()] = v;
        }
        if let (Some(addr), Some(v)) = (di.addr, di.store_value) {
            let width = di.inst.op.mem_width().expect("store has a width");
            for b in 0..width as u64 {
                let a = addr + b;
                assert!(
                    (IMAGE_START..IMAGE_END).contains(&a),
                    "store at 0x{a:x} escapes the generated data region"
                );
                image[(a - IMAGE_START) as usize] = (v >> (8 * b)) as u8;
            }
        }
    }
    ReplayState { regs, image }
}

/// Runs `program` on the interpreter and returns its final architectural
/// state alongside the committed-path trace.
fn interpret(program: &Program) -> (ReplayState, Trace) {
    let mut m = Machine::new(program);
    m.run(100_000).expect("generated program terminates");
    assert!(m.is_halted());
    let regs = m.regs().to_vec();
    let image: Vec<u8> = (IMAGE_START..IMAGE_END)
        .map(|a| m.mem().read_u8(a))
        .collect();
    let trace = trace_program(program, 100_000).expect("terminates");
    (ReplayState { regs, image }, trace)
}

/// 200 random programs × {1, 2, 4} cores: the Fg-STP machine commits the
/// whole trace and its committed architectural state matches the
/// sequential interpreter exactly. Zero divergences tolerated.
#[test]
fn fgstp_matches_sequential_interpreter() {
    let mut divergences: Vec<String> = Vec::new();
    for case in 0..CASES {
        let mut g = Xorshift::new(0x0DD1_0001 + case);
        let program = arb_program(&mut g);
        let (reference, trace) = interpret(&program);
        for n in [1usize, 2, 4] {
            let cfg = FgstpConfig::small().with_cores(n);
            let hcfg = HierarchyConfig::small(n);
            let (result, _) = run_fgstp(trace.insts(), &cfg, &hcfg);
            if result.committed != trace.len() as u64 {
                divergences.push(format!(
                    "case {case} n={n}: committed {} of {} insts",
                    result.committed,
                    trace.len()
                ));
                continue;
            }
            if result.cycles == 0 {
                divergences.push(format!("case {case} n={n}: zero cycles"));
            }
            let state = replay(trace.insts(), reference.regs.len());
            if state.regs != reference.regs {
                let r = (0..state.regs.len())
                    .find(|&r| state.regs[r] != reference.regs[r])
                    .unwrap();
                divergences.push(format!(
                    "case {case} n={n}: reg x{r} = {:#x}, interpreter has {:#x}",
                    state.regs[r], reference.regs[r]
                ));
            }
            if state.image != reference.image {
                let off = (0..state.image.len())
                    .find(|&i| state.image[i] != reference.image[i])
                    .unwrap();
                divergences.push(format!(
                    "case {case} n={n}: memory byte 0x{:x} = {:#04x}, interpreter has {:#04x}",
                    IMAGE_START + off as u64,
                    state.image[off],
                    reference.image[off]
                ));
            }
        }
    }
    assert!(
        divergences.is_empty(),
        "{} divergence(s) across {CASES} cases:\n{}",
        divergences.len(),
        divergences.join("\n")
    );
}

/// An enabled sink that records nothing: it keeps the machine stepping
/// every cycle.
struct EveryCycle;

impl CycleSink for EveryCycle {
    const ENABLED: bool = true;

    fn record(&mut self, _core: usize, _now: u64, _outcome: CycleOutcome) {}
}

/// 200 random programs × {1, 2, 4} cores, plus 2 cores without
/// cross-core memory-dependence speculation (whose loads wait out
/// `LoadGate::WaitUntil`) and 4 cores with an 8-instruction lookahead
/// window: a run that skips idle cycles equals a run that steps every
/// cycle in every `RunResult` and `FgstpStats` field.
#[test]
fn skipping_idle_cycles_matches_stepping_every_cycle() {
    let mut configs: Vec<FgstpConfig> = [1usize, 2, 4]
        .iter()
        .map(|&n| FgstpConfig::small().with_cores(n))
        .collect();
    let mut conservative = FgstpConfig::small();
    conservative.dep_speculation = false;
    configs.push(conservative);
    // An 8-instruction lookahead window on 4 cores holds fetch on the
    // skew bound often, so a core that moves its fetch cursor in a cycle
    // that does nothing else still releases a partner the next cycle.
    let mut narrow = FgstpConfig::small().with_cores(4);
    narrow.partition.policy = PartitionPolicy::SliceLookahead {
        window: 8,
        refine_passes: 2,
    };
    configs.push(narrow);
    let mut divergences: Vec<String> = Vec::new();
    for case in 0..CASES {
        let mut g = Xorshift::new(0x0DD1_0001 + case);
        let program = arb_program(&mut g);
        let trace = trace_program(&program, 100_000).expect("terminates");
        for cfg in &configs {
            let hcfg = HierarchyConfig::small(cfg.num_cores);
            let (skipping, skipping_stats) = run_fgstp(trace.insts(), cfg, &hcfg);
            let mut warm = WarmState::new(&cfg.core, &hcfg);
            let (every, every_stats) =
                run_fgstp_warm(trace.insts(), cfg, &mut warm, 0, &mut EveryCycle);
            let at = format!(
                "case {case} n={} speculation={}",
                cfg.num_cores, cfg.dep_speculation
            );
            if format!("{skipping:?}") != format!("{:?}", every.result) {
                divergences.push(format!("{at}: {skipping:?}\n  vs {:?}", every.result));
            }
            if format!("{skipping_stats:?}") != format!("{every_stats:?}") {
                divergences.push(format!("{at}: {skipping_stats:?}\n  vs {every_stats:?}"));
            }
        }
    }
    assert!(
        divergences.is_empty(),
        "{} divergence(s) across {CASES} cases:\n{}",
        divergences.len(),
        divergences.join("\n")
    );
}

/// 200 random programs: the threaded-code functional engine
/// ([`ThreadedMachine`]) against the reference `Machine::step` oracle.
/// Three agreements, all exact and all over the same seeds as the timing
/// differential above:
///
/// 1. the [`DynInst`] stream off `ThreadedMachine::run_trace` is
///    identical to `trace_program`'s (sequence numbers, pcs, operands,
///    addresses, values — everything),
/// 2. the untraced `run()` path retires to the same final register
///    file, and
/// 3. its memory image is byte-exact over the whole reachable region.
///
/// Then every SimRISC suite kernel at `Scale::Test` runs through `run()`
/// against `Machine::run`: the outcome, the register file, the executed
/// count and the word at [`CHECKSUM_ADDR`] must all match.
#[test]
fn threaded_interpreter_matches_reference_oracle() {
    let mut divergences: Vec<String> = Vec::new();
    for case in 0..CASES {
        let mut g = Xorshift::new(0x0DD1_0001 + case);
        let program = arb_program(&mut g);
        let (reference, trace) = interpret(&program);

        let pre = PreProgram::new(&program);
        let mut traced = ThreadedMachine::new(&pre);
        let mut stream: Vec<DynInst> = Vec::new();
        if let Err(e) = traced.run_trace(100_000, &mut stream) {
            divergences.push(format!("case {case}: run_trace failed: {e:?}"));
            continue;
        }
        if stream != trace.insts() {
            let off = (0..stream.len().min(trace.len()))
                .find(|&i| stream[i] != trace.insts()[i])
                .unwrap_or_else(|| stream.len().min(trace.len()));
            divergences.push(format!(
                "case {case}: DynInst streams diverge at seq {off} \
                 (threaded {} insts, reference {})",
                stream.len(),
                trace.len()
            ));
        }

        let mut fused = ThreadedMachine::new(&pre);
        if let Err(e) = fused.run(100_000) {
            divergences.push(format!("case {case}: run() failed: {e:?}"));
            continue;
        }
        if !fused.is_halted() {
            divergences.push(format!("case {case}: run() did not halt"));
            continue;
        }
        if fused.regs()[..] != reference.regs[..] {
            let r = (0..reference.regs.len())
                .find(|&r| fused.regs()[r] != reference.regs[r])
                .unwrap();
            divergences.push(format!(
                "case {case}: run() reg x{r} = {:#x}, interpreter has {:#x}",
                fused.regs()[r],
                reference.regs[r]
            ));
        }
        let image: Vec<u8> = (IMAGE_START..IMAGE_END)
            .map(|a| fused.mem().read_u8(a))
            .collect();
        if image != reference.image {
            let off = (0..image.len())
                .find(|&i| image[i] != reference.image[i])
                .unwrap();
            divergences.push(format!(
                "case {case}: run() memory byte 0x{:x} = {:#04x}, interpreter has {:#04x}",
                IMAGE_START + off as u64,
                image[off],
                reference.image[off]
            ));
        }
    }
    assert!(
        divergences.is_empty(),
        "{} divergence(s) across {CASES} cases:\n{}",
        divergences.len(),
        divergences.join("\n")
    );

    let budget = Scale::Test.trace_budget();
    let mut kernel_divergences: Vec<String> = Vec::new();
    for w in suite(Scale::Test) {
        let mut oracle = Machine::new(w.program());
        let want = oracle.run(budget);
        let pre = PreProgram::new(w.program());
        let mut threaded = ThreadedMachine::new(&pre);
        let got = threaded.run(budget);
        if got != want {
            kernel_divergences.push(format!(
                "{}: run() returned {got:?}, oracle {want:?}",
                w.name
            ));
            continue;
        }
        if threaded.regs() != oracle.regs() {
            let r = (0..oracle.regs().len())
                .find(|&r| threaded.regs()[r] != oracle.regs()[r])
                .unwrap();
            kernel_divergences.push(format!(
                "{}: run() reg x{r} = {:#x}, oracle has {:#x}",
                w.name,
                threaded.regs()[r],
                oracle.regs()[r]
            ));
        }
        if threaded.executed() != oracle.executed() {
            kernel_divergences.push(format!(
                "{}: run() executed {} insts, oracle {}",
                w.name,
                threaded.executed(),
                oracle.executed()
            ));
        }
        let (sum, want_sum) = (
            threaded.mem().read(CHECKSUM_ADDR, 8),
            oracle.mem().read(CHECKSUM_ADDR, 8),
        );
        if sum != want_sum {
            kernel_divergences.push(format!(
                "{}: run() checksum {sum:#x}, oracle has {want_sum:#x}",
                w.name
            ));
        }
    }
    assert!(
        kernel_divergences.is_empty(),
        "{} kernel divergence(s):\n{}",
        kernel_divergences.len(),
        kernel_divergences.join("\n")
    );
}

/// The same trace through the same configuration is cycle-identical on
/// repeated runs — the wall-clock optimizations must not introduce any
/// host-dependent nondeterminism.
#[test]
fn fgstp_runs_are_deterministic_across_repeats() {
    for case in 0..16u64 {
        let mut g = Xorshift::new(0x0DD2_0001 + case);
        let program = arb_program(&mut g);
        let trace = trace_program(&program, 100_000).expect("terminates");
        for n in [1usize, 2, 4] {
            let cfg = FgstpConfig::small().with_cores(n);
            let hcfg = HierarchyConfig::small(n);
            let (a, _) = run_fgstp(trace.insts(), &cfg, &hcfg);
            let (b, _) = run_fgstp(trace.insts(), &cfg, &hcfg);
            assert_eq!(a.cycles, b.cycles, "case {case} n={n}");
            assert_eq!(a.committed, b.committed, "case {case} n={n}");
        }
    }
}
