//! RV32 → SimRISC dynamic-stream translation.
//!
//! The timing models replay committed [`fgstp_isa::DynInst`] streams;
//! they consume instruction *classes*, register *names*, pcs, effective
//! addresses and branch outcomes — recorded values are replayed, never
//! re-evaluated (value re-verification via `fgstp::exec` is a test-only
//! oracle for SimRISC traces). Translation therefore maps each RV32IM
//! instruction onto the SimRISC op with the same class and dependence
//! shape, and records the RV32 machine's own (zero-extended) values:
//!
//! | RV32IM | SimRISC | note |
//! |---|---|---|
//! | `x0`–`x31` | `x0`–`x31` | identity; x0 stays the zero register |
//! | byte pc | instruction index | `pc / 4`; branch/`jal` immediates become absolute indices |
//! | `add sub and or xor sll srl sra slt sltu` (+`i` forms) | same name | `sltiu` → `slti` (same class) |
//! | `mul mulh mulhsu mulhu` | `mul` | one IntMul class |
//! | `div divu` / `rem remu` | `div` / `rem` | one IntDiv class |
//! | `lui` | `li value` | constant generation |
//! | `auipc` | `li pc+offset` | resolved at translation time |
//! | `lb lbu lh lhu lw` | same name | `lw` keeps 32-bit load width |
//! | `sb sh sw` | same name | |
//! | `beq bne blt bge bltu bgeu` | same name | target = absolute index |
//! | `jal` | `jal` | target = absolute index |
//! | `jalr` | `jalr` | immediate stays in byte space; `next_pc` carries the real target |
//! | `fence` | `nop` | single-thread stream: ordering is free |
//! | `ecall`/`ebreak` | halt | executed, never recorded (same as SimRISC `halt`) |
//!
//! Addresses and values are zero-extended from 32 to 64 bits. The
//! translated stream is *self-consistent* (every recorded value is what
//! the RV32 machine computed), but deliberately not re-executable under
//! 64-bit SimRISC semantics — RV32 wraparound has no 64-bit equivalent.
//! Functional correctness is guarded by the emulator differential tests
//! instead.

use fgstp_isa::{DynInst, Inst, Op, Reg, Trace};

use crate::emulate::{RvCommit, RvError, RvMachine};
use crate::inst::{RvInst, RvOp};
use crate::program::RvProgram;

/// Version of the RV→SimRISC translation scheme. Bump on any change to
/// the mapping above — live-point cache keys incorporate it, so warm
/// states taken over stale translated traces can never be replayed.
pub const TRANSLATION_VERSION: u32 = 1;

fn reg(n: u8) -> Reg {
    Reg::int(n)
}

/// Translates one decoded RV32 instruction at byte pc `pc` into its
/// SimRISC counterpart (see the [module docs](self) for the mapping).
/// `ecall`/`ebreak` translate to `halt`.
pub fn translate_inst(inst: &RvInst, pc: u32) -> Inst {
    use RvOp::*;
    let rd = reg(inst.rd);
    let rs1 = reg(inst.rs1);
    let rs2 = reg(inst.rs2);
    let imm = inst.imm as i64;
    // Branch and jal targets become absolute instruction indices.
    let target = || (pc.wrapping_add(inst.imm as u32) / 4) as i64;
    match inst.op {
        Add => Inst::rrr(Op::Add, rd, rs1, rs2),
        Sub => Inst::rrr(Op::Sub, rd, rs1, rs2),
        Sll => Inst::rrr(Op::Sll, rd, rs1, rs2),
        Slt => Inst::rrr(Op::Slt, rd, rs1, rs2),
        Sltu => Inst::rrr(Op::Sltu, rd, rs1, rs2),
        Xor => Inst::rrr(Op::Xor, rd, rs1, rs2),
        Srl => Inst::rrr(Op::Srl, rd, rs1, rs2),
        Sra => Inst::rrr(Op::Sra, rd, rs1, rs2),
        Or => Inst::rrr(Op::Or, rd, rs1, rs2),
        And => Inst::rrr(Op::And, rd, rs1, rs2),
        Mul | Mulh | Mulhsu | Mulhu => Inst::rrr(Op::Mul, rd, rs1, rs2),
        Div | Divu => Inst::rrr(Op::Div, rd, rs1, rs2),
        Rem | Remu => Inst::rrr(Op::Rem, rd, rs1, rs2),
        Addi => Inst::rri(Op::Addi, rd, rs1, imm),
        Slti | Sltiu => Inst::rri(Op::Slti, rd, rs1, imm),
        Xori => Inst::rri(Op::Xori, rd, rs1, imm),
        Ori => Inst::rri(Op::Ori, rd, rs1, imm),
        Andi => Inst::rri(Op::Andi, rd, rs1, imm),
        Slli => Inst::rri(Op::Slli, rd, rs1, imm),
        Srli => Inst::rri(Op::Srli, rd, rs1, imm),
        Srai => Inst::rri(Op::Srai, rd, rs1, imm),
        Lb => Inst::rri(Op::Lb, rd, rs1, imm),
        Lh => Inst::rri(Op::Lh, rd, rs1, imm),
        Lw => Inst::rri(Op::Lw, rd, rs1, imm),
        Lbu => Inst::rri(Op::Lbu, rd, rs1, imm),
        Lhu => Inst::rri(Op::Lhu, rd, rs1, imm),
        Sb => Inst::store(Op::Sb, rs2, rs1, imm),
        Sh => Inst::store(Op::Sh, rs2, rs1, imm),
        Sw => Inst::store(Op::Sw, rs2, rs1, imm),
        Beq => Inst::branch(Op::Beq, rs1, rs2, target()),
        Bne => Inst::branch(Op::Bne, rs1, rs2, target()),
        Blt => Inst::branch(Op::Blt, rs1, rs2, target()),
        Bge => Inst::branch(Op::Bge, rs1, rs2, target()),
        Bltu => Inst::branch(Op::Bltu, rs1, rs2, target()),
        Bgeu => Inst::branch(Op::Bgeu, rs1, rs2, target()),
        Lui => Inst::ri(Op::Li, rd, inst.imm as u32 as i64),
        Auipc => Inst::ri(Op::Li, rd, pc.wrapping_add(inst.imm as u32) as i64),
        Jal => Inst::jal(rd, target()),
        Jalr => Inst::jalr(rd, rs1, imm),
        Fence => Inst::nop(),
        Ecall | Ebreak => Inst::halt(),
    }
}

/// Turns one commit record into the SimRISC dynamic instruction with the
/// given sequence number.
fn dyn_inst(seq: u64, c: &RvCommit) -> DynInst {
    DynInst {
        seq,
        pc: (c.pc / 4) as u64,
        inst: translate_inst(&c.inst, c.pc),
        next_pc: (c.next_pc / 4) as u64,
        addr: c.addr.map(u64::from),
        taken: c.taken,
        rd_value: c.rd_value.map(u64::from),
        store_value: c.store_value.map(u64::from),
    }
}

/// Error from RV32 trace generation, mirroring
/// [`fgstp_isa::TraceError`]'s shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RvTraceError {
    /// The functional execution faulted.
    Exec(RvError),
    /// The program did not halt within the instruction budget.
    Truncated {
        /// The exhausted budget.
        limit: u64,
    },
}

impl std::fmt::Display for RvTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RvTraceError::Exec(e) => write!(f, "RV32 execution failed: {e}"),
            RvTraceError::Truncated { limit } => write!(
                f,
                "program did not halt within the {limit}-instruction trace budget"
            ),
        }
    }
}

impl std::error::Error for RvTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RvTraceError::Exec(e) => Some(e),
            RvTraceError::Truncated { .. } => None,
        }
    }
}

/// Emulates `program` and returns its committed path translated into a
/// SimRISC [`Trace`], ready for any downstream timing model. The halting
/// `ecall`/`ebreak` is executed but not recorded, exactly like SimRISC
/// `halt`. Like [`fgstp_isa::trace_program`], it runs the program
/// untraced first to allocate the trace at its final size.
///
/// # Errors
///
/// [`RvTraceError::Truncated`] if the program does not halt within
/// `limit` dynamic instructions, [`RvTraceError::Exec`] if it faults.
///
/// ```
/// use fgstp_rv::{assemble_rv, trace_rv};
///
/// let p = assemble_rv("li a0, 2\nadd a0, a0, a0\necall")?;
/// let t = trace_rv(&p, 100)?;
/// assert_eq!(t.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn trace_rv(program: &RvProgram, limit: u64) -> Result<Trace, RvTraceError> {
    // Counts the halt too: one slot of slack.
    let executed = match RvMachine::new(program).and_then(|mut m| m.run(limit)) {
        Ok(n) => n,
        Err(RvError::StepLimit { .. }) => return Err(RvTraceError::Truncated { limit }),
        Err(e) => return Err(RvTraceError::Exec(e)),
    };
    let mut m = RvMachine::new(program).map_err(RvTraceError::Exec)?;
    let mut insts = Vec::with_capacity(executed as usize);
    for _ in 0..limit {
        let c = m.step().map_err(RvTraceError::Exec)?;
        if c.halted {
            return Ok(Trace::from_insts(insts));
        }
        insts.push(dyn_inst(insts.len() as u64, &c));
    }
    Err(RvTraceError::Truncated { limit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_rv;
    use fgstp_isa::InstClass;

    #[test]
    fn trace_is_dense_and_classful() {
        let p = assemble_rv(
            r#"
                li  t0, 3
                li  t1, 0x2000
            loop:
                sw  t0, 0(t1)
                lw  t2, 0(t1)
                mul t3, t2, t0
                addi t0, t0, -1
                bnez t0, loop
                ecall
            "#,
        )
        .unwrap();
        let t = trace_rv(&p, 1000).unwrap();
        // 3 setup (the second li is lui+addi) + 3 iterations of 5.
        assert_eq!(t.len(), 18);
        for (i, d) in t.insts().iter().enumerate() {
            assert_eq!(d.seq, i as u64);
        }
        assert_eq!(t.count_class(InstClass::Store), 3);
        assert_eq!(t.count_class(InstClass::Load), 3);
        assert_eq!(t.count_class(InstClass::IntMul), 3);
        let branches: Vec<_> = t.insts().iter().filter(|d| d.taken.is_some()).collect();
        assert_eq!(branches.len(), 3);
        assert_eq!(branches[2].taken, Some(false));
        assert!(t
            .insts()
            .iter()
            .filter(|d| d.class().is_mem())
            .all(|d| d.addr == Some(0x2000)));
    }

    #[test]
    fn pcs_and_branch_targets_are_instruction_indices() {
        let p = assemble_rv(
            r#"
                li  t0, 2
            loop:
                addi t0, t0, -1
                bnez t0, loop
                ecall
            "#,
        )
        .unwrap();
        let t = trace_rv(&p, 100).unwrap();
        assert_eq!(t[0].pc, 0);
        assert_eq!(t[1].pc, 1);
        let b = &t[2];
        assert_eq!(b.pc, 2);
        assert_eq!(
            b.inst.imm, 1,
            "branch target is the absolute index of `loop`"
        );
        assert_eq!(b.next_pc, 1, "taken branch goes back to the loop head");
        assert_eq!(t[4].next_pc, 3, "fallthrough lands on the next index");
    }

    #[test]
    fn jumps_record_link_values_and_targets() {
        let p = assemble_rv(
            r#"
                li   sp, 0x8000
                call fn
                ecall
            fn:
                ret
            "#,
        )
        .unwrap();
        let t = trace_rv(&p, 100).unwrap();
        // li (lui+addi), call (jal), ret (jalr): the halt ecall is unrecorded.
        assert_eq!(t.len(), 4);
        let call = &t[2];
        assert_eq!(call.class(), InstClass::Jump);
        assert_eq!(call.next_pc, 4);
        assert_eq!(
            call.rd_value,
            Some(12),
            "link register holds the byte return address"
        );
        let ret = &t[3];
        assert_eq!(ret.next_pc, 3);
        assert_eq!(ret.rd_value, None, "x0-linked jalr writes nothing");
    }

    #[test]
    fn x0_destinations_record_no_value() {
        let p = assemble_rv("add x0, x0, x0\necall").unwrap();
        let t = trace_rv(&p, 10).unwrap();
        assert_eq!(t[0].rd_value, None);
        assert_eq!(t[0].inst.dest(), None);
    }

    #[test]
    fn truncation_is_reported() {
        let p = assemble_rv("loop: j loop").unwrap();
        assert_eq!(trace_rv(&p, 25), Err(RvTraceError::Truncated { limit: 25 }));
    }

    #[test]
    fn lui_and_auipc_become_constant_generation() {
        let p = assemble_rv("lui a0, 0x12\nauipc a1, 0x1\necall").unwrap();
        let t = trace_rv(&p, 10).unwrap();
        assert_eq!(t[0].inst.op, Op::Li);
        assert_eq!(t[0].rd_value, Some(0x12000));
        assert_eq!(t[1].inst.op, Op::Li);
        // auipc at byte pc 4: 4 + 0x1000.
        assert_eq!(t[1].rd_value, Some(0x1004));
        assert_eq!(t[1].inst.imm, 0x1004);
    }
}
