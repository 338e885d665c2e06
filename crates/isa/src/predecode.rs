//! Pre-decoded threaded-code functional execution.
//!
//! [`crate::Machine::step`] re-decodes every instruction on every dynamic
//! visit: it matches on the full [`Op`] space, resolves memory widths and
//! sign-extensions through `Option`-returning helpers, and materializes a
//! [`crate::machine::ExecInfo`] per step whether or not anyone is tracing.
//! That is fine for an oracle but it bounds trace generation, which every
//! timing model replays.
//!
//! This module lowers a [`Program`] **once** into a flat pre-decoded op
//! table ([`PreProgram`]): each static [`Inst`] becomes a `PreInst`
//! carrying a resolved dispatch `Kind` (the jump-table index), raw
//! register indices, the immediate, and — for memory ops — the access
//! width and sign-extension flag. [`ThreadedMachine`] then executes that
//! table through one threaded-code dispatcher: one dense match per
//! dynamic instruction (compiled to a jump table), with the hot
//! ALU/FP/branch/load/store cases inlined and the cold tail (integer
//! divide/remainder) funnelled through
//! [`crate::semantics::eval_compute`] so the two interpreters cannot
//! drift on the rare opcodes. Loads and stores run through a small
//! direct-mapped page-translation cache (`TLB_SETS` sets), skipping the
//! page-table hash lookup on same-page streaks, with a within-page fast
//! path for accesses that do not straddle a page boundary.
//!
//! `step`, `run` and `run_trace` differ only in the record sink they hand
//! that dispatcher: `step` keeps the one record it returns, `run` builds
//! none (the record path compiles out) and `run_trace` appends every
//! [`DynInst`] to the trace.
//!
//! `Machine` stays the reference oracle: `ThreadedMachine` is
//! architecturally equivalent by construction and the differential-fuzz
//! harness pins exact register-file, byte-exact memory and identical
//! [`DynInst`]-stream agreement over hundreds of random programs.

use crate::inst::Inst;
use crate::machine::{ExecError, ExecInfo, Memory, StepOutcome, PAGE_SHIFT, PAGE_SIZE};
use crate::op::Op;
use crate::program::{DataInit, Program};
use crate::reg::NUM_REGS;
use crate::semantics::eval_compute;
use crate::trace::{DynInst, TraceError};

/// Dispatch selector of one pre-decoded instruction: the "threaded code"
/// label the run loop jumps through. Memory and extension behaviour that
/// [`crate::Machine::step`] resolves per dynamic visit is baked in here at
/// lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    // Hot integer ALU, register-register.
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Mul,
    // Hot integer ALU, register-immediate.
    Addi,
    Andi,
    Ori,
    Xori,
    Slli,
    Srli,
    Srai,
    Slti,
    Li,
    // Hot FP ALU: the FP kernels spend 20%+ of their dynamic stream here,
    // so these are inlined like the integer ops. The expressions in the
    // dispatch arms are copied verbatim from
    // [`crate::semantics::eval_compute`] and pinned bit-exact by the
    // lockstep and differential-fuzz suites.
    FAdd,
    FSub,
    FMul,
    FDiv,
    FSqrt,
    FMin,
    FMax,
    FCvtIF,
    FCvtFI,
    FLt,
    FEq,
    // Cold pure compute (integer divide/remainder): evaluated through
    // [`crate::semantics::eval_compute`] on the carried opcode, so the
    // rare cases share one semantics definition with the oracle.
    Div,
    Rem,
    // Loads, one variant per width × extension so every dispatch arm
    // folds its width and sign-extension to constants (`ld`/`fld`
    // collapse to one variant — identical memory behaviour).
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Lwu,
    Ld8,
    // Stores, one variant per width (`sd`/`fsd` collapse likewise).
    Sb,
    Sh,
    Sw,
    Sd8,
    // Conditional branches.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Jal,
    Jalr,
    Nop,
    Halt,
}

/// One pre-decoded instruction: dispatch kind, raw operand indices and the
/// immediate — 16 bytes, so the plain `run` loop streams a quarter of the
/// bytes per instruction that refetching [`Inst`] plus re-decoding would.
/// The original [`Inst`] lives in a parallel cold array
/// ([`PreProgram::insts`]), touched only when a sink records.
#[derive(Debug, Clone, Copy)]
struct PreInst {
    kind: Kind,
    rd: u8,
    rs1: u8,
    rs2: u8,
    imm: i64,
}

/// Lowers one static instruction; total over the ISA.
fn lower(inst: Inst) -> PreInst {
    use Op::*;
    let kind = match inst.op {
        Add => Kind::Add,
        Sub => Kind::Sub,
        And => Kind::And,
        Or => Kind::Or,
        Xor => Kind::Xor,
        Sll => Kind::Sll,
        Srl => Kind::Srl,
        Sra => Kind::Sra,
        Slt => Kind::Slt,
        Sltu => Kind::Sltu,
        Mul => Kind::Mul,
        Addi => Kind::Addi,
        Andi => Kind::Andi,
        Ori => Kind::Ori,
        Xori => Kind::Xori,
        Slli => Kind::Slli,
        Srli => Kind::Srli,
        Srai => Kind::Srai,
        Slti => Kind::Slti,
        Li => Kind::Li,
        FAdd => Kind::FAdd,
        FSub => Kind::FSub,
        FMul => Kind::FMul,
        FDiv => Kind::FDiv,
        FSqrt => Kind::FSqrt,
        FMin => Kind::FMin,
        FMax => Kind::FMax,
        FCvtIF => Kind::FCvtIF,
        FCvtFI => Kind::FCvtFI,
        FLt => Kind::FLt,
        FEq => Kind::FEq,
        Div => Kind::Div,
        Rem => Kind::Rem,
        Lb => Kind::Lb,
        Lbu => Kind::Lbu,
        Lh => Kind::Lh,
        Lhu => Kind::Lhu,
        Lw => Kind::Lw,
        Lwu => Kind::Lwu,
        Ld | Fld => Kind::Ld8,
        Sb => Kind::Sb,
        Sh => Kind::Sh,
        Sw => Kind::Sw,
        Sd | Fsd => Kind::Sd8,
        Beq => Kind::Beq,
        Bne => Kind::Bne,
        Blt => Kind::Blt,
        Bge => Kind::Bge,
        Bltu => Kind::Bltu,
        Bgeu => Kind::Bgeu,
        Jal => Kind::Jal,
        Jalr => Kind::Jalr,
        Nop => Kind::Nop,
        Halt => Kind::Halt,
    };
    PreInst {
        kind,
        rd: remap_rd(inst.rd.index() as u8),
        rs1: inst.rs1.index() as u8,
        rs2: inst.rs2.index() as u8,
        imm: inst.imm,
    }
}

/// Pure compute semantics over pre-decoded kinds: the single source of
/// every inlined ALU/FP expression in this module. The dispatch arms call
/// it with a constant kind, so the match folds to the one expression. The
/// integer divide/remainder tail funnels through [`eval_compute`] so the
/// rare opcodes share one semantics definition with the oracle.
#[inline(always)]
fn alu_val(k: Kind, a: u64, b: u64, imm: i64) -> u64 {
    match k {
        Kind::Add => a.wrapping_add(b),
        Kind::Sub => a.wrapping_sub(b),
        Kind::And => a & b,
        Kind::Or => a | b,
        Kind::Xor => a ^ b,
        Kind::Sll => a.wrapping_shl(b as u32 & 63),
        Kind::Srl => a.wrapping_shr(b as u32 & 63),
        Kind::Sra => (a as i64).wrapping_shr(b as u32 & 63) as u64,
        Kind::Slt => u64::from((a as i64) < (b as i64)),
        Kind::Sltu => u64::from(a < b),
        Kind::Mul => a.wrapping_mul(b),
        Kind::Addi => a.wrapping_add(imm as u64),
        Kind::Andi => a & imm as u64,
        Kind::Ori => a | imm as u64,
        Kind::Xori => a ^ imm as u64,
        Kind::Slli => a.wrapping_shl(imm as u32 & 63),
        Kind::Srli => a.wrapping_shr(imm as u32 & 63),
        Kind::Srai => (a as i64).wrapping_shr(imm as u32 & 63) as u64,
        Kind::Slti => u64::from((a as i64) < imm),
        Kind::Li => imm as u64,
        Kind::FAdd => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        Kind::FSub => (f64::from_bits(a) - f64::from_bits(b)).to_bits(),
        Kind::FMul => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
        Kind::FDiv => (f64::from_bits(a) / f64::from_bits(b)).to_bits(),
        Kind::FSqrt => f64::from_bits(a).sqrt().to_bits(),
        Kind::FMin => f64::from_bits(a).min(f64::from_bits(b)).to_bits(),
        Kind::FMax => f64::from_bits(a).max(f64::from_bits(b)).to_bits(),
        Kind::FCvtIF => ((a as i64) as f64).to_bits(),
        Kind::FCvtFI => (f64::from_bits(a) as i64) as u64,
        Kind::FLt => u64::from(f64::from_bits(a) < f64::from_bits(b)),
        Kind::FEq => u64::from(f64::from_bits(a) == f64::from_bits(b)),
        Kind::Div => eval_compute(Op::Div, a, b, imm).expect("div is pure compute"),
        Kind::Rem => eval_compute(Op::Rem, a, b, imm).expect("rem is pure compute"),
        // Loads, stores, branches and control kinds never reach the
        // compute funnel (decode invariant).
        _ => unreachable!("non-compute kind in alu_val"),
    }
}

/// Conditional-branch outcome over pre-decoded kinds; same single-source
/// contract as [`alu_val`].
#[inline(always)]
fn cond_val(k: Kind, a: u64, b: u64) -> bool {
    match k {
        Kind::Beq => a == b,
        Kind::Bne => a != b,
        Kind::Blt => (a as i64) < (b as i64),
        Kind::Bge => (a as i64) >= (b as i64),
        Kind::Bltu => a < b,
        Kind::Bgeu => a >= b,
        _ => unreachable!("non-branch kind in cond_val"),
    }
}

/// Remaps an architectural destination index for branchless writes:
/// `x0` goes to the [`RD_SINK`] scratch slot, everything else to itself.
fn remap_rd(rd: u8) -> u8 {
    if rd == 0 {
        RD_SINK
    } else {
        rd
    }
}

/// A program lowered once into the flat pre-decoded op table, plus the
/// entry point and data segment needed to boot a [`ThreadedMachine`].
///
/// Lowering is cheap (one pass over the static instructions) and the
/// result is reusable: trace many runs of the same program from one
/// `PreProgram`.
#[derive(Debug, Clone)]
pub struct PreProgram {
    ops: Vec<PreInst>,
    /// Parallel cold copy of the original instructions, read only when a
    /// sink records (trace generation, `step`) — the plain `run` loop
    /// never touches it.
    insts: Vec<Inst>,
    entry: u64,
    data: Vec<DataInit>,
}

impl PreProgram {
    /// Lowers `program` into its pre-decoded op table.
    pub fn new(program: &Program) -> PreProgram {
        PreProgram {
            ops: program.insts.iter().copied().map(lower).collect(),
            insts: program.insts.clone(),
            entry: program.entry,
            data: program.data.clone(),
        }
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Where one dynamic record goes. The null sink compiles the whole
/// record-building path out of the plain `run` loop; the vec sink is the
/// trace generator; the one-record sink serves `step`.
trait Sink {
    const RECORD: bool;
    fn emit(&mut self, d: DynInst);
}

struct NullSink;

impl Sink for NullSink {
    const RECORD: bool = false;
    #[inline(always)]
    fn emit(&mut self, _: DynInst) {}
}

struct VecSink<'a> {
    out: &'a mut Vec<DynInst>,
    seq: u64,
}

impl Sink for VecSink<'_> {
    const RECORD: bool = true;
    #[inline(always)]
    fn emit(&mut self, mut d: DynInst) {
        d.seq = self.seq;
        self.seq += 1;
        self.out.push(d);
    }
}

struct OneSink(Option<DynInst>);

impl Sink for OneSink {
    const RECORD: bool = true;
    #[inline(always)]
    fn emit(&mut self, d: DynInst) {
        self.0 = Some(d);
    }
}

/// The threaded-code functional machine: architecturally identical to
/// [`crate::Machine`], dispatching over a [`PreProgram`].
///
/// ```
/// use fgstp_isa::{assemble, PreProgram, ThreadedMachine};
///
/// let p = assemble("li x1, 20\nli x2, 22\nadd x3, x1, x2\nhalt")?;
/// let pre = PreProgram::new(&p);
/// let mut m = ThreadedMachine::new(&pre);
/// m.run(100)?;
/// assert_eq!(m.regs()[3], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
/// Index of the write-sink slot used for `x0` destinations, so register
/// writes need no `rd != 0` branch. Never read: `x0` reads still index
/// slot 0, which stays zero.
const RD_SINK: u8 = NUM_REGS as u8;

/// Backing slots for the interpreter's register file: 64 architectural
/// registers plus the sink, padded to a power of two so masked indexing
/// compiles without bounds checks.
const REG_SLOTS: usize = 128;

#[derive(Debug, Clone)]
pub struct ThreadedMachine<'p> {
    pre: &'p PreProgram,
    regs: [u64; REG_SLOTS],
    pc: u64,
    mem: Memory,
    halted: bool,
    executed: u64,
    /// Direct-mapped page-translation cache: `tlb[page & 15]` holds the
    /// last `(page index, slot)` translated to that set. Slots are stable
    /// for the life of a [`Memory`], so entries never need invalidation
    /// and a hit skips the page-table hash lookup — the dominant cost of
    /// interpreted loads and stores. Sixteen sets keep kernels that
    /// stream several arrays at once (stencils, sparse matrices) from
    /// thrashing a single entry.
    tlb: [(u64, u32); TLB_SETS],
}

/// Sets in the interpreter's direct-mapped page-translation cache.
const TLB_SETS: usize = 16;

impl<'p> ThreadedMachine<'p> {
    /// Creates a machine over the pre-decoded program with the data
    /// segment loaded and the pc at the entry point.
    pub fn new(pre: &'p PreProgram) -> ThreadedMachine<'p> {
        let mut mem = Memory::new();
        for init in &pre.data {
            mem.load_image(init.addr, &init.bytes);
        }
        ThreadedMachine {
            pre,
            regs: [0; REG_SLOTS],
            pc: pre.entry,
            mem,
            halted: false,
            executed: 0,
            tlb: [(u64::MAX, 0); TLB_SETS],
        }
    }

    /// Within-page load through the page-translation cache.
    #[inline(always)]
    fn fast_read(&mut self, addr: u64, w: usize, off: usize) -> u64 {
        let page = addr >> PAGE_SHIFT;
        let set = (page as usize) & (TLB_SETS - 1);
        let slot = if self.tlb[set].0 == page {
            self.tlb[set].1
        } else {
            match self.mem.slot_of(page) {
                Some(slot) => {
                    self.tlb[set] = (page, slot);
                    slot
                }
                // Never-written page: reads as zero, nothing to cache.
                None => return 0,
            }
        };
        let mut le = [0u8; 8];
        le[..w].copy_from_slice(&self.mem.page_bytes(slot)[off..off + w]);
        u64::from_le_bytes(le)
    }

    /// Within-page store through the page-translation cache.
    #[inline(always)]
    fn fast_write(&mut self, addr: u64, w: usize, off: usize, value: u64) {
        let page = addr >> PAGE_SHIFT;
        let set = (page as usize) & (TLB_SETS - 1);
        let slot = if self.tlb[set].0 == page {
            self.tlb[set].1
        } else {
            let slot = self.mem.slot_for_write(page);
            self.tlb[set] = (page, slot);
            slot
        };
        self.mem.page_bytes_mut(slot)[off..off + w].copy_from_slice(&value.to_le_bytes()[..w]);
    }

    /// One architectural load: effective address from `base` + `imm`,
    /// within-page fast path with a straddle fallback, then width
    /// extension. Returns `(addr, value)`.
    #[inline(always)]
    fn load_val(&mut self, base: u8, imm: i64, width: u8, sext: bool) -> (u64, u64) {
        let a = self.reg(base).wrapping_add(imm as u64);
        let off = (a as usize) & (PAGE_SIZE - 1);
        let w = usize::from(width);
        let raw = if off + w <= PAGE_SIZE {
            self.fast_read(a, w, off)
        } else {
            self.mem.read(a, width)
        };
        let v = if sext {
            match width {
                1 => raw as u8 as i8 as i64 as u64,
                2 => raw as u16 as i16 as i64 as u64,
                _ => raw as u32 as i32 as i64 as u64,
            }
        } else {
            raw
        };
        (a, v)
    }

    /// One architectural store; returns the effective address.
    #[inline(always)]
    fn store_val(&mut self, base: u8, imm: i64, width: u8, value: u64) -> u64 {
        let a = self.reg(base).wrapping_add(imm as u64);
        let off = (a as usize) & (PAGE_SIZE - 1);
        let w = usize::from(width);
        if off + w <= PAGE_SIZE {
            self.fast_write(a, w, off, value);
        } else {
            self.mem.write(a, width, value);
        }
        a
    }

    /// The architectural register file (the sink slot is not visible).
    pub fn regs(&self) -> &[u64; NUM_REGS] {
        self.regs[..NUM_REGS]
            .try_into()
            .expect("backing store holds at least NUM_REGS slots")
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether a `halt` has been executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Read-only view of memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Sets a register; writes to `x0` are ignored, as in hardware.
    pub fn set_reg(&mut self, index: usize, value: u64) {
        if index != 0 {
            self.regs[index] = value;
        }
    }

    /// Reads a register. The `& 63` mask is a no-op for indices produced
    /// by lowering ([`crate::Reg`] guarantees `< 64`); it lets the
    /// compiler drop the bounds check from the hot loop.
    #[inline(always)]
    fn reg(&self, r: u8) -> u64 {
        self.regs[usize::from(r & 63)]
    }

    /// Writes a destination slot unconditionally. `rd` must already be
    /// remapped ([`remap_rd`]): `x0` destinations hit the sink slot, so
    /// no branch is needed and architectural `x0` stays zero.
    #[inline(always)]
    fn set_rd(&mut self, rd: u8, v: u64) {
        self.regs[usize::from(rd) & (REG_SLOTS - 1)] = v;
    }

    /// Executes exactly one instruction at `pc` (the caller has checked
    /// `!self.halted`), emitting a [`DynInst`] to `sink` for everything
    /// except `halt`, and returning the next pc. Architectural register,
    /// memory and halt state update here; the pc and the executed count
    /// stay with the caller, so the hot `run` loops carry them in
    /// registers instead of storing through `self` every instruction.
    /// Mirrors [`crate::Machine::step`] state-for-state.
    #[inline(always)]
    fn dispatch_at<S: Sink>(&mut self, pc: u64, sink: &mut S) -> Result<u64, ExecError> {
        let Some(&p) = self.pre.ops.get(pc as usize) else {
            return Err(ExecError::PcOutOfRange {
                pc,
                len: self.pre.ops.len(),
            });
        };

        macro_rules! compute {
            ($v:expr) => {{
                let v = $v;
                self.set_rd(p.rd, v);
                if S::RECORD {
                    sink.emit(DynInst {
                        seq: 0,
                        pc,
                        inst: self.pre.insts[pc as usize],
                        next_pc: pc + 1,
                        addr: None,
                        taken: None,
                        rd_value: Some(v),
                        store_value: None,
                    });
                }
                pc + 1
            }};
        }
        macro_rules! branch {
            ($t:expr) => {{
                let t = $t;
                let next_pc = if t { p.imm as u64 } else { pc + 1 };
                if S::RECORD {
                    sink.emit(DynInst {
                        seq: 0,
                        pc,
                        inst: self.pre.insts[pc as usize],
                        next_pc,
                        addr: None,
                        taken: Some(t),
                        rd_value: None,
                        store_value: None,
                    });
                }
                next_pc
            }};
        }

        // Compute and branch arms call [`alu_val`]/[`cond_val`] with a
        // constant kind: the inner match folds to the one expression, so
        // this stays a single jump table while the semantics live in one
        // place.
        macro_rules! alu {
            ($k:expr) => {
                compute!(alu_val($k, self.reg(p.rs1), self.reg(p.rs2), p.imm))
            };
        }
        macro_rules! br {
            ($k:expr) => {
                branch!(cond_val($k, self.reg(p.rs1), self.reg(p.rs2)))
            };
        }
        macro_rules! ld {
            ($w:expr, $sx:expr) => {{
                let (a, v) = self.load_val(p.rs1, p.imm, $w, $sx);
                self.set_rd(p.rd, v);
                if S::RECORD {
                    sink.emit(DynInst {
                        seq: 0,
                        pc,
                        inst: self.pre.insts[pc as usize],
                        next_pc: pc + 1,
                        addr: Some(a),
                        taken: None,
                        rd_value: Some(v),
                        store_value: None,
                    });
                }
                pc + 1
            }};
        }
        macro_rules! st {
            ($w:expr) => {{
                let v = self.reg(p.rs2);
                let a = self.store_val(p.rs1, p.imm, $w, v);
                if S::RECORD {
                    sink.emit(DynInst {
                        seq: 0,
                        pc,
                        inst: self.pre.insts[pc as usize],
                        next_pc: pc + 1,
                        addr: Some(a),
                        taken: None,
                        rd_value: None,
                        store_value: Some(v),
                    });
                }
                pc + 1
            }};
        }

        Ok(match p.kind {
            Kind::Add => alu!(Kind::Add),
            Kind::Sub => alu!(Kind::Sub),
            Kind::And => alu!(Kind::And),
            Kind::Or => alu!(Kind::Or),
            Kind::Xor => alu!(Kind::Xor),
            Kind::Sll => alu!(Kind::Sll),
            Kind::Srl => alu!(Kind::Srl),
            Kind::Sra => alu!(Kind::Sra),
            Kind::Slt => alu!(Kind::Slt),
            Kind::Sltu => alu!(Kind::Sltu),
            Kind::Mul => alu!(Kind::Mul),
            Kind::Addi => alu!(Kind::Addi),
            Kind::Andi => alu!(Kind::Andi),
            Kind::Ori => alu!(Kind::Ori),
            Kind::Xori => alu!(Kind::Xori),
            Kind::Slli => alu!(Kind::Slli),
            Kind::Srli => alu!(Kind::Srli),
            Kind::Srai => alu!(Kind::Srai),
            Kind::Slti => alu!(Kind::Slti),
            Kind::Li => alu!(Kind::Li),
            Kind::FAdd => alu!(Kind::FAdd),
            Kind::FSub => alu!(Kind::FSub),
            Kind::FMul => alu!(Kind::FMul),
            Kind::FDiv => alu!(Kind::FDiv),
            Kind::FSqrt => alu!(Kind::FSqrt),
            Kind::FMin => alu!(Kind::FMin),
            Kind::FMax => alu!(Kind::FMax),
            Kind::FCvtIF => alu!(Kind::FCvtIF),
            Kind::FCvtFI => alu!(Kind::FCvtFI),
            Kind::FLt => alu!(Kind::FLt),
            Kind::FEq => alu!(Kind::FEq),
            Kind::Div => alu!(Kind::Div),
            Kind::Rem => alu!(Kind::Rem),
            Kind::Lb => ld!(1, true),
            Kind::Lbu => ld!(1, false),
            Kind::Lh => ld!(2, true),
            Kind::Lhu => ld!(2, false),
            Kind::Lw => ld!(4, true),
            Kind::Lwu => ld!(4, false),
            Kind::Ld8 => ld!(8, false),
            Kind::Sb => st!(1),
            Kind::Sh => st!(2),
            Kind::Sw => st!(4),
            Kind::Sd8 => st!(8),
            Kind::Beq => br!(Kind::Beq),
            Kind::Bne => br!(Kind::Bne),
            Kind::Blt => br!(Kind::Blt),
            Kind::Bge => br!(Kind::Bge),
            Kind::Bltu => br!(Kind::Bltu),
            Kind::Bgeu => br!(Kind::Bgeu),
            Kind::Jal => {
                let link = pc + 1;
                self.set_rd(p.rd, link);
                let next_pc = p.imm as u64;
                if S::RECORD {
                    sink.emit(DynInst {
                        seq: 0,
                        pc,
                        inst: self.pre.insts[pc as usize],
                        next_pc,
                        addr: None,
                        taken: None,
                        rd_value: Some(link),
                        store_value: None,
                    });
                }
                next_pc
            }
            Kind::Jalr => {
                let link = pc + 1;
                let next_pc = self.reg(p.rs1).wrapping_add(p.imm as u64);
                self.set_rd(p.rd, link);
                if S::RECORD {
                    sink.emit(DynInst {
                        seq: 0,
                        pc,
                        inst: self.pre.insts[pc as usize],
                        next_pc,
                        addr: None,
                        taken: None,
                        rd_value: Some(link),
                        store_value: None,
                    });
                }
                next_pc
            }
            Kind::Nop => {
                if S::RECORD {
                    sink.emit(DynInst {
                        seq: 0,
                        pc,
                        inst: self.pre.insts[pc as usize],
                        next_pc: pc + 1,
                        addr: None,
                        taken: None,
                        rd_value: None,
                        store_value: None,
                    });
                }
                pc + 1
            }
            Kind::Halt => {
                // Like the oracle: the pc stays on the halt, no record.
                self.halted = true;
                pc
            }
        })
    }

    /// Executes one instruction, mirroring [`crate::Machine::step`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::PcOutOfRange`] if the pc points outside the
    /// program (e.g. a wild `jalr`).
    pub fn step(&mut self) -> Result<StepOutcome, ExecError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let mut sink = OneSink(None);
        let next = self.dispatch_at(pc, &mut sink)?;
        self.pc = next;
        self.executed += 1;
        Ok(StepOutcome::Executed(match sink.0 {
            Some(d) => ExecInfo {
                pc: d.pc,
                inst: d.inst,
                next_pc: d.next_pc,
                addr: d.addr,
                rd_value: d.rd_value,
                store_value: d.store_value,
                taken: d.taken,
            },
            // The halt step: executed but never emitted as a record.
            None => ExecInfo {
                pc,
                inst: self.pre.insts[pc as usize],
                next_pc: pc,
                addr: None,
                rd_value: None,
                store_value: None,
                taken: None,
            },
        }))
    }

    /// Runs until `halt` or until `limit` instructions have executed,
    /// without building any per-instruction records — the fastest way to
    /// functionally execute a program to completion.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StepLimit`] if the limit is reached first, or
    /// [`ExecError::PcOutOfRange`] on a wild jump.
    pub fn run(&mut self, limit: u64) -> Result<u64, ExecError> {
        let mut pc = self.pc;
        let mut n = 0u64;
        let res = loop {
            if self.halted {
                break Ok(n);
            }
            if n >= limit {
                break Err(ExecError::StepLimit { limit });
            }
            match self.dispatch_at(pc, &mut NullSink) {
                Ok(next) => {
                    pc = next;
                    n += 1;
                }
                Err(e) => break Err(e),
            }
        };
        self.pc = pc;
        self.executed += n;
        res
    }

    /// Runs until `halt`, appending one [`DynInst`] per committed
    /// instruction to `out` (dense `seq` continuing from `out.len()`; the
    /// trailing `halt` executes but is not recorded). This is the engine
    /// under [`crate::trace_program`] and reproduces its record stream and
    /// truncation behaviour exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] if more than `limit` instructions
    /// would be recorded, or [`TraceError::Exec`] on a wild jump.
    pub fn run_trace(&mut self, limit: u64, out: &mut Vec<DynInst>) -> Result<(), TraceError> {
        let mut sink = VecSink {
            seq: out.len() as u64,
            out,
        };
        let mut pc = self.pc;
        let mut n = 0u64;
        let res = loop {
            if sink.seq >= limit {
                break Err(TraceError::Truncated { limit });
            }
            if self.halted {
                break Ok(());
            }
            match self.dispatch_at(pc, &mut sink) {
                Ok(next) => {
                    pc = next;
                    n += 1;
                }
                Err(e) => break Err(TraceError::Exec(e)),
            }
            if self.halted {
                break Ok(());
            }
        };
        self.pc = pc;
        self.executed += n;
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::machine::Machine;

    /// Steps both machines to completion and asserts lockstep agreement on
    /// every `ExecInfo`, the final register file and the executed count.
    fn assert_lockstep(src: &str) {
        let p = assemble(src).expect("assembles");
        let pre = PreProgram::new(&p);
        let mut reference = Machine::new(&p);
        let mut threaded = ThreadedMachine::new(&pre);
        for step in 0..200_000u64 {
            let a = reference.step();
            let b = threaded.step();
            assert_eq!(a, b, "step {step} diverged");
            if matches!(a, Ok(StepOutcome::Halted) | Err(_)) {
                break;
            }
        }
        assert_eq!(reference.regs(), threaded.regs());
        assert_eq!(reference.pc(), threaded.pc());
        assert_eq!(reference.executed(), threaded.executed());
        assert_eq!(reference.is_halted(), threaded.is_halted());
    }

    #[test]
    fn lockstep_alu_and_control() {
        assert_lockstep(
            r#"
                li   x1, 7
                li   x2, 0
            loop:
                add  x2, x2, x1
                slli x3, x2, 2
                srai x4, x3, 1
                sltu x5, x4, x2
                addi x1, x1, -1
                bne  x1, x0, loop
                jal  x6, done
                li   x7, 111
            done:
                halt
            "#,
        );
    }

    #[test]
    fn lockstep_memory_all_widths() {
        assert_lockstep(
            r#"
                li  x1, 0x1ffd   # deliberately page-straddling base
                li  x2, -1
                sd  x2, 0(x1)
                ld  x3, 0(x1)
                sw  x2, 8(x1)
                lw  x4, 8(x1)
                lwu x5, 8(x1)
                sh  x2, 16(x1)
                lh  x6, 16(x1)
                lhu x7, 16(x1)
                sb  x2, 24(x1)
                lb  x8, 24(x1)
                lbu x9, 24(x1)
                halt
            "#,
        );
    }

    #[test]
    fn lockstep_cold_compute() {
        assert_lockstep(
            r#"
                li        x1, -9
                li        x2, 0
                div       x3, x1, x2
                rem       x4, x1, x2
                li        x2, 4
                div       x5, x1, x2
                fcvt.d.l  f1, x1
                fsqrt     f2, f1
                fadd      f3, f1, f2
                fdiv      f4, f3, f1
                fcvt.l.d  x6, f4
                flt       x7, f1, f2
                halt
            "#,
        );
    }

    #[test]
    fn wild_jump_matches_oracle_error() {
        let p = assemble("jal x0, 999").unwrap();
        let pre = PreProgram::new(&p);
        let mut m = ThreadedMachine::new(&pre);
        m.step().unwrap();
        assert_eq!(m.step(), Err(ExecError::PcOutOfRange { pc: 999, len: 1 }));
    }

    #[test]
    fn run_reports_step_limit_like_oracle() {
        let p = assemble("loop: jal x0, loop").unwrap();
        let pre = PreProgram::new(&p);
        let mut m = ThreadedMachine::new(&pre);
        assert_eq!(m.run(100), Err(ExecError::StepLimit { limit: 100 }));
    }

    #[test]
    fn data_segment_is_loaded() {
        let p = assemble(
            r#"
            .data 0x100
            .word 0xdeadbeef
            .text
                li x1, 0x100
                lwu x2, 0(x1)
                halt
            "#,
        );
        // The assembler may not support data directives; fall back to a
        // store-driven check if so.
        if let Ok(p) = p {
            let pre = PreProgram::new(&p);
            let mut m = ThreadedMachine::new(&pre);
            let mut r = Machine::new(&p);
            m.run(100).unwrap();
            r.run(100).unwrap();
            assert_eq!(m.regs(), r.regs());
        }
    }

    #[test]
    fn run_trace_matches_reference_trace_generation() {
        let src = r#"
            li  x1, 2
            li  x2, 0x100
        loop:
            sd  x1, 0(x2)
            ld  x3, 0(x2)
            addi x1, x1, -1
            bne x1, x0, loop
            halt
        "#;
        let p = assemble(src).unwrap();
        // Reference stream straight off the oracle.
        let mut machine = Machine::new(&p);
        let mut want = Vec::new();
        let mut seq = 0u64;
        loop {
            match machine.step().unwrap() {
                StepOutcome::Halted => break,
                StepOutcome::Executed(info) => {
                    if info.inst.op == Op::Halt {
                        break;
                    }
                    want.push(DynInst {
                        seq,
                        pc: info.pc,
                        inst: info.inst,
                        next_pc: info.next_pc,
                        addr: info.addr,
                        taken: info.taken,
                        rd_value: info.rd_value,
                        store_value: info.store_value,
                    });
                    seq += 1;
                }
            }
        }
        let pre = PreProgram::new(&p);
        let mut m = ThreadedMachine::new(&pre);
        let mut got = Vec::new();
        m.run_trace(1_000, &mut got).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn run_trace_truncation_matches_trace_program() {
        let p = assemble("loop: jal x0, loop").unwrap();
        let pre = PreProgram::new(&p);
        let mut m = ThreadedMachine::new(&pre);
        let mut out = Vec::new();
        assert_eq!(
            m.run_trace(50, &mut out),
            Err(TraceError::Truncated { limit: 50 })
        );
    }

    #[test]
    fn lowering_is_total_over_the_isa() {
        use crate::reg::Reg;
        for op in Op::all() {
            let inst = Inst {
                op,
                rd: Reg::from_index(3).unwrap(),
                rs1: Reg::from_index(4).unwrap(),
                rs2: Reg::from_index(5).unwrap(),
                imm: 7,
            };
            let p = lower(inst);
            assert_eq!(p.rd, 3);
            assert_eq!(p.rs1, 4);
            assert_eq!(p.rs2, 5);
            assert_eq!(p.imm, 7);
        }
    }

    #[test]
    fn hot_op_entries_stay_within_sixteen_bytes() {
        // The plain `run` loop streams one PreInst per dynamic
        // instruction; the cold Inst copy lives in a parallel array.
        assert!(std::mem::size_of::<PreInst>() <= 16);
    }

    /// Runs `run(limit)` on both machines for every limit in `limits` and
    /// asserts identical outcome, register file, pc and executed count.
    fn assert_run_parity(src: &str, limits: &[u64]) {
        let p = assemble(src).expect("assembles");
        let pre = PreProgram::new(&p);
        for &limit in limits {
            let mut reference = Machine::new(&p);
            let mut threaded = ThreadedMachine::new(&pre);
            let a = reference.run(limit);
            let b = threaded.run(limit);
            assert_eq!(a, b, "run({limit}) outcome diverged");
            assert_eq!(reference.regs(), threaded.regs(), "run({limit}) regs");
            assert_eq!(reference.pc(), threaded.pc(), "run({limit}) pc");
            assert_eq!(
                reference.executed(),
                threaded.executed(),
                "run({limit}) executed"
            );
        }
    }

    #[test]
    fn run_matches_oracle_at_every_limit() {
        // A compute/load/store body inside a counted loop; every limit up
        // to and past the halt must stop on exactly that instruction.
        let src = r#"
                li   x1, 4
                li   x2, 0x200
            loop:
                addi x3, x1, 5
                add  x4, x3, x3
                sd   x4, 0(x2)
                ld   x5, 0(x2)
                xor  x6, x5, x1
                addi x1, x1, -1
                bne  x1, x0, loop
                halt
        "#;
        let limits: Vec<u64> = (0..40).chain([100, 1_000]).collect();
        assert_run_parity(src, &limits);
    }

    #[test]
    fn run_feeds_each_result_to_the_next_instruction() {
        // Each instruction consumes its predecessor's destination, so it
        // must see the just-written value, not a stale copy. The oracle
        // run pins the values.
        assert_run_parity(
            r#"
                li   x1, 3
                li   x2, 0x300
            loop:
                addi x3, x1, 7
                slli x4, x3, 2
                add  x4, x4, x4
                sd   x4, 0(x2)
                ld   x5, 0(x2)
                addi x5, x5, 1
                addi x1, x1, -1
                bne  x1, x0, loop
                halt
            "#,
            &[u64::MAX],
        );
    }

    #[test]
    fn run_x0_destination_stays_zero() {
        // A write targeting x0 lands in the sink slot; the next
        // instruction reading x0 must still see zero.
        assert_run_parity(
            r#"
                li   x1, 41
                addi x0, x1, 1
                add  x2, x0, x1
                addi x0, x2, 9
                or   x3, x0, x0
                halt
            "#,
            &[u64::MAX, 3, 4, 5],
        );
    }

    #[test]
    fn run_store_ignores_rd() {
        // Handwritten (non-assembler) stores can carry rd != x0; the
        // oracle ignores a store's rd, so `run` must not write the stored
        // value into rd.
        use crate::reg::Reg;
        let r = |i: u8| Reg::from_index(i).unwrap();
        let mk = |op, rd: u8, rs1: u8, rs2: u8, imm: i64| Inst {
            op,
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
            imm,
        };
        let p = Program {
            insts: vec![
                mk(Op::Li, 1, 0, 0, 0x77),
                mk(Op::Li, 2, 0, 0, 0x400),
                // sd with rd = x3: oracle leaves x3 untouched.
                mk(Op::Sd, 3, 2, 1, 0),
                mk(Op::Add, 4, 3, 1, 0),
                mk(Op::Halt, 0, 0, 0, 0),
            ],
            entry: 0,
            data: vec![],
        };
        let pre = PreProgram::new(&p);
        let mut reference = Machine::new(&p);
        let mut threaded = ThreadedMachine::new(&pre);
        reference.run(100).unwrap();
        threaded.run(100).unwrap();
        assert_eq!(reference.regs(), threaded.regs());
        assert_eq!(threaded.regs()[3], 0, "store rd leaked into x3");
    }
}
