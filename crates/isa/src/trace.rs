//! Dynamic (committed-path) trace generation.
//!
//! All timing models in the workspace are trace-driven: the functional
//! interpreter first executes the program, producing one [`DynInst`] per
//! committed instruction with resolved effective addresses, branch outcomes
//! and values. The timing models then replay this stream, charging cycles
//! for structural, dependence, branch and memory events. This is the same
//! methodology as the trace-driven simulator used in the paper.

use std::fmt;

use crate::inst::Inst;
use crate::machine::ExecError;
use crate::op::InstClass;
use crate::predecode::{PreProgram, ThreadedMachine};
use crate::program::Program;

/// One committed dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst {
    /// Position in the dynamic stream (0-based, dense).
    pub seq: u64,
    /// Static program counter (instruction index).
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Program counter of the next committed instruction.
    pub next_pc: u64,
    /// Effective address for loads and stores.
    pub addr: Option<u64>,
    /// Branch outcome for conditional branches.
    pub taken: Option<bool>,
    /// Value written to the destination register, if any.
    pub rd_value: Option<u64>,
    /// Value stored to memory, for stores.
    pub store_value: Option<u64>,
}

impl DynInst {
    /// Behaviour class of the instruction.
    pub fn class(&self) -> InstClass {
        self.inst.class()
    }

    /// Whether this dynamic instruction transferred control (taken branch,
    /// or any jump).
    pub fn redirects(&self) -> bool {
        self.taken == Some(true) || self.class() == InstClass::Jump
    }
}

impl fmt::Display for DynInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>7}] pc={:<6} {}", self.seq, self.pc, self.inst)?;
        if let Some(a) = self.addr {
            write!(f, "  @0x{a:x}")?;
        }
        if let Some(t) = self.taken {
            write!(f, "  {}", if t { "taken" } else { "not-taken" })?;
        }
        Ok(())
    }
}

/// Error from trace generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The functional execution faulted.
    Exec(ExecError),
    /// The program did not halt within the instruction budget.
    Truncated {
        /// The instruction budget that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Exec(e) => write!(f, "functional execution failed: {e}"),
            TraceError::Truncated { limit } => {
                write!(
                    f,
                    "program did not halt within the {limit}-instruction trace budget"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Exec(e) => Some(e),
            TraceError::Truncated { .. } => None,
        }
    }
}

impl From<ExecError> for TraceError {
    fn from(e: ExecError) -> Self {
        TraceError::Exec(e)
    }
}

/// A committed-path dynamic trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    insts: Vec<DynInst>,
}

impl Trace {
    /// Wraps an already-materialized instruction stream (e.g. one
    /// translated from another frontend) as a trace. The caller vouches
    /// that `insts` is a committed path in commit order with dense `seq`
    /// numbers.
    pub fn from_insts(insts: Vec<DynInst>) -> Trace {
        Trace { insts }
    }

    /// Unwraps the instruction stream, allocation included.
    pub fn into_insts(self) -> Vec<DynInst> {
        self.insts
    }

    /// The dynamic instructions, in commit order.
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Count of dynamic instructions in the given class.
    pub fn count_class(&self, class: InstClass) -> usize {
        self.insts.iter().filter(|d| d.class() == class).count()
    }

    /// Fraction of dynamic instructions in the given class (0 for an empty
    /// trace).
    pub fn class_fraction(&self, class: InstClass) -> f64 {
        if self.insts.is_empty() {
            0.0
        } else {
            self.count_class(class) as f64 / self.insts.len() as f64
        }
    }
}

impl std::ops::Index<usize> for Trace {
    type Output = DynInst;

    fn index(&self, i: usize) -> &DynInst {
        &self.insts[i]
    }
}

/// Functionally executes `program` and returns its committed-path trace.
///
/// The trailing `halt` is executed (so the machine state is final) but not
/// recorded: timing models only see real work. The program runs twice —
/// first untraced, to count, then recording into a buffer allocated at
/// that count — so the trace never holds the up-to-2× slack of a `Vec`
/// grown by doubling.
///
/// # Errors
///
/// Returns [`TraceError::Truncated`] if the program does not halt within
/// `limit` dynamic instructions, or [`TraceError::Exec`] if execution
/// faults.
///
/// ```
/// use fgstp_isa::{assemble, trace_program};
///
/// let p = assemble("li x1, 2\nadd x1, x1, x1\nhalt")?;
/// let t = trace_program(&p, 100)?;
/// assert_eq!(t.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn trace_program(program: &Program, limit: u64) -> Result<Trace, TraceError> {
    let pre = PreProgram::new(program);
    // Counts the halt too: one slot of slack.
    let executed = match ThreadedMachine::new(&pre).run(limit) {
        Ok(n) => n,
        Err(ExecError::StepLimit { .. }) => return Err(TraceError::Truncated { limit }),
        Err(e) => return Err(TraceError::Exec(e)),
    };
    let mut insts = Vec::with_capacity(executed as usize);
    ThreadedMachine::new(&pre).run_trace(limit, &mut insts)?;
    Ok(Trace { insts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn trace_records_branch_outcomes_and_addresses() {
        let p = assemble(
            r#"
                li  x1, 2
                li  x2, 0x100
            loop:
                sd  x1, 0(x2)
                ld  x3, 0(x2)
                addi x1, x1, -1
                bne x1, x0, loop
                halt
            "#,
        )
        .unwrap();
        let t = trace_program(&p, 1000).unwrap();
        // 2 setup + 2 iterations of 4 instructions
        assert_eq!(t.len(), 10);
        let branches: Vec<_> = t.insts().iter().filter(|d| d.taken.is_some()).collect();
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].taken, Some(true));
        assert_eq!(branches[1].taken, Some(false));
        let stores = t.count_class(InstClass::Store);
        assert_eq!(stores, 2);
        assert!(t
            .insts()
            .iter()
            .filter(|d| d.class().is_mem())
            .all(|d| d.addr == Some(0x100)));
    }

    #[test]
    fn halt_is_not_recorded() {
        let p = assemble("halt").unwrap();
        let t = trace_program(&p, 10).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn seq_is_dense_and_ordered() {
        let p = assemble("li x1, 1\nli x2, 2\nli x3, 3\nhalt").unwrap();
        let t = trace_program(&p, 10).unwrap();
        for (i, d) in t.insts().iter().enumerate() {
            assert_eq!(d.seq, i as u64);
        }
    }

    #[test]
    fn truncation_is_reported() {
        let p = assemble("loop: jal x0, loop").unwrap();
        assert_eq!(
            trace_program(&p, 50),
            Err(TraceError::Truncated { limit: 50 })
        );
    }

    #[test]
    fn class_fraction_sums_to_one() {
        let p = assemble(
            r#"
                li x1, 5
                li x2, 0x40
                sd x1, 0(x2)
                ld x3, 0(x2)
                add x4, x3, x1
                bne x4, x0, 6
                halt
            "#,
        )
        .unwrap();
        let t = trace_program(&p, 100).unwrap();
        let total: f64 = InstClass::ALL.iter().map(|&c| t.class_fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
