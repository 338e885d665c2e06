//! # fgstp-workloads
//!
//! The benchmark suite for the Fg-STP reproduction.
//!
//! The paper evaluates on SPEC CPU2006, which we cannot redistribute or
//! execute inside a from-scratch ISA. Instead this crate provides eighteen
//! *self-checking synthetic kernels*, one per SPEC-2006-like behaviour
//! class — pointer chasing (`mcf`), streaming (`libquantum`, `lbm`),
//! high-ILP loop nests (`hmmer`, `h264`), unpredictable branches
//! (`gobmk`, `sjeng`), FP dense compute (`milc`, `namd`), and so on. What
//! Fg-STP exploits (or suffers from) is the *structure* of the dynamic
//! instruction stream — dependence-chain depth, branch predictability,
//! memory-level parallelism — and each kernel reproduces its class's
//! structure. See `DESIGN.md` for the substitution rationale.
//!
//! Alongside the synthetic kernels, [`rv_suite`] provides five *real*
//! RV32IM programs (`rv:`-prefixed names) assembled and executed by the
//! `fgstp-rv` frontend and translated into the same dynamic-stream
//! format — see [`WorkloadSource`].
//!
//! Every kernel writes a checksum to [`CHECKSUM_ADDR`] before halting, so
//! functional correctness of any machine model can be asserted against the
//! reference interpreter.
//!
//! ```
//! use fgstp_workloads::{suite, Scale};
//!
//! let workloads = suite(Scale::Test);
//! assert_eq!(workloads.len(), 18);
//! let mcf = workloads.iter().find(|w| w.name == "mcf_pointer").unwrap();
//! let checksum = mcf.run_reference()?;
//! assert_ne!(checksum, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod gen;
pub mod kernels;

pub use kernels::rv_expected_checksum;

use fgstp_isa::{Machine, Program, Trace};
use fgstp_rv::{RvMachine, RvProgram};

/// Address at which every kernel stores its checksum (64-bit for SimRISC
/// kernels, 32-bit for RV32 programs — [`Workload::run_reference`] reads
/// it zero-extended either way).
pub const CHECKSUM_ADDR: u64 = 0x10_0000;

/// Benchmark suite class, mirroring SPECint/SPECfp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteClass {
    /// Integer workload.
    Int,
    /// Floating-point workload.
    Fp,
}

impl std::fmt::Display for SuiteClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SuiteClass::Int => "int",
            SuiteClass::Fp => "fp",
        })
    }
}

/// Input scale, controlling dynamic instruction counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// A few thousand dynamic instructions — unit/integration tests.
    Test,
    /// Tens of thousands — experiment runs.
    Small,
    /// Low hundreds of thousands — the recorded evaluation numbers.
    Reference,
}

impl Scale {
    /// Nominal iteration multiplier for this scale.
    pub fn factor(self) -> usize {
        match self {
            Scale::Test => 1,
            Scale::Small => 8,
            Scale::Reference => 32,
        }
    }

    /// A generous dynamic-instruction budget for tracing at this scale.
    pub fn trace_budget(self) -> u64 {
        match self {
            Scale::Test => 2_000_000,
            Scale::Small => 8_000_000,
            Scale::Reference => 32_000_000,
        }
    }
}

/// The program a workload executes, tagged by frontend.
///
/// The simulator pipeline is frontend-agnostic: both variants produce a
/// SimRISC [`Trace`] via [`Workload::try_trace`], and everything
/// downstream (timing models, sampling, the service) consumes that. The
/// tag matters only at trace-generation time and for live-point cache
/// identity (live-points warmed from translated RV traces carry
/// [`fgstp_rv::TRANSLATION_VERSION`] in their keys).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// A synthetic SimRISC kernel, executed by [`fgstp_isa::Machine`].
    Synthetic(Program),
    /// A real RV32IM program, executed by [`fgstp_rv::RvMachine`] and
    /// translated (see `fgstp_rv::translate`).
    Rv32(RvProgram),
}

/// One benchmark: a program plus its identity.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short kernel name (e.g. `"mcf_pointer"`, `"rv:quicksort"`).
    pub name: &'static str,
    /// The SPEC CPU2006 benchmark whose behaviour class it models, or
    /// the real algorithm for RV32 programs.
    pub models: &'static str,
    /// Suite class.
    pub suite: SuiteClass,
    /// One-line behaviour description.
    pub description: &'static str,
    /// The assembled program, tagged by frontend.
    pub source: WorkloadSource,
}

impl Workload {
    /// The SimRISC program of a synthetic kernel.
    ///
    /// # Panics
    ///
    /// Panics for RV32 workloads — call sites that reach directly into
    /// SimRISC internals (the functional interpreters, warm-up replay
    /// benchmarks) are synthetic-only by construction; everything else
    /// should go through [`Workload::try_trace`].
    pub fn program(&self) -> &Program {
        match &self.source {
            WorkloadSource::Synthetic(p) => p,
            WorkloadSource::Rv32(_) => {
                panic!(
                    "workload {} is an RV32 program, not a SimRISC kernel",
                    self.name
                )
            }
        }
    }

    /// Short frontend tag: `"syn"` for synthetic SimRISC kernels,
    /// `"rv"` for RV32 programs. Used in live-point cache keys.
    pub fn frontend(&self) -> &'static str {
        match self.source {
            WorkloadSource::Synthetic(_) => "syn",
            WorkloadSource::Rv32(_) => "rv",
        }
    }

    /// Traces the workload's committed dynamic stream, whichever
    /// frontend it comes from, within `budget` instructions.
    ///
    /// # Errors
    ///
    /// A displayable message if the program faults or exceeds `budget`.
    pub fn try_trace(&self, budget: u64) -> Result<Trace, String> {
        match &self.source {
            WorkloadSource::Synthetic(p) => {
                fgstp_isa::trace_program(p, budget).map_err(|e| e.to_string())
            }
            WorkloadSource::Rv32(p) => fgstp_rv::trace_rv(p, budget).map_err(|e| e.to_string()),
        }
    }

    /// Runs the workload on its frontend's reference interpreter and
    /// returns the checksum stored at [`CHECKSUM_ADDR`].
    ///
    /// # Errors
    ///
    /// A displayable message if the program faults or exceeds the
    /// reference step budget (which would be a kernel bug).
    pub fn run_reference(&self) -> Result<u64, String> {
        match &self.source {
            WorkloadSource::Synthetic(p) => {
                let mut m = Machine::new(p);
                m.run(64_000_000).map_err(|e| e.to_string())?;
                Ok(m.mem().read(CHECKSUM_ADDR, 8))
            }
            WorkloadSource::Rv32(p) => {
                let mut m = RvMachine::new(p).map_err(|e| e.to_string())?;
                m.run(64_000_000).map_err(|e| e.to_string())?;
                Ok(m.read(CHECKSUM_ADDR as u32, 8))
            }
        }
    }
}

/// Builds the full 18-kernel suite at the given scale.
pub fn suite(scale: Scale) -> Vec<Workload> {
    kernels::all(scale)
}

/// Builds the long-run suite at the given scale: `*_long` variants of
/// representative kernels at roughly ten times their usual dynamic length,
/// plus the L2-overflowing `chase_long` pointer chase — the workload set
/// sampled simulation is validated on (see `fgstp-sampling`). Kept
/// separate from [`suite`] so the recorded full-detail figures are
/// unaffected.
pub fn long_suite(scale: Scale) -> Vec<Workload> {
    kernels::long_suite(scale)
}

/// Builds the RV32 real-program suite at the given scale: five classic
/// algorithms (`rv:quicksort`, `rv:matmul`, `rv:box_blur`,
/// `rv:prime_sieve`, `rv:crc32`) assembled from RV32IM source and fed
/// through the `fgstp-rv` frontend. Kept separate from [`suite`] so the
/// recorded synthetic-suite figures are unaffected; experiment E17
/// compares the two.
pub fn rv_suite(scale: Scale) -> Vec<Workload> {
    kernels::rv_suite(scale)
}

/// Looks up one kernel by name, searching the main suite, then the
/// long-run suite, then the RV32 suite (`rv:`-prefixed names).
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    // The prefix makes rv lookups cheap and collisions impossible.
    if name.starts_with("rv:") {
        return rv_suite(scale).into_iter().find(|w| w.name == name);
    }
    suite(scale)
        .into_iter()
        .find(|w| w.name == name)
        .or_else(|| long_suite(scale).into_iter().find(|w| w.name == name))
}

/// Every workload name resolvable by [`by_name`], in presentation order
/// (main suite, long-run suite, RV32 suite) — the canonical list for
/// "unknown workload" error messages.
pub fn all_names() -> Vec<&'static str> {
    suite(Scale::Test)
        .iter()
        .chain(long_suite(Scale::Test).iter())
        .chain(rv_suite(Scale::Test).iter())
        .map(|w| w.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eighteen_named_kernels() {
        let s = suite(Scale::Test);
        assert_eq!(s.len(), 18);
        let names: std::collections::HashSet<_> = s.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 18, "names are unique");
    }

    #[test]
    fn by_name_finds_kernels() {
        assert!(by_name("mcf_pointer", Scale::Test).is_some());
        assert!(by_name("nonexistent", Scale::Test).is_none());
    }

    #[test]
    fn by_name_reaches_the_long_suite() {
        let w = by_name("chase_long", Scale::Test).unwrap();
        assert_eq!(w.name, "chase_long");
        assert!(by_name("mcf_pointer_long", Scale::Test).is_some());
    }

    #[test]
    fn by_name_reaches_the_rv_suite() {
        let w = by_name("rv:quicksort", Scale::Test).unwrap();
        assert_eq!(w.frontend(), "rv");
        assert!(by_name("rv:nonexistent", Scale::Test).is_none());
    }

    #[test]
    fn all_names_covers_every_suite_and_stays_unique() {
        let names = all_names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(names.len(), unique.len(), "duplicate workload names");
        for probe in ["mcf_pointer", "chase_long", "rv:crc32"] {
            assert!(names.contains(&probe), "{probe} missing from all_names");
        }
        for n in &names {
            assert!(by_name(n, Scale::Test).is_some(), "{n} not resolvable");
        }
    }

    #[test]
    fn program_accessor_panics_only_for_rv_sources() {
        let syn = by_name("mcf_pointer", Scale::Test).unwrap();
        assert!(!syn.program().insts.is_empty());
        assert_eq!(syn.frontend(), "syn");
        let rv = by_name("rv:matmul", Scale::Test).unwrap();
        assert!(std::panic::catch_unwind(|| rv.program().clone()).is_err());
    }

    #[test]
    fn long_suite_does_not_change_the_main_suite() {
        assert_eq!(suite(Scale::Test).len(), 18);
        assert!(!long_suite(Scale::Test).is_empty());
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Test.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Reference.factor());
    }

    /// Traces are allocated at their final size: at most one spare slot
    /// (the unrecorded halt), never a `Vec` grown by doubling.
    #[test]
    fn traces_are_sized_exactly() {
        let all = suite(Scale::Test).into_iter().chain(rv_suite(Scale::Test));
        let mut n = 0;
        for w in all {
            let insts = w
                .try_trace(Scale::Test.trace_budget())
                .unwrap()
                .into_insts();
            let spare = insts.capacity() - insts.len();
            assert!(spare <= 1, "{}: {spare} spare slots", w.name);
            n += 1;
        }
        assert_eq!(n, 23, "18 suite kernels and 5 rv: programs");
    }

    #[test]
    fn suite_spans_both_classes() {
        let s = suite(Scale::Test);
        assert!(s.iter().any(|w| w.suite == SuiteClass::Int));
        assert!(s.iter().any(|w| w.suite == SuiteClass::Fp));
    }
}
