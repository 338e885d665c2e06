//! # fgstp-sim
//!
//! Simulation driver for the Fg-STP reproduction. The primary entry point
//! is the [`Session`] builder: it owns workload tracing, an on-disk
//! live-point cache, and a fixed-size worker pool that runs the
//! (workload, machine) job matrix in parallel while keeping results in
//! deterministic request order.
//!
//! ```no_run
//! use fgstp_sim::{MachineKind, Scale, Session};
//!
//! let session = Session::new()
//!     .scale(Scale::Test)
//!     .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
//!     .threads(4);
//! for bench in session.run_suite() {
//!     println!("{}: {} runs", bench.name, bench.runs.len());
//! }
//! ```
//!
//! Finer-grained plans restrict the matrix before executing:
//!
//! ```no_run
//! use fgstp_sim::{MachineKind, Session};
//!
//! let results = Session::new()
//!     .machines(MachineKind::SMALL_CMP)
//!     .plan()
//!     .workload_names(&["gcc_expr", "mcf_pointer"])
//!     .execute();
//! # let _ = results;
//! ```
//!
//! The [`ExperimentSpec`] type names a whole experiment (workloads ×
//! machines × scale × sampling × telemetry) as one validated value, and
//! a `Session` is the thing that runs one; it is the shared currency of
//! the experiment binaries, the `fgstpsim` CLI, and the `fgstpd` batch
//! daemon. A spec travels as its flags ([`ExperimentSpec::to_args`] is
//! the canonical list [`ExperimentSpec::from_args`] reads back), the
//! daemon's dedup key is the normalized flag list, and a spec runs its
//! workloads in one order everywhere
//! ([`ExperimentSpec::workload_names`]):
//!
//! ```no_run
//! use fgstp_sim::ExperimentSpec;
//!
//! let spec = ExperimentSpec::from_args(&[
//!     "test",
//!     "--workloads=perl_hash,hmmer_dp",
//!     "--machines=small-cmp",
//! ]).unwrap();
//! let results = spec.run().unwrap();
//! # let _ = results;
//! ```
//!
//! The per-trace primitives ([`run_on`], [`runner::trace_workload`])
//! remain available for custom sweeps. Table rendering for the
//! experiment harness lives in [`report`].

pub mod cli;
pub mod energy;
pub mod presets;
pub mod profile;
pub mod report;
pub mod runner;
pub mod session;
pub mod spec;

pub use fgstp_sampling::{geomean_estimate, Estimate, SampleConfig, SampledRun, WindowPool};
pub use fgstp_telemetry::{write_chrome_trace, CpiStack, Episode, StallCategory};
pub use fgstp_workloads::{Scale, SuiteClass, Workload};
pub use presets::MachineKind;
pub use report::{cpi_stack_table, speedup_rows, speedup_table, SpeedupSummary, Table};
pub use runner::{
    geomean, run_on, run_on_corun, run_on_instrumented, run_on_instrumented_with_cores,
    run_on_sampled, run_on_with_cores, BenchResult, CoRunInfo, MachineRun,
};
pub use session::{CacheStats, RunPlan, Session, SnapshotStats};
pub use spec::{CoRunProgramSpec, CoRunSpec, ExperimentSpec, SpecError, SpecErrorKind};
