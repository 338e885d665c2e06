//! # fg-stp-repro
//!
//! Umbrella crate for the reproduction of **Fg-STP: Fine-Grain Single
//! Thread Partitioning on Multicores** (Ranjan, Latorre, Marcuello,
//! González — HPCA 2011).
//!
//! Fg-STP is a hardware-only scheme that reconfigures two conventional
//! out-of-order cores of a CMP to collaborate on fetching and executing a
//! *single* thread: the dynamic instruction stream is partitioned at
//! instruction granularity over a large lookahead window, cheap producers
//! are replicated instead of communicated, register values cross the cores
//! through dedicated queues, and loads speculate past remote stores.
//!
//! This crate re-exports the whole workspace behind one façade:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `fgstp-isa` | SimRISC ISA, assembler, functional interpreter, traces |
//! | [`rv`] | `fgstp-rv` | RV32IM frontend: assembler, emulator, trace translation |
//! | [`workloads`] | `fgstp-workloads` | 18 self-checking SPEC-2006-class kernels + 5 RV32 programs |
//! | [`mem`] | `fgstp-mem` | caches, MSHRs, prefetcher, two-level hierarchy |
//! | [`bpred`] | `fgstp-bpred` | direction predictors, BTB, return stack |
//! | [`ooo`] | `fgstp-ooo` | the cycle-level out-of-order core model |
//! | [`core`] | `fgstp` | the paper's contribution: partitioner, queues, dual-core machine |
//! | [`sampling`] | `fgstp-sampling` | SMARTS-style sampled simulation with functional warming |
//! | [`sim`] | `fgstp-sim` | machine presets, suite runner, report tables |
//! | [`telemetry`] | `fgstp-telemetry` | cycle accounting, CPI stacks, JSON, Chrome-trace export |
//! | [`tracefile`] | `fgstp-tracefile` | on-disk live-point cache, varint codec |
//! | [`service`] | `fgstp-service` | `fgstpd` batch daemon, `fgstp` client, wire protocol |
//!
//! ## Quickstart
//!
//! ```
//! use fg_stp_repro::prelude::*;
//!
//! // Run one workload on two machines of the small CMP. The session
//! // traces it once and fans the runs out over a worker pool.
//! let w = fg_stp_repro::workloads::by_name("hmmer_dp", Scale::Test).unwrap();
//! let bench = Session::new()
//!     .scale(Scale::Test)
//!     .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
//!     .run_workload(&w);
//! assert!(bench.speedup(MachineKind::FgstpSmall, MachineKind::SingleSmall) > 0.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the per-figure experiment harness.

pub use fgstp as core;
pub use fgstp_bpred as bpred;
pub use fgstp_isa as isa;
pub use fgstp_mem as mem;
pub use fgstp_ooo as ooo;
pub use fgstp_rv as rv;
pub use fgstp_sampling as sampling;
pub use fgstp_service as service;
pub use fgstp_sim as sim;
pub use fgstp_telemetry as telemetry;
pub use fgstp_tracefile as tracefile;
pub use fgstp_workloads as workloads;

/// The most commonly used items, for examples and quick scripts.
pub mod prelude {
    pub use fgstp::{run_fgstp, FgstpConfig, PartitionConfig, PartitionPolicy};
    pub use fgstp_isa::{assemble, trace_program, Machine, Program};
    pub use fgstp_mem::HierarchyConfig;
    pub use fgstp_ooo::{run_single, CoreConfig};
    pub use fgstp_sampling::{Estimate, SampleConfig, SampledRun};
    pub use fgstp_sim::{
        geomean, run_on, run_on_instrumented, run_on_sampled, run_suite, ExperimentSpec,
        MachineKind, RunPlan, Scale, Session, SpecError, SpecErrorKind, Table,
    };
    pub use fgstp_telemetry::{write_chrome_trace, CpiSink, CpiStack, StallCategory};
    pub use fgstp_workloads::{suite, SuiteClass, Workload};
}
