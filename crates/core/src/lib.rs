//! # fgstp
//!
//! Reproduction of **Fg-STP: Fine-Grain Single Thread Partitioning on
//! Multicores** (Ranjan, Latorre, Marcuello, González — HPCA 2011): a
//! hardware-only scheme that reconfigures two conventional out-of-order
//! cores to collaborate on fetching and executing one thread, partitioning
//! the code at instruction granularity with extensive use of dependence
//! speculation, replication and communication, over large instruction
//! windows and with no software support.
//!
//! This crate is the paper's contribution; the substrates live in sibling
//! crates (`fgstp-isa`, `fgstp-mem`, `fgstp-bpred`, `fgstp-ooo`):
//!
//! * [`depgraph`] — the windowed dynamic dependence graph the partitioning
//!   hardware observes;
//! * [`partition`] — instruction-granularity partitioning policies,
//!   including the slice-lookahead policy with boundary refinement and the
//!   replication pass;
//! * [`commq`] — inter-core register communication queues and the
//!   per-directed-edge fabric (latency, bandwidth, capacity,
//!   back-pressure);
//! * [`machine`] — the N-core timing machine (the paper's machine is the
//!   2-core instance): shared frontend orchestration, cross-core
//!   memory-dependence speculation and global in-order commit
//!   ([`run_fgstp`]);
//! * [`exec`] — a functional partitioned executor that *proves* a
//!   partition preserves sequential semantics ([`check_partition`]).
//!
//! The baselines the paper compares against run on the same machine with
//! one core and nothing to partition ([`FgstpConfig::single`]): one
//! conventional core, or the **Core Fusion** core, the fused two-cluster
//! configuration of the `fgstp-ooo` core
//! ([`fgstp_ooo::CoreConfig::fused`]).
//!
//! ```
//! use fgstp::{run_fgstp, FgstpConfig};
//! use fgstp_isa::{assemble, trace_program};
//! use fgstp_mem::HierarchyConfig;
//! use fgstp_ooo::CoreConfig;
//!
//! let p = assemble("li x1, 3\nadd x2, x1, x1\nhalt")?;
//! let t = trace_program(&p, 1000)?;
//! let one = FgstpConfig::single(CoreConfig::small());
//! let (r, _) = run_fgstp(t.insts(), &one, &HierarchyConfig::small(1));
//! assert_eq!(r.committed, 2);
//! assert_eq!(r.cores.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ```
//! use fgstp::{run_fgstp, FgstpConfig};
//! use fgstp_isa::{assemble, trace_program};
//! use fgstp_mem::HierarchyConfig;
//!
//! let p = assemble("li x1, 2\nadd x2, x1, x1\nhalt")?;
//! let t = trace_program(&p, 100)?;
//! let (result, stats) = run_fgstp(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(2));
//! assert_eq!(result.committed, 2);
//! assert_eq!(stats.partition.total_insts(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod adaptive;
pub mod commq;
pub mod corun;
pub mod depgraph;
pub mod exec;
pub mod machine;
pub mod partition;

pub use adaptive::{
    run_dynamic, run_oracle, run_sampling, AdaptiveResult, CorePhase, DynamicConfig, DynamicResult,
    Mode, SamplingConfig,
};
pub use commq::{CommConfig, CommFabric, CommQueue, CommStats};
pub use corun::{
    run_corun, CoRunContention, CoRunPlan, CoRunProgram, CoRunProgramResult, CoRunResult,
};
pub use depgraph::DepGraph;
pub use exec::{check_partition, CheckError};
pub use machine::{
    run_fgstp, run_fgstp_warm, FgstpConfig, FgstpMachine, FgstpStats, PreparedProgram,
};
pub use partition::{
    partition_stream, partition_stream_weighted, PartitionConfig, PartitionPolicy, PartitionStats,
    PartitionedStream,
};
