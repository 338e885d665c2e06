//! # fgstp-ooo
//!
//! Cycle-level out-of-order core timing model — the simulator substrate the
//! Fg-STP paper assumes. The model is trace-driven: the functional
//! interpreter in `fgstp-isa` produces the committed path, and this crate
//! charges cycles for structural hazards (widths, windows, functional
//! units), register and memory dependences, branch prediction and the cache
//! hierarchy.
//!
//! The pipeline ([`Core`]) is machine-agnostic: prediction, fetch gating,
//! global commit order and all cross-core interactions go through
//! [`ExecEnv`], so the same pipeline implements
//!
//! * a conventional single core ([`run_single`] with a one-cluster
//!   [`CoreConfig`]),
//! * the **Core Fusion** baseline (a two-cluster fused configuration from
//!   [`CoreConfig::fused`], still driven by [`run_single`]), and
//! * each half of the **Fg-STP** pair (driven by the `fgstp` crate's
//!   dual-core environment).
//!
//! ```
//! use fgstp_isa::{assemble, trace_program};
//! use fgstp_mem::HierarchyConfig;
//! use fgstp_ooo::{run_single, CoreConfig};
//!
//! let p = assemble("li x1, 3\nadd x2, x1, x1\nhalt")?;
//! let t = trace_program(&p, 1000)?;
//! let r = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
//! assert_eq!(r.committed, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod accounting;
pub mod config;
pub mod core;
pub mod env;
pub mod fu;
pub mod machine;
pub mod pipeview;
pub mod stream;
pub mod warm;

pub use accounting::{classify_single, stat_delta, StatDelta};
pub use config::{ClusterConfig, CoreConfig, FuCounts, FuLatencies, MemDepPolicy};
pub use core::{CommitStall, Core, CoreStats};
pub use env::{ExecEnv, FetchGate, LoadGate, Prediction, PredictorState, SingleEnv};
pub use fu::FuPool;
pub use machine::{run_single, run_single_warm, RunResult, WarmRun};
pub use pipeview::{InstEvents, PipeRecorder};
pub use stream::{build_exec_stream, ExecInst, MemDep, SrcDep};
pub use warm::WarmState;
