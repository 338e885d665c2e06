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
//! [`ExecEnv`]. This crate has no machine loop of its own; the `fgstp`
//! crate's N-core machine drives every configuration:
//!
//! * a conventional single core (the one-core machine over a one-cluster
//!   [`CoreConfig`]),
//! * the **Core Fusion** baseline (the one-core machine over the
//!   two-cluster fused configuration from [`CoreConfig::fused`]), and
//! * each core of the **Fg-STP** machine.
//!
//! Every machine consumes the same annotated stream: the committed path
//! with each instruction's exact register and memory producers. Each core
//! runs a [`StreamView`] over it: the whole stream, or the instructions a
//! partitioner selected for that core.
//!
//! ```
//! use fgstp_isa::{assemble, trace_program};
//! use fgstp_ooo::build_exec_stream;
//!
//! let p = assemble("li x1, 3\nadd x2, x1, x1\nhalt")?;
//! let t = trace_program(&p, 1000)?;
//! let stream = build_exec_stream(t.insts());
//! assert_eq!(stream.len(), 2);
//! // `add` reads x1 (both sources) from the `li` at global sequence 0.
//! let producers: Vec<u64> = stream[1].deps.iter().flatten().map(|d| d.producer).collect();
//! assert_eq!(producers, [0, 0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod accounting;
pub mod config;
pub mod core;
pub mod env;
pub mod fu;
pub mod pipeview;
pub mod result;
pub mod stream;
pub mod warm;

pub use accounting::{classify_single, stat_delta, StatDelta};
pub use config::{ClusterConfig, CoreConfig, FuCounts, FuLatencies};
pub use core::{CommitStall, Core, CoreStats};
pub use env::{ExecEnv, FetchGate, LoadGate, Prediction, PredictorState};
pub use fu::FuPool;
pub use pipeview::{InstEvents, PipeRecorder};
pub use result::{RunResult, WarmRun};
pub use stream::{build_exec_stream, ExecInst, MemDep, SrcDep, StreamView, ViewEntry};
pub use warm::WarmState;
