//! Reconfiguration controller: when should the two cores couple?
//!
//! Fg-STP *reconfigures* two cores to collaborate; a production design
//! needs a policy for when coupling pays off (serial, unpartitionable code
//! gains nothing and the second core could do other work). This module
//! provides two controllers over the trace-driven machines:
//!
//! * [`run_oracle`] — picks the faster of single-core and Fg-STP execution
//!   per workload: the upper bound any online controller can reach;
//! * [`run_sampling`] — the implementable policy: execute a sample
//!   interval in each mode, commit to the winner for the rest of the run,
//!   and pay a reconfiguration penalty at each mode switch.
//!
//! Both controllers charge real cycles for everything they run, including
//! the sampling intervals.
//!
//! [`run_dynamic`] extends the idea to multi-program machines: the thread
//! holds however many cores the co-run schedule currently leaves free,
//! reconfiguring (and paying [`DynamicConfig::reconfig_penalty`]) whenever
//! a co-runner arrives and claims cores back or finishes and releases
//! them.

use fgstp_isa::DynInst;
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::RunResult;

use crate::machine::{run_fgstp, FgstpConfig};

/// Which configuration the controller chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One core runs the thread; the partner stays free.
    Single,
    /// Both cores collaborate (Fg-STP).
    Fgstp,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mode::Single => "single",
            Mode::Fgstp => "fgstp",
        })
    }
}

/// Outcome of an adaptive run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveResult {
    /// Mode chosen for the steady-state portion.
    pub mode: Mode,
    /// Total cycles, sampling and switching included.
    pub cycles: u64,
    /// Cycles spent in the sampling phase (0 for the oracle).
    pub sampling_cycles: u64,
}

/// Controller parameters for [`run_sampling`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Instructions per sampling interval (one interval per mode).
    pub sample_insts: usize,
    /// Cycles charged per reconfiguration (draining both pipelines and
    /// re-steering the frontend).
    pub reconfig_penalty: u64,
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            sample_insts: 2_000,
            reconfig_penalty: 200,
        }
    }
}

/// Runs `trace` on `cfg`'s machine resized to `cores` cores, over `hcfg`
/// resized to match (one core is the conventional core running alone).
fn run_on_cores(
    trace: &[DynInst],
    cfg: &FgstpConfig,
    hcfg: &HierarchyConfig,
    cores: usize,
) -> RunResult {
    let h = HierarchyConfig { cores, ..*hcfg };
    run_fgstp(trace, &cfg.clone().with_cores(cores), &h).0
}

/// Runs `trace` in the faster of the two modes (cycles of the winner
/// only) — the oracle upper bound for any reconfiguration policy.
pub fn run_oracle(trace: &[DynInst], cfg: &FgstpConfig, hcfg: &HierarchyConfig) -> AdaptiveResult {
    let single = run_on_cores(trace, cfg, hcfg, 1);
    let (fgstp, _) = run_fgstp(trace, cfg, hcfg);
    if single.cycles <= fgstp.cycles {
        AdaptiveResult {
            mode: Mode::Single,
            cycles: single.cycles,
            sampling_cycles: 0,
        }
    } else {
        AdaptiveResult {
            mode: Mode::Fgstp,
            cycles: fgstp.cycles,
            sampling_cycles: 0,
        }
    }
}

/// Runs `trace` under the sampling controller: one interval per mode, then
/// the winner for the remainder, plus reconfiguration penalties.
///
/// Intervals are timed as independent segments (cold structures), which
/// slightly over-charges the sampling phase — a conservative controller
/// model.
pub fn run_sampling(
    trace: &[DynInst],
    cfg: &FgstpConfig,
    hcfg: &HierarchyConfig,
    sampling: &SamplingConfig,
) -> AdaptiveResult {
    let n = trace.len();
    let sample = sampling.sample_insts.min(n / 2);
    if sample == 0 {
        return run_oracle(trace, cfg, hcfg);
    }
    let s0 = run_on_cores(&trace[..sample], cfg, hcfg, 1);
    let (s1, _) = run_fgstp(&trace[sample..2 * sample], cfg, hcfg);
    let sampling_cycles = s0.cycles + s1.cycles + sampling.reconfig_penalty;
    let rest = &trace[2 * sample..];
    // Per-instruction rates from the samples pick the steady-state mode.
    let single_cpi = s0.cycles as f64 / sample as f64;
    let fgstp_cpi = s1.cycles as f64 / sample as f64;
    let (mode, rest_cycles) = if single_cpi <= fgstp_cpi {
        // Already in fgstp mode after the second sample: switch back.
        let r = run_on_cores(rest, cfg, hcfg, 1);
        (Mode::Single, r.cycles + sampling.reconfig_penalty)
    } else {
        let (r, _) = run_fgstp(rest, cfg, hcfg);
        (Mode::Fgstp, r.cycles)
    };
    AdaptiveResult {
        mode,
        cycles: sampling_cycles + rest_cycles,
        sampling_cycles,
    }
}

/// One step of a core-availability schedule for [`run_dynamic`]: from
/// `from_cycle` onwards the thread may hold up to `cores` cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorePhase {
    /// Global cycle the phase begins.
    pub from_cycle: u64,
    /// Cores available to the thread during the phase (≥ 1).
    pub cores: usize,
}

/// Parameters for the dynamic core scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicConfig {
    /// Instructions executed between availability checks; the machine only
    /// reconfigures at quantum boundaries (draining mid-flight state is
    /// what the penalty pays for).
    pub quantum_insts: usize,
    /// Cycles charged per core-count change.
    pub reconfig_penalty: u64,
}

impl Default for DynamicConfig {
    fn default() -> DynamicConfig {
        DynamicConfig {
            quantum_insts: 2_000,
            reconfig_penalty: 200,
        }
    }
}

/// Outcome of a dynamic-scheduler run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicResult {
    /// Total cycles, reconfiguration penalties included.
    pub cycles: u64,
    /// Number of core-count changes the thread performed.
    pub reconfigs: u64,
    /// The (start-cycle, core-count) segments actually executed.
    pub phases: Vec<CorePhase>,
}

/// Cores available at cycle `now` under `schedule` (1 before the first
/// phase; phases must be sorted by `from_cycle`).
fn available_cores(schedule: &[CorePhase], now: u64) -> usize {
    schedule
        .iter()
        .take_while(|p| p.from_cycle <= now)
        .last()
        .map_or(1, |p| p.cores.max(1))
}

/// Runs `trace` while tracking a core-availability `schedule`: the thread
/// claims every core the schedule currently grants it (running Fg-STP
/// across them) and falls back to a single conventional core when
/// co-runners have claimed the rest.
///
/// Each quantum is timed as an independent segment (cold structures), the
/// same conservative approximation [`run_sampling`] uses; `cfg.num_cores`
/// caps how many cores the thread can exploit regardless of availability.
pub fn run_dynamic(
    trace: &[DynInst],
    cfg: &FgstpConfig,
    hcfg: &HierarchyConfig,
    schedule: &[CorePhase],
    dyncfg: &DynamicConfig,
) -> DynamicResult {
    assert!(
        schedule
            .windows(2)
            .all(|w| w[0].from_cycle <= w[1].from_cycle),
        "schedule phases must be sorted by from_cycle"
    );
    let quantum = dyncfg.quantum_insts.max(1);
    let mut now = 0u64;
    let mut reconfigs = 0u64;
    let mut phases: Vec<CorePhase> = Vec::new();
    let mut current = 0usize; // cores held; 0 = not configured yet
    let mut done = 0usize;
    while done < trace.len() {
        let want = available_cores(schedule, now).min(cfg.num_cores).max(1);
        if want != current {
            if current != 0 {
                now += dyncfg.reconfig_penalty;
                reconfigs += 1;
            }
            current = want;
            phases.push(CorePhase {
                from_cycle: now,
                cores: current,
            });
        }
        let end = (done + quantum).min(trace.len());
        now += run_on_cores(&trace[done..end], cfg, hcfg, current).cycles;
        done = end;
    }
    DynamicResult {
        cycles: now,
        reconfigs,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program, Trace};

    fn partitionable() -> Trace {
        let mut src = String::from("li x1, 1\nli x2, 1\nli x9, 400\n");
        src.push_str(
            "loop:\nadd x1, x1, x1\nxor x3, x1, x9\nadd x2, x2, x2\nxor x4, x2, x9\n\
             addi x9, x9, -1\nbne x9, x0, loop\nhalt\n",
        );
        trace_program(&assemble(&src).unwrap(), 100_000).unwrap()
    }

    fn serial() -> Trace {
        let mut src = String::from("li x1, 3\nli x9, 800\n");
        src.push_str(
            "loop:\nmul x1, x1, x9\naddi x1, x1, 1\naddi x9, x9, -1\nbne x9, x0, loop\nhalt\n",
        );
        trace_program(&assemble(&src).unwrap(), 100_000).unwrap()
    }

    #[test]
    fn oracle_never_loses_to_either_mode() {
        for t in [partitionable(), serial()] {
            let cfg = FgstpConfig::small();
            let hcfg = HierarchyConfig::small(2);
            let oracle = run_oracle(t.insts(), &cfg, &hcfg);
            let one_core = FgstpConfig::single(cfg.core.clone());
            let (single, _) = run_fgstp(t.insts(), &one_core, &HierarchyConfig::small(1));
            let (fg, _) = run_fgstp(t.insts(), &cfg, &hcfg);
            assert!(oracle.cycles <= single.cycles);
            assert!(oracle.cycles <= fg.cycles);
        }
    }

    #[test]
    fn oracle_picks_fgstp_for_partitionable_code() {
        let t = partitionable();
        let r = run_oracle(t.insts(), &FgstpConfig::small(), &HierarchyConfig::small(2));
        assert_eq!(r.mode, Mode::Fgstp);
    }

    #[test]
    fn sampling_controller_is_close_to_oracle() {
        for t in [partitionable(), serial()] {
            let cfg = FgstpConfig::small();
            let hcfg = HierarchyConfig::small(2);
            let oracle = run_oracle(t.insts(), &cfg, &hcfg);
            let sampled = run_sampling(
                t.insts(),
                &cfg,
                &hcfg,
                &SamplingConfig {
                    sample_insts: 500,
                    reconfig_penalty: 100,
                },
            );
            assert!(sampled.sampling_cycles > 0);
            assert!(
                (sampled.cycles as f64) < oracle.cycles as f64 * 1.5,
                "sampling {} vs oracle {}",
                sampled.cycles,
                oracle.cycles
            );
        }
    }

    #[test]
    fn dynamic_with_a_flat_two_core_schedule_uses_two_cores_throughout() {
        let t = partitionable();
        let r = run_dynamic(
            t.insts(),
            &FgstpConfig::small(),
            &HierarchyConfig::small(2),
            &[CorePhase {
                from_cycle: 0,
                cores: 2,
            }],
            &DynamicConfig::default(),
        );
        assert_eq!(r.reconfigs, 0);
        assert_eq!(
            r.phases,
            vec![CorePhase {
                from_cycle: 0,
                cores: 2
            }]
        );
        assert!(r.cycles > 0);
    }

    #[test]
    fn dynamic_reconfigures_when_a_corunner_claims_cores() {
        let t = partitionable();
        let dyncfg = DynamicConfig {
            quantum_insts: 400,
            reconfig_penalty: 100,
        };
        // A co-runner arrives early and releases the second core late.
        let schedule = [
            CorePhase {
                from_cycle: 0,
                cores: 2,
            },
            CorePhase {
                from_cycle: 200,
                cores: 1,
            },
            CorePhase {
                from_cycle: 100_000,
                cores: 2,
            },
        ];
        let r = run_dynamic(
            t.insts(),
            &FgstpConfig::small(),
            &HierarchyConfig::small(2),
            &schedule,
            &dyncfg,
        );
        assert!(r.reconfigs >= 1, "claim-back must force a reconfiguration");
        assert!(r.phases.iter().any(|p| p.cores == 1));
        // Penalties are charged: cycles exceed a penalty-free rerun.
        let free = run_dynamic(
            t.insts(),
            &FgstpConfig::small(),
            &HierarchyConfig::small(2),
            &schedule,
            &DynamicConfig {
                quantum_insts: 400,
                reconfig_penalty: 0,
            },
        );
        assert!(r.cycles >= free.cycles + dyncfg.reconfig_penalty * r.reconfigs);
    }

    #[test]
    fn dynamic_never_exceeds_the_machine_core_count() {
        let t = serial();
        let r = run_dynamic(
            t.insts(),
            &FgstpConfig::small(), // 2-core machine
            &HierarchyConfig::small(2),
            &[CorePhase {
                from_cycle: 0,
                cores: 8,
            }],
            &DynamicConfig::default(),
        );
        assert!(r.phases.iter().all(|p| p.cores <= 2));
    }

    #[test]
    fn empty_schedule_means_one_core() {
        let t = serial();
        let r = run_dynamic(
            t.insts(),
            &FgstpConfig::small(),
            &HierarchyConfig::small(2),
            &[],
            &DynamicConfig::default(),
        );
        assert_eq!(r.reconfigs, 0);
        assert_eq!(
            r.phases,
            vec![CorePhase {
                from_cycle: 0,
                cores: 1
            }]
        );
    }

    #[test]
    fn tiny_traces_fall_back_to_the_oracle() {
        let p = assemble("li x1, 1\nhalt").unwrap();
        let t = trace_program(&p, 100).unwrap();
        let r = run_sampling(
            t.insts(),
            &FgstpConfig::small(),
            &HierarchyConfig::small(2),
            &SamplingConfig {
                sample_insts: 0,
                reconfig_penalty: 0,
            },
        );
        assert_eq!(r.sampling_cycles, 0);
    }
}
