//! What a timing run reports. The machine that produces these results
//! is the `fgstp` crate's `FgstpMachine`, for every core count.

use fgstp_mem::HierarchyStats;

use crate::core::CoreStats;

/// Result of running a trace through a machine model.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total cycles from first fetch to last commit.
    pub cycles: u64,
    /// Architectural instructions committed.
    pub committed: u64,
    /// Per-core pipeline statistics.
    pub cores: Vec<CoreStats>,
    /// (branches, mispredicts) across the machine.
    pub branches: (u64, u64),
    /// Memory-hierarchy statistics.
    pub mem: HierarchyStats,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline executing the same trace.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        debug_assert_eq!(self.committed, baseline.committed, "same trace expected");
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }
}

/// Result of a warm-entry (sampled) run: the usual [`RunResult`] over the
/// whole window plus the cycle at which the measured region began.
#[derive(Debug, Clone)]
pub struct WarmRun {
    /// Timing result over the *entire* detailed window (warmup included).
    pub result: RunResult,
    /// Cycles spent before the `measure_from`-th commit landed (the
    /// detailed-warmup prefix whose cycles the sampler discards); 0 when
    /// `measure_from` is 0.
    pub warmup_cycles: u64,
}

impl WarmRun {
    /// Cycles of the measured region (total minus discarded warmup).
    pub fn measured_cycles(&self) -> u64 {
        self.result.cycles - self.warmup_cycles
    }
}
