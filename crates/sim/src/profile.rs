//! Phase profiling: per-interval IPC from recorded commit timestamps.
//!
//! Programs execute in phases; reconfiguration controllers (see
//! `fgstp::adaptive`) and partitioning policies care where those phases
//! are. This module derives an IPC time series from one recorded run: the
//! trace is split into fixed-size instruction intervals and each
//! interval's IPC is computed from the commit cycles of its first and last
//! instructions.

use fgstp::{run_fgstp_warm, FgstpConfig};
use fgstp_isa::DynInst;
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::{CoreConfig, PipeRecorder, WarmState};

/// IPC time series over fixed instruction intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Instructions per interval.
    pub interval: usize,
    /// IPC of each interval, in execution order.
    pub ipc: Vec<f64>,
}

impl PhaseProfile {
    /// Mean of the interval IPCs (0 for an empty profile).
    pub fn mean_ipc(&self) -> f64 {
        if self.ipc.is_empty() {
            0.0
        } else {
            self.ipc.iter().sum::<f64>() / self.ipc.len() as f64
        }
    }

    /// Ratio of the fastest to the slowest interval (1.0 when uniform;
    /// large values indicate strong phase behaviour).
    pub fn phase_contrast(&self) -> f64 {
        let min = self.ipc.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.ipc.iter().copied().fold(0.0f64, f64::max);
        if !min.is_finite() || min <= 0.0 {
            1.0
        } else {
            max / min
        }
    }

    /// Renders the series as a one-line unicode sparkline.
    pub fn sparkline(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.ipc.iter().copied().fold(0.0f64, f64::max).max(1e-9);
        self.ipc
            .iter()
            .map(|&v| BARS[((v / max * 7.0).round() as usize).min(7)])
            .collect()
    }
}

/// Profiles `trace` on a single core described by `cfg` (the one-core
/// machine, [`FgstpConfig::single`]), with `interval` instructions per
/// sample.
///
/// # Panics
///
/// Panics if `interval` is zero.
pub fn profile_single(
    trace: &[DynInst],
    cfg: &CoreConfig,
    hcfg: &HierarchyConfig,
    interval: usize,
) -> PhaseProfile {
    assert!(interval > 0, "interval must be positive");
    let mut rec = PipeRecorder::new();
    let one = FgstpConfig::single(cfg.clone());
    run_fgstp_warm(trace, &one, &mut WarmState::new(cfg, hcfg), 0, &mut rec);
    let commits: Vec<u64> = rec.iter(0).filter_map(|(_, ev)| ev.commit).collect();
    profile_from_commits(&commits, interval)
}

/// Builds the profile from an ordered list of per-instruction commit
/// cycles.
pub fn profile_from_commits(commits: &[u64], interval: usize) -> PhaseProfile {
    assert!(interval > 0, "interval must be positive");
    let mut ipc = Vec::new();
    for chunk in commits.chunks(interval) {
        if chunk.len() < 2 {
            break;
        }
        let span = chunk[chunk.len() - 1].saturating_sub(chunk[0]).max(1);
        ipc.push((chunk.len() - 1) as f64 / span as f64);
    }
    PhaseProfile { interval, ipc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::trace_workload;
    use fgstp_workloads::{by_name, Scale};

    #[test]
    fn profile_from_commits_computes_interval_ipc() {
        // 1 instruction per cycle for 10, then 1 per 4 cycles for 10.
        let mut commits: Vec<u64> = (0..10).collect();
        commits.extend((0..10).map(|i| 9 + (i + 1) * 4));
        let p = profile_from_commits(&commits, 10);
        assert_eq!(p.ipc.len(), 2);
        assert!(p.ipc[0] > 0.9, "{:?}", p.ipc);
        assert!(p.ipc[1] < 0.3, "{:?}", p.ipc);
        assert!(p.phase_contrast() > 3.0);
    }

    #[test]
    fn real_workload_profile_is_sane() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let p = profile_single(
            t.insts(),
            &CoreConfig::small(),
            &HierarchyConfig::small(1),
            1000,
        );
        assert!(!p.ipc.is_empty());
        assert!(
            p.mean_ipc() > 0.1 && p.mean_ipc() <= 2.0,
            "{}",
            p.mean_ipc()
        );
        assert_eq!(p.sparkline().chars().count(), p.ipc.len());
    }

    #[test]
    fn uniform_series_has_unit_contrast() {
        let commits: Vec<u64> = (0..100).map(|i| i * 2).collect();
        let p = profile_from_commits(&commits, 20);
        assert!((p.phase_contrast() - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        profile_from_commits(&[1, 2, 3], 0);
    }
}
