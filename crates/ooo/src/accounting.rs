//! Mapping commit-stall probes onto CPI-stack categories.
//!
//! The machine driver (`fgstp::FgstpMachine::step`) snapshots
//! [`CoreStats`] around every cycle (with a recording sink it skips no
//! idle cycle); on a cycle that committed nothing it
//! combines the [`Core::commit_stall`] probe with the per-cycle stats
//! delta to charge the cycle to exactly one [`StallCategory`].
//! [`classify_single`] covers everything a core running alone (a single
//! or fused core) can experience; the driver layers its cross-core
//! refinements (communication wait, backpressure, replication, commit
//! sync) on top before falling back to it.
//!
//! [`Core::commit_stall`]: crate::Core::commit_stall

use fgstp_telemetry::{MemLevel, StallCategory};

use crate::core::{CommitStall, CoreStats};

/// Per-cycle change of the stall-relevant [`CoreStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatDelta {
    /// Primary instructions committed this cycle.
    pub committed: u64,
    /// Replicated shadow copies committed this cycle.
    pub replica_committed: u64,
    /// Fetch was blocked behind an unresolved mispredicted branch.
    pub fetch_blocked: u64,
    /// Fetch stalled on the instruction cache.
    pub icache_stall: u64,
    /// Dispatch stalled on a full ROB, issue queue or load/store queue.
    pub struct_full: u64,
}

/// The per-cycle delta between two [`CoreStats`] snapshots.
pub fn stat_delta(before: &CoreStats, after: &CoreStats) -> StatDelta {
    StatDelta {
        committed: after.committed - before.committed,
        replica_committed: after.replica_committed - before.replica_committed,
        fetch_blocked: after.fetch_blocked_cycles - before.fetch_blocked_cycles,
        icache_stall: after.icache_stall_cycles - before.icache_stall_cycles,
        struct_full: (after.rob_full + after.iq_full + after.lsq_full)
            - (before.rob_full + before.iq_full + before.lsq_full),
    }
}

/// Charges one non-commit cycle of a single (or fused) core to a
/// [`StallCategory`].
///
/// The head-of-window state decides the broad class; the stats delta
/// disambiguates where the probe alone cannot (an empty window is a
/// branch redirect only if fetch was actually gated this cycle).
pub fn classify_single(stall: CommitStall, d: &StatDelta) -> StallCategory {
    match stall {
        CommitStall::Idle => {
            if d.fetch_blocked > 0 {
                StallCategory::BranchRedirect
            } else {
                StallCategory::Frontend
            }
        }
        CommitStall::WaitingOperands { cross } => {
            if cross {
                StallCategory::CommWait
            } else if d.struct_full > 0 {
                StallCategory::StructFull
            } else {
                StallCategory::DepChain
            }
        }
        CommitStall::WaitingIssue {
            fu_free,
            is_load: _,
            cross_memdep,
        } => {
            if cross_memdep {
                StallCategory::MemDepReplay
            } else if !fu_free {
                StallCategory::FuContention
            } else if d.struct_full > 0 {
                StallCategory::StructFull
            } else {
                StallCategory::DepChain
            }
        }
        CommitStall::Executing {
            is_load,
            mem_level,
            cross_replay,
            ..
        } => match (is_load, mem_level) {
            (true, Some(MemLevel::L1)) => StallCategory::MemL1,
            (true, Some(MemLevel::L2)) => StallCategory::MemL2,
            (true, Some(MemLevel::Dram)) => StallCategory::MemDram,
            _ if cross_replay => StallCategory::MemDepReplay,
            _ => StallCategory::DepChain,
        },
        CommitStall::Completing { .. } => StallCategory::DepChain,
        CommitStall::CommitBlocked { .. } => StallCategory::CommitSync,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_every_tracked_counter() {
        let a = CoreStats {
            committed: 10,
            rob_full: 1,
            iq_full: 2,
            lsq_full: 3,
            ..CoreStats::default()
        };
        let mut b = a;
        b.committed = 12;
        b.replica_committed = 1;
        b.fetch_blocked_cycles = 4;
        b.icache_stall_cycles = 5;
        b.lsq_full = 7;
        let d = stat_delta(&a, &b);
        assert_eq!(
            d,
            StatDelta {
                committed: 2,
                replica_committed: 1,
                fetch_blocked: 4,
                icache_stall: 5,
                struct_full: 4,
            }
        );
    }

    #[test]
    fn idle_splits_on_fetch_gating() {
        let gated = StatDelta {
            fetch_blocked: 1,
            ..StatDelta::default()
        };
        assert_eq!(
            classify_single(CommitStall::Idle, &gated),
            StallCategory::BranchRedirect
        );
        assert_eq!(
            classify_single(CommitStall::Idle, &StatDelta::default()),
            StallCategory::Frontend
        );
    }

    #[test]
    fn memory_levels_map_to_their_categories() {
        let d = StatDelta::default();
        for (level, cat) in [
            (MemLevel::L1, StallCategory::MemL1),
            (MemLevel::L2, StallCategory::MemL2),
            (MemLevel::Dram, StallCategory::MemDram),
        ] {
            let s = CommitStall::Executing {
                is_load: true,
                mem_level: Some(level),
                cross_replay: false,
                replica: false,
            };
            assert_eq!(classify_single(s, &d), cat);
        }
    }

    #[test]
    fn issue_gates_disambiguate() {
        let d = StatDelta::default();
        let fu_busy = CommitStall::WaitingIssue {
            fu_free: false,
            is_load: false,
            cross_memdep: false,
        };
        assert_eq!(classify_single(fu_busy, &d), StallCategory::FuContention);
        let memdep = CommitStall::WaitingIssue {
            fu_free: true,
            is_load: true,
            cross_memdep: true,
        };
        assert_eq!(classify_single(memdep, &d), StallCategory::MemDepReplay);
        let cross = CommitStall::WaitingOperands { cross: true };
        assert_eq!(classify_single(cross, &d), StallCategory::CommWait);
    }
}
