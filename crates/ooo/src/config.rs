//! Out-of-order core configuration and the paper's machine presets.

use fgstp_bpred::PredictorKind;

/// Functional-unit counts for one execution cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuCounts {
    /// Simple integer ALUs.
    pub int_alu: usize,
    /// Integer multipliers (pipelined).
    pub int_mul: usize,
    /// Integer dividers (unpipelined).
    pub int_div: usize,
    /// FP adders (pipelined; also compares/converts).
    pub fp_add: usize,
    /// FP multipliers (pipelined).
    pub fp_mul: usize,
    /// FP dividers / sqrt units (unpipelined).
    pub fp_div: usize,
    /// Cache ports (loads and stores).
    pub mem_ports: usize,
}

/// Execution latencies per class, in cycles (memory classes use the cache
/// hierarchy instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuLatencies {
    /// Integer ALU.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide.
    pub int_div: u64,
    /// FP add/sub/compare/convert.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide / sqrt.
    pub fp_div: u64,
    /// Branch/jump resolution.
    pub branch: u64,
    /// Address generation for loads/stores.
    pub agen: u64,
    /// Store-to-load forwarding.
    pub forward: u64,
}

impl Default for FuLatencies {
    fn default() -> FuLatencies {
        FuLatencies {
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_add: 3,
            fp_mul: 4,
            fp_div: 16,
            branch: 1,
            agen: 1,
            forward: 1,
        }
    }
}

/// One execution cluster: its own issue ports and functional units.
///
/// A conventional core is one cluster. Core Fusion fuses two cores into a
/// single wide core whose two clusters are the original cores' backends,
/// paying [`CoreConfig::intercluster_latency`] to bypass values between
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Instructions this cluster can start per cycle.
    pub issue_width: usize,
    /// Functional units in this cluster.
    pub fu: FuCounts,
}

/// Full configuration of one out-of-order core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Human-readable preset name.
    pub name: &'static str,
    /// Instructions fetched per cycle (one cache line per cycle).
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub decode_width: usize,
    /// Total instructions issued per cycle, across clusters.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Fetch-to-dispatch depth in cycles (decode + rename stages).
    pub frontend_depth: u64,
    /// Extra fetch latency (Core Fusion collective fetch).
    pub extra_fetch_latency: u64,
    /// Extra rename latency (Core Fusion remote steering/rename).
    pub extra_rename_latency: u64,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Issue-queue entries (shared across clusters).
    pub iq_size: usize,
    /// Load-queue entries.
    pub lq_size: usize,
    /// Store-queue entries.
    pub sq_size: usize,
    /// Fetch-buffer entries between fetch and dispatch.
    pub fetch_buffer: usize,
    /// Execution clusters.
    pub clusters: Vec<ClusterConfig>,
    /// Extra cycles to bypass a value between clusters.
    pub intercluster_latency: u64,
    /// Direction predictor.
    pub predictor: PredictorKind,
    /// BTB index bits.
    pub btb_bits: u32,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Cycles from branch resolution to corrected fetch.
    pub mispredict_penalty: u64,
    /// Fetch bubble on a predicted-taken branch whose target misses the BTB.
    pub btb_miss_penalty: u64,
    /// Execution latencies.
    pub lat: FuLatencies,
    /// Replay penalty, in cycles, of a local memory-dependence violation.
    /// Loads speculate past older stores; a load that violated once joins
    /// a store-set-style table and synchronizes with its conflicting store
    /// from then on instead of violating again.
    pub violation_penalty: u64,
}

impl CoreConfig {
    /// The paper's *small* 2-issue core (per-core half of the small CMP).
    pub fn small() -> CoreConfig {
        CoreConfig {
            name: "small",
            fetch_width: 2,
            decode_width: 2,
            issue_width: 2,
            commit_width: 2,
            frontend_depth: 4,
            extra_fetch_latency: 0,
            extra_rename_latency: 0,
            rob_size: 48,
            iq_size: 16,
            lq_size: 16,
            sq_size: 12,
            fetch_buffer: 8,
            clusters: vec![ClusterConfig {
                issue_width: 2,
                fu: FuCounts {
                    int_alu: 2,
                    int_mul: 1,
                    int_div: 1,
                    fp_add: 1,
                    fp_mul: 1,
                    fp_div: 1,
                    mem_ports: 1,
                },
            }],
            intercluster_latency: 0,
            predictor: PredictorKind::Gshare(12),
            btb_bits: 9,
            ras_depth: 8,
            mispredict_penalty: 8,
            btb_miss_penalty: 2,
            lat: FuLatencies::default(),
            violation_penalty: 8,
        }
    }

    /// The paper's *medium* 4-issue core.
    pub fn medium() -> CoreConfig {
        CoreConfig {
            name: "medium",
            fetch_width: 4,
            decode_width: 4,
            issue_width: 4,
            commit_width: 4,
            frontend_depth: 5,
            extra_fetch_latency: 0,
            extra_rename_latency: 0,
            rob_size: 128,
            iq_size: 36,
            lq_size: 32,
            sq_size: 24,
            fetch_buffer: 16,
            clusters: vec![ClusterConfig {
                issue_width: 4,
                fu: FuCounts {
                    int_alu: 3,
                    int_mul: 1,
                    int_div: 1,
                    fp_add: 2,
                    fp_mul: 2,
                    fp_div: 1,
                    mem_ports: 2,
                },
            }],
            intercluster_latency: 0,
            predictor: PredictorKind::Tournament(13),
            btb_bits: 11,
            ras_depth: 16,
            mispredict_penalty: 10,
            btb_miss_penalty: 2,
            lat: FuLatencies::default(),
            violation_penalty: 10,
        }
    }

    /// Core Fusion of two copies of `base`: one wide core whose two
    /// clusters are the original backends, with collective-fetch and
    /// remote-rename overheads on every instruction and an inter-cluster
    /// bypass penalty (the overhead model of Ipek et al., ISCA'07).
    pub fn fused(base: &CoreConfig) -> CoreConfig {
        let cluster = base.clusters[0];
        CoreConfig {
            name: if base.name == "small" {
                "fused-small"
            } else {
                "fused-medium"
            },
            fetch_width: base.fetch_width * 2,
            decode_width: base.decode_width * 2,
            issue_width: base.issue_width * 2,
            commit_width: base.commit_width * 2,
            frontend_depth: base.frontend_depth,
            extra_fetch_latency: 2,
            extra_rename_latency: 2,
            rob_size: base.rob_size * 2,
            iq_size: base.iq_size * 2,
            lq_size: base.lq_size * 2,
            sq_size: base.sq_size * 2,
            fetch_buffer: base.fetch_buffer * 2,
            clusters: vec![cluster, cluster],
            intercluster_latency: 2,
            predictor: base.predictor,
            btb_bits: base.btb_bits,
            ras_depth: base.ras_depth,
            // Fused pipeline is longer end to end, so recovery costs more.
            mispredict_penalty: base.mispredict_penalty + 4,
            btb_miss_penalty: base.btb_miss_penalty,
            lat: base.lat,
            violation_penalty: base.violation_penalty,
        }
    }

    /// Total issue ports across clusters (sanity bound for `issue_width`).
    pub fn cluster_issue_total(&self) -> usize {
        self.clusters.iter().map(|c| c.issue_width).sum()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (no clusters, zero
    /// widths, or an issue width exceeding the cluster ports).
    pub fn validate(&self) {
        assert!(
            !self.clusters.is_empty(),
            "{}: need at least one cluster",
            self.name
        );
        assert!(
            self.fetch_width > 0 && self.decode_width > 0,
            "{}: zero width",
            self.name
        );
        assert!(
            self.issue_width > 0 && self.commit_width > 0,
            "{}: zero width",
            self.name
        );
        assert!(
            self.issue_width <= self.cluster_issue_total(),
            "{}: issue width {} exceeds cluster ports {}",
            self.name,
            self.issue_width,
            self.cluster_issue_total()
        );
        assert!(
            self.rob_size > 0 && self.iq_size > 0,
            "{}: empty windows",
            self.name
        );
        assert!(
            self.lq_size > 0 && self.sq_size > 0,
            "{}: empty queues",
            self.name
        );
        assert!(
            self.fetch_buffer >= self.fetch_width,
            "{}: fetch buffer too small",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        CoreConfig::small().validate();
        CoreConfig::medium().validate();
        CoreConfig::fused(&CoreConfig::small()).validate();
        CoreConfig::fused(&CoreConfig::medium()).validate();
    }

    #[test]
    fn fusion_doubles_structures_and_adds_overheads() {
        let small = CoreConfig::small();
        let fused = CoreConfig::fused(&small);
        assert_eq!(fused.rob_size, 2 * small.rob_size);
        assert_eq!(fused.issue_width, 2 * small.issue_width);
        assert_eq!(fused.clusters.len(), 2);
        assert!(fused.extra_fetch_latency > 0);
        assert!(fused.intercluster_latency > 0);
        assert!(fused.mispredict_penalty > small.mispredict_penalty);
    }

    #[test]
    #[should_panic(expected = "issue width")]
    fn validate_rejects_overwide_issue() {
        let mut c = CoreConfig::small();
        c.issue_width = 100;
        c.validate();
    }

    #[test]
    fn medium_is_strictly_bigger_than_small() {
        let s = CoreConfig::small();
        let m = CoreConfig::medium();
        assert!(m.rob_size > s.rob_size);
        assert!(m.iq_size > s.iq_size);
        assert!(m.issue_width > s.issue_width);
    }
}
