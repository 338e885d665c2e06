//! Functional-unit pools with per-cluster structural hazards.

use fgstp_isa::InstClass;

use crate::config::{ClusterConfig, FuLatencies};

/// Claims on a cluster's pipelined units in one cycle.
#[derive(Debug, Clone, Copy, Default)]
struct PerCycleUse {
    /// ALU ports: integer ALU ops and nops, and the branches and jumps
    /// that resolve on them.
    alu: usize,
    int_mul: usize,
    fp_add: usize,
    fp_mul: usize,
    mem_ports: usize,
}

#[derive(Debug, Clone)]
struct ClusterFu {
    cfg: ClusterConfig,
    /// The cycle `used` counts claims in.
    cycle: u64,
    used: PerCycleUse,
    int_div_busy: Vec<u64>,
    fp_div_busy: Vec<u64>,
}

impl ClusterFu {
    /// The claims made at `now`: none if the last was in another cycle.
    fn used_at(&self, now: u64) -> PerCycleUse {
        if self.cycle == now {
            self.used
        } else {
            PerCycleUse::default()
        }
    }
}

/// Tracks functional-unit availability for every cluster of a core.
///
/// Pipelined classes (ALU, multiplies, FP add, memory ports) are limited to
/// their unit count per cycle; unpipelined dividers hold their unit busy
/// for the whole operation.
#[derive(Debug, Clone)]
pub struct FuPool {
    clusters: Vec<ClusterFu>,
}

impl FuPool {
    /// Builds a pool for the given clusters.
    pub fn new(clusters: &[ClusterConfig]) -> FuPool {
        FuPool {
            clusters: clusters
                .iter()
                .map(|&cfg| ClusterFu {
                    cfg,
                    cycle: u64::MAX,
                    used: PerCycleUse::default(),
                    int_div_busy: vec![0; cfg.fu.int_div],
                    fp_div_busy: vec![0; cfg.fu.fp_div],
                })
                .collect(),
        }
    }

    /// Whether a unit of `class` in `cluster` is free at `now`, claiming
    /// nothing: the capacity rule [`FuPool::try_issue`] claims by, and the
    /// telemetry probe behind FU-contention attribution.
    pub fn would_issue(&self, cluster: usize, class: InstClass, now: u64) -> bool {
        let c = &self.clusters[cluster];
        let (used, fu) = (c.used_at(now), &c.cfg.fu);
        match class {
            InstClass::IntAlu | InstClass::Nop | InstClass::Branch | InstClass::Jump => {
                used.alu < fu.int_alu
            }
            InstClass::IntMul => used.int_mul < fu.int_mul,
            InstClass::FpAdd => used.fp_add < fu.fp_add,
            InstClass::FpMul => used.fp_mul < fu.fp_mul,
            InstClass::Load | InstClass::Store => used.mem_ports < fu.mem_ports,
            InstClass::IntDiv => c.int_div_busy.iter().any(|&b| b <= now),
            InstClass::FpDiv => c.fp_div_busy.iter().any(|&b| b <= now),
        }
    }

    /// Claims a unit of `class` in `cluster` at cycle `now` for an
    /// operation of the given latencies if [`FuPool::would_issue`] finds
    /// one free. Returns whether it did.
    pub fn try_issue(
        &mut self,
        cluster: usize,
        class: InstClass,
        now: u64,
        lat: &FuLatencies,
    ) -> bool {
        if !self.would_issue(cluster, class, now) {
            return false;
        }
        let c = &mut self.clusters[cluster];
        c.used = c.used_at(now);
        c.cycle = now;
        let used = &mut c.used;
        match class {
            InstClass::IntAlu | InstClass::Nop | InstClass::Branch | InstClass::Jump => {
                used.alu += 1
            }
            InstClass::IntMul => used.int_mul += 1,
            InstClass::FpAdd => used.fp_add += 1,
            InstClass::FpMul => used.fp_mul += 1,
            InstClass::Load | InstClass::Store => used.mem_ports += 1,
            InstClass::IntDiv => Self::claim_unpipelined(&mut c.int_div_busy, now, lat.int_div),
            InstClass::FpDiv => Self::claim_unpipelined(&mut c.fp_div_busy, now, lat.fp_div),
        }
        true
    }

    /// Holds the first unit of `busy` free at `now` for `latency` cycles.
    fn claim_unpipelined(busy: &mut [u64], now: u64, latency: u64) {
        let unit = busy.iter_mut().find(|b| **b <= now);
        *unit.expect("would_issue found a free unit") = now + latency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, FuCounts};

    fn pool() -> (FuPool, FuLatencies) {
        let cfg = CoreConfig::small();
        (FuPool::new(&cfg.clusters), cfg.lat)
    }

    #[test]
    fn pipelined_units_are_per_cycle_limits() {
        let (mut p, lat) = pool();
        assert!(p.try_issue(0, InstClass::IntAlu, 5, &lat));
        assert!(p.try_issue(0, InstClass::IntAlu, 5, &lat));
        assert!(!p.try_issue(0, InstClass::IntAlu, 5, &lat), "only two ALUs");
        // A new cycle frees the ports.
        assert!(p.try_issue(0, InstClass::IntAlu, 6, &lat));
    }

    #[test]
    fn divider_is_unpipelined() {
        let (mut p, lat) = pool();
        assert!(p.try_issue(0, InstClass::IntDiv, 0, &lat));
        assert!(!p.try_issue(0, InstClass::IntDiv, 1, &lat), "divider busy");
        assert!(!p.try_issue(0, InstClass::IntDiv, lat.int_div - 1, &lat));
        assert!(p.try_issue(0, InstClass::IntDiv, lat.int_div, &lat));
    }

    #[test]
    fn multiplier_is_pipelined() {
        let (mut p, lat) = pool();
        assert!(p.try_issue(0, InstClass::IntMul, 0, &lat));
        assert!(
            p.try_issue(0, InstClass::IntMul, 1, &lat),
            "pipelined: next cycle ok"
        );
    }

    #[test]
    fn branches_share_alu_ports() {
        let (mut p, lat) = pool();
        assert!(p.try_issue(0, InstClass::Branch, 3, &lat));
        assert!(p.try_issue(0, InstClass::IntAlu, 3, &lat));
        assert!(
            !p.try_issue(0, InstClass::IntAlu, 3, &lat),
            "branch took one ALU"
        );
    }

    /// `would_issue` predicts every `try_issue` outcome on each cluster of
    /// the small, medium and fused-small cores. Each cycle every class
    /// claims until it is refused, in an order that rotates with the cycle
    /// (so ALU ops and branches fill their shared ports both ways round),
    /// while the dividers claimed in one cycle stay busy through later
    /// ones. The claims a cycle takes pin the capacity rule.
    #[test]
    fn would_issue_predicts_try_issue() {
        use InstClass::*;
        let small = CoreConfig::small();
        for cfg in [CoreConfig::medium(), CoreConfig::fused(&small), small] {
            let mut p = FuPool::new(&cfg.clusters);
            let lat = cfg.lat;
            for (cluster, c) in cfg.clusters.iter().enumerate() {
                for now in 0..2 * lat.int_div.max(lat.fp_div) {
                    let mut claimed = Vec::new();
                    for k in 0..InstClass::ALL.len() {
                        let class = InstClass::ALL[(k + now as usize) % InstClass::ALL.len()];
                        let at = format!("{} cluster {cluster} {class:?} at {now}", cfg.name);
                        while p.would_issue(cluster, class, now) {
                            assert!(p.try_issue(cluster, class, now, &lat), "{at}");
                            claimed.push(class);
                        }
                        assert!(!p.try_issue(cluster, class, now, &lat), "{at}");
                    }
                    let count =
                        |of: &[InstClass]| claimed.iter().filter(|c| of.contains(c)).count();
                    assert_eq!(count(&[IntAlu, Nop, Branch, Jump]), c.fu.int_alu);
                    assert_eq!(count(&[IntMul]), c.fu.int_mul);
                    assert_eq!(count(&[FpAdd]), c.fu.fp_add);
                    assert_eq!(count(&[FpMul]), c.fu.fp_mul);
                    assert_eq!(count(&[Load, Store]), c.fu.mem_ports);
                    // A divider claimed at `t` is free again at `t + latency`.
                    let free = |latency: u64, units| if now % latency == 0 { units } else { 0 };
                    assert_eq!(count(&[IntDiv]), free(lat.int_div, c.fu.int_div));
                    assert_eq!(count(&[FpDiv]), free(lat.fp_div, c.fu.fp_div));
                }
            }
        }
    }

    #[test]
    fn clusters_are_independent() {
        let clusters = vec![
            ClusterConfig {
                issue_width: 1,
                fu: FuCounts {
                    int_alu: 1,
                    int_mul: 0,
                    int_div: 0,
                    fp_add: 0,
                    fp_mul: 0,
                    fp_div: 0,
                    mem_ports: 0
                },
            };
            2
        ];
        let mut p = FuPool::new(&clusters);
        let lat = FuLatencies::default();
        assert!(p.try_issue(0, InstClass::IntAlu, 0, &lat));
        assert!(!p.try_issue(0, InstClass::IntAlu, 0, &lat));
        assert!(
            p.try_issue(1, InstClass::IntAlu, 0, &lat),
            "other cluster free"
        );
    }

    #[test]
    fn mem_ports_gate_loads_and_stores_together() {
        let (mut p, lat) = pool();
        assert!(p.try_issue(0, InstClass::Load, 9, &lat));
        assert!(
            !p.try_issue(0, InstClass::Store, 9, &lat),
            "one mem port on small"
        );
    }
}
