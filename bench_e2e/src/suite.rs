//! The benchmark's workloads and the seeded orders they run in. The
//! README gives the reason for each choice.

use crate::layers::{MachineKind, SampleConfig, Scale};
use crate::stats::Rng;

/// What one pass of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full-detail runs of every (kernel, machine) job from a warm trace
    /// cache.
    Detail,
    /// Sampled runs from an empty cache directory: trace, store, plan by
    /// functional warming, write live-points, run windows.
    SampledCold,
    /// The same sampled runs replayed from stored traces and live-points.
    SampledWarm,
    /// A request stream against an in-process `fgstpd`.
    Service,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub kind: Kind,
    pub scale: Scale,
    pub kernels: &'static [&'static str],
    pub machines: &'static [MachineKind],
    /// Session worker threads (the host has two cores).
    pub threads: usize,
}

/// The sampling regime of both sampled workloads (the repository's
/// default regime).
pub const SAMPLE: SampleConfig = SampleConfig {
    interval: 10_000,
    warmup: 600,
    detail: 300,
};

const DETAIL_MACHINES: &[MachineKind] = &[
    MachineKind::SingleSmall,
    MachineKind::FusedSmall,
    MachineKind::FgstpSmall,
    MachineKind::FgstpMedium4,
];

const SAMPLED_KERNELS: &[&str] = &[
    "chase_long",
    "mcf_pointer_long",
    "hmmer_dp_long",
    "libq_stream_long",
];

const SAMPLED_MACHINES: &[MachineKind] = &[MachineKind::SingleSmall, MachineKind::FgstpSmall];

/// Every workload, in presentation order.
pub const WORKLOADS: [Def; 5] = [
    Def {
        name: "detail-ilp",
        kind: Kind::Detail,
        scale: Scale::Small,
        kernels: &[
            "hmmer_dp",
            "h264_sad",
            "namd_force",
            "bwaves_block",
            "soplex_sparse",
            "xalanc_tree",
            "milc_su3",
        ],
        machines: DETAIL_MACHINES,
        threads: 1,
    },
    Def {
        name: "detail-memlat",
        kind: Kind::Detail,
        scale: Scale::Test,
        kernels: &["mcf_pointer", "mcf_pointer_long"],
        machines: DETAIL_MACHINES,
        threads: 1,
    },
    Def {
        name: "sampled-cold",
        kind: Kind::SampledCold,
        scale: Scale::Test,
        kernels: SAMPLED_KERNELS,
        machines: SAMPLED_MACHINES,
        threads: 2,
    },
    Def {
        name: "sampled-warm",
        kind: Kind::SampledWarm,
        scale: Scale::Test,
        kernels: SAMPLED_KERNELS,
        machines: SAMPLED_MACHINES,
        threads: 2,
    },
    Def {
        name: "service",
        kind: Kind::Service,
        scale: Scale::Test,
        kernels: &[],
        machines: &[],
        threads: 1,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<Def> {
    WORKLOADS.iter().copied().find(|d| d.name == name)
}

/// The kernels of `def` in the order seed `seed` gives them.
pub fn kernel_order(def: &Def, seed: u64) -> Vec<&'static str> {
    let mut order = def.kernels.to_vec();
    Rng::new(seed).shuffle(&mut order);
    order
}

/// Resubmissions in one service pass.
pub const SERVICE_REPEATS: usize = 30;

/// The service request sequence for seed `seed` over a pool of
/// `distinct` specs: every spec once, in seeded order, plus
/// [`SERVICE_REPEATS`] seeded specs submitted a second time at seeded
/// points after their first submission. Every seed does the same work.
pub fn service_order(seed: u64, distinct: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..distinct).collect();
    rng.shuffle(&mut order);
    let mut again: Vec<usize> = (0..distinct).collect();
    rng.shuffle(&mut again);
    for &spec in &again[..SERVICE_REPEATS.min(distinct)] {
        let first = order
            .iter()
            .position(|&s| s == spec)
            .expect("every spec is in the order");
        let at = first + 1 + rng.below(order.len() - first);
        order.insert(at, spec);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_service_sequence_is_fixed_per_seed() {
        for seed in 0..50 {
            let order = service_order(seed, 70);
            assert_eq!(order, service_order(seed, 70));
            assert_eq!(order.len(), 100);
            let mut counts = [0usize; 70];
            for &s in &order {
                counts[s] += 1;
            }
            assert!(counts.iter().all(|&c| c == 1 || c == 2));
            assert_eq!(counts.iter().filter(|&&c| c == 2).count(), 30);
        }
        assert_ne!(service_order(1, 70), service_order(2, 70));
    }

    #[test]
    fn kernel_orders_permute_the_same_jobs() {
        let ilp = find("detail-ilp").unwrap();
        let mut a = kernel_order(&ilp, 3);
        let mut b = kernel_order(&ilp, 4);
        assert_eq!(a, kernel_order(&ilp, 3));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
