//! The paper's machine presets.
//!
//! The evaluation compares, on the same 2-core silicon budget:
//!
//! * one **baseline core** running the thread alone (small or medium),
//! * **Core Fusion** of the two cores (fused wide core with front-end
//!   overheads), and
//! * **Fg-STP** (both cores collaborating at instruction granularity).

use fgstp::FgstpConfig;
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::CoreConfig;

/// A machine model the experiments can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// One small core (baseline of the small CMP).
    SingleSmall,
    /// One medium core (baseline of the medium CMP).
    SingleMedium,
    /// Core Fusion of two small cores.
    FusedSmall,
    /// Core Fusion of two medium cores.
    FusedMedium,
    /// Fg-STP on two small cores.
    FgstpSmall,
    /// Fg-STP on two medium cores.
    FgstpMedium,
    /// Fg-STP on four small cores (scaling study, E13).
    FgstpSmall4,
    /// Fg-STP on four medium cores (scaling study, E13).
    FgstpMedium4,
}

impl MachineKind {
    /// The paper's presets, small CMP first (the scaling extensions are in
    /// [`MachineKind::WITH_SCALING`]).
    pub const ALL: [MachineKind; 6] = [
        MachineKind::SingleSmall,
        MachineKind::FusedSmall,
        MachineKind::FgstpSmall,
        MachineKind::SingleMedium,
        MachineKind::FusedMedium,
        MachineKind::FgstpMedium,
    ];

    /// Every preset, including the 4-core scaling extensions.
    pub const WITH_SCALING: [MachineKind; 8] = [
        MachineKind::SingleSmall,
        MachineKind::FusedSmall,
        MachineKind::FgstpSmall,
        MachineKind::FgstpSmall4,
        MachineKind::SingleMedium,
        MachineKind::FusedMedium,
        MachineKind::FgstpMedium,
        MachineKind::FgstpMedium4,
    ];

    /// The three machines of the small 2-core CMP comparison (E1).
    pub const SMALL_CMP: [MachineKind; 3] = [
        MachineKind::SingleSmall,
        MachineKind::FusedSmall,
        MachineKind::FgstpSmall,
    ];

    /// The three machines of the medium 2-core CMP comparison (E2).
    pub const MEDIUM_CMP: [MachineKind; 3] = [
        MachineKind::SingleMedium,
        MachineKind::FusedMedium,
        MachineKind::FgstpMedium,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            MachineKind::SingleSmall => "single-small",
            MachineKind::SingleMedium => "single-medium",
            MachineKind::FusedSmall => "fused-small",
            MachineKind::FusedMedium => "fused-medium",
            MachineKind::FgstpSmall => "fgstp-small",
            MachineKind::FgstpMedium => "fgstp-medium",
            MachineKind::FgstpSmall4 => "fgstp-small-4",
            MachineKind::FgstpMedium4 => "fgstp-medium-4",
        }
    }

    /// Whether this machine is an Fg-STP configuration.
    pub fn is_fgstp(self) -> bool {
        matches!(
            self,
            MachineKind::FgstpSmall
                | MachineKind::FgstpMedium
                | MachineKind::FgstpSmall4
                | MachineKind::FgstpMedium4
        )
    }

    /// Whether the preset is built from the small base core.
    pub fn is_small_base(self) -> bool {
        matches!(
            self,
            MachineKind::SingleSmall
                | MachineKind::FusedSmall
                | MachineKind::FgstpSmall
                | MachineKind::FgstpSmall4
        )
    }

    /// The core of the single-core and fused presets, or `None` for the
    /// Fg-STP presets (whose cores come from their [`FgstpConfig`]).
    pub fn try_core_config(self) -> Option<CoreConfig> {
        match self {
            MachineKind::SingleSmall => Some(CoreConfig::small()),
            MachineKind::SingleMedium => Some(CoreConfig::medium()),
            MachineKind::FusedSmall => Some(CoreConfig::fused(&CoreConfig::small())),
            MachineKind::FusedMedium => Some(CoreConfig::fused(&CoreConfig::medium())),
            MachineKind::FgstpSmall
            | MachineKind::FgstpMedium
            | MachineKind::FgstpSmall4
            | MachineKind::FgstpMedium4 => None,
        }
    }

    /// Fg-STP configuration for the Fg-STP presets, or `None` for the
    /// single-core and fused presets (which run on the one-core machine of
    /// [`MachineKind::machine_config`]).
    pub fn try_fgstp_config(self) -> Option<FgstpConfig> {
        match self {
            MachineKind::FgstpSmall => Some(FgstpConfig::small()),
            MachineKind::FgstpMedium => Some(FgstpConfig::medium()),
            MachineKind::FgstpSmall4 => Some(FgstpConfig::small().with_cores(4)),
            MachineKind::FgstpMedium4 => Some(FgstpConfig::medium().with_cores(4)),
            _ => None,
        }
    }

    /// The timing machine the preset runs on: its Fg-STP configuration,
    /// or for the single-core and fused presets a one-core machine around
    /// the preset's core ([`FgstpConfig::single`]).
    pub fn machine_config(self) -> FgstpConfig {
        self.try_fgstp_config()
            .unwrap_or_else(|| FgstpConfig::single(self.core_config()))
    }

    /// Number of cores the preset's timing machine drives (1 for the
    /// single-core and fused presets, `num_cores` for Fg-STP).
    pub fn cores(self) -> usize {
        self.try_fgstp_config().map(|c| c.num_cores).unwrap_or(1)
    }

    /// Core configuration for the non-Fg-STP presets.
    ///
    /// # Panics
    ///
    /// Panics for Fg-STP presets — use [`MachineKind::try_core_config`] (or
    /// [`MachineKind::fgstp_config`]) when the kind is not statically known.
    pub fn core_config(self) -> CoreConfig {
        self.try_core_config()
            .unwrap_or_else(|| panic!("{} is driven by an FgstpConfig", self.label()))
    }

    /// Fg-STP configuration for the Fg-STP presets.
    ///
    /// # Panics
    ///
    /// Panics for non-Fg-STP presets — use [`MachineKind::try_fgstp_config`]
    /// (or [`MachineKind::core_config`]) when the kind is not statically
    /// known.
    pub fn fgstp_config(self) -> FgstpConfig {
        self.try_fgstp_config()
            .unwrap_or_else(|| panic!("{} is driven by a CoreConfig", self.label()))
    }

    /// Memory-hierarchy configuration for this preset.
    ///
    /// The single-core baselines still get the CMP's shared L2 (partner
    /// cores idle); per-core L1s are private in every preset.
    pub fn hierarchy_config(self) -> HierarchyConfig {
        self.hierarchy_for(self.cores())
    }

    /// The preset's memory hierarchy resized to `cores` cores (used by the
    /// `--cores` override and the E13 scaling sweep).
    pub fn hierarchy_for(self, cores: usize) -> HierarchyConfig {
        if self.is_small_base() {
            HierarchyConfig::small(cores)
        } else {
            HierarchyConfig::medium(cores)
        }
    }
}

impl std::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = MachineKind::WITH_SCALING
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(labels.len(), MachineKind::WITH_SCALING.len());
    }

    #[test]
    fn scaling_set_contains_the_paper_set() {
        for k in MachineKind::ALL {
            assert!(MachineKind::WITH_SCALING.contains(&k), "{k}");
        }
    }

    #[test]
    fn configs_build_for_every_kind() {
        for k in MachineKind::WITH_SCALING {
            let _ = k.hierarchy_config();
            if k.is_fgstp() {
                let cfg = k.fgstp_config();
                cfg.core.validate();
            } else {
                k.core_config().validate();
            }
        }
    }

    #[test]
    fn hierarchy_core_counts_match_the_machine() {
        assert_eq!(MachineKind::FgstpSmall.hierarchy_config().cores, 2);
        assert_eq!(MachineKind::FgstpSmall4.hierarchy_config().cores, 4);
        assert_eq!(MachineKind::FgstpMedium4.cores(), 4);
        assert_eq!(MachineKind::SingleSmall.hierarchy_config().cores, 1);
        assert_eq!(MachineKind::FusedSmall.cores(), 1, "fused is one wide core");
        assert_eq!(MachineKind::FgstpSmall.hierarchy_for(3).cores, 3);
    }

    #[test]
    #[should_panic(expected = "FgstpConfig")]
    fn core_config_rejects_fgstp_kinds() {
        MachineKind::FgstpSmall.core_config();
    }

    #[test]
    fn every_preset_runs_on_a_machine_of_its_core_count() {
        for k in MachineKind::WITH_SCALING {
            let cfg = k.machine_config();
            assert_eq!(cfg.num_cores, k.cores(), "{k}");
            if !k.is_fgstp() {
                assert_eq!(cfg.core, k.core_config(), "{k}");
            }
        }
    }

    #[test]
    fn try_accessors_partition_the_kinds() {
        for k in MachineKind::WITH_SCALING {
            assert_eq!(k.try_core_config().is_some(), !k.is_fgstp(), "{k}");
            assert_eq!(k.try_fgstp_config().is_some(), k.is_fgstp(), "{k}");
        }
    }
}
