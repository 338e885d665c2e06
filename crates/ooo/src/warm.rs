//! Functional-warming state for sampled simulation.
//!
//! SMARTS-style sampling alternates long *functional-warming* stretches —
//! instructions retire through the committed-path trace while only the
//! long-lived microarchitectural state (caches and branch predictors)
//! updates — with short *detailed* windows run on the full timing machine.
//! [`WarmState`] is the handoff between the two: the warming loop feeds it
//! one [`DynInst`] at a time, and the machine driver
//! (`fgstp::run_fgstp_warm`, for every core count) enters mid-trace with
//! its caches and predictor. The timing model is trace-driven, so no
//! architectural state needs to be carried.

use fgstp_isa::{DynInst, InstClass};
use fgstp_mem::{Hierarchy, HierarchyConfig};

use crate::config::CoreConfig;
use crate::env::PredictorState;

/// Long-lived microarchitectural state carried across sampling phases: the
/// memory hierarchy and the branch-predictor bundle.
///
/// Short-lived structures (ROB, issue queues, LSQ, MSHRs, communication
/// queues) are *not* part of the snapshot — detailed windows recreate them
/// cold and absorb the ramp-up in their discarded warmup prefix.
#[derive(Debug)]
pub struct WarmState {
    /// The cache hierarchy, shared by warming and detailed phases.
    pub mem: Hierarchy,
    /// The branch-predictor bundle (direction predictor, BTB, RAS) with
    /// cumulative `branches`/`mispredicts` counters over all phases.
    pub pred: PredictorState,
}

impl WarmState {
    /// Creates cold warm-state for a machine built from `cfg` cores over
    /// the hierarchy described by `hcfg`.
    pub fn new(cfg: &CoreConfig, hcfg: &HierarchyConfig) -> WarmState {
        WarmState {
            mem: Hierarchy::new(hcfg),
            pred: PredictorState::new(cfg),
        }
    }

    /// Functionally retires one committed instruction: trains the branch
    /// predictor on control flow and touches the I-cache line and any data
    /// access. No timing state moves.
    pub fn retire(&mut self, d: &DynInst) {
        self.mem.warm_inst(d.pc);
        if d.class().is_control() {
            self.pred.predict_dyn(d);
        }
        if let Some(addr) = d.addr {
            self.mem.warm_data(addr, d.class() == InstClass::Store);
        }
    }

    /// Functionally retires a whole stretch of the trace.
    pub fn warm(&mut self, insts: &[DynInst]) {
        self.warm_iter(insts.iter().copied());
    }

    /// Functionally retires a streamed stretch of the trace — the same
    /// per-instruction work as [`WarmState::warm`] without requiring the
    /// stretch to be materialized as a slice.
    pub fn warm_iter(&mut self, insts: impl IntoIterator<Item = DynInst>) {
        for d in insts {
            self.retire(&d);
        }
    }

    /// Serializes the full warm state — hierarchy
    /// ([`Hierarchy::save_warm_state`]) then predictor bundle
    /// ([`PredictorState::save_state`]) — into one byte payload whose size
    /// follows what the caches and predictors hold, not their capacity
    /// (see DESIGN.md "Live-points"). The payload is shape-checked but
    /// unversioned and unchecksummed; the snapshot container in
    /// `fgstp-tracefile` adds both.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.mem.save_warm_state(&mut out);
        self.pred.save_state(&mut out);
        out
    }

    /// Rebuilds a warm state for the machine described by (`cfg`, `hcfg`)
    /// from a payload written by [`WarmState::save_state`] on the same
    /// machine shape. Any mismatch, truncation or trailing garbage is an
    /// `Err` — the caller falls back to cold warming — never a panic.
    pub fn from_state_bytes(
        cfg: &CoreConfig,
        hcfg: &HierarchyConfig,
        bytes: &[u8],
    ) -> Result<WarmState, String> {
        let mut w = WarmState::new(cfg, hcfg);
        let mut r = bytes;
        w.mem.load_warm_state(&mut r)?;
        w.pred.load_state(&mut r)?;
        if !r.is_empty() {
            return Err(format!(
                "warm-state snapshot has {} trailing bytes",
                r.len()
            ));
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};

    #[test]
    fn warming_trains_predictor_and_caches() {
        let src = r#"
            li x1, 0x2000
            li x9, 50
        loop:
            sd   x9, 0(x1)
            ld   x5, 0(x1)
            addi x9, x9, -1
            bne  x9, x0, loop
            halt
        "#;
        let p = assemble(src).unwrap();
        let t = trace_program(&p, 10_000).unwrap();
        let mut w = WarmState::new(&CoreConfig::small(), &fgstp_mem::HierarchyConfig::small(2));
        w.warm(t.insts());
        assert_eq!(w.pred.branches, 50);
        assert!(w.pred.mispredicts < 10, "loop branch is predictable");
        let stats = w.mem.stats();
        // Both cores' L1s were warmed with the same stream.
        assert!(stats.l1d[0].accesses > 0);
        assert_eq!(stats.l1d[0].accesses, stats.l1d[1].accesses);
        assert!(w.mem.l1d_has(0, 0x2000) && w.mem.l1d_has(1, 0x2000));
    }

    #[test]
    fn warm_state_round_trips_through_bytes() {
        let src = r#"
            li x1, 0x2000
            li x9, 200
        loop:
            sd   x9, 0(x1)
            ld   x5, 8(x1)
            addi x1, x1, 16
            addi x9, x9, -1
            bne  x9, x0, loop
            halt
        "#;
        let p = assemble(src).unwrap();
        let t = trace_program(&p, 10_000).unwrap();
        let cfg = CoreConfig::small();
        let hcfg = fgstp_mem::HierarchyConfig::small(2);
        let mut w = WarmState::new(&cfg, &hcfg);
        w.warm(t.insts());
        let bytes = w.save_state();
        let mut r = WarmState::from_state_bytes(&cfg, &hcfg, &bytes).unwrap();
        assert_eq!(r.pred.branches, w.pred.branches);
        assert_eq!(r.pred.mispredicts, w.pred.mispredicts);
        assert_eq!(
            format!("{:?}", r.mem.stats()),
            format!("{:?}", w.mem.stats())
        );
        // Post-restore behavior is identical too: warming the same tail
        // through both states produces identical predictor/cache stats.
        w.warm(t.insts());
        r.warm(t.insts());
        assert_eq!(r.pred.mispredicts, w.pred.mispredicts);
        assert_eq!(
            format!("{:?}", r.mem.stats()),
            format!("{:?}", w.mem.stats())
        );
    }

    #[test]
    fn warm_state_load_rejects_bad_payloads() {
        let cfg = CoreConfig::small();
        let hcfg = fgstp_mem::HierarchyConfig::small(1);
        let w = WarmState::new(&cfg, &hcfg);
        let bytes = w.save_state();
        // Truncation fails.
        assert!(WarmState::from_state_bytes(&cfg, &hcfg, &bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage fails.
        let mut long = bytes.clone();
        long.push(0);
        assert!(WarmState::from_state_bytes(&cfg, &hcfg, &long).is_err());
        // Wrong machine shape fails.
        let hcfg2 = fgstp_mem::HierarchyConfig::small(2);
        assert!(WarmState::from_state_bytes(&cfg, &hcfg2, &bytes).is_err());
    }
}
