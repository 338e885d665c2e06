//! Execution environment: everything a core shares with the outside world.
//!
//! The core pipeline ([`crate::Core`]) is machine-agnostic: branch
//! prediction, fetch gating, global commit order, cross-core operand
//! delivery and cross-core memory ordering all live behind the [`ExecEnv`]
//! trait. Its one implementation is the `fgstp` crate's N-core machine
//! environment, which also runs the one-core machines (a conventional
//! core or the fused Core Fusion core alone). This module provides the
//! pieces an environment is built from: the predictor bundle and the
//! fetch gate.

use fgstp_bpred::{Btb, DirectionPredictor, ReturnStack};
use fgstp_isa::{DynInst, InstClass, Op};
use fgstp_tracefile::{take_count, write_varint};

use crate::config::CoreConfig;
use crate::stream::ExecInst;

/// Outcome of predicting one control-flow instruction at fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The frontend would have steered fetch down the wrong path.
    pub mispredicted: bool,
    /// Direction was right but the target had to wait for decode (BTB
    /// miss on a taken branch or an unpredicted jump target).
    pub btb_miss: bool,
}

/// Cross-core (or cross-policy) constraint on issuing a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadGate {
    /// No constraint: the load may issue and access the cache normally.
    Free,
    /// The load may not issue before the given cycle (conservative
    /// ordering); retry when the cycle is reached.
    WaitUntil(u64),
    /// The constraint is not resolvable yet; retry next cycle.
    Retry,
    /// The load speculated past a conflicting store and must replay: its
    /// data becomes available at `data_at` (penalties included).
    Replay {
        /// Cycle at which the replayed load's data is available.
        data_at: u64,
    },
}

/// The world outside one core: prediction, fetch gating, commit order and
/// cross-core interactions.
pub trait ExecEnv {
    /// Predicts the fetched control-flow instruction `x`, training the
    /// predictor structures.
    fn predict(&mut self, x: &ExecInst) -> Prediction;

    /// Whether `core` may not yet fetch the instruction with global
    /// sequence `gseq` at cycle `now` (an older mispredicted branch is
    /// still unresolved or its redirect penalty has not elapsed).
    fn fetch_blocked(&mut self, core: usize, gseq: u64, now: u64) -> bool;

    /// Reports `core`'s next unfetched global sequence number (or `None`
    /// when its stream is exhausted), which the Fg-STP lookahead buffer
    /// uses to bound the skew between the cores' frontends.
    fn note_fetch_cursor(&mut self, core: usize, next_gseq: Option<u64>);

    /// Records that a mispredicted control instruction was fetched; all
    /// fetch beyond `gseq` blocks until it resolves.
    fn block_fetch_after(&mut self, gseq: u64);

    /// Records that the mispredicted instruction `gseq` resolved; fetch
    /// beyond it resumes at `resume` (resolution plus redirect penalty).
    fn resolve_fetch_block(&mut self, gseq: u64, resume: u64);

    /// Records completion of `x` on `core` at `cycle` (delivers sends,
    /// updates the global completion board).
    fn on_complete(&mut self, core: usize, x: &ExecInst, cycle: u64);

    /// Cycle at which the value produced by `producer` (on the other core)
    /// is available to consumers on `core`, or `None` if not yet known.
    fn cross_operand_ready(&mut self, core: usize, producer: u64) -> Option<u64>;

    /// Cross-core memory-ordering constraint for load `x`, whose operands
    /// have been ready since `ready_since`.
    fn cross_load_gate(&mut self, x: &ExecInst, ready_since: u64) -> LoadGate;

    /// Whether `x` may commit now (global program order across cores).
    fn can_commit(&self, x: &ExecInst) -> bool;
}

/// Branch-prediction state bundle used by environments.
pub struct PredictorState {
    dir: Box<dyn DirectionPredictor>,
    btb: Btb,
    ras: ReturnStack,
    /// Conditional-branch predictions made.
    pub branches: u64,
    /// Conditional-branch mispredictions.
    pub mispredicts: u64,
}

impl std::fmt::Debug for PredictorState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorState")
            .field("branches", &self.branches)
            .field("mispredicts", &self.mispredicts)
            .finish_non_exhaustive()
    }
}

impl PredictorState {
    /// Builds the predictor bundle described by `cfg`.
    pub fn new(cfg: &CoreConfig) -> PredictorState {
        PredictorState {
            dir: cfg.predictor.build(),
            btb: Btb::new(cfg.btb_bits),
            ras: ReturnStack::new(cfg.ras_depth),
            branches: 0,
            mispredicts: 0,
        }
    }

    /// Appends the full predictor-bundle state — direction tables, BTB,
    /// RAS, then the cumulative branch counters as varints — to `out`,
    /// for checkpointed-sampling snapshots.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.dir.save_state(out);
        self.btb.save_state(out);
        self.ras.save_state(out);
        write_varint(out, self.branches);
        write_varint(out, self.mispredicts);
    }

    /// Restores state written by [`PredictorState::save_state`] on a
    /// bundle built from the same [`CoreConfig`], consuming it from the
    /// front of `bytes`. Any shape mismatch or truncation is an `Err`
    /// (the bundle is then unspecified — discard it), never a panic.
    pub fn load_state(&mut self, bytes: &mut &[u8]) -> Result<(), String> {
        self.dir.load_state(bytes)?;
        self.btb.load_state(bytes)?;
        self.ras.load_state(bytes)?;
        self.branches = take_count(bytes, "branches")?;
        self.mispredicts = take_count(bytes, "mispredicts")?;
        Ok(())
    }

    /// Predicts and trains on the control instruction `x`.
    pub fn predict(&mut self, x: &ExecInst) -> Prediction {
        self.predict_dyn(&x.d)
    }

    /// Predicts and trains on the dynamic control instruction `d` directly
    /// (the functional-warming path has no [`ExecInst`] wrapper).
    pub fn predict_dyn(&mut self, d: &DynInst) -> Prediction {
        let pc = d.pc;
        let actual_target = d.next_pc;
        match d.class() {
            InstClass::Branch => {
                let taken = d.taken.expect("branch has outcome");
                self.branches += 1;
                let predicted = self.dir.predict(pc);
                self.dir.update(pc, taken);
                let mut btb_miss = false;
                if predicted && taken {
                    btb_miss = self.btb.lookup(pc) != Some(actual_target);
                }
                if taken {
                    self.btb.update(pc, actual_target);
                }
                let mispredicted = predicted != taken;
                if mispredicted {
                    self.mispredicts += 1;
                }
                Prediction {
                    mispredicted,
                    btb_miss: !mispredicted && btb_miss,
                }
            }
            InstClass::Jump => {
                let op = d.inst.op;
                let rd_is_link = d.inst.rd.index() == 1; // ra
                let is_return = op == Op::Jalr && d.inst.rs1.index() == 1 && d.inst.rd.is_zero();
                let predicted_target = if is_return {
                    self.ras.pop()
                } else if op == Op::Jalr {
                    self.btb.lookup(pc)
                } else {
                    // Direct jump: target known from the BTB, or at decode.
                    self.btb.lookup(pc)
                };
                if rd_is_link {
                    self.ras.push(pc + 1);
                }
                self.btb.update(pc, actual_target);
                match (op, predicted_target) {
                    // An indirect jump to the wrong predicted target is a
                    // full misprediction.
                    (Op::Jalr, Some(t)) if t != actual_target => Prediction {
                        mispredicted: true,
                        btb_miss: false,
                    },
                    (Op::Jalr, None) => Prediction {
                        mispredicted: true,
                        btb_miss: false,
                    },
                    // A direct jump is never direction-mispredicted; an
                    // unknown target just costs a decode bubble.
                    (_, Some(t)) if t == actual_target => Prediction {
                        mispredicted: false,
                        btb_miss: false,
                    },
                    _ => Prediction {
                        mispredicted: false,
                        btb_miss: true,
                    },
                }
            }
            _ => Prediction {
                mispredicted: false,
                btb_miss: false,
            },
        }
    }
}

/// Fetch gate shared by environments: pending mispredicted control
/// instructions, each blocking fetch of anything younger.
#[derive(Debug, Default)]
pub struct FetchGate {
    /// (gseq of the mispredicted instruction, cycle fetch may resume;
    /// `u64::MAX` until resolved).
    pending: Vec<(u64, u64)>,
}

impl FetchGate {
    /// Whether fetching `gseq` is blocked at `now`.
    pub fn blocked(&mut self, gseq: u64, now: u64) -> bool {
        self.pending.retain(|&(_, resume)| resume > now);
        self.pending.iter().any(|&(b, _)| b < gseq)
    }

    /// Blocks fetch beyond `gseq`.
    pub fn block_after(&mut self, gseq: u64) {
        self.pending.push((gseq, u64::MAX));
    }

    /// Resolves the block at `gseq`; fetch resumes at `resume`.
    pub fn resolve(&mut self, gseq: u64, resume: u64) {
        for p in &mut self.pending {
            if p.0 == gseq {
                p.1 = resume;
            }
        }
    }

    /// The earliest resume cycle after `now` of a resolved block, when
    /// fetch behind it can move again.
    pub fn next_resume(&self, now: u64) -> Option<u64> {
        self.pending
            .iter()
            .map(|&(_, resume)| resume)
            .filter(|&resume| resume > now && resume != u64::MAX)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};

    use crate::stream::build_exec_stream;

    fn exec_insts(src: &str) -> Vec<ExecInst> {
        let p = assemble(src).unwrap();
        let t = trace_program(&p, 10_000).unwrap();
        build_exec_stream(t.insts())
    }

    #[test]
    fn fetch_gate_blocks_only_younger() {
        let mut g = FetchGate::default();
        g.block_after(10);
        assert!(!g.blocked(10, 0));
        assert!(g.blocked(11, 0));
        g.resolve(10, 100);
        assert!(g.blocked(11, 99));
        assert!(!g.blocked(11, 100));
    }

    #[test]
    fn fetch_gate_tracks_multiple_blocks() {
        let mut g = FetchGate::default();
        g.block_after(5);
        g.block_after(9);
        g.resolve(9, 50);
        assert!(g.blocked(7, 60), "older block at 5 still pending");
        g.resolve(5, 80);
        assert!(!g.blocked(7, 80));
    }

    #[test]
    fn predictor_counts_branch_outcomes() {
        let xs = exec_insts(
            r#"
                li x1, 5
            loop:
                addi x1, x1, -1
                bne  x1, x0, loop
                halt
            "#,
        );
        let mut pred = PredictorState::new(&CoreConfig::small());
        for x in &xs {
            if x.class().is_control() {
                pred.predict(x);
            }
        }
        let (branches, mispredicts) = (pred.branches, pred.mispredicts);
        assert_eq!(branches, 5);
        assert!(mispredicts <= branches);
        assert!(
            mispredicts >= 1,
            "the final not-taken is mispredicted at least"
        );
    }

    #[test]
    fn return_stack_predicts_matched_call_return() {
        let xs = exec_insts(
            r#"
                jal  ra, func       # 0: call
                halt
            func:
                jalr x0, ra, 0      # return to 1
            "#,
        );
        let mut pred = PredictorState::new(&CoreConfig::small());
        // Call: direct jump, cold BTB -> decode bubble only.
        let p0 = pred.predict(&xs[0]);
        assert!(!p0.mispredicted);
        assert!(p0.btb_miss);
        // Return: the RAS has the link address -> predicted correctly.
        let p1 = pred.predict(&xs[1]);
        assert!(!p1.mispredicted, "return should be predicted by the RAS");
    }
}
