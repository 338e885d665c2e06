//! Per-cycle sinks: how the timing models feed the accounting.
//!
//! The cycle loop is the hottest code in the simulator, so the sink is a
//! compile-time choice: drivers are generic over [`CycleSink`] and every
//! accounting call sits behind `if S::ENABLED` with `ENABLED` an
//! associated constant. With [`NullSink`] the whole instrumentation body
//! is dead code the optimizer removes — no virtual dispatch, no runtime
//! flag, no cost.

use crate::cpi::{CpiStack, StallCategory};

/// What one core did on one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleOutcome {
    /// Committed `n ≥ 1` architectural instructions (a base cycle).
    Commit(u32),
    /// Committed nothing; the cycle is charged to one category.
    Stall(StallCategory),
}

/// The pipeline stages an instruction passes through, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Instruction entered the pipeline from the fetch stream.
    Fetch,
    /// Instruction was renamed and entered the ROB/IQ.
    Dispatch,
    /// Instruction was selected and began execution.
    Issue,
    /// Result became available.
    Complete,
    /// Instruction retired.
    Commit,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Fetch,
        Stage::Dispatch,
        Stage::Issue,
        Stage::Complete,
        Stage::Commit,
    ];

    /// Single-character marker used by timeline renderers.
    pub fn marker(self) -> char {
        match self {
            Stage::Fetch => 'f',
            Stage::Dispatch => 'd',
            Stage::Issue => 'i',
            Stage::Complete => 'c',
            Stage::Commit => 'r',
        }
    }
}

/// Receiver for per-cycle attribution events and per-instruction stage
/// events.
///
/// `ENABLED` gates every call site at compile time: drivers must wrap
/// instrumentation in `if S::ENABLED { ... }` so a [`NullSink`] build
/// carries zero cost in the cycle loop (static dispatch only — no `dyn`).
pub trait CycleSink {
    /// Whether this sink records anything. Call sites are gated on this
    /// constant, so a `false` sink erases the instrumentation entirely.
    const ENABLED: bool;

    /// Records the outcome of cycle `now` on `core`.
    fn record(&mut self, core: usize, now: u64, outcome: CycleOutcome);

    /// Records that instruction `gseq` reached `stage` on `core` at
    /// `cycle`. Only pipeline recorders need this; the default ignores it.
    #[inline(always)]
    fn stage(&mut self, _core: usize, _gseq: u64, _stage: Stage, _cycle: u64) {}
}

/// The disabled sink: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl CycleSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _core: usize, _now: u64, _outcome: CycleOutcome) {}
}

/// One maximal run of consecutive cycles a core spent in the same state —
/// the unit the Chrome-trace exporter renders as a duration slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// Core the episode happened on.
    pub core: usize,
    /// `None` for a committing (base) episode, the category otherwise.
    pub category: Option<StallCategory>,
    /// First cycle of the episode.
    pub start: u64,
    /// One past the last cycle of the episode.
    pub end: u64,
}

impl Episode {
    /// Episode length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }

    /// Display name ("commit" or the category label).
    pub fn name(&self) -> &'static str {
        match self.category {
            None => "commit",
            Some(c) => c.label(),
        }
    }
}

/// The state an in-progress episode is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpenEpisode {
    category: Option<StallCategory>,
    start: u64,
}

/// Episodes kept before the recorder stops extending the log (the stacks
/// keep counting; only the per-cycle timeline is truncated).
pub const DEFAULT_EPISODE_CAP: usize = 250_000;

/// The recording sink: per-core [`CpiStack`]s, and (optionally) the
/// episode timeline the Chrome-trace exporter consumes.
#[derive(Debug, Clone)]
pub struct CpiSink {
    stacks: Vec<CpiStack>,
    open: Vec<Option<OpenEpisode>>,
    episodes: Vec<Episode>,
    record_episodes: bool,
    cap: usize,
    truncated: bool,
}

impl CpiSink {
    /// A sink for `cores` cores, counting stacks only (no timeline).
    pub fn new(cores: usize) -> CpiSink {
        CpiSink {
            stacks: vec![CpiStack::new(); cores],
            open: vec![None; cores],
            episodes: Vec::new(),
            record_episodes: false,
            cap: DEFAULT_EPISODE_CAP,
            truncated: false,
        }
    }

    /// A sink that additionally records the episode timeline (for the
    /// Chrome-trace exporter), keeping at most [`DEFAULT_EPISODE_CAP`]
    /// episodes.
    pub fn with_episodes(cores: usize) -> CpiSink {
        CpiSink {
            record_episodes: true,
            ..CpiSink::new(cores)
        }
    }

    /// Per-core stacks, indexed by core id.
    pub fn stacks(&self) -> &[CpiStack] {
        &self.stacks
    }

    /// All per-core stacks merged into one machine-level stack
    /// (aggregate core-cycles; see [`CpiStack`]).
    pub fn merged(&self) -> CpiStack {
        let mut m = CpiStack::new();
        for s in &self.stacks {
            m.merge(s);
        }
        m
    }

    /// Closes any open episodes at `end` and returns the timeline (empty
    /// unless built by [`CpiSink::with_episodes`]).
    pub fn finish_episodes(&mut self, end: u64) -> Vec<Episode> {
        for (core, open) in self.open.iter_mut().enumerate() {
            if let Some(o) = open.take() {
                if self.episodes.len() < self.cap {
                    self.episodes.push(Episode {
                        core,
                        category: o.category,
                        start: o.start,
                        end,
                    });
                }
            }
        }
        std::mem::take(&mut self.episodes)
    }

    /// Whether the episode timeline hit its cap and stopped extending
    /// (the stacks are never truncated).
    pub fn episodes_truncated(&self) -> bool {
        self.truncated
    }
}

impl CycleSink for CpiSink {
    const ENABLED: bool = true;

    fn record(&mut self, core: usize, now: u64, outcome: CycleOutcome) {
        match outcome {
            CycleOutcome::Commit(n) => self.stacks[core].record_commit(n),
            CycleOutcome::Stall(cat) => self.stacks[core].record_stall(cat),
        }
        if !self.record_episodes {
            return;
        }
        let category = match outcome {
            CycleOutcome::Commit(_) => None,
            CycleOutcome::Stall(cat) => Some(cat),
        };
        match self.open[core] {
            // Contiguous same-state cycles extend the open episode.
            Some(o) if o.category == category => {}
            Some(o) => {
                if self.episodes.len() < self.cap {
                    self.episodes.push(Episode {
                        core,
                        category: o.category,
                        start: o.start,
                        end: now,
                    });
                } else {
                    self.truncated = true;
                }
                self.open[core] = Some(OpenEpisode {
                    category,
                    start: now,
                });
            }
            None => {
                self.open[core] = Some(OpenEpisode {
                    category,
                    start: now,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        // Recording through it is a no-op (and must not panic).
        NullSink.record(3, 7, CycleOutcome::Commit(1));
    }

    #[test]
    fn cpi_sink_accumulates_per_core() {
        let mut s = CpiSink::new(2);
        s.record(0, 0, CycleOutcome::Commit(2));
        s.record(1, 0, CycleOutcome::Stall(StallCategory::CommWait));
        s.record(0, 1, CycleOutcome::Stall(StallCategory::MemDram));
        s.record(1, 1, CycleOutcome::Commit(1));
        assert_eq!(s.stacks()[0].committed, 2);
        assert_eq!(s.stacks()[1].stall(StallCategory::CommWait), 1);
        let m = s.merged();
        assert_eq!(m.committed, 3);
        assert_eq!(m.total_cycles(), 4, "two cores × two cycles");
        assert!(m.check_against(4).is_ok());
    }

    #[test]
    fn episodes_capture_contiguous_runs() {
        let mut s = CpiSink::with_episodes(1);
        for now in 0..3 {
            s.record(0, now, CycleOutcome::Stall(StallCategory::Frontend));
        }
        for now in 3..5 {
            s.record(0, now, CycleOutcome::Commit(1));
        }
        s.record(0, 5, CycleOutcome::Stall(StallCategory::MemL2));
        let eps = s.finish_episodes(6);
        assert_eq!(eps.len(), 3);
        assert_eq!(eps[0].category, Some(StallCategory::Frontend));
        assert_eq!((eps[0].start, eps[0].end), (0, 3));
        assert_eq!(eps[1].category, None);
        assert_eq!(eps[1].name(), "commit");
        assert_eq!(eps[2].cycles(), 1);
    }

    #[test]
    fn plain_sink_keeps_no_timeline() {
        let mut s = CpiSink::new(1);
        s.record(0, 0, CycleOutcome::Commit(1));
        assert!(s.finish_episodes(1).is_empty());
    }

    #[test]
    fn episode_cap_truncates_timeline_not_stacks() {
        let mut s = CpiSink::with_episodes(1);
        s.cap = 2;
        // Alternate states: every cycle closes an episode.
        for now in 0..8 {
            let outcome = if now % 2 == 0 {
                CycleOutcome::Commit(1)
            } else {
                CycleOutcome::Stall(StallCategory::DepChain)
            };
            s.record(0, now, outcome);
        }
        assert!(s.episodes_truncated());
        assert_eq!(s.merged().total_cycles(), 8, "stacks keep counting");
        assert!(s.finish_episodes(8).len() <= 3);
    }
}
