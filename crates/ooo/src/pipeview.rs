//! Per-instruction pipeline event recording and a text "pipeview".
//!
//! A [`PipeRecorder`] is a [`CycleSink`]: pass it as the sink of a run and
//! every instruction's fetch / dispatch / issue / complete / commit cycles
//! are captured, per core. The recorder renders a gem5-O3-style timeline
//! for inspection, and exposes the raw events for programmatic assertions
//! (several tests pin stage-ordering invariants through it).

use std::collections::BTreeMap;

use fgstp_isa::DynInst;
use fgstp_telemetry::{CycleOutcome, CycleSink, Stage};

/// Recorded events for one dynamic instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstEvents {
    /// Cycle per stage (`None` if not recorded).
    pub fetch: Option<u64>,
    /// See [`InstEvents::fetch`].
    pub dispatch: Option<u64>,
    /// See [`InstEvents::fetch`].
    pub issue: Option<u64>,
    /// See [`InstEvents::fetch`].
    pub complete: Option<u64>,
    /// See [`InstEvents::fetch`].
    pub commit: Option<u64>,
}

impl InstEvents {
    /// Cycle of `stage`, if recorded.
    pub fn at(&self, stage: Stage) -> Option<u64> {
        match stage {
            Stage::Fetch => self.fetch,
            Stage::Dispatch => self.dispatch,
            Stage::Issue => self.issue,
            Stage::Complete => self.complete,
            Stage::Commit => self.commit,
        }
    }

    fn set(&mut self, stage: Stage, cycle: u64) {
        let slot = match stage {
            Stage::Fetch => &mut self.fetch,
            Stage::Dispatch => &mut self.dispatch,
            Stage::Issue => &mut self.issue,
            Stage::Complete => &mut self.complete,
            Stage::Commit => &mut self.commit,
        };
        *slot = Some(cycle);
    }

    /// Whether the recorded cycles are monotonically non-decreasing in
    /// pipeline order (ignoring unrecorded stages).
    pub fn is_ordered(&self) -> bool {
        let mut last = 0u64;
        for stage in Stage::ALL {
            if let Some(c) = self.at(stage) {
                if c < last {
                    return false;
                }
                last = c;
            }
        }
        true
    }
}

/// Records pipeline events for the instructions of one run.
///
/// Events are keyed by core and global sequence number, so a replicated
/// instruction has one row on every core that holds a copy.
#[derive(Debug, Default)]
pub struct PipeRecorder {
    events: BTreeMap<(usize, u64), InstEvents>,
    /// Record only instructions with `gseq < limit` (0 = record all).
    limit: u64,
}

impl PipeRecorder {
    /// Records every instruction.
    pub fn new() -> PipeRecorder {
        PipeRecorder::default()
    }

    /// Records only the first `limit` instructions (by global sequence),
    /// bounding memory for long runs.
    pub fn with_limit(limit: u64) -> PipeRecorder {
        PipeRecorder {
            events: BTreeMap::new(),
            limit,
        }
    }

    /// Events of instruction `gseq` on `core`, if recorded.
    pub fn events(&self, core: usize, gseq: u64) -> Option<&InstEvents> {
        self.events.get(&(core, gseq))
    }

    /// Number of (core, instruction) rows with any recorded event.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates `(gseq, events)` of the instructions `core` held, in
    /// program order.
    pub fn iter(&self, core: usize) -> impl Iterator<Item = (u64, &InstEvents)> {
        self.events
            .range((core, 0)..=(core, u64::MAX))
            .map(|(&(_, gseq), ev)| (gseq, ev))
    }

    /// Renders a text timeline of `core`'s instructions `from..to`
    /// (gem5-O3 pipeview style): one row per instruction, one column per
    /// cycle, markers `f d i c r` for the stages. Each row's instruction
    /// is looked up by `gseq` in `trace`, the trace the run executed.
    pub fn render(&self, trace: &[DynInst], core: usize, from: u64, to: u64) -> String {
        let rows: Vec<(u64, &InstEvents)> = self
            .iter(core)
            .filter(|(g, _)| (from..to).contains(g))
            .collect();
        let cycles = || {
            rows.iter()
                .flat_map(|(_, e)| Stage::ALL.iter().filter_map(|&s| e.at(s)))
        };
        let (Some(min_cycle), Some(max_cycle)) = (cycles().min(), cycles().max()) else {
            return String::from("(no events recorded in range)\n");
        };
        let span = (max_cycle - min_cycle + 1) as usize;
        let mut out = String::new();
        out.push_str(&format!("cycles {min_cycle}..={max_cycle}\n"));
        for (gseq, ev) in rows {
            let mut lane = vec!['.'; span];
            for stage in Stage::ALL {
                if let Some(c) = ev.at(stage) {
                    let idx = (c - min_cycle) as usize;
                    lane[idx] = if lane[idx] == '.' {
                        stage.marker()
                    } else {
                        '*' // multiple stages in one cycle
                    };
                }
            }
            let lane: String = lane.into_iter().collect();
            let inst = trace[gseq as usize].inst;
            out.push_str(&format!("[{gseq:>6}] {lane}  {inst}\n"));
        }
        out
    }
}

impl CycleSink for PipeRecorder {
    const ENABLED: bool = true;

    fn record(&mut self, _core: usize, _now: u64, _outcome: CycleOutcome) {}

    fn stage(&mut self, core: usize, gseq: u64, stage: Stage, cycle: u64) {
        if self.limit != 0 && gseq >= self.limit {
            return;
        }
        self.events
            .entry((core, gseq))
            .or_default()
            .set(stage, cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};

    #[test]
    fn events_record_and_order() {
        let mut r = PipeRecorder::new();
        for (stage, cycle) in Stage::ALL.into_iter().zip([1, 4, 5, 6, 7]) {
            r.stage(0, 0, stage, cycle);
        }
        let e = r.events(0, 0).unwrap();
        assert!(e.is_ordered());
        assert_eq!(e.at(Stage::Issue), Some(5));
        assert!(r.events(1, 0).is_none(), "rows are per core");
    }

    #[test]
    fn out_of_order_cycles_are_detected() {
        let mut e = InstEvents::default();
        e.set(Stage::Fetch, 10);
        e.set(Stage::Commit, 5);
        assert!(!e.is_ordered());
    }

    #[test]
    fn limit_bounds_recording() {
        let mut r = PipeRecorder::with_limit(2);
        for g in 0..10 {
            r.stage(0, g, Stage::Fetch, g);
        }
        assert_eq!(r.len(), 2);
        assert!(r.events(0, 5).is_none());
    }

    #[test]
    fn render_shows_markers_in_columns() {
        let p = assemble("li x1, 1\nli x2, 2\nhalt").unwrap();
        let t = trace_program(&p, 100).unwrap();
        let mut r = PipeRecorder::new();
        r.stage(0, 0, Stage::Fetch, 0);
        r.stage(0, 0, Stage::Commit, 4);
        r.stage(0, 1, Stage::Fetch, 1);
        let view = r.render(t.insts(), 0, 0, 2);
        let lines: Vec<&str> = view.lines().collect();
        assert!(lines[0].contains("0..=4"));
        assert!(lines[1].contains("f...r"), "{view}");
        assert!(lines[2].contains(".f..."), "{view}");
        assert!(lines[2].ends_with(&t.insts()[1].inst.to_string()), "{view}");
    }

    #[test]
    fn render_of_empty_range_is_graceful() {
        let r = PipeRecorder::new();
        assert!(r.render(&[], 0, 0, 10).contains("no events"));
    }

    #[test]
    fn iter_is_in_program_order() {
        let mut r = PipeRecorder::new();
        for g in [5u64, 1, 3] {
            r.stage(0, g, Stage::Fetch, g);
        }
        r.stage(1, 2, Stage::Fetch, 2);
        let order: Vec<u64> = r.iter(0).map(|(g, _)| g).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }
}
