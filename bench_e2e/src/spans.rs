//! Host-time accounting for a traced pass.
//!
//! A traced pass runs the workload's work serially through the layer
//! entry points. Each call on the pass's own path is timed and charged
//! to the layer part it belongs to. A quantity no single call measures
//! is a difference: the caller times the enclosing call with
//! [`Spans::lap`], times the inner step separately with [`Spans::probe`]
//! — an extra call whose time is removed from the pass — and charges
//! each share. Whatever the pass spends outside charged calls is the
//! residual `sim.overhead_s`, so the parts always sum to
//! `traced_wall_s`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the residual part.
pub const RESIDUAL: &str = "sim.overhead_s";

/// The span recorder of one traced pass.
#[derive(Debug)]
pub struct Spans {
    start: Instant,
    probe_s: f64,
    parts: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

/// A finished pass: its wall time less probes, and the per-layer parts
/// (residual included) that sum to it.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub traced_wall_s: f64,
    pub parts: BTreeMap<&'static str, f64>,
    /// Work counted at the same calls (instructions, cycles, windows).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Starts the pass clock.
    pub fn start() -> Spans {
        Spans {
            start: Instant::now(),
            probe_s: 0.0,
            parts: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Times an on-path call and charges it all to `part`.
    pub fn time<T>(&mut self, part: &'static str, f: impl FnOnce() -> T) -> T {
        let (v, s) = self.lap(f);
        self.charge(part, s);
        v
    }

    /// Times an on-path call without charging it; the caller splits the
    /// returned seconds with [`Spans::charge`].
    pub fn lap<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let v = f();
        (v, t.elapsed().as_secs_f64())
    }

    /// Times an off-path call: its seconds are returned and removed from
    /// the pass wall time.
    pub fn probe<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let (v, s) = self.lap(f);
        self.probe_s += s;
        (v, s)
    }

    /// Adds `secs` to `part`.
    pub fn charge(&mut self, part: &'static str, secs: f64) {
        *self.parts.entry(part).or_insert(0.0) += secs;
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Ends the pass: the residual is whatever the charged parts leave of
    /// the wall time.
    pub fn finish(self) -> Breakdown {
        let traced_wall_s = self.start.elapsed().as_secs_f64() - self.probe_s;
        let mut parts = self.parts;
        parts.remove(RESIDUAL);
        let charged: f64 = parts.values().sum();
        parts.insert(RESIDUAL, traced_wall_s - charged);
        Breakdown {
            traced_wall_s,
            parts,
            counts: self.counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn traced_parts_sum_to_traced_wall() {
        let mut spans = Spans::start();
        spans.time("tracefile.load_s", || spin(3));
        let ((), whole) = spans.lap(|| spin(6));
        let ((), inner) = spans.probe(|| spin(2));
        spans.charge("ooo.annotate_s", inner);
        spans.charge("ooo.cycle_s", whole - inner);
        spin(1); // unattributed: lands in the residual
        let b = spans.finish();
        let sum: f64 = b.parts.values().sum();
        assert!(
            (sum - b.traced_wall_s).abs() < 1e-9,
            "{sum} vs {}",
            b.traced_wall_s
        );
        assert!(b.parts[RESIDUAL] > 0.0);
        // The probe's own time is not part of the pass.
        assert!(b.traced_wall_s >= 0.010 && b.traced_wall_s < 0.012 + 0.050);
    }
}
