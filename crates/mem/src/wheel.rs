//! A hierarchical event wheel for completion scheduling.
//!
//! The timing cores schedule every execution completion (ALU results,
//! cache hits, DRAM misses) for a known future cycle. A binary heap makes
//! every push and pop O(log n); this wheel makes them O(1) amortized: a
//! power-of-two ring of per-cycle buckets covers the near future (all
//! cache latencies land here), and the rare event beyond the window
//! (DRAM storms, violation penalties) parks in an overflow list that is
//! migrated into the ring every half-window.
//!
//! Draining preserves the heap's order exactly: events fire in
//! `(cycle, payload)` lexicographic order, which the cores rely on —
//! same-cycle completions must be processed in ascending global sequence
//! order because completion side effects (communication-fabric sends)
//! are bandwidth-contended and therefore order-sensitive.
//!
//! An occupancy bitmap over the ring answers [`EventWheel::next_due`] (the
//! earliest pending cycle, which lets an idle cycle loop jump straight to
//! it) and lets a drain skip empty buckets.

/// Ring size in cycles. Must be a power of two and larger than the
/// longest common completion latency (DRAM round trips included) so the
/// overflow list stays cold.
const WINDOW: u64 = 512;

/// Words in the ring's occupancy bitmap.
const WORDS: usize = (WINDOW / 64) as usize;

/// Future events indexed by due cycle, drained as the clock advances.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// `buckets[c & mask]` holds the events due at cycle `c` for every
    /// `c` in the current window `(cur, cur + WINDOW)`.
    buckets: Vec<Vec<(u64, u64)>>,
    /// Bit `b` is set while `buckets[b]` holds events.
    occupied: [u64; WORDS],
    mask: u64,
    /// Events scheduled beyond the window, migrated in every half-window.
    overflow: Vec<(u64, u64)>,
    /// The last cycle that was drained.
    cur: u64,
    pending: usize,
}

impl Default for EventWheel {
    fn default() -> EventWheel {
        EventWheel::new()
    }
}

impl EventWheel {
    /// Creates an empty wheel starting at cycle 0.
    pub fn new() -> EventWheel {
        EventWheel {
            buckets: vec![Vec::new(); WINDOW as usize],
            occupied: [0; WORDS],
            mask: WINDOW - 1,
            overflow: Vec::new(),
            cur: 0,
            pending: 0,
        }
    }

    /// Number of scheduled events not yet drained.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedules `payload` to fire at `cycle`, which must be strictly in
    /// the future of the last drained cycle.
    pub fn push(&mut self, cycle: u64, payload: u64) {
        debug_assert!(
            cycle > self.cur,
            "event at {cycle} is not after {}",
            self.cur
        );
        self.pending += 1;
        if cycle - self.cur <= self.mask {
            self.insert(cycle, payload);
        } else {
            self.overflow.push((cycle, payload));
        }
    }

    /// Puts an event due within the window into its bucket.
    fn insert(&mut self, cycle: u64, payload: u64) {
        let b = (cycle & self.mask) as usize;
        self.buckets[b].push((cycle, payload));
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// The earliest cycle an event is due, or `None` if none is pending.
    pub fn next_due(&self) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        // An overflow event can fall before every ring event until it
        // migrates, so the ring alone is not enough.
        let overflow = self.overflow.iter().map(|&(t, _)| t).min();
        self.next_ring_due().into_iter().chain(overflow).min()
    }

    /// The earliest cycle of an event in the ring. Ring events are due in
    /// `(cur, cur + WINDOW)`, one bucket per cycle, so the first occupied
    /// bucket after `cur`'s, in ring order, holds the earliest.
    fn next_ring_due(&self) -> Option<u64> {
        let start = ((self.cur + 1) & self.mask) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let mut found = None;
        for k in 0..=WORDS {
            let w = (w0 + k) % WORDS;
            let bits = match k {
                0 => self.occupied[w] & (!0 << b0),
                // Back at the first word: the buckets before `start`.
                WORDS => self.occupied[w] & ((1 << b0) - 1),
                _ => self.occupied[w],
            };
            if bits != 0 {
                found = Some(w * 64 + bits.trailing_zeros() as usize);
                break;
            }
        }
        let b = found?;
        Some(self.cur + 1 + ((b as u64).wrapping_sub(start as u64) & self.mask))
    }

    /// Appends every event due at or before `now` to `out`, in
    /// `(cycle, payload)` ascending order, and advances the wheel.
    pub fn drain_due_into(&mut self, now: u64, out: &mut Vec<(u64, u64)>) {
        while self.cur < now {
            if self.pending == 0 {
                self.cur = now;
                return;
            }
            // Only two kinds of cycle do work: one whose bucket holds
            // events, and a half-window boundary while the overflow does.
            let mut c = self.next_ring_due().map_or(now, |t| t.min(now));
            let half = self.mask >> 1;
            if !self.overflow.is_empty() {
                c = c.min((self.cur | half) + 1);
            }
            self.cur = c;
            // Half-window migration: an event parked in the overflow is
            // always moved into the ring strictly before it falls due.
            if !self.overflow.is_empty() && c & half == 0 {
                let mut i = 0;
                while i < self.overflow.len() {
                    let (t, p) = self.overflow[i];
                    debug_assert!(t > c, "overflow event {t} missed its migration");
                    if t - c <= self.mask {
                        self.insert(t, p);
                        self.overflow.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
            let b = (c & self.mask) as usize;
            let bucket = &mut self.buckets[b];
            if !bucket.is_empty() {
                debug_assert!(bucket.iter().all(|&(t, _)| t == c));
                // Same-cycle events sort by payload: the lexicographic
                // order a `BinaryHeap<Reverse<(cycle, payload)>>` pops in.
                if bucket.len() > 1 {
                    bucket.sort_unstable();
                }
                self.pending -= bucket.len();
                out.append(bucket);
                self.occupied[b / 64] &= !(1 << (b % 64));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Drives a wheel and a reference heap through the same schedule of
    /// `(push cycle, due cycle, payload)` events, sorted by push cycle,
    /// asserting identical drain order and next-due cycle. It runs twice:
    /// cycle by cycle, and jumping straight to the next due event or push
    /// the way an idle cycle loop does.
    fn check_against_heap(events: &[(u64, u64, u64)], horizon: u64) {
        for jump in [false, true] {
            let mut wheel = EventWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut out = Vec::new();
            let mut next = 0;
            let mut now = 0;
            while now < horizon {
                out.clear();
                wheel.drain_due_into(now, &mut out);
                let mut expect = Vec::new();
                while let Some(&Reverse((c, p))) = heap.peek() {
                    if c > now {
                        break;
                    }
                    heap.pop();
                    expect.push((c, p));
                }
                assert_eq!(out, expect, "divergence at cycle {now} (jump {jump})");
                while next < events.len() {
                    let (at, cycle, payload) = events[next];
                    if at != now {
                        break;
                    }
                    next += 1;
                    wheel.push(cycle, payload);
                    heap.push(Reverse((cycle, payload)));
                }
                let due = heap.peek().map(|&Reverse((c, _))| c);
                assert_eq!(
                    wheel.next_due(),
                    due,
                    "next due at cycle {now} (jump {jump})"
                );
                now = if jump {
                    let push = events.get(next).map_or(u64::MAX, |e| e.0);
                    due.unwrap_or(u64::MAX).min(push).min(horizon)
                } else {
                    now + 1
                };
            }
            assert!(wheel.is_empty(), "{} events never fired", wheel.len());
            assert!(heap.is_empty());
        }
    }

    #[test]
    fn drains_in_heap_order_with_random_schedule() {
        // Deterministic xorshift-style schedule mixing short latencies,
        // same-cycle collisions and far-future (overflow) events.
        let mut s: u64 = 0x9e3779b97f4a7c15;
        let mut events = Vec::new();
        let mut payload = 0;
        for at in 0..4000u64 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            for _ in 0..(s % 3) {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let delta = 1 + s % 700; // spills past the 512-cycle window
                events.push((at, at + delta, payload));
                payload += 1;
            }
        }
        check_against_heap(&events, 6000);
    }

    #[test]
    fn overflow_events_due_before_ring_events_come_first() {
        // Pushed at 0, the event due at 600 parks in the overflow until
        // the migration at 256; meanwhile later pushes put events due at
        // 700 and 705 in the ring, and one far beyond them overflows too.
        let events = [
            (0, 600, 1),
            (0, 2000, 4),
            (200, 700, 2),
            (201, 705, 3),
            (250, 255, 5),
        ];
        check_against_heap(&events, 2100);
    }

    #[test]
    fn same_cycle_events_fire_in_payload_order() {
        // Pushed out of payload order, across different push cycles.
        let events = [(0, 10, 7), (0, 10, 3), (1, 10, 5), (2, 10, 1)];
        let mut wheel = EventWheel::new();
        let mut out = Vec::new();
        for now in 0..=10 {
            for &(at, cycle, payload) in &events {
                if at == now {
                    // Interleave pushes with drains like the core loop does.
                    wheel.push(cycle, payload);
                }
            }
            out.clear();
            wheel.drain_due_into(now, &mut out);
            if now < 10 {
                assert!(out.is_empty());
            }
        }
        assert_eq!(out, vec![(10, 1), (10, 3), (10, 5), (10, 7)]);
    }

    #[test]
    fn far_future_events_survive_the_overflow_path() {
        let mut wheel = EventWheel::new();
        wheel.push(5 * WINDOW + 3, 42);
        assert_eq!(wheel.len(), 1);
        let mut out = Vec::new();
        for now in 0..=5 * WINDOW + 3 {
            out.clear();
            wheel.drain_due_into(now, &mut out);
            if now == 5 * WINDOW + 3 {
                assert_eq!(out, vec![(5 * WINDOW + 3, 42)]);
            } else {
                assert!(out.is_empty(), "fired early at {now}");
            }
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn empty_wheel_fast_forwards() {
        let mut wheel = EventWheel::new();
        let mut out = Vec::new();
        wheel.drain_due_into(10_000, &mut out);
        assert!(out.is_empty());
        // Events after a fast-forward still land on the right cycle.
        wheel.push(10_001, 9);
        wheel.drain_due_into(10_001, &mut out);
        assert_eq!(out, vec![(10_001, 9)]);
    }
}
