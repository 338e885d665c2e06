//! Integration: the heap a prepared program and a one-core machine hold,
//! per instruction.
//!
//! The bytes are counted by a wrapper around the system allocator, so this
//! file holds a single test: no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fg_stp_repro::core::{FgstpConfig, FgstpMachine, PreparedProgram};
use fg_stp_repro::ooo::{CoreConfig, ExecInst, PredictorState};
use fg_stp_repro::prelude::*;
use fg_stp_repro::sim::runner::trace_workload;
use fg_stp_repro::workloads::by_name;

/// The system allocator, counting the bytes it holds handed out.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the wrapper only updates a counter and never touches the
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract and `ptr` came from `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `make()`'s value and the bytes per instruction it holds allocated.
fn held<T>(insts: usize, make: impl FnOnce() -> T) -> (T, f64) {
    let before = LIVE.load(Ordering::Relaxed);
    let value = make();
    let after = LIVE.load(Ordering::Relaxed);
    (value, after.saturating_sub(before) as f64 / insts as f64)
}

#[test]
fn preparation_holds_one_annotated_stream_and_little_more() {
    let w = by_name("mcf_pointer_long", Scale::Test).unwrap();
    let t = trace_workload(&w, Scale::Test);
    let n = t.len();
    let entry = std::mem::size_of::<ExecInst>() as f64;

    // Four cores: the annotated stream, an 8-byte view entry per copy a
    // core runs, and the send masks and load barriers.
    let four = FgstpConfig::medium().with_cores(4);
    let (prog, bytes) = held(n, || PreparedProgram::new(t.insts(), &four));
    assert!(
        bytes <= entry + 40.0,
        "fgstp-medium-4 program holds {bytes:.1} B per instruction"
    );
    drop(prog);

    // One core: the annotated stream alone.
    let one = FgstpConfig::single(CoreConfig::medium());
    let (prog, bytes) = held(n, || PreparedProgram::new(t.insts(), &one));
    assert!(
        bytes <= entry + 8.0,
        "one-core program holds {bytes:.1} B per instruction"
    );

    // The one-core machine adds its per-gseq tables (predictions,
    // completion board, the core's dense lookups) and no delivery row.
    let mut pred = PredictorState::new(&one.core);
    let (machine, bytes) = held(n, || FgstpMachine::new(&prog, &one, 0, &mut pred));
    assert!(
        bytes <= 28.0,
        "one-core machine adds {bytes:.1} B per instruction"
    );
    drop(machine);
}
