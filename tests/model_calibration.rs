//! Model calibration: the timing model must track analytical expectations
//! on microbenchmarks whose steady-state behaviour can be computed by
//! hand. Each test states the closed-form expectation and allows a
//! tolerance for pipeline fill and loop overhead.
//!
//! All kernels are *loops* (warm I-cache): long straight-line code is
//! compulsory-miss bound in fetch (one line per 16 instructions), which is
//! itself pinned by `straight_line_code_is_fetch_miss_bound`.
//!
//! These are the tests that keep the simulator *meaning* something: a
//! change that silently makes dependent loads free or issue width
//! unlimited fails here immediately.

use fg_stp_repro::ooo::RunResult;
use fg_stp_repro::prelude::*;

/// `t` on one core of shape `core`, running alone.
fn run_alone(t: &fg_stp_repro::isa::Trace, core: CoreConfig, hcfg: &HierarchyConfig) -> RunResult {
    run_fgstp(t.insts(), &FgstpConfig::single(core), hcfg).0
}

fn cycles_of(src: &str) -> (u64, u64) {
    let p = assemble(src).unwrap();
    let t = trace_program(&p, 2_000_000).unwrap();
    let r = run_alone(&t, CoreConfig::small(), &HierarchyConfig::small(1));
    assert_eq!(r.committed, t.len() as u64);
    (r.cycles, r.committed)
}

/// A counted loop around `body`, with `iters` iterations.
fn looped(body: &str, iters: usize) -> String {
    format!("li x9, {iters}\nloop:\n{body}addi x9, x9, -1\nbne x9, x0, loop\nhalt\n")
}

/// Steady-state cycles per iteration, measured from two run lengths
/// (eliminates cold-start effects exactly).
fn steady_cycles_per_iter(body: &str, short: usize, long: usize) -> f64 {
    let (c_short, _) = cycles_of(&looped(body, short));
    let (c_long, _) = cycles_of(&looped(body, long));
    (c_long - c_short) as f64 / (long - short) as f64
}

#[test]
fn dependent_alu_chain_runs_at_one_per_cycle() {
    // 16 chained adds per iteration: the chain limits the loop to
    // ~16 cycles/iteration (1 cycle per dependent op).
    let body = "add x1, x1, x1\n".repeat(16);
    let per_iter = steady_cycles_per_iter(&body, 200, 1000);
    let per_op = per_iter / 16.0;
    assert!(
        (0.95..=1.2).contains(&per_op),
        "dependent ALU chain: {per_op} cycles/op, expected ~1"
    );
}

#[test]
fn independent_alu_stream_saturates_the_width() {
    // 16 independent ops per iteration on a 2-wide core: fetch/issue bound
    // at ~0.5 cycles/op plus the taken-branch fetch break.
    let mut body = String::new();
    for i in 0..16 {
        body.push_str(&format!("li x{}, {i}\n", 1 + (i % 8)));
    }
    let per_op = steady_cycles_per_iter(&body, 200, 1000) / 16.0;
    assert!(
        (0.45..=0.70).contains(&per_op),
        "independent ALU: {per_op} cycles/op, expected ~0.5"
    );
}

#[test]
fn dependent_multiply_chain_runs_at_mul_latency() {
    // int_mul latency is 3 cycles.
    let body = "mul x1, x1, x1\n".repeat(8);
    let per_op = steady_cycles_per_iter(&body, 100, 500) / 8.0;
    assert!(
        (2.9..=3.3).contains(&per_op),
        "mul chain: {per_op} cycles/op, expected ~3"
    );
}

#[test]
fn load_to_use_chain_runs_at_agen_plus_l1() {
    // A self-pointer chase within one cached line: each load costs
    // agen (1) + L1 hit (2) = 3 cycles on the small core.
    let body = "ld x1, 0(x1)\n".repeat(8);
    let src = |iters: usize| {
        format!(
            ".data 0x1000\n.word 0x1000\nli x1, 0x1000\nli x9, {iters}\nloop:\n{body}addi x9, x9, -1\nbne x9, x0, loop\nhalt\n"
        )
    };
    let (c1, _) = cycles_of(&src(100));
    let (c2, _) = cycles_of(&src(500));
    let per_op = (c2 - c1) as f64 / 400.0 / 8.0;
    assert!(
        (2.8..=3.4).contains(&per_op),
        "L1 load chain: {per_op} cycles/load, expected ~3"
    );
}

#[test]
fn dram_bound_chain_pays_the_full_path() {
    // Dependent loads to distinct cold lines: L1 (2) + L2 (12) + DRAM
    // (120) = 134 cycles each on the small hierarchy (straight line is
    // fine here: the D-side misses dwarf the I-side ones).
    let make = |n: usize| {
        let mut s = String::from(".data 0x100000\n");
        for i in 0..n {
            s.push_str(&format!(
                ".data {}\n.word {}\n",
                0x10_0000 + i * 4096,
                0x10_0000 + (i + 1) * 4096
            ));
        }
        s.push_str("li x1, 0x100000\n");
        for _ in 0..n {
            s.push_str("ld x1, 0(x1)\n");
        }
        s.push_str("halt\n");
        s
    };
    let (c1, _) = cycles_of(&make(20));
    let (c2, _) = cycles_of(&make(60));
    let per_load = (c2 - c1) as f64 / 40.0;
    assert!(
        (125.0..=150.0).contains(&per_load),
        "DRAM chain: {per_load} cycles/load, expected ~134"
    );
}

#[test]
fn straight_line_code_is_fetch_miss_bound() {
    // 1000 unique instructions with no reuse: one compulsory I-line miss
    // per 16 instructions (64-byte lines), i.e. ~134/16 ≈ 8.4 cycles/op —
    // the effect that forces every other calibration kernel to loop.
    let mut src = String::new();
    for i in 0..1000 {
        src.push_str(&format!("li x{}, {i}\n", 1 + (i % 8)));
    }
    src.push_str("halt\n");
    let (cycles, committed) = cycles_of(&src);
    let per_op = cycles as f64 / committed as f64;
    assert!(
        (7.0..=10.0).contains(&per_op),
        "straight line: {per_op} cycles/op, expected ~8.4"
    );
}

#[test]
fn unpredictable_branches_pay_the_mispredict_penalty() {
    // A branch taken on a pseudo-random bit: ~50% mispredicts. Against
    // the same loop with an always-false condition, the per-iteration
    // difference approximates mispredict_rate * penalty.
    let body = |cond: &str| {
        format!(
            "li x5, 1103515245\nmul x1, x1, x5\naddi x1, x1, 12345\n{cond}\nbeq x4, x0, skip\naddi x6, x6, 1\nskip:\n"
        )
    };
    let random = body("srli x4, x1, 17\nandi x4, x4, 1");
    let fixed = body("li x4, 1");
    let steady_random = steady_cycles_per_iter(&random, 400, 1600);
    let steady_fixed = steady_cycles_per_iter(&fixed, 400, 1600);
    let extra = steady_random - steady_fixed;
    assert!(
        (2.0..=12.0).contains(&extra),
        "random branch should cost ~0.5*penalty per iter, got {extra} (random {steady_random}, fixed {steady_fixed})"
    );
}

#[test]
fn medium_core_reaches_higher_ilp_than_small() {
    let mut body = String::new();
    for i in 0..24 {
        body.push_str(&format!("li x{}, {i}\n", 1 + (i % 8)));
    }
    let src = looped(&body, 2000);
    let p = assemble(&src).unwrap();
    let t = trace_program(&p, 2_000_000).unwrap();
    let small = run_alone(&t, CoreConfig::small(), &HierarchyConfig::small(1));
    let medium = run_alone(&t, CoreConfig::medium(), &HierarchyConfig::medium(1));
    assert!(small.ipc() <= 2.0 + 1e-9);
    assert!(
        medium.ipc() > 2.2,
        "medium must exceed small's width, ipc {}",
        medium.ipc()
    );
    assert!(medium.ipc() <= 4.0 + 1e-9);
}
