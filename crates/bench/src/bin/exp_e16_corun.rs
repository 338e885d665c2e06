//! E16 — multi-program co-run scenarios (extension beyond the paper).
//!
//! The paper evaluates Fg-STP with the thread alone on the chip. E16 asks
//! what happens when it is *not* alone: independent programs are placed on
//! disjoint core sets of one machine and coupled through the shared L2 and
//! a finite-bandwidth DRAM channel (`fgstp::run_corun`). Three tables:
//!
//! 1. **Interference** — per foreground workload: solo cycles on a 2-core
//!    Fg-STP machine vs. the same machine co-running against a
//!    memory-bound background (2-program) and two backgrounds (3-program),
//!    plus Fg-STP's own 2-core-over-1-core speedup measured *under*
//!    interference (both variants co-running against the same
//!    background). The default 1 MiB shared L2 holds every suite
//!    working set, so the slowdown here is pure DRAM-bandwidth and MSHR
//!    contention.
//! 2. **Shared-L2 capacity pressure** — the same pairing over a machine
//!    whose L1d is shrunk to 4 KiB and shared L2 to 32 KiB, small enough
//!    that the foreground's reused lines live in the shared L2 and the
//!    background's pointer-chase footprint evicts them: the foreground's
//!    L2 miss inflation and the resulting slowdown.
//! 3. **Asymmetric machines** — the foreground's 2-core machine upgraded
//!    to a medium+small pair (`FgstpConfig::with_per_core`), co-running
//!    against the same background: does capacity-weighted steering exploit
//!    the wide core while contended?
//! 4. **Dynamic core claiming** — the E10 controller revived as a
//!    scheduler (`fgstp::run_dynamic`): the thread holds one core while a
//!    co-runner occupies the partner, claims the second core when the
//!    co-runner finishes, and pays a reconfiguration penalty at the
//!    switch.
//!
//! Every co-run is one deterministic job (fixed-priority, round-robin
//! arbitration): the binary re-runs one scenario and asserts bit-identical
//! cycles before printing.
//!
//! Accepts a scale word, `--workloads=a,b` to narrow the foreground set,
//! `--threads=N` and `--csv`; see `fgstp_bench::ExpArgs`.

use fgstp::{
    run_corun, run_dynamic, CoRunContention, CoRunPlan, CoRunProgram, CorePhase, DynamicConfig,
    FgstpConfig,
};
use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::CoreConfig;
use fgstp_sim::{geomean, run_on_corun, BenchResult, MachineKind, Table};
use fgstp_workloads::by_name;

/// Memory-bound background co-runner for the 2-program scenarios.
const BG2: &str = "mcf_pointer";
/// Streaming second background for the 3-program scenario.
const BG3: &str = "libq_stream";

/// The foreground's run out of a co-run result set.
fn fg(results: &[BenchResult]) -> &fgstp_sim::MachineRun {
    &results[0].runs[0]
}

fn main() {
    let args = ExpArgs::parse();
    let session = args.session();
    let kind = MachineKind::FgstpSmall;

    let traced = session.suite_traces();
    let bg2 = by_name(BG2, args.scale()).expect("background workload");
    let bg3 = by_name(BG3, args.scale()).expect("background workload");
    let bg2_trace = session.trace(&bg2);
    let bg3_trace = session.trace(&bg3);

    struct Point {
        solo: u64,
        co2: u64,
        co2_narrow: u64,
        co3: u64,
    }

    let points: Vec<Point> = session.par_map(&traced, |(w, t)| {
        let solo = run_on_corun(
            kind,
            std::slice::from_ref(w),
            std::slice::from_ref(t),
            &[2],
            false,
        );
        let pair_w = [w.clone(), bg2.clone()];
        let pair_t = [t.clone(), bg2_trace.clone()];
        let co2 = run_on_corun(kind, &pair_w, &pair_t, &[2, 2], false);
        let co2_narrow = run_on_corun(kind, &pair_w, &pair_t, &[1, 2], false);
        let co3 = run_on_corun(
            kind,
            &[w.clone(), bg2.clone(), bg3.clone()],
            &[t.clone(), bg2_trace.clone(), bg3_trace.clone()],
            &[2, 2, 2],
            false,
        );
        Point {
            solo: fg(&solo).result.cycles,
            co2: fg(&co2).result.cycles,
            co2_narrow: fg(&co2_narrow).result.cycles,
            co3: fg(&co3).result.cycles,
        }
    });

    // Determinism gate: the first scenario re-run must be bit-identical.
    if let Some((w, t)) = traced.first() {
        let rerun = run_on_corun(
            kind,
            &[w.clone(), bg2.clone()],
            &[t.clone(), bg2_trace.clone()],
            &[2, 2],
            false,
        );
        assert_eq!(
            fg(&rerun).result.cycles,
            points[0].co2,
            "co-run must be deterministic across reruns"
        );
        assert_eq!(fg(&rerun).result.mem.l2, {
            let co2 = run_on_corun(
                kind,
                &[w.clone(), bg2.clone()],
                &[t.clone(), bg2_trace.clone()],
                &[2, 2],
                false,
            );
            fg(&co2).result.mem.l2
        });
    }

    let mut interference = Table::new([
        "workload".to_string(),
        "solo cyc".to_string(),
        "vs bg cyc".to_string(),
        "slowdown".to_string(),
        "3prog slow".to_string(),
        "itf spdup".to_string(),
    ]);
    let (mut slows2, mut slows3, mut itf) = (Vec::new(), Vec::new(), Vec::new());
    for ((w, _), p) in traced.iter().zip(&points) {
        let slow2 = p.co2 as f64 / p.solo as f64;
        let slow3 = p.co3 as f64 / p.solo as f64;
        // Fg-STP's 2-over-1-core speedup with the background present.
        let spdup = p.co2_narrow as f64 / p.co2 as f64;
        slows2.push(slow2);
        slows3.push(slow3);
        itf.push(spdup);
        interference.row([
            w.name.to_string(),
            p.solo.to_string(),
            p.co2.to_string(),
            format!("{slow2:.3}"),
            format!("{slow3:.3}"),
            format!("{spdup:.3}"),
        ]);
    }
    interference.row([
        "geomean".to_string(),
        String::new(),
        String::new(),
        format!("{:.3}", geomean(&slows2)),
        format!("{:.3}", geomean(&slows3)),
        format!("{:.3}", geomean(&itf)),
    ]);
    print_experiment(
        "E16",
        &format!("co-run interference: 2-core Fg-STP foreground vs {BG2} (+{BG3}), shared DRAM"),
        &args,
        &interference,
    );

    // Table 2: capacity pressure. The suite's working sets all fit the
    // default 1 MiB shared L2 next to the background's (and mostly fit
    // the 16 KiB L1d outright), so shrink both levels until the
    // foreground keeps reused lines in the shared L2 and the background
    // can evict them.
    let mut pressured = HierarchyConfig::small(2);
    pressured.l1d.size_bytes = 4 << 10;
    pressured.l2.size_bytes = 32 << 10;
    let press_points: Vec<(u64, u64, u64, u64)> = session.par_map(&traced, |(_, t)| {
        let solo_plan = CoRunPlan::new(vec![CoRunProgram::new(FgstpConfig::small())]);
        let co_plan = CoRunPlan::new(vec![
            CoRunProgram::new(FgstpConfig::small()),
            CoRunProgram::new(FgstpConfig::small()),
        ]);
        let solo = run_corun(&[t.insts()], &solo_plan, &pressured);
        let co = run_corun(&[t.insts(), bg2_trace.insts()], &co_plan, &pressured);
        (
            solo.programs[0].result.cycles,
            co.programs[0].result.cycles,
            solo.programs[0].result.mem.l2.misses,
            co.programs[0].result.mem.l2.misses,
        )
    });
    let mut pressure = Table::new([
        "workload".to_string(),
        "solo cyc".to_string(),
        "vs bg cyc".to_string(),
        "slowdown".to_string(),
        "solo l2m".to_string(),
        "co l2m".to_string(),
        "l2 miss x".to_string(),
    ]);
    let (mut pslow, mut pmiss) = (Vec::new(), Vec::new());
    for ((w, _), (solo, co, sm, cm)) in traced.iter().zip(&press_points) {
        let slow = *co as f64 / *solo as f64;
        let missx = if *sm == 0 {
            *cm as f64
        } else {
            *cm as f64 / *sm as f64
        };
        pslow.push(slow);
        pmiss.push(missx.max(f64::MIN_POSITIVE));
        pressure.row([
            w.name.to_string(),
            solo.to_string(),
            co.to_string(),
            format!("{slow:.3}"),
            sm.to_string(),
            cm.to_string(),
            format!("{missx:.2}"),
        ]);
    }
    pressure.row([
        "geomean".to_string(),
        String::new(),
        String::new(),
        format!("{:.3}", geomean(&pslow)),
        String::new(),
        String::new(),
        format!("{:.2}", geomean(&pmiss)),
    ]);
    print_experiment(
        "E16",
        &format!("shared-L2 capacity pressure: 4 KiB L1d + 32 KiB shared L2, foreground vs {BG2}"),
        &args,
        &pressure,
    );

    // Table 3: symmetric vs. asymmetric foreground machine, both
    // co-running against the background.
    let hetero_base = HierarchyConfig::small(2);
    let asym_points: Vec<(u64, u64)> = session.par_map(&traced, |(_, t)| {
        let bg_prog = CoRunProgram::new(FgstpConfig::small());
        let sym = CoRunPlan {
            programs: vec![CoRunProgram::new(FgstpConfig::small()), bg_prog.clone()],
            contention: CoRunContention::shared(),
        };
        let asym = CoRunPlan {
            programs: vec![
                CoRunProgram::new(
                    FgstpConfig::small()
                        .with_per_core(vec![CoreConfig::medium(), CoreConfig::small()]),
                ),
                bg_prog,
            ],
            contention: CoRunContention::shared(),
        };
        let s = run_corun(&[t.insts(), bg2_trace.insts()], &sym, &hetero_base);
        let a = run_corun(&[t.insts(), bg2_trace.insts()], &asym, &hetero_base);
        (s.programs[0].result.cycles, a.programs[0].result.cycles)
    });
    let mut hetero = Table::new([
        "workload".to_string(),
        "small+small".to_string(),
        "medium+small".to_string(),
        "speedup".to_string(),
    ]);
    let mut hspeed = Vec::new();
    for ((w, _), (s, a)) in traced.iter().zip(&asym_points) {
        let sp = *s as f64 / *a as f64;
        hspeed.push(sp);
        hetero.row([
            w.name.to_string(),
            s.to_string(),
            a.to_string(),
            format!("{sp:.3}"),
        ]);
    }
    hetero.row([
        "geomean".to_string(),
        String::new(),
        String::new(),
        format!("{:.3}", geomean(&hspeed)),
    ]);
    print_experiment(
        "E16",
        &format!("asymmetric foreground machine under contention (vs {BG2})"),
        &args,
        &hetero,
    );

    // Table 4: dynamic core claiming. The partner core is busy with a
    // co-runner until `busy` cycles in; the thread then claims it.
    let dyncfg = DynamicConfig::default();
    let dyn_points: Vec<(u64, u64, u64, u64)> = session.par_map(&traced, |(_, t)| {
        let cfg = FgstpConfig::small();
        let hcfg = HierarchyConfig::small(2);
        let one = run_dynamic(
            t.insts(),
            &cfg,
            &hcfg,
            &[CorePhase {
                from_cycle: 0,
                cores: 1,
            }],
            &dyncfg,
        );
        let two = run_dynamic(
            t.insts(),
            &cfg,
            &hcfg,
            &[CorePhase {
                from_cycle: 0,
                cores: 2,
            }],
            &dyncfg,
        );
        // The co-runner departs a third of the way into the single-core run.
        let busy = one.cycles / 3;
        let claimed = run_dynamic(
            t.insts(),
            &cfg,
            &hcfg,
            &[
                CorePhase {
                    from_cycle: 0,
                    cores: 1,
                },
                CorePhase {
                    from_cycle: busy,
                    cores: 2,
                },
            ],
            &dyncfg,
        );
        (one.cycles, two.cycles, claimed.cycles, claimed.reconfigs)
    });
    let mut dynamic = Table::new([
        "workload".to_string(),
        "1 core".to_string(),
        "2 cores".to_string(),
        "claim@1/3".to_string(),
        "reconfigs".to_string(),
        "vs 1-core".to_string(),
    ]);
    let mut dspeed = Vec::new();
    for ((w, _), (one, two, claimed, reconfigs)) in traced.iter().zip(&dyn_points) {
        let sp = *one as f64 / *claimed as f64;
        dspeed.push(sp);
        dynamic.row([
            w.name.to_string(),
            one.to_string(),
            two.to_string(),
            claimed.to_string(),
            reconfigs.to_string(),
            format!("{sp:.3}"),
        ]);
    }
    dynamic.row([
        "geomean".to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.3}", geomean(&dspeed)),
    ]);
    print_experiment(
        "E16",
        "dynamic core claiming: partner core freed a third of the way in (E10 policy as scheduler)",
        &args,
        &dynamic,
    );
    println!("determinism: co-run rerun bit-identical (cycles and shared-L2 stats)");
}
