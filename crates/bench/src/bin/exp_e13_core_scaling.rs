//! E13 — core-count scaling (extension beyond the paper).
//!
//! Sweeps the Fg-STP partition width N ∈ {1, 2, 3, 4, 8} over the whole
//! suite with the small-core configuration and reports (a) per-benchmark
//! speedup over the single small core with a geomean row, and (b) one
//! merged CPI-stack row per N so the scheme's own overhead categories
//! (communication wait, lookahead backpressure, replication, cross-core
//! memdep replay, global commit sync) show where the extra cores' cycles
//! go as the machine widens.
//!
//! The paper evaluates N = 2 only; everything at N > 2 is this
//! reproduction's extrapolation (greedy min-load steering and N-way
//! cut-minimization — see DESIGN.md, "N-core generalization").
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N` and `--csv`;
//! see `fgstp_bench::ExpArgs`.

use fgstp::{run_fgstp_warm, FgstpConfig};
use fgstp_bench::{print_experiment, ExpArgs, SuiteBaseline};
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::WarmState;
use fgstp_sim::{geomean, CpiStack, StallCategory, Table};
use fgstp_telemetry::CpiSink;

const CORE_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

fn main() {
    let args = ExpArgs::parse();
    let session = args.session();
    let base = SuiteBaseline::new(&session);
    let jobs = base.jobs();

    let mut speedup = Table::new([
        "workload".to_string(),
        "N=1".to_string(),
        "N=2".to_string(),
        "N=3".to_string(),
        "N=4".to_string(),
        "N=8".to_string(),
    ]);
    // speedups[n][w], stacks[n] merged over cores and workloads.
    let mut speedups: Vec<Vec<f64>> = Vec::new();
    let mut stacks: Vec<CpiStack> = Vec::new();
    for n in CORE_COUNTS {
        let points = session.par_map(&jobs, |((_, t), single)| {
            let cfg = FgstpConfig::small().with_cores(n);
            let mut sink = CpiSink::new(n);
            let mut warm = WarmState::new(&cfg.core, &HierarchyConfig::small(n));
            let r = run_fgstp_warm(t.insts(), &cfg, &mut warm, 0, &mut sink)
                .0
                .result;
            let stack = sink.merged();
            stack
                .check_against(n as u64 * r.cycles)
                .expect("CPI stack accounts for every core-cycle");
            (r.speedup_over(&single.result), stack)
        });
        let mut merged = CpiStack::new();
        for (_, stack) in &points {
            merged.merge(stack);
        }
        stacks.push(merged);
        speedups.push(points.iter().map(|p| p.0).collect());
    }
    for (w, ((name, _), _)) in jobs.iter().enumerate() {
        let mut row = vec![name.name.to_string()];
        row.extend(speedups.iter().map(|s| format!("{:.3}", s[w])));
        speedup.row(row);
    }
    let mut geo = vec!["geomean".to_string()];
    geo.extend(speedups.iter().map(|s| format!("{:.3}", geomean(s))));
    speedup.row(geo);
    print_experiment(
        "E13",
        "core-count scaling, speedup over single small core",
        &args,
        &speedup,
    );

    let fgstp_cats = [
        StallCategory::CommWait,
        StallCategory::CommBackpressure,
        StallCategory::Replication,
        StallCategory::MemDepReplay,
        StallCategory::CommitSync,
    ];
    let mut overhead = Table::new([
        "cores".to_string(),
        "agg cpi".to_string(),
        "base".to_string(),
        "commw".to_string(),
        "commbp".to_string(),
        "repl".to_string(),
        "memdep".to_string(),
        "sync".to_string(),
    ]);
    for (n, stack) in CORE_COUNTS.iter().zip(&stacks) {
        let base = if stack.committed == 0 {
            0.0
        } else {
            stack.base_cycles as f64 / stack.committed as f64
        };
        let mut row = vec![
            n.to_string(),
            format!("{:.3}", stack.cpi()),
            format!("{base:.3}"),
        ];
        row.extend(
            fgstp_cats
                .iter()
                .map(|&c| format!("{:.3}", stack.category_cpi(c))),
        );
        overhead.row(row);
    }
    print_experiment(
        "E13",
        "Fg-STP overhead CPI components vs core count (aggregate core-cycles/inst, suite total)",
        &args,
        &overhead,
    );
}
