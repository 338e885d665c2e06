//! E8 — cross-core memory-dependence speculation.
//!
//! Per benchmark: cross-core memory dependences, the violations/replays
//! the speculative machine suffers, and the cycles it gains over the
//! conservative machine that orders every load behind the youngest older
//! remote store.
//!
//! Accepts a scale word, `--workloads=a,b`, `--threads=N` and `--csv`;
//! see `fgstp_bench::ExpArgs`.

use fgstp::{run_fgstp, FgstpConfig};
use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_mem::HierarchyConfig;
use fgstp_sim::Table;

fn main() {
    let args = ExpArgs::parse();
    let session = args.session();

    let rows = session.map_suite(|w, t| {
        let loads = t
            .insts()
            .iter()
            .filter(|d| d.class() == fgstp_isa::InstClass::Load)
            .count() as f64;
        let spec_cfg = FgstpConfig::small();
        let (spec, s_spec) = run_fgstp(t.insts(), &spec_cfg, &HierarchyConfig::small(2));
        let mut cons_cfg = FgstpConfig::small();
        cons_cfg.dep_speculation = false;
        let (cons, _) = run_fgstp(t.insts(), &cons_cfg, &HierarchyConfig::small(2));
        [
            w.name.to_owned(),
            s_spec.partition.cross_mem_deps.to_string(),
            s_spec.cross_violations.to_string(),
            format!(
                "{:.2}",
                1000.0 * s_spec.cross_violations as f64 / loads.max(1.0)
            ),
            spec.cycles.to_string(),
            cons.cycles.to_string(),
            format!(
                "{:+.1}%",
                (cons.cycles as f64 / spec.cycles as f64 - 1.0) * 100.0
            ),
        ]
    });
    let mut table = Table::new([
        "benchmark",
        "cross mem deps",
        "violations",
        "viol/1k loads",
        "spec cycles",
        "no-spec cycles",
        "spec gain",
    ]);
    for row in rows {
        table.row(row);
    }
    print_experiment(
        "E8a",
        "cross-core memory dependence speculation",
        &args,
        &table,
    );

    // The Fg-STP partitioner deliberately co-locates store→load pairs, so
    // violations are rare by construction. Force a naive round-robin
    // partition to exercise (and price) the speculation machinery.
    let rows = session.map_suite(|w, t| {
        let mut cfg = FgstpConfig::small();
        cfg.partition.policy = fgstp::PartitionPolicy::ModN { chunk: 4 };
        let (spec, s_spec) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
        cfg.dep_speculation = false;
        let (cons, _) = run_fgstp(t.insts(), &cfg, &HierarchyConfig::small(2));
        [
            w.name.to_owned(),
            s_spec.partition.cross_mem_deps.to_string(),
            s_spec.cross_violations.to_string(),
            spec.cycles.to_string(),
            cons.cycles.to_string(),
            format!(
                "{:+.1}%",
                (cons.cycles as f64 / spec.cycles as f64 - 1.0) * 100.0
            ),
        ]
    });
    let mut forced = Table::new([
        "benchmark",
        "cross mem deps",
        "violations",
        "spec cycles",
        "no-spec cycles",
        "spec gain",
    ]);
    for row in rows {
        forced.row(row);
    }
    print_experiment(
        "E8b",
        "the same under a forced naive (mod-4) partition",
        &args,
        &forced,
    );
}
