//! Quickstart: run one workload on all three machines of the small 2-core
//! CMP and print the headline comparison. The [`Session`] traces the
//! workload once and runs the machines in parallel.
//!
//! ```sh
//! cargo run --release --example quickstart [workload]
//! ```

use fg_stp_repro::prelude::*;
use fg_stp_repro::workloads;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "hmmer_dp".to_owned());
    let Some(w) = workloads::by_name(&name, Scale::Test) else {
        eprintln!("unknown workload `{name}`; available:");
        for w in suite(Scale::Test) {
            eprintln!("  {:12} (models {}: {})", w.name, w.models, w.description);
        }
        std::process::exit(1);
    };
    println!(
        "workload: {} (models {}: {})",
        w.name, w.models, w.description
    );
    let checksum = w.run_reference().expect("workload runs");
    println!("reference checksum: {checksum:#x}");

    let session = Session::new()
        .scale(Scale::Test)
        .machines(MachineKind::SMALL_CMP);
    let bench = session.run_workload(&w);
    println!("dynamic instructions: {}\n", bench.committed);

    let mut table = Table::new(["machine", "cycles", "ipc", "speedup vs single"]);
    for run in &bench.runs {
        table.row([
            run.kind.label().to_owned(),
            run.result.cycles.to_string(),
            format!("{:.3}", run.ipc()),
            format!(
                "{:.3}x",
                bench
                    .try_speedup(run.kind, MachineKind::SingleSmall)
                    .expect("single is in the machine set")
            ),
        ]);
    }
    println!("{table}");
}
