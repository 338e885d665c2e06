//! Client-side rendering of result rows.
//!
//! The daemon streams rows as JSON (see
//! [`protocol::bench_result_row`](crate::protocol::bench_result_row));
//! this module turns them back into the tables the experiment harness
//! prints. When the spec's machine set is a `[single, fused, fgstp]`
//! comparison triple, the output reproduces the E1/E2 speedup table
//! (`benchmark,insts,fused,fgstp,fgstp/fused` with a GEOMEAN row,
//! figures to three decimals) so daemon output is directly comparable
//! with the recorded `results/experiments_*.txt` files. Any other
//! machine set renders as a long-format run table.

use fgstp_sim::{speedup_rows, MachineKind, Table};
use fgstp_telemetry::json::Json;

/// Cycles of the run on `label` within one result row.
fn cycles_of(row: &Json, label: &str) -> Option<u64> {
    let cycles = row
        .get("runs")?
        .as_arr()?
        .iter()
        .find(|r| r.get("machine").and_then(Json::as_str) == Some(label))?
        .get("cycles")?
        .as_f64()?;
    Some(cycles as u64)
}

/// Whether `machines` is a `[single, fused, fgstp]` comparison triple.
pub fn is_speedup_triple(machines: &[MachineKind]) -> bool {
    machines.len() == 3
        && machines[0].label().starts_with("single")
        && machines[1].label().starts_with("fused")
        && machines[2].is_fgstp()
}

/// The E1/E2-style speedup table for a comparison triple, rendered by
/// the harness's own [`speedup_rows`], or `None` when the machine set is
/// not one or a row lacks one of its runs (callers fall back to
/// [`runs_table`]). Rows that carry an error are left out.
pub fn speedup_rows_table(rows: &[Json], machines: &[MachineKind]) -> Option<Table> {
    if !is_speedup_triple(machines) {
        return None;
    }
    let mut triples = Vec::new();
    for row in rows {
        if !matches!(row.get("error"), None | Some(Json::Null)) {
            continue;
        }
        let name = row.get("workload").and_then(Json::as_str)?;
        let committed = row.get("committed").and_then(Json::as_f64)? as u64;
        let mut cycles = [0; 3];
        for (c, m) in cycles.iter_mut().zip(machines) {
            *c = cycles_of(row, m.label())?;
        }
        triples.push((name, committed, cycles));
    }
    Some(speedup_rows(triples).0)
}

/// Long-format fallback: one line per (workload, machine) run.
pub fn runs_table(rows: &[Json]) -> Table {
    let mut table = Table::new(["workload", "machine", "cycles", "committed", "ipc", "error"]);
    for row in rows {
        let name = row
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        let error = row
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        let runs = row.get("runs").and_then(Json::as_arr).unwrap_or_default();
        if runs.is_empty() {
            table.row([
                name,
                "-".to_owned(),
                String::new(),
                String::new(),
                String::new(),
                error,
            ]);
            continue;
        }
        for r in runs {
            let num = |k: &str| -> f64 { r.get(k).and_then(Json::as_f64).unwrap_or_default() };
            table.row([
                name.clone(),
                r.get("machine")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned(),
                format!("{}", num("cycles") as u64),
                format!("{}", num("committed") as u64),
                format!("{:.3}", num("ipc")),
                error.clone(),
            ]);
        }
    }
    table
}

/// Renders rows for a machine set: the speedup table for comparison
/// triples, the long format otherwise; CSV or aligned text.
pub fn render_rows(rows: &[Json], machines: &[MachineKind], csv: bool) -> String {
    let table = speedup_rows_table(rows, machines).unwrap_or_else(|| runs_table(rows));
    if csv {
        table.to_csv()
    } else {
        table.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::bench_result_row;
    use fgstp_sim::{speedup_table, ExperimentSpec};

    #[test]
    fn speedup_rendering_matches_the_harness_table() {
        let spec = ExperimentSpec::from_args(&[
            "test",
            "--workloads=perl_hash,hmmer_dp",
            "--machines=small-cmp",
            "--no-cache",
        ])
        .unwrap();
        let results = spec.run().unwrap();
        let expected = speedup_table(
            &results,
            [spec.machines[0], spec.machines[1], spec.machines[2]],
        );
        let rows: Vec<Json> = results.iter().map(bench_result_row).collect();
        let rendered = render_rows(&rows, &spec.machines, true);
        assert_eq!(rendered, expected.table.to_csv());
    }

    #[test]
    fn non_triples_fall_back_to_the_long_format() {
        let spec = ExperimentSpec::from_args(&[
            "test",
            "--workloads=perl_hash",
            "--machines=fgstp-small",
            "--no-cache",
        ])
        .unwrap();
        assert!(!is_speedup_triple(&spec.machines));
        let rows: Vec<Json> = spec.run().unwrap().iter().map(bench_result_row).collect();
        let csv = render_rows(&rows, &spec.machines, true);
        assert!(csv.starts_with("workload,machine,"), "{csv}");
        assert!(csv.contains("perl_hash,fgstp-small,"), "{csv}");
    }
}
