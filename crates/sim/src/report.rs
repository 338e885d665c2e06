//! Plain-text and CSV table rendering for the experiment harness.

use std::fmt;

use fgstp_telemetry::StallCategory;

use crate::presets::MachineKind;
use crate::runner::{geomean, BenchResult};

/// A simple column-aligned table.
///
/// The first column is left-aligned (names), remaining columns are
/// right-aligned (numbers), matching the layout of the paper's tables.
///
/// ```
/// use fgstp_sim::Table;
///
/// let mut t = Table::new(["bench", "ipc"]);
/// t.row(["mcf", "0.41"]);
/// assert!(t.to_string().contains("mcf"));
/// assert_eq!(t.to_csv(), "bench,ipc\nmcf,0.41\n");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as comma-separated values (header row first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, cell) in row.iter().enumerate() {
                if i == 0 {
                    write!(f, "{:<width$}", cell, width = widths[0])?;
                } else {
                    write!(f, "  {:>width$}", cell, width = widths[i])?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// The headline speedup comparison rendered as a table: per-benchmark
/// speedups of the fused and Fg-STP machines over the single core, a
/// geomean row, and the Fg-STP-over-fusion ratio.
#[derive(Debug, Clone)]
pub struct SpeedupSummary {
    /// The rendered table (benchmark, insts, fused, fgstp, fgstp/fused).
    pub table: Table,
    /// Geomean speedup of the fused machine over the single core.
    pub fused_geomean: f64,
    /// Geomean speedup of the Fg-STP machine over the single core.
    pub fgstp_geomean: f64,
    /// Benchmarks skipped because a requested machine was missing from
    /// their result set.
    pub skipped: Vec<&'static str>,
    /// Benchmarks that produced no runs at all (their trace failed), with
    /// the reported reason.
    pub failed: Vec<(&'static str, String)>,
}

impl SpeedupSummary {
    /// Fg-STP speedup over Core Fusion, as a geomean ratio.
    pub fn fgstp_over_fused(&self) -> f64 {
        self.fgstp_geomean / self.fused_geomean
    }
}

/// Builds the E1/E2-style speedup table from suite results.
///
/// `kinds` is the `[single, fused, fgstp]` triple the results were run
/// on. Benchmarks whose result set is missing one of the three machines
/// are skipped (and recorded in [`SpeedupSummary::skipped`]) instead of
/// panicking, so partial machine sets degrade gracefully.
pub fn speedup_table(results: &[BenchResult], kinds: [MachineKind; 3]) -> SpeedupSummary {
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    let mut failed = Vec::new();
    for b in results {
        if let Some(e) = &b.error {
            failed.push((b.name, e.clone()));
            continue;
        }
        let cycles = kinds.map(|k| b.run_of(k).map(|r| r.result.cycles));
        let [Some(single), Some(fused), Some(fgstp)] = cycles else {
            skipped.push(b.name);
            continue;
        };
        rows.push((b.name, b.committed, [single, fused, fgstp]));
    }
    let (table, fused_geomean, fgstp_geomean) = speedup_rows(rows);
    SpeedupSummary {
        table,
        fused_geomean,
        fgstp_geomean,
        skipped,
        failed,
    }
}

/// Renders the E1/E2 speedup table from `(workload, committed
/// instructions, cycles on the [single, fused, fgstp] machines)` rows:
/// each workload's speedups of the fused and Fg-STP machines over the
/// single core and their ratio, then a GEOMEAN row. Returns the table
/// with the fused and Fg-STP geomean speedups. The harness
/// ([`speedup_table`]) and the batch client render through this one
/// function, so their figures agree to the last digit.
pub fn speedup_rows<'a>(
    rows: impl IntoIterator<Item = (&'a str, u64, [u64; 3])>,
) -> (Table, f64, f64) {
    let mut table = Table::new(["benchmark", "insts", "fused", "fgstp", "fgstp/fused"]);
    let mut fused = Vec::new();
    let mut fgstp = Vec::new();
    for (name, committed, [single, c_fused, c_fgstp]) in rows {
        let speedup = |cycles: u64| single as f64 / cycles.max(1) as f64;
        let (s_fused, s_fgstp) = (speedup(c_fused), speedup(c_fgstp));
        fused.push(s_fused);
        fgstp.push(s_fgstp);
        table.row([
            name.to_owned(),
            committed.to_string(),
            format!("{s_fused:.3}"),
            format!("{s_fgstp:.3}"),
            format!("{:.3}", s_fgstp / s_fused),
        ]);
    }
    let (gf, gs) = (geomean(&fused), geomean(&fgstp));
    table.row([
        "GEOMEAN".to_owned(),
        String::new(),
        format!("{gf:.3}"),
        format!("{gs:.3}"),
        format!("{:.3}", gs / gf),
    ]);
    (table, gf, gs)
}

/// Builds a per-benchmark CPI-stack table for machine `kind` from
/// telemetry-enabled suite results (see [`crate::Session::telemetry`]).
///
/// Columns: benchmark, total CPI, the committing base component, then one
/// column per [`StallCategory`] — all in aggregate core-cycles per
/// committed instruction, so `base + Σ categories = cpi` on every row
/// (for the 2-core Fg-STP machine the aggregate counts both cores'
/// cycles). Results without an instrumented run of `kind` are omitted.
pub fn cpi_stack_table(results: &[BenchResult], kind: MachineKind) -> Table {
    let mut headers = vec!["benchmark", "cpi", "base"];
    headers.extend(StallCategory::ALL.iter().map(|c| c.label()));
    let mut table = Table::new(headers);
    for b in results {
        let Some(stack) = b.run_of(kind).and_then(|r| r.cpi.as_ref()) else {
            continue;
        };
        let base = if stack.committed == 0 {
            0.0
        } else {
            stack.base_cycles as f64 / stack.committed as f64
        };
        let mut row = vec![b.name.to_owned(), num(stack.cpi(), 3), num(base, 3)];
        row.extend(
            StallCategory::ALL
                .iter()
                .map(|&c| num(stack.category_cpi(c), 3)),
        );
        table.row(row);
    }
    table
}

/// Formats a float with `prec` decimal places (the house style for tables).
pub fn num(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips_cells() {
        let mut t = Table::new(["a", "b"]);
        t.row(["x", "1"]).row(["y", "2"]);
        assert_eq!(t.to_csv(), "a,b\nx,1\ny,2\n");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn display_aligns_columns() {
        let mut t = Table::new(["bench", "cycles"]);
        t.row(["a_very_long_name", "10"]);
        t.row(["x", "123456"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].chars().collect::<Vec<_>>()[0], '-');
        // Numbers right-align: the short number ends at the same column.
        assert!(lines[2].ends_with("10"));
        assert!(lines[3].ends_with("123456"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn speedup_table_skips_partial_results_instead_of_panicking() {
        use crate::runner::{run_on, trace_workload};
        use fgstp_workloads::{by_name, Scale};

        let full = by_name("gcc_expr", Scale::Test).unwrap();
        let full_trace = trace_workload(&full, Scale::Test);
        let partial = by_name("mcf_pointer", Scale::Test).unwrap();
        let partial_trace = trace_workload(&partial, Scale::Test);
        let results = vec![
            BenchResult {
                name: full.name,
                committed: full_trace.len() as u64,
                runs: MachineKind::SMALL_CMP
                    .iter()
                    .map(|&k| run_on(k, full_trace.insts()))
                    .collect(),
                error: None,
            },
            BenchResult {
                name: partial.name,
                committed: partial_trace.len() as u64,
                runs: vec![run_on(MachineKind::SingleSmall, partial_trace.insts())],
                error: None,
            },
        ];
        let summary = speedup_table(&results, MachineKind::SMALL_CMP);
        assert_eq!(summary.skipped, vec!["mcf_pointer"]);
        // One data row plus the geomean row.
        assert_eq!(summary.table.len(), 2);
        assert!(summary.fused_geomean > 0.0);
        assert!(summary.fgstp_over_fused() > 0.0);
        assert!(summary.failed.is_empty());
    }

    #[test]
    fn speedup_table_reports_failed_workloads() {
        let results = vec![BenchResult {
            name: "broken",
            committed: 0,
            runs: Vec::new(),
            error: Some("workload broken failed to trace: budget".to_owned()),
        }];
        let summary = speedup_table(&results, MachineKind::SMALL_CMP);
        assert_eq!(summary.failed.len(), 1);
        assert_eq!(summary.failed[0].0, "broken");
        assert!(summary.failed[0].1.contains("budget"));
        assert!(summary.skipped.is_empty(), "failed is not skipped");
        assert_eq!(summary.table.len(), 1, "only the geomean row");
    }

    #[test]
    fn cpi_stack_table_rows_reconcile_with_cpi() {
        use crate::runner::{run_on_instrumented, trace_workload};
        use fgstp_workloads::{by_name, Scale};

        let w = by_name("gcc_expr", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let results = vec![BenchResult {
            name: w.name,
            committed: t.len() as u64,
            runs: vec![run_on_instrumented(MachineKind::FgstpSmall, t.insts(), false).0],
            error: None,
        }];
        let table = cpi_stack_table(&results, MachineKind::FgstpSmall);
        assert_eq!(table.len(), 1);
        let csv = table.to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(header.len(), 2 + 1 + StallCategory::COUNT);
        let cells: Vec<&str> = lines.next().unwrap().split(',').collect();
        let cpi: f64 = cells[1].parse().unwrap();
        let component_sum: f64 = cells[2..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
        // base + every category ≈ cpi (up to the 3-decimal rendering).
        assert!(
            (cpi - component_sum).abs() < 0.01 * header.len() as f64,
            "cpi {cpi} vs sum {component_sum}"
        );
        // Uninstrumented results produce no rows.
        assert!(cpi_stack_table(&results, MachineKind::SingleSmall).is_empty());
    }
}
