//! The correctness table: simulated cycles and committed instructions of
//! every job any workload or the service pool can produce, recorded on a
//! known-good commit (`golden.tsv`, regenerated with `bench_e2e golden`).
//! The timing models are deterministic, so a faster simulator must
//! reproduce every row exactly; a job that differs counts as a failed op.

use std::collections::BTreeMap;

use crate::layers::JobResult;
use crate::stats::{fnv1a, FNV_OFFSET};

/// The checked-in table.
const TABLE: &str = include_str!("../golden.tsv");

/// Header line of the table.
pub const HEADER: &str = "# mode\tscale\tworkload\tmachine\tcycles\tcommitted\tcpi_mean";

type Key = (String, String, String, String);

/// Expected outcomes keyed by (mode, scale, workload, machine).
#[derive(Debug)]
pub struct Golden(BTreeMap<Key, (u64, u64, Option<f64>)>);

impl Golden {
    /// Parses the checked-in table.
    pub fn load() -> Result<Golden, String> {
        Golden::parse(TABLE)
    }

    fn parse(text: &str) -> Result<Golden, String> {
        let mut rows = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("golden.tsv line {}: malformed row", i + 1);
            if f.len() != 7 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let cpi = match f[6] {
                "-" => None,
                s => Some(s.parse::<f64>().map_err(|_| bad())?),
            };
            let key = key(f[0], f[1], f[2], f[3]);
            rows.insert(key, (num(f[4])?, num(f[5])?, cpi));
        }
        Ok(Golden(rows))
    }

    /// Checks one job at `scale` against its recorded row.
    pub fn check(&self, scale: &str, job: &JobResult) -> Result<(), String> {
        let key = key(job.mode, scale, &job.workload, &job.machine);
        let Some(&(cycles, committed, cpi)) = self.0.get(&key) else {
            return Err(format!("no golden row for {key:?}"));
        };
        let got = (job.cycles, job.committed, job.cpi_mean.map(f64::to_bits));
        if got != (cycles, committed, cpi.map(f64::to_bits)) {
            return Err(format!(
                "{key:?}: got cycles {} committed {} cpi {:?}, expected {cycles} {committed} {cpi:?}",
                job.cycles, job.committed, job.cpi_mean
            ));
        }
        Ok(())
    }
}

fn key(mode: &str, scale: &str, workload: &str, machine: &str) -> Key {
    (
        mode.to_owned(),
        scale.to_owned(),
        workload.to_owned(),
        machine.to_owned(),
    )
}

/// One table row for `job` at `scale`.
pub fn row(scale: &str, job: &JobResult) -> String {
    let cpi = job.cpi_mean.map_or("-".to_owned(), |c| format!("{c:?}"));
    format!(
        "{}\t{scale}\t{}\t{}\t{}\t{}\t{cpi}",
        job.mode, job.workload, job.machine, job.cycles, job.committed
    )
}

/// An order-independent fingerprint of a pass's results: equal for any
/// job order, different if any job's outcome differs.
pub fn fingerprint(scale: &str, jobs: &[JobResult]) -> u64 {
    let mut rows: Vec<String> = jobs.iter().map(|j| row(scale, j)).collect();
    rows.sort();
    rows.iter()
        .fold(FNV_OFFSET, |h, r| fnv1a(fnv1a(h, r.as_bytes()), b"\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(workload: &str, machine: &str, cycles: u64) -> JobResult {
        JobResult {
            mode: "detail",
            workload: workload.to_owned(),
            machine: machine.to_owned(),
            cycles,
            committed: 1000,
            cpi_mean: None,
        }
    }

    #[test]
    fn the_result_fingerprint_does_not_depend_on_order() {
        let a = vec![
            job("hmmer_dp", "fgstp-small", 10),
            job("hmmer_dp", "single-small", 20),
            job("milc_su3", "fgstp-small", 30),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(fingerprint("small", &a), fingerprint("small", &b));
        b[0].cycles += 1;
        assert_ne!(fingerprint("small", &a), fingerprint("small", &b));
    }

    #[test]
    fn checks_catch_any_difference() {
        let mut sampled = job("chase_long", "fgstp-small", 7);
        sampled.mode = "sampled";
        sampled.cpi_mean = Some(17.5);
        let text = format!(
            "{HEADER}\n{}\n{}\n",
            row("small", &job("hmmer_dp", "fgstp-small", 10)),
            row("test", &sampled)
        );
        let g = Golden::parse(&text).unwrap();
        g.check("small", &job("hmmer_dp", "fgstp-small", 10))
            .unwrap();
        assert!(g
            .check("small", &job("hmmer_dp", "fgstp-small", 11))
            .is_err());
        assert!(g
            .check("test", &job("hmmer_dp", "fgstp-small", 10))
            .is_err());
        g.check("test", &sampled).unwrap();
        sampled.cpi_mean = Some(17.500000000000004);
        assert!(g.check("test", &sampled).is_err());
    }

    #[test]
    fn the_checked_in_table_parses() {
        assert!(!Golden::load().unwrap().0.is_empty());
    }
}
