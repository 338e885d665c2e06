//! `bench_e2e compare A.json B.json`: two sets of runs side by side.
//!
//! Each file holds one result line per run (the last line `bench_e2e`
//! prints). For every metric both sets report, the table shows each
//! side's quartiles and, for the end-to-end metrics, a verdict against
//! the bound `BENCHMARK.json` (read from the working directory) fixes:
//! `ok` when B's median is no worse than A's by more than the bound,
//! `REGRESSED` when it is, `better` when every B run beats every A run,
//! and `unresolved` when either side's spread between quartiles is wider
//! than the bound, so the medians cannot settle it.

use std::collections::BTreeMap;

use fgstp_telemetry::json::Json;

use crate::stats::quartiles;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
struct Rule {
    lower_is_better: bool,
    bound: f64,
}

/// The end-to-end rules of a `BENCHMARK.json` document.
fn rules(text: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let name = m.get("name").and_then(Json::as_str);
        let better = m.get("better").and_then(Json::as_str);
        let bound = m.get("bound").and_then(Json::as_f64);
        let (Some(name), Some(better), Some(bound)) = (name, better, bound) else {
            return Err("BENCHMARK.json: end_to_end entries need name, better, bound".to_owned());
        };
        out.insert(
            name.to_owned(),
            Rule {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(out)
}

/// Per metric, every run's value, from result lines.
fn runs(text: &str) -> Result<(BTreeMap<String, Vec<f64>>, u64), String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut failed = 0;
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        failed += v.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("line {}: no metrics object", i + 1));
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                values.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok((values, failed))
}

/// The verdict on B against A under `rule`.
fn verdict(a: &[f64], b: &[f64], rule: &Rule) -> &'static str {
    let (qa1, ma, qa3) = quartiles(a);
    let (qb1, mb, qb3) = quartiles(b);
    // Signed so that positive is worse.
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let worse = |x: f64, y: f64| sign * (y - x) > 0.0;
    let all_better = a.iter().all(|&x| b.iter().all(|&y| worse(y, x)));
    let spread = |q1: f64, q3: f64, m: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    if all_better {
        "better"
    } else if spread(qa1, qa3, ma) > rule.bound || spread(qb1, qb3, mb) > rule.bound {
        "unresolved"
    } else if ma != 0.0 && sign * (mb - ma) / ma.abs() > rule.bound {
        "REGRESSED"
    } else {
        "ok"
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Runs the subcommand; returns the exit code (1 on a regression or a
/// failed op in either set).
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: bench_e2e compare <A.json> <B.json>");
        return 2;
    };
    match compare(a, b) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_e2e compare: {e}");
            2
        }
    }
}

fn compare(a: &str, b: &str) -> Result<i32, String> {
    let rules = rules(&read("BENCHMARK.json")?)?;
    let (va, fa) = runs(&read(a)?)?;
    let (vb, fb) = runs(&read(b)?)?;
    println!(
        "{:<28} {:>34} {:>34}  verdict",
        "metric", "A q1 / median / q3", "B q1 / median / q3"
    );
    let mut code = 0;
    for (name, xa) in &va {
        let Some(xb) = vb.get(name) else { continue };
        let (a1, am, a3) = quartiles(xa);
        let (b1, bm, b3) = quartiles(xb);
        let v = rules.get(name).map_or("-", |r| verdict(xa, xb, r));
        if v == "REGRESSED" {
            code = 1;
        }
        println!(
            "{name:<28} {a1:>10.4} {am:>11.4} {a3:>11.4} {b1:>10.4} {bm:>11.4} {b3:>11.4}  {v} (n={}/{})",
            xa.len(),
            xb.len()
        );
    }
    if fa + fb > 0 {
        println!("failed ops: A {fa}, B {fb}");
        code = 1;
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(&a, &[1.05, 1.04, 1.06, 1.05, 1.03], &LOWER), "ok");
        assert_eq!(
            verdict(&a, &[1.20, 1.21, 1.19, 1.22, 1.20], &LOWER),
            "REGRESSED"
        );
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], &LOWER),
            "better"
        );
        assert_eq!(
            verdict(&a, &[0.7, 1.3, 1.5, 0.9, 1.6], &LOWER),
            "unresolved"
        );
        let higher = Rule {
            lower_is_better: false,
            ..LOWER
        };
        assert_eq!(
            verdict(&a, &[0.85, 0.86, 0.84, 0.85, 0.87], &higher),
            "REGRESSED"
        );
    }

    #[test]
    fn rules_and_runs_parse() {
        let r = rules(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(r["wall_s"], LOWER);
        let (v, failed) = runs(concat!(
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}"#,
            "\n\n",
            r#"{"correct": false, "attempted": 3, "failed": 1, "metrics": {"wall_s": {"value": 2.5, "unit": "s"}}}"#,
        ))
        .unwrap();
        assert_eq!(v["wall_s"], [1.5, 2.5]);
        assert_eq!(failed, 1);
    }
}
