//! `odebench compare A.json B.json`: B against A, metric by metric,
//! with the bounds `BENCHMARK.json` fixes.
//!
//! Each file holds the records `--out` appended, one JSON object per
//! line, any number of runs per workload. Only untraced runs count:
//! end-to-end numbers always come from the untraced run.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Json};
use crate::metrics::Contract;
use crate::stats::{median, spread};

/// Per (workload, metric): every run's value.
type Runs = BTreeMap<(String, String), Vec<f64>>;

struct Side {
    runs: Runs,
    attempted: u64,
    failed: u64,
}

fn load(path: &Path) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut side = Side {
        runs: Runs::new(),
        attempted: 0,
        failed: 0,
    };
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let num = |key: &str| record.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        if num("trace") != 0.0 {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        side.attempted += num("attempted") as u64;
        side.failed += num("failed") as u64;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[]);
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                side.runs
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(side)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound, so a change of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// Judge B against A for one metric. Returns the verdict and by what
/// share of A's median B is worse (negative when better).
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let verdict = if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// Print the comparison; `Ok(true)` when nothing is worse.
pub fn run(a_path: &Path, b_path: &Path, contract: &Contract) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);

    println!(
        "{:<13} {:<27} {:>14} {:>14} {:>22}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)"
    );
    let mut all_ok = true;
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let name = &metric.name;
            let bound = metric.bound.unwrap_or(0.0);
            let key = (workload.clone(), name.clone());
            let (Some(va), Some(vb)) = (a.runs.get(&key), b.runs.get(&key)) else {
                println!("{workload:<13} {name:<27} missing from one side");
                all_ok = false;
                continue;
            };
            let (verdict, _) = judge(va, vb, metric.lower_is_better, bound);
            let (ma, mb) = (median(va), median(vb));
            let label = match verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Worse => {
                    all_ok = false;
                    format!("worse (bound {bound})")
                }
                Verdict::Unresolved => format!(
                    "unresolved (spread {:.3} / {:.3} > bound {bound})",
                    spread(va),
                    spread(vb)
                ),
            };
            println!(
                "{workload:<13} {name:<27} {ma:>14.4} {mb:>14.4} {:>9.4} ({ma:>10.4})  {label}",
                if ma == 0.0 { 0.0 } else { mb / ma },
            );
        }
    }
    let fail_ratio = |s: &Side| s.failed as f64 / s.attempted.max(1) as f64;
    let (fa, fb) = (fail_ratio(&a), fail_ratio(&b));
    let rose = fb > fa;
    println!(
        "fail_ratio  A {fa} ({}/{})  B {fb} ({}/{})  {}",
        a.failed,
        a.attempted,
        b.failed,
        b.attempted,
        if rose { "rose" } else { "ok" }
    );
    Ok(all_ok && !rose)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5 % slower against a 10 % bound: ok. 20 % slower: worse.
        let slower = |by: f64| a.map(|v| v * (1.0 + by));
        assert_eq!(judge(&a, &slower(0.05), true, 0.1).0, Verdict::Ok);
        assert_eq!(judge(&a, &slower(0.20), true, 0.1).0, Verdict::Worse);
        // The same numbers as a throughput: lower is worse.
        assert_eq!(judge(&a, &slower(0.20), false, 0.1).0, Verdict::Ok);
        assert_eq!(judge(&slower(0.20), &a, false, 0.1).0, Verdict::Worse);
        // Runs that disagree by more than the bound decide nothing.
        let noisy = [100.0, 140.0, 70.0, 120.0, 90.0];
        assert_eq!(judge(&a, &noisy, true, 0.1).0, Verdict::Unresolved);
        let (_, by) = judge(&a, &slower(0.20), true, 0.1);
        assert!((by - 0.2).abs() < 1e-9);
    }
}
