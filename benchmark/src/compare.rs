//! `kvbench compare A.json B.json`: did B get worse than A?
//!
//! One row per (workload, end-to-end metric). A metric has `regressed`
//! when B's median is worse than A's by more than the bound
//! `BENCHMARK.json` fixes for it; a row that did not regress is still
//! only `unresolved`, not `ok`, when A's own runs spread wider than that
//! bound (first to third quartile, as the driver measures spread), because
//! then the comparison could not have seen a regression of that size.

use crate::json::Json;
use crate::manifest::Manifest;
use crate::stats::{iqr_share, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Share of A's median by which B is worse (negative: better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `a` holds A's value of the metric in each of its runs.
pub fn verdict(a: &[f64], b_median: f64, higher_is_better: bool, bound: f64) -> Verdict {
    if worse_by(median(a), b_median, higher_is_better) > bound {
        Verdict::Regressed
    } else if a.len() > 1 && iqr_share(a) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let vals = set
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    Some(vals.iter().filter_map(Json::as_f64).collect())
}

fn failed_share(set: &Json, workload: &str) -> Option<f64> {
    let w = set.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?)
}

/// Prints the table; `Ok(true)` when nothing regressed.
pub fn compare(man: &Manifest, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<13} {:<20} {:>14} {:>14} {:>9} {:>7} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "A spread"
    );
    let (mut rows, mut clean) = (0, true);
    for workload in &man.workloads {
        for def in &man.end_to_end {
            let (Some(av), Some(bv)) = (
                values(&a, workload, &def.name),
                values(&b, workload, &def.name),
            ) else {
                continue;
            };
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&av), median(&bv));
            let bound = def.bound.unwrap_or(0.0);
            let v = verdict(&av, mb, def.higher_is_better, bound);
            clean &= v != Verdict::Regressed;
            rows += 1;
            println!(
                "{:<13} {:<20} {:>14.4} {:>14.4} {:>9.4} {:>7.2} {:>9.4}  {}",
                workload,
                def.name,
                ma,
                mb,
                mb / ma,
                bound,
                if av.len() > 1 { iqr_share(&av) } else { 0.0 },
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if let (Some(fa), Some(fb)) = (failed_share(&a, workload), failed_share(&b, workload)) {
            if fb > fa {
                println!("{workload:<13} failed_share rose from {fa} to {fb}  regressed");
                clean = false;
            }
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    println!(
        "B/A is B's median over A's median; bound and A spread (first to third quartile of \
         A's runs) are shares of A's median."
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better: 10 % slower against a 5 % bound.
        assert_eq!(
            verdict(&[100.0, 101.0], 110.0, false, 0.05),
            Verdict::Regressed
        );
        assert_eq!(verdict(&[100.0, 101.0], 90.0, false, 0.05), Verdict::Ok);
        // Higher is better: the same numbers swap meaning.
        assert_eq!(
            verdict(&[100.0, 101.0], 90.0, true, 0.05),
            Verdict::Regressed
        );
        assert_eq!(verdict(&[100.0, 101.0], 110.0, true, 0.05), Verdict::Ok);
        // Within the bound, but A itself moved by more than the bound.
        assert_eq!(
            verdict(&[92.0, 100.0, 104.0], 101.0, false, 0.05),
            Verdict::Unresolved
        );
        // A single run has no spread to judge.
        assert_eq!(verdict(&[100.0], 101.0, false, 0.05), Verdict::Ok);
    }
}
