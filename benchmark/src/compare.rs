//! `compare <dirA> <dirB>`: do two sets of runs agree?
//!
//! Per (workload, end-to-end metric): both medians over the runs in each
//! directory, the ratio with its base, the bound, and a verdict — FAIL
//! when B is worse than A by more than the bound, UNRESOLVED when either
//! set's own spread (interquartile range over median, the driver's rule)
//! is wider than the bound, PASS otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{median, spread, Better};
use crate::workload::NAMES;

/// Per workload, per metric: one value per run.
type RunValues = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound, and both sets are steady.
    Pass,
    /// B is worse than A by more than the bound.
    Fail,
    /// A set's own spread is wider than the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// `value` with six significant digits.
fn six_digits(value: f64) -> String {
    let magnitude = if value == 0.0 {
        0
    } else {
        value.abs().log10().floor() as i32
    };
    format!("{value:.*}", (5 - magnitude).clamp(0, 12) as usize)
}

/// A set's own spread; a single run has none to hold against it.
fn own_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        spread(values)
    }
}

/// Judges run values `a` (the base) against `b`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if better.worsening(median(b), median(a)) > bound {
        Verdict::Fail
    } else if own_spread(a) > bound || own_spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

/// Reads every end-to-end run record (`*.results.json`) in `dir`.
fn load(dir: &Path) -> Result<RunValues, String> {
    let mut values = RunValues::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".results.json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.get("mode").and_then(Json::as_str) != Some("end_to_end") {
            continue;
        }
        let Some(workload) = record.get("workload").and_then(Json::as_str) else {
            return Err(format!("{}: no workload", path.display()));
        };
        let metrics = record
            .get("end_to_end")
            .map(Json::members)
            .unwrap_or_default();
        for (name, summary) in metrics {
            if let Some(value) = summary.get("value").and_then(Json::as_f64) {
                values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(values)
}

/// Compares the run records under `dir_a` (base) and `dir_b`; returns the
/// report and whether any pair failed.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<(String, bool), String> {
    let a = load(dir_a)?;
    let b = load(dir_b)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A (base) = {}\nB        = {}",
        dir_a.display(),
        dir_b.display()
    );
    let _ = writeln!(
        out,
        "{:<14} {:<25} {:>2}/{:<2} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "nA",
        "nB",
        "median A",
        "median B",
        "B/A",
        "spread A",
        "spread B",
        "bound"
    );
    let mut failed = false;
    let mut compared = 0;
    for workload in NAMES {
        let (Some(runs_a), Some(runs_b)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for metric in END_TO_END {
            let (Some(va), Some(vb)) = (runs_a.get(metric.name), runs_b.get(metric.name)) else {
                continue;
            };
            let verdict = judge(va, vb, metric.better, metric.bound);
            failed |= verdict == Verdict::Fail;
            compared += 1;
            let _ = writeln!(
                out,
                "{:<14} {:<25} {:>2}/{:<2} {:>14} {:>14} {:>8.4} {:>7.2}% {:>7.2}% {:>6.1}%  {}",
                workload,
                metric.name,
                va.len(),
                vb.len(),
                six_digits(median(va)),
                six_digits(median(vb)),
                median(vb) / median(va),
                own_spread(va) * 100.0,
                own_spread(vb) * 100.0,
                metric.bound * 100.0,
                verdict.label()
            );
        }
    }
    if compared == 0 {
        return Err("no (workload, metric) pair has runs in both directories".into());
    }
    let _ = writeln!(
        out,
        "B/A is the ratio of medians with A as its base; spread = (q3 - q1) / median of a set's own runs."
    );
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [88.0, 89.0, 87.0, 88.5, 87.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        // Rates: 12% lower is a regression at a 10% bound...
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.10), Verdict::Fail);
        // ...an improvement when lower is better...
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.10), Verdict::Pass);
        // ...and within a 15% bound either way.
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.15), Verdict::Pass);
        // A set that cannot agree with itself resolves nothing.
        assert_eq!(
            judge(&steady, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &steady, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(six_digits(13_000_573.377), "13000573");
        assert_eq!(six_digits(0.000102775), "0.000102775");
        assert_eq!(six_digits(55.743357), "55.7434");
        // Single runs have no spread to hold against them.
        assert_eq!(judge(&[10.0], &[10.4], Better::Lower, 0.05), Verdict::Pass);
        assert_eq!(judge(&[10.0], &[10.6], Better::Lower, 0.05), Verdict::Fail);
    }
}
