//! `compare` and `spread`: reading result files back.
//!
//! A result file is one run object or `{"runs": [...]}`. Several runs of a
//! workload (in one file or across files) are summarised by their median,
//! and their spread decides whether a difference can be resolved.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::spec::{bounds, field, num_field, str_field, Bound, WORKLOADS};
use crate::stats::{median, quartile_spread};

/// `workload → metric → values`, untraced runs only.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn absorb(table: &mut Table, file: &Value) {
    let runs = match field(file, "runs") {
        Some(Value::Array(runs)) => runs.as_slice(),
        _ => std::slice::from_ref(file),
    };
    for run in runs {
        if matches!(field(run, "trace"), Some(Value::Bool(true))) {
            continue;
        }
        let Some(Value::Object(metrics)) = field(run, "metrics") else { continue };
        let per_workload = table.entry(str_field(run, "workload").to_string()).or_default();
        for (name, m) in metrics {
            if let Some(value) = num_field(m, "value") {
                per_workload.entry(name.clone()).or_default().push(value);
            }
        }
    }
}

fn load(paths: &[String]) -> Result<Table, String> {
    let mut table = Table::new();
    for path in paths {
        absorb(&mut table, &read_json(path)?);
    }
    Ok(table)
}

fn load_bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let all = bounds(&read_json(spec)?);
    if all.is_empty() {
        return Err(format!("{spec} lists no end-to-end metrics"));
    }
    Ok(all)
}

/// How `b` compares with `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// One side's runs spread wider than the bound and the two sides
    /// overlap: the benchmark cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn extent(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Judges `b` against base `a` with the metric's bound. Returns the change
/// of the medians in the bad direction, as a share of `a`'s median, and the
/// verdict.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if bound.lower_is_better { change } else { -change };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let ((a_lo, a_hi), (b_lo, b_hi)) = (extent(a), extent(b));
    let apart = a_hi < b_lo || b_hi < a_lo;
    let verdict = if spread > bound.bound && !apart {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else if worse < -bound.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// `compare <a.json> <b.json>`: per workload and end-to-end metric, both
/// medians (`a` is the base), the change as a share of the base, and the
/// verdict under the bounds in `spec`. Returns the number of regressions.
pub fn compare(a: &str, b: &str, spec: &str) -> Result<usize, String> {
    let all_bounds = load_bounds(spec)?;
    let (ta, tb) = (load(&[a.to_string()])?, load(&[b.to_string()])?);
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict   (base: {a})",
        "workload", "metric", "base", "other", "worse by", "bound"
    );
    let mut regressions = 0;
    for workload in WORKLOADS {
        for bound in &all_bounds {
            let values = |t: &Table| t.get(workload).and_then(|m| m.get(&bound.name)).cloned();
            let (Some(va), Some(vb)) = (values(&ta), values(&tb)) else { continue };
            let (worse, verdict) = judge(&va, &vb, bound);
            regressions += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<12} {:<16} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
                bound.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                bound.bound * 100.0,
                verdict.word()
            );
        }
    }
    Ok(regressions)
}

/// `spread <file>...`: per workload and end-to-end metric over all the
/// runs in the files, the median, `(max − min) / median`, the quartile
/// spread the acceptance rule uses, and whether that stays within the
/// bound (and within a third of it). Returns the number of spreads over
/// their bound.
pub fn spread(paths: &[String], spec: &str) -> Result<usize, String> {
    let all_bounds = load_bounds(spec)?;
    let table = load(paths)?;
    println!(
        "{:<12} {:<16} {:>4} {:>14} {:>10} {:>10} {:>7}  within",
        "workload", "metric", "runs", "median", "max-min", "quartiles", "bound"
    );
    let mut over = 0;
    for workload in WORKLOADS {
        for bound in &all_bounds {
            let Some(values) = table.get(workload).and_then(|m| m.get(&bound.name)) else {
                continue;
            };
            let (lo, hi) = extent(values);
            let med = median(values);
            let quartiles = quartile_spread(values);
            // Set-up time is compared between medians only, never by spread.
            let within = if quartiles <= bound.bound / 3.0 {
                "a third"
            } else if quartiles <= bound.bound || bound.name == "setup_s" {
                "bound"
            } else {
                over += 1;
                "NO"
            };
            println!(
                "{workload:<12} {:<16} {:>4} {:>14.4} {:>9.1}% {:>9.1}% {:>6.0}%  {within}",
                bound.name,
                values.len(),
                med,
                if med == 0.0 { 0.0 } else { (hi - lo) / med.abs() * 100.0 },
                quartiles * 100.0,
                bound.bound * 100.0,
            );
        }
    }
    Ok(over)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound { name: "m".into(), lower_is_better, bound: 0.10 }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let lower = bound(true);
        assert_eq!(judge(&[100.0], &[105.0], &lower).1, Verdict::Unchanged);
        assert_eq!(judge(&[100.0], &[111.0], &lower).1, Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[89.0], &lower).1, Verdict::Improved);
        let higher = bound(false);
        assert_eq!(judge(&[100.0], &[89.0], &higher).1, Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[111.0], &higher).1, Verdict::Improved);
        assert!((judge(&[100.0], &[120.0], &lower).0 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_but_separated_ones_are_judged() {
        let lower = bound(true);
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [95.0, 115.0, 135.0, 105.0, 125.0];
        assert_eq!(judge(&noisy_a, &noisy_b, &lower).1, Verdict::Unresolved);
        // Every run of b above every run of a: the spread does not matter.
        let far_b = [200.0, 240.0, 280.0, 220.0, 260.0];
        assert_eq!(judge(&noisy_a, &far_b, &lower).1, Verdict::Regressed);
        let steady_a = [100.0, 101.0, 99.0, 100.5];
        let steady_b = [100.2, 99.5, 101.0, 100.0];
        assert_eq!(judge(&steady_a, &steady_b, &lower).1, Verdict::Unchanged);
    }

    #[test]
    fn tables_take_single_runs_and_run_lists_and_skip_traced_runs() {
        let file = serde_json::from_str(
            r#"{"runs":[
              {"workload":"hum_10k","trace":false,"metrics":{"knn_p50_ms":{"value":9.5,"unit":"ms"}}},
              {"workload":"hum_10k","trace":false,"metrics":{"knn_p50_ms":{"value":10.5,"unit":"ms"}}},
              {"workload":"hum_10k","trace":true,"metrics":{"index.range_us":{"value":3,"unit":"us"}}}]}"#,
        )
        .unwrap();
        let mut table = Table::new();
        absorb(&mut table, &file);
        let single = serde_json::from_str(
            r#"{"workload":"serve_knn","trace":false,"metrics":{"knn_p50_ms":{"value":44,"unit":"ms"}}}"#,
        )
        .unwrap();
        absorb(&mut table, &single);
        assert_eq!(table["hum_10k"]["knn_p50_ms"], [9.5, 10.5]);
        assert_eq!(table["serve_knn"]["knn_p50_ms"], [44.0]);
        assert!(!table["hum_10k"].contains_key("index.range_us"));
    }
}
