//! `ladder compare OLD.json NEW.json`: one row per workload × end-to-end
//! metric, each metric's own bound applied, and the pairing rule for a
//! claimed gain. All end-to-end metrics are lower-is-better.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::summarize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// NEW's median is worse than OLD's by more than the bound.
    Regression,
    /// Within the bound, but a side's own spread is wider than the bound:
    /// the run cannot tell "unchanged" from "changed".
    Unresolved,
    /// Within the bound, spreads within the bound.
    Ok,
    /// Within the bound, and the pairing rule grants a gain.
    Gain,
}

/// Fewest pairs a gain may be claimed from.
pub const MIN_PAIRS: usize = 10;

/// Classifies one metric from the two sides' samples (paired by round).
pub fn judge(old: &[f64], new: &[f64], old_median: f64, new_median: f64, bound: f64) -> Verdict {
    if new_median > old_median * (1.0 + bound) {
        return Verdict::Regression;
    }
    let (so, sn) = (summarize(old), summarize(new));
    if so.spread() > bound || sn.spread() > bound {
        return Verdict::Unresolved;
    }
    // A gain: at least ten pairs, NEW wins nine tenths of them (ties
    // count for neither), and the medians differ by more than the
    // parent's own quartile distance.
    let pairs = old.len().min(new.len());
    let wins = old.iter().zip(new).filter(|(o, n)| n < o).count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && old_median - new_median > so.q3 - so.q1 {
        Verdict::Gain
    } else {
        Verdict::Ok
    }
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn failed_share(w: &Json) -> f64 {
    w.num("failed") / w.num("attempted").max(1.0)
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(old: &Json, new: &Json) -> Result<bool, String> {
    let workloads = |j: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(j.get("workloads")
            .ok_or("not a ladder result file: no \"workloads\"")?
            .entries()
            .to_vec())
    };
    let (old_w, new_w) = (workloads(old)?, workloads(new)?);
    let mut clean = true;
    println!(
        "{:<16} {:<22} {:>10} {:>10} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "old", "new", "change", "sprd_o", "sprd_n", "bound"
    );
    for (name, ow) in &old_w {
        let Some((_, nw)) = new_w.iter().find(|(n, _)| n == name) else {
            println!("{name:<16} missing from NEW");
            clean = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(o), Some(n)) = (
                ow.get("end_to_end").and_then(|e| e.get(m.name)),
                nw.get("end_to_end").and_then(|e| e.get(m.name)),
            ) else {
                println!("{name:<16} {:<22} missing on one side", m.name);
                clean = false;
                continue;
            };
            let (om, nm) = (o.num("median"), n.num("median"));
            let (os, ns) = (samples(o), samples(n));
            let verdict = judge(&os, &ns, om, nm, m.bound);
            let note = match verdict {
                Verdict::Regression => {
                    clean = false;
                    "REGRESSION".to_string()
                }
                Verdict::Unresolved => "unresolved (spread wider than the bound)".to_string(),
                Verdict::Gain => "gain".to_string(),
                Verdict::Ok if os.len().min(ns.len()) < MIN_PAIRS => {
                    format!("ok (a gain needs >= {MIN_PAIRS} pairs)")
                }
                Verdict::Ok => "ok".to_string(),
            };
            println!(
                "{name:<16} {:<22} {om:>10.4} {nm:>10.4} {:>+7.1}% {:>6.1}% {:>6.1}% {:>5.0}%  {note}",
                m.name,
                (nm / om - 1.0) * 100.0,
                summarize(&os).spread() * 100.0,
                summarize(&ns).spread() * 100.0,
                m.bound * 100.0,
            );
        }
        // A change in an exact count means the workload changed.
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let value = |w: &Json| {
                w.get("per_layer")
                    .and_then(|p| p.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
            };
            if let (Some(o), Some(n)) = (value(ow), value(nw)) {
                if o != n {
                    println!(
                        "{name:<16} {:<22} {o:>10.4} {n:>10.4}  count changed: {}",
                        m.name, m.moves
                    );
                }
            }
        }
        let (of, nf) = (failed_share(ow), failed_share(nw));
        if nf > of {
            println!("{name:<16} failed share rose from {of:.4} to {nf:.4}: REGRESSION");
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(centre: f64, n: usize) -> Vec<f64> {
        // ±1 % around the centre, deterministic.
        (0..n)
            .map(|i| centre * (1.0 + 0.01 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn bound_decides_regression() {
        let old = around(1.0, 10);
        assert_eq!(
            judge(&old, &around(1.2, 10), 1.0, 1.2, 0.10),
            Verdict::Regression
        );
        assert_eq!(judge(&old, &around(1.05, 10), 1.0, 1.05, 0.10), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy: Vec<f64> = (0..10).map(|i| 1.0 + 0.05 * i as f64).collect();
        assert_eq!(
            judge(&noisy, &around(1.0, 10), 1.2, 1.0, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn gain_needs_ten_pairs_and_nine_wins() {
        let old = around(1.0, 10);
        assert_eq!(judge(&old, &around(0.9, 10), 1.0, 0.9, 0.10), Verdict::Gain);
        // Nine pairs are too few, however clear.
        assert_eq!(
            judge(&around(1.0, 9), &around(0.9, 9), 1.0, 0.9, 0.10),
            Verdict::Ok
        );
        // Eight wins of ten are too few.
        let mut mixed = around(0.9, 10);
        mixed[0] = 1.1;
        mixed[1] = 1.1;
        assert_eq!(judge(&old, &mixed, 1.0, 0.9, 0.10), Verdict::Ok);
        // A gap inside the parent's own quartile distance is no gain.
        assert_eq!(
            judge(&old, &around(0.999, 10), 1.0, 0.999, 0.10),
            Verdict::Ok
        );
    }
}
