//! `compare A.json B.json`: B against the baseline A, one row per
//! (workload, end-to-end metric), each metric held to its own bound.

use crate::report::{Better, Metric, Results, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The samples of one file alone spread wider than the bound: the
    /// files cannot show the metric unchanged.
    Unresolved,
}

/// `b` against the baseline `a`, `bound` the share of `a` by which the
/// metric may get worse.
pub fn verdict(a: &Metric, b: &Metric, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    // fail_share: 0 stays 0, anything else is an increase.
    let worse_by = if a.value == 0.0 {
        if b.value > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        worse_by
    };
    let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
    if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if -worse_by > bound && bound > 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Print the comparison; `Ok(true)` when nothing regressed and every exact
/// count repeated.
pub fn compare(a: &Results, b: &Results) -> Result<bool, String> {
    if (a.smoke, a.seconds, a.traced) != (b.smoke, b.seconds, b.traced) {
        return Err("the two files were not run with the same lengths and mode".into());
    }
    println!(
        "baseline A = {} (seed {}, commit {}), B = {} (seed {}, commit {})",
        a.run_id, a.seed, a.host.git_commit, b.run_id, b.seed, b.host.git_commit
    );
    let canary = (b.host.copy_gb_s - a.host.copy_gb_s).abs() / a.host.copy_gb_s;
    println!(
        "host.copy_gb_s: A {:.2}, B {:.2} ({:+.1} % of A){}",
        a.host.copy_gb_s,
        b.host.copy_gb_s,
        100.0 * (b.host.copy_gb_s - a.host.copy_gb_s) / a.host.copy_gb_s,
        if canary > 0.10 {
            " -- canaries differ by > 10 %: every verdict below is UNRESOLVED"
        } else {
            ""
        }
    );
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>16} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    let mut ok = canary <= 0.10;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            continue;
        };
        for def in &END_TO_END {
            let (Some(ma), Some(mb)) = (wa.metric(def.name), wb.metric(def.name)) else {
                continue;
            };
            let v = if canary > 0.10 {
                Verdict::Unresolved
            } else {
                verdict(ma, mb, def.better, def.bound)
            };
            ok &= v != Verdict::Regressed;
            println!(
                "{:<16} {:<12} {:>12.5} {:>12.5} {:>16} {:>6.0}%  {}",
                wa.workload,
                def.name,
                ma.value,
                mb.value,
                if ma.value == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.4} of {:.5}", mb.value / ma.value, ma.value)
                },
                def.bound * 100.0,
                match v {
                    Verdict::Unchanged => "unchanged (within bound)",
                    Verdict::Improved => "improved",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "UNRESOLVED (spread wider than bound)",
                }
            );
        }
        for ma in wa.metrics.iter().filter(|m| m.exact) {
            let Some(mb) = wb.metric(&ma.name) else {
                continue;
            };
            if ma.value != mb.value {
                ok = false;
                println!(
                    "{:<16} exact count {} differs: A {} B {}",
                    wa.workload, ma.name, ma.value, mb.value
                );
            }
        }
    }
    println!(
        "{}",
        if ok {
            "no regression; every exact count present in both files repeats"
        } else {
            "NOT CLEAN: see the rows above"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, spread: Option<f64>) -> Metric {
        Metric {
            spread,
            ..Metric::new("x", value, "u")
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::*;
        use Verdict::*;
        assert_eq!(
            verdict(&m(100.0, None), &m(104.0, None), Lower, 0.05),
            Unchanged
        );
        assert_eq!(
            verdict(&m(100.0, None), &m(106.0, None), Lower, 0.05),
            Regressed
        );
        assert_eq!(
            verdict(&m(100.0, None), &m(90.0, None), Lower, 0.05),
            Improved
        );
        assert_eq!(
            verdict(&m(100.0, None), &m(94.0, None), Higher, 0.05),
            Regressed
        );
        assert_eq!(
            verdict(&m(100.0, None), &m(110.0, None), Higher, 0.05),
            Improved
        );
        // A file whose own samples spread wider than the bound cannot show
        // "unchanged"; a regression past the bound is still one.
        assert_eq!(
            verdict(&m(100.0, Some(0.08)), &m(101.0, Some(0.01)), Lower, 0.05),
            Unresolved
        );
        assert_eq!(
            verdict(&m(100.0, Some(0.08)), &m(110.0, None), Lower, 0.05),
            Regressed
        );
        // fail_share: any increase.
        assert_eq!(verdict(&m(0.0, None), &m(0.0, None), Lower, 0.0), Unchanged);
        assert_eq!(
            verdict(&m(0.0, None), &m(0.01, None), Lower, 0.0),
            Regressed
        );
    }
}
