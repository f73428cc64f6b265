//! `compare <a.json> <b.json>`: is result file `b` worse than `a`?
//!
//! One row per (workload, end-to-end metric) with both medians and
//! quartiles, the bound and a verdict; exits non-zero on any `worse`.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// A side's run-to-run spread is wider than the bound, so the bound
    /// cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one metric on one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Verdict for `b` against baseline `a`. A `bound` of 0 means "no
/// increase allowed" (`fail_ratio`).
pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    // Positive when b is worse.
    let worse_by = if lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    if bound == 0.0 {
        return match worse_by {
            d if d > 0.0 => Verdict::Worse,
            d if d < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let share = worse_by / a.median.abs();
    if share > bound {
        Verdict::Worse
    } else if share < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(metric: &Json) -> Side {
    Side {
        median: metric.num_at("median"),
        q1: metric.num_at("q1"),
        q3: metric.num_at("q3"),
    }
}

/// Print the comparison table; `Ok(true)` when nothing got worse.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = |f: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(f.get("workloads")
            .ok_or("not a result file: no \"workloads\"")?
            .entries()
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut ok = true;
    println!(
        "{:<15} {:<18} {:>12} {:>21} {:>12} {:>21} {:>6}  verdict",
        "workload", "metric", "a.median", "a.[q1,q3]", "b.median", "b.[q1,q3]", "bound"
    );
    for (name, ea) in &wa {
        let Some((_, eb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<15} missing from b");
            ok = false;
            continue;
        };
        let metrics_b = eb.get("end_to_end").ok_or("workload without end_to_end")?;
        for (metric, ma) in ea
            .get("end_to_end")
            .ok_or("workload without end_to_end")?
            .entries()
        {
            let Some(mb) = metrics_b.get(metric) else {
                println!("{name:<15} {metric:<18} missing from b");
                ok = false;
                continue;
            };
            let bound = ma.num_at("bound");
            let lower = ma.get("better").and_then(Json::str) != Some("higher");
            let (sa, sb) = (side(ma), side(mb));
            let v = verdict(sa, sb, lower, bound);
            ok &= v != Verdict::Worse;
            println!(
                "{:<15} {:<18} {:>12.4} [{:>9.4},{:>9.4}] {:>12.4} [{:>9.4},{:>9.4}] {:>5.0}%  {}",
                name,
                metric,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                bound * 100.0,
                v.word()
            );
        }
        // Same seed, same code: the simulated side must not move at all.
        let same_sim = ea.get("sim_digest") == eb.get("sim_digest");
        let same_seed = a.get("seed") == b.get("seed");
        println!(
            "{:<15} sim-clock metrics and counters: {}",
            name,
            match (same_sim, same_seed) {
                (true, _) => "identical",
                (false, true) => "DIFFERENT (same seed)",
                (false, false) => "different (different seeds)",
            }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Side {
        Side { median, q1, q3 }
    }

    #[test]
    fn within_the_bound_is_same() {
        let a = s(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(a, s(105.0, 104.0, 106.0), true, 0.10),
            Verdict::Same
        );
        assert_eq!(verdict(a, s(95.0, 94.0, 96.0), false, 0.10), Verdict::Same);
    }

    #[test]
    fn direction_decides_worse_and_better() {
        let a = s(100.0, 99.0, 101.0);
        let up = s(120.0, 119.0, 121.0);
        let down = s(80.0, 79.0, 81.0);
        assert_eq!(verdict(a, up, true, 0.10), Verdict::Worse);
        assert_eq!(verdict(a, down, true, 0.10), Verdict::Better);
        assert_eq!(verdict(a, up, false, 0.10), Verdict::Better);
        assert_eq!(verdict(a, down, false, 0.10), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = s(100.0, 90.0, 110.0);
        let b = s(130.0, 129.0, 131.0);
        assert_eq!(verdict(noisy, b, true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(b, noisy, true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn a_zero_bound_allows_no_increase() {
        let zero = s(0.0, 0.0, 0.0);
        assert_eq!(verdict(zero, zero, true, 0.0), Verdict::Same);
        assert_eq!(
            verdict(zero, s(0.001, 0.0, 0.002), true, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(0.01, 0.01, 0.01), zero, true, 0.0),
            Verdict::Better
        );
    }

    #[test]
    fn compare_reads_result_files() {
        let file = |host_kops: f64, fail: f64| {
            Json::parse(&format!(
                r#"{{"seed": 42, "workloads": {{"w": {{"sim_digest": "x", "end_to_end": {{
                    "host_kops": {{"median": {host_kops}, "q1": {host_kops}, "q3": {host_kops},
                                   "better": "higher", "bound": 0.1}},
                    "fail_ratio": {{"median": {fail}, "q1": {fail}, "q3": {fail},
                                    "better": "lower", "bound": 0}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let base = file(100.0, 0.0);
        assert_eq!(compare(&base, &file(95.0, 0.0)), Ok(true));
        assert_eq!(compare(&base, &file(80.0, 0.0)), Ok(false));
        assert_eq!(compare(&base, &file(100.0, 0.01)), Ok(false));
        assert!(compare(&base, &Json::Null).is_err());
    }
}
