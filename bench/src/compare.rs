//! The regression comparator behind `bench/compare.sh A.json B.json`: one
//! row per (workload, end-to-end metric) with both medians, their ratio
//! and its base, judged against the bound the benchmark fixed, and one row
//! per workload for the operations that failed a check.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// A side's own quartile spread is wider than the bound, so the two
    /// medians cannot be told apart at that resolution: not "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's value for a metric: the median and, where the run had
/// several windows or set-ups, their quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
}

impl Side {
    fn spread(&self) -> f64 {
        match self.quartiles {
            Some((q1, q3)) if self.value != 0.0 => (q3 - q1) / self.value.abs(),
            _ => 0.0,
        }
    }
}

/// How much worse `b` is than base `a`, as a share of `a`: positive is
/// worse, whichever direction is better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(metric: &EndToEnd, a: Side, b: Side) -> Verdict {
    if a.spread() > metric.bound || b.spread() > metric.bound {
        Verdict::Unresolved
    } else if worsening(metric.better, a.value, b.value) > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        quartiles: match (m.get("q1"), m.get("q3")) {
            (Some(q1), Some(q3)) => Some((q1.as_f64()?, q3.as_f64()?)),
            _ => None,
        },
    })
}

/// Rows for every untraced workload entry of `a`, in document order: one
/// per end-to-end metric, then one for the operations that failed a check
/// (`worse` whenever `b` has any: a run that answers wrongly or sheds has
/// no timings worth comparing). A workload or metric that `a` has and `b`
/// lacks is an error, not a shorter table.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let entries = |doc: &Json, which: &str| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or(format!("{which} has no \"workloads\" array"))?
            .iter()
            .filter(|w| w.get("trace") == Some(&Json::Bool(false)))
            .cloned()
            .collect())
    };
    let (wa, wb) = (entries(a, "A")?, entries(b, "B")?);
    let name = |w: &Json| w.get("workload").and_then(Json::as_str).map(str::to_string);
    let mut rows = Vec::new();
    for ea in &wa {
        let workload = name(ea).ok_or("A has a workload entry without a name")?;
        let eb = wb
            .iter()
            .find(|w| name(w).as_deref() == Some(&workload))
            .ok_or(format!("B has no untraced run of {workload}"))?;
        for metric in &END_TO_END {
            let of = |entry: &Json, which: &str| {
                side(entry, metric.name)
                    .ok_or(format!("{which} has no {} for {workload}", metric.name))
            };
            let (sa, sb) = (of(ea, "A")?, of(eb, "B")?);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name,
                unit: metric.unit,
                a: sa.value,
                b: sb.value,
                verdict: judge(metric, sa, sb),
            });
        }
        let failed = |entry: &Json, which: &str| {
            entry
                .get("failed")
                .and_then(Json::as_f64)
                .ok_or(format!("{which} has no failed count for {workload}"))
        };
        let (fa, fb) = (failed(ea, "A")?, failed(eb, "B")?);
        rows.push(Row {
            workload,
            metric: "failed",
            unit: "ops",
            a: fa,
            b: fb,
            verdict: if fb > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Ok
            },
        });
    }
    if rows.is_empty() {
        return Err("A holds no untraced run".into());
    }
    Ok(rows)
}

/// Prints the table; returns whether any row is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<12} {:<24} {:<12} {:>16} {:>16} {:>9}  {:<6} verdict",
        "workload", "metric", "unit", "A", "B", "B/A", "base"
    );
    for r in rows {
        // A count of 0 is no base for a ratio.
        let ratio = if r.a == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", r.b / r.a)
        };
        println!(
            "{:<12} {:<24} {:<12} {:>16.4} {:>16.4} {:>9}  {:<6} {}",
            r.workload,
            r.metric,
            r.unit,
            r.a,
            r.b,
            ratio,
            "A",
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    count(Verdict::Worse) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn exact(value: f64) -> Side {
        Side {
            value,
            quartiles: None,
        }
    }

    fn spread(value: f64, q1: f64, q3: f64) -> Side {
        Side {
            value,
            quartiles: Some((q1, q3)),
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let qps = end_to_end("queries_per_s").unwrap(); // higher is better
        let p50 = end_to_end("query_p50_us").unwrap(); // lower is better
        let (inside, beyond) = (qps.bound * 0.9, qps.bound * 1.1);
        assert_eq!(
            judge(qps, exact(100.0), exact(100.0 * (1.0 - inside))),
            Verdict::Ok
        );
        assert_eq!(
            judge(qps, exact(100.0), exact(100.0 * (1.0 - beyond))),
            Verdict::Worse
        );
        assert_eq!(judge(qps, exact(100.0), exact(150.0)), Verdict::Ok);
        let (inside, beyond) = (p50.bound * 0.9, p50.bound * 1.1);
        assert_eq!(
            judge(p50, exact(100.0), exact(100.0 * (1.0 + inside))),
            Verdict::Ok
        );
        assert_eq!(
            judge(p50, exact(100.0), exact(100.0 * (1.0 + beyond))),
            Verdict::Worse
        );
        assert_eq!(judge(p50, exact(100.0), exact(50.0)), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let qps = end_to_end("queries_per_s").unwrap();
        let wide = 100.0 * qps.bound * 0.6; // quartiles ±0.6 bound: spread 1.2 bound
        let tight = 100.0 * qps.bound * 0.1;
        // Either side's quartiles wider than the bound: unresolved, even
        // when the medians are equal or far apart.
        assert_eq!(
            judge(qps, spread(100.0, 100.0 - wide, 100.0 + wide), exact(100.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(qps, exact(200.0), spread(100.0, 100.0 - wide, 100.0 + wide)),
            Verdict::Unresolved
        );
        // A spread inside the bound is judged on the medians.
        assert_eq!(
            judge(
                qps,
                spread(100.0, 100.0 - tight, 100.0 + tight),
                spread(50.0, 50.0 - tight / 2.0, 50.0 + tight / 2.0)
            ),
            Verdict::Worse
        );
    }

    /// A document of untraced runs, every end-to-end metric at 100 except
    /// `queries_per_s`, with a traced entry that must be ignored.
    fn doc(runs: &[(&str, f64, u64)]) -> Json {
        let mut entries: Vec<String> = runs
            .iter()
            .map(|(workload, qps, failed)| {
                let metrics: Vec<String> = END_TO_END
                    .iter()
                    .map(|m| {
                        let v = if m.name == "queries_per_s" { *qps } else { 100.0 };
                        format!(
                            r#""{}":{{"value":{v},"unit":"{}","n":10,"q1":{},"q3":{}}}"#,
                            m.name,
                            m.unit,
                            v * 0.999,
                            v * 1.001
                        )
                    })
                    .collect();
                format!(
                    r#"{{"workload":"{workload}","trace":false,"failed":{failed},"metrics":{{{}}}}}"#,
                    metrics.join(",")
                )
            })
            .collect();
        entries.push(r#"{"workload":"dash_short","trace":true,"metrics":{}}"#.into());
        Json::parse(&format!(r#"{{"workloads":[{}]}}"#, entries.join(","))).unwrap()
    }

    #[test]
    fn documents_compare_row_by_row() {
        let a = doc(&[("dash_short", 1000.0, 0), ("wire_short", 1000.0, 0)]);
        let b = doc(&[("wire_short", 1000.0, 0), ("dash_short", 500.0, 0)]);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows.len(), 2 * (END_TO_END.len() + 1));
        for r in &rows {
            let halved = r.workload == "dash_short" && r.metric == "queries_per_s";
            assert_eq!(r.verdict == Verdict::Worse, halved, "{r:?}");
        }
        assert_eq!(rows[END_TO_END.len()].metric, "failed");
        assert!(compare(&a, &Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn a_failed_operation_in_b_is_worse_whatever_the_timings() {
        let a = doc(&[("dash_short", 1000.0, 0)]);
        let rows = compare(&a, &doc(&[("dash_short", 2000.0, 3)])).unwrap();
        let failed = rows.iter().find(|r| r.metric == "failed").unwrap();
        assert_eq!(
            (failed.a, failed.b, failed.verdict),
            (0.0, 3.0, Verdict::Worse)
        );
        // Failures in the base do not excuse failures in the change.
        let rows = compare(
            &doc(&[("dash_short", 1000.0, 5)]),
            &doc(&[("dash_short", 1000.0, 3)]),
        );
        assert!(rows.unwrap().iter().any(|r| r.verdict == Verdict::Worse));
    }

    #[test]
    fn what_a_has_and_b_lacks_is_an_error() {
        let a = doc(&[("dash_short", 1000.0, 0), ("wire_short", 1000.0, 0)]);
        let err = compare(&a, &doc(&[("dash_short", 1000.0, 0)])).unwrap_err();
        assert!(err.contains("wire_short"), "{err}");
        // One metric gone from an otherwise complete B entry.
        let mut text = doc(&[("dash_short", 1000.0, 0)]).to_string();
        text = text.replacen("\"peak_rss_mib\"", "\"renamed\"", 1);
        let err = compare(&a, &Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("peak_rss_mib"), "{err}");
        // B may hold more than A asks for.
        assert!(compare(&doc(&[("dash_short", 1000.0, 0)]), &a).is_ok());
    }
}
