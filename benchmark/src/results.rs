//! Results as text and as JSON: what a run prints, what `out/results.json` holds, and
//! `compare`, which judges two result files by each metric's own bound.

use tse_bench::report::json::{self, Json};

use crate::harness::{Estimate, Measured};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::traced::Traced;

/// `value` as one line of JSON (the pretty writer's output with its line breaks and
/// indentation removed; strings escape their own newlines, so none are lost).
pub fn compact(value: &Json) -> String {
    json::write(value)
        .expect("benchmark results are finite numbers")
        .lines()
        .map(str::trim)
        .collect()
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

/// Print one workload's end-to-end metrics: value, the two half estimates, bound.
pub fn print_measured(m: &Measured) {
    println!(
        "== {}: {} repeats of {} simulated s",
        m.workload.name,
        m.repeats.len(),
        m.sim_seconds
    );
    for (metric, e) in m.end_to_end() {
        println!(
            "  {:<18} {:>16.6} {:<5} ({} is better) halves {:.6} / {:.6} spread {:.2} % (bound {} %)",
            metric.name,
            e.value,
            metric.unit,
            metric.better.as_str(),
            e.halves[0],
            e.halves[1],
            100.0 * e.spread(),
            100.0 * metric.bound
        );
    }
    let raw = m.events_per_s_by_repeat();
    println!(
        "  {:<18} {:>16.6} 1/s   median of n {} repeats as run, q1 {:.6} q3 {:.6} spread {:.2} %",
        "events_per_s.raw",
        raw.median,
        raw.values.len(),
        raw.q1,
        raw.q3,
        100.0 * raw.spread()
    );
    println!(
        "  {:<18} {:>16.6} share {} of {} events failed, digest {:016x}",
        "failed_ops_share",
        m.failed_ops_share(),
        m.failed(),
        m.attempted(),
        m.repeats[0].digest
    );
    for note in &m.notes {
        println!("  FAILED {note}");
    }
}

/// Print one workload's per-layer metrics by name, with unit and predicted effect.
pub fn print_traced(name: &str, t: &Traced) {
    println!("-- {name}: traced pass, per-layer");
    for (def, value) in &t.metrics {
        println!(
            "  {:<36} {value:>16.4} {:<8} ({} is better) -> {}",
            def.name,
            def.unit,
            def.better.as_str(),
            def.moves
        );
    }
    for note in &t.notes {
        println!("  FAILED {note}");
    }
}

/// The last line the driver reads: `correct`, `attempted`, `failed` and the metrics.
pub fn driver_line(attempted: u64, failed: u64, metrics: Vec<(&str, f64, &str)>) -> String {
    compact(&obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_owned(),
                            obj(vec![
                                ("value", Json::Num(value)),
                                ("unit", Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// One workload's entry in `results.json`.
pub fn workload_json(m: &Measured, traced: Option<&Traced>) -> Json {
    let end_to_end = m
        .end_to_end()
        .into_iter()
        .map(|(metric, e)| {
            obj(vec![
                ("name", Json::Str(metric.name.into())),
                ("unit", Json::Str(metric.unit.into())),
                ("value", Json::Num(e.value)),
                ("halves", nums(&e.halves)),
            ])
        })
        .collect();
    let raw = m.events_per_s_by_repeat();
    let per_layer = traced.map_or(Vec::new(), |t| {
        t.metrics
            .iter()
            .map(|(def, value)| {
                obj(vec![
                    ("name", Json::Str(def.name.into())),
                    ("unit", Json::Str(def.unit.into())),
                    ("value", Json::Num(*value)),
                ])
            })
            .collect()
    });
    obj(vec![
        ("name", Json::Str(m.workload.name.into())),
        ("why", Json::Str(m.workload.why.into())),
        ("sim_seconds", Json::Num(m.sim_seconds)),
        ("repeats", Json::Num(m.repeats.len() as f64)),
        ("attempted", Json::Num(m.attempted() as f64)),
        ("failed", Json::Num(m.failed() as f64)),
        ("failed_ops_share", Json::Num(m.failed_ops_share())),
        ("digest", Json::Str(format!("{:016x}", m.repeats[0].digest))),
        ("end_to_end", Json::Arr(end_to_end)),
        (
            "events_per_s_by_repeat",
            obj(vec![
                ("q1", Json::Num(raw.q1)),
                ("median", Json::Num(raw.median)),
                ("q3", Json::Num(raw.q3)),
                ("values", nums(&raw.values)),
            ]),
        ),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

/// The whole `results.json` document.
pub fn results_json(seed: u64, workloads: Vec<Json>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("benchmark", Json::Str("tse-benchmark".into())),
        ("seed", Json::Num(seed as f64)),
        ("available_parallelism", Json::Num(nproc as f64)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// The verdict of `compare` on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the runs are steady enough to say so.
    Ok,
    /// Worse than the parent's median by more than the bound.
    Regression,
    /// The runs' own quartile spread exceeds the bound: no claim either way.
    Unresolved,
}

/// Judge `new` against `old` under `bound`. A spread wider than the bound resolves
/// only if both halves of `new` read better than both halves of `old`.
pub fn judge(better: Better, bound: f64, old: &Estimate, new: &Estimate) -> Verdict {
    if old.spread().max(new.spread()) > bound {
        let all_better = new
            .halves
            .iter()
            .all(|&n| old.halves.iter().all(|&o| better.worsening(o, n) < 0.0));
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if better.worsening(old.value, new.value) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn find<'a>(list: &'a Json, name: &str) -> Option<&'a Json> {
    list.as_arr()?
        .iter()
        .find(|item| item.get("name").and_then(Json::as_str) == Some(name))
}

fn estimate_of(metric: &Json) -> Option<Estimate> {
    let halves = metric.get("halves")?.as_arr()?;
    Some(Estimate {
        value: metric.get("value")?.as_num()?,
        halves: [halves.first()?.as_num()?, halves.get(1)?.as_num()?],
    })
}

/// Compare result file `new` against `old`, one row per workload and metric. Returns
/// the report and whether every end-to-end metric is within its bound and every
/// count-type per-layer metric is identical.
pub fn compare(old: &Json, new: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let mut fail = |out: &mut String, line: String| {
        out.push_str(&line);
        ok = false;
    };
    let empty = Json::Arr(Vec::new());
    let old_workloads = old.get("workloads").unwrap_or(&empty);
    let new_workloads = new.get("workloads").unwrap_or(&empty);
    for w_old in old_workloads.as_arr().unwrap_or(&[]) {
        let name = w_old.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(w_new) = find(new_workloads, name) else {
            fail(&mut out, format!("{name}: missing from the second file\n"));
            continue;
        };
        for metric in &END_TO_END {
            let side = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|l| find(l, metric.name))
                    .and_then(estimate_of)
            };
            let (Some(a), Some(b)) = (side(w_old), side(w_new)) else {
                fail(&mut out, format!("{name} {}: missing\n", metric.name));
                continue;
            };
            let verdict = judge(metric.better, metric.bound, &a, &b);
            let line = format!(
                "{name:<15} {:<14} {:>14.4} -> {:>14.4} {:<5} worse by {:+.2} % \
                 (bound {} %, spread {:.2} % / {:.2} %) {verdict:?}\n",
                metric.name,
                a.value,
                b.value,
                metric.unit,
                100.0 * metric.better.worsening(a.value, b.value),
                100.0 * metric.bound,
                100.0 * a.spread(),
                100.0 * b.spread(),
            );
            if verdict == Verdict::Regression {
                fail(&mut out, line);
            } else {
                out.push_str(&line);
            }
        }
        for metric in PER_LAYER.iter().filter(|m| m.unit == "count") {
            let side = |w: &Json| {
                w.get("per_layer")
                    .and_then(|l| find(l, metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_num)
            };
            match (side(w_old), side(w_new)) {
                (Some(a), Some(b)) if a != b => fail(
                    &mut out,
                    format!("{name:<15} {} count differs: {a} -> {b}\n", metric.name),
                ),
                _ => {}
            }
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_is_one_parseable_line() {
        let line = driver_line(10, 0, vec![("setup_s", 0.25, "s"), ("x.y-z", 3.0, "1/s")]);
        assert!(!line.contains('\n'));
        let back = json::parse(&line).unwrap();
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            back.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num),
            Some(0.25)
        );
    }

    #[test]
    fn judge_applies_the_bound_and_reports_noisy_runs_as_unresolved() {
        let steady = |v: f64| Estimate {
            value: v,
            halves: [v * 0.99, v * 1.01],
        };
        let noisy = |v: f64| Estimate {
            value: v,
            halves: [v * 0.8, v * 1.2],
        };
        let hi = Better::Higher;
        assert_eq!(judge(hi, 0.10, &steady(100.0), &steady(95.0)), Verdict::Ok);
        assert_eq!(
            judge(hi, 0.10, &steady(100.0), &steady(85.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge(hi, 0.10, &steady(100.0), &noisy(100.0)),
            Verdict::Unresolved
        );
        // Noisy, but both halves of the change beat both halves of the parent.
        assert_eq!(judge(hi, 0.10, &noisy(100.0), &noisy(300.0)), Verdict::Ok);
        assert_eq!(
            judge(Better::Lower, 0.25, &steady(1.0), &steady(1.3)),
            Verdict::Regression
        );
    }

    #[test]
    fn compare_flags_regressions_and_changed_counts() {
        let file = |eps: f64, upcalls: f64| {
            let e2e = END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "events_per_s" { eps } else { 1.0 };
                    obj(vec![
                        ("name", Json::Str(m.name.into())),
                        ("value", Json::Num(v)),
                        ("halves", nums(&[v, v])),
                    ])
                })
                .collect();
            let layer = obj(vec![
                ("name", Json::Str("switch.upcalls".into())),
                ("value", Json::Num(upcalls)),
            ]);
            obj(vec![(
                "workloads",
                Json::Arr(vec![obj(vec![
                    ("name", Json::Str("scan_deep".into())),
                    ("end_to_end", Json::Arr(e2e)),
                    ("per_layer", Json::Arr(vec![layer])),
                ])]),
            )])
        };
        assert!(compare(&file(100.0, 5.0), &file(98.0, 5.0)).1);
        let (report, ok) = compare(&file(100.0, 5.0), &file(60.0, 5.0));
        assert!(!ok && report.contains("Regression"), "{report}");
        let (report, ok) = compare(&file(100.0, 5.0), &file(100.0, 6.0));
        assert!(!ok && report.contains("count differs"), "{report}");
    }
}
