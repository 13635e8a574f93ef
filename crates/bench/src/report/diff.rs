//! Comparison of two report files — the logic behind the `bench_diff` binary and the
//! CI regression gate.
//!
//! The rules encode the two-tier trust model of the reports:
//!
//! * **deterministic metrics** (cost-model units, mask/entry counts) are pure
//!   functions of the code: *any* bit-level drift against the baseline is a
//!   [`Severity::Fail`] — including improvements, because an unexplained improvement
//!   means either the baseline is stale or the model changed, and both must be
//!   acknowledged by regenerating the committed file. A changed unit or direction
//!   fails the same way, even at equal bits;
//! * **wall-clock metrics** are machine- and load-dependent: drift beyond a fixed
//!   25 % band in the *worse* direction is a [`Severity::Warn`], never a failure (the
//!   CI container has 1 core and noisy neighbours).
//!
//! Reports present only in one file are informational: the baseline legitimately
//! carries full-length runs that CI's smoke configs never re-execute. A diff in which
//! *no* deterministic metric was matched compared nothing, though, and `bench_diff`
//! exits 1 on it ([`DiffReport::compared_deterministic`]).

use super::{Metric, ReportFile};

/// Allowed relative drift for wall-clock metrics, in percent, before a warning is
/// raised (drift in the improving direction never warns). Wall clocks on shared CI
/// runners jitter easily by double-digit percents; 25 % keeps the signal (a 2x
/// regression still warns) without crying wolf.
const WALL_TOLERANCE_PERCENT: f64 = 25.0;

/// How serious one diff finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context only (new metric, report not re-run).
    Info,
    /// Wall-clock drift beyond tolerance — advisory.
    Warn,
    /// Deterministic drift or a vanished deterministic metric — gates the build.
    Fail,
}

/// One finding of a diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Severity of the finding.
    pub severity: Severity,
    /// `(name, params)` identity of the report involved.
    pub report: String,
    /// Metric name, when the finding concerns a single metric.
    pub metric: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

/// The outcome of diffing two report files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// All findings, in report order.
    pub entries: Vec<DiffEntry>,
    /// Number of metrics compared (matched by report identity and metric name).
    pub compared: usize,
    /// How many of those were deterministic. Zero means the gate guarded nothing —
    /// e.g. a changed default renamed every `params` identity — and `bench_diff`
    /// refuses to pass on it.
    pub compared_deterministic: usize,
}

impl DiffReport {
    /// Whether any finding gates the build.
    pub fn has_failures(&self) -> bool {
        self.entries.iter().any(|e| e.severity == Severity::Fail)
    }

    /// Count entries at a given severity.
    fn count(&self, severity: Severity) -> usize {
        self.entries
            .iter()
            .filter(|e| e.severity == severity)
            .count()
    }

    /// Render the findings as text, one line per entry, worst first.
    pub fn render(&self) -> String {
        let mut entries: Vec<&DiffEntry> = self.entries.iter().collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.severity));
        let mut out = String::new();
        for e in entries {
            let tag = match e.severity {
                Severity::Fail => "FAIL",
                Severity::Warn => "warn",
                Severity::Info => "info",
            };
            match &e.metric {
                Some(m) => out.push_str(&format!("{tag}  {} :: {m}: {}\n", e.report, e.message)),
                None => out.push_str(&format!("{tag}  {}: {}\n", e.report, e.message)),
            }
        }
        out.push_str(&format!(
            "{} metric(s) compared ({} deterministic), {} failure(s), {} warning(s)\n",
            self.compared,
            self.compared_deterministic,
            self.count(Severity::Fail),
            self.count(Severity::Warn),
        ));
        out
    }
}

fn direction(m: &Metric, old: f64, new: f64) -> &'static str {
    if (new > old) == m.higher_is_better {
        "improved"
    } else {
        "regressed"
    }
}

/// Compare `new` against the `old` baseline.
pub fn diff_files(old: &ReportFile, new: &ReportFile) -> DiffReport {
    let mut out = DiffReport::default();
    for old_report in &old.reports {
        let ident = format!("{} [{}]", old_report.name, old_report.params);
        let Some(new_report) = new.report(&old_report.name, &old_report.params) else {
            out.entries.push(DiffEntry {
                severity: Severity::Info,
                report: ident,
                metric: None,
                message: "not present in the new file (not re-run)".into(),
            });
            continue;
        };
        for old_metric in &old_report.metrics {
            let Some(new_metric) = new_report.metric(&old_metric.name) else {
                out.entries.push(DiffEntry {
                    severity: if old_metric.deterministic {
                        Severity::Fail
                    } else {
                        Severity::Warn
                    },
                    report: ident.clone(),
                    metric: Some(old_metric.name.clone()),
                    message: "metric vanished from the new report".into(),
                });
                continue;
            };
            out.compared += 1;
            let (o, n) = (old_metric.value, new_metric.value);
            if old_metric.deterministic {
                out.compared_deterministic += 1;
                // A row is its unit and direction as much as its bits: the same value
                // re-emitted as `masks` instead of `gbps` is a different row.
                let kind =
                    |m: &Metric| format!("{}, higher_is_better {}", m.unit, m.higher_is_better);
                if kind(old_metric) != kind(new_metric) {
                    out.entries.push(DiffEntry {
                        severity: Severity::Fail,
                        report: ident.clone(),
                        metric: Some(old_metric.name.clone()),
                        message: format!(
                            "deterministic metric changed kind: {} -> {}",
                            kind(old_metric),
                            kind(new_metric)
                        ),
                    });
                } else if o.to_bits() != n.to_bits() {
                    // Strict bit equality: the value is a pure function of the code, so
                    // any drift means the code's observable behaviour changed.
                    out.entries.push(DiffEntry {
                        severity: Severity::Fail,
                        report: ident.clone(),
                        metric: Some(old_metric.name.clone()),
                        message: format!(
                            "deterministic metric {} ({}): {o} -> {n} \
                             (strict equality required; regenerate the baseline if \
                             this change is intended)",
                            direction(old_metric, o, n),
                            old_metric.unit,
                        ),
                    });
                }
            } else {
                let denom = o.abs().max(f64::MIN_POSITIVE);
                let drift_percent = (n - o) / denom * 100.0;
                let worse = (n > o) != old_metric.higher_is_better && n != o;
                if worse && drift_percent.abs() > WALL_TOLERANCE_PERCENT {
                    out.entries.push(DiffEntry {
                        severity: Severity::Warn,
                        report: ident.clone(),
                        metric: Some(old_metric.name.clone()),
                        message: format!(
                            "wall-clock metric regressed {:.1} % ({}: {o} -> {n}, \
                             tolerance {} %)",
                            drift_percent.abs(),
                            old_metric.unit,
                            WALL_TOLERANCE_PERCENT,
                        ),
                    });
                }
            }
        }
        for new_metric in &new_report.metrics {
            if old_report.metric(&new_metric.name).is_none() {
                out.entries.push(DiffEntry {
                    severity: Severity::Info,
                    report: ident.clone(),
                    metric: Some(new_metric.name.clone()),
                    message: format!("new metric ({} {})", new_metric.value, new_metric.unit),
                });
            }
        }
    }
    for new_report in &new.reports {
        if old.report(&new_report.name, &new_report.params).is_none() {
            out.entries.push(DiffEntry {
                severity: Severity::Info,
                report: format!("{} [{}]", new_report.name, new_report.params),
                metric: None,
                message: "new report (no baseline yet)".into(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BenchReport;

    fn file_with(metrics: Vec<Metric>) -> ReportFile {
        let mut report = BenchReport::new("fig", "duration=35");
        for m in metrics {
            report.push(m);
        }
        let mut file = ReportFile::new("test");
        file.upsert(report);
        file
    }

    #[test]
    fn identical_files_pass() {
        let f = file_with(vec![
            Metric::deterministic("cost", "cost_seconds", 1.5e-3),
            Metric::wall("wall", "seconds_wall", 2.0),
        ]);
        let d = diff_files(&f, &f.clone());
        assert!(!d.has_failures());
        assert_eq!((d.compared, d.compared_deterministic), (2, 1));
        assert_eq!(d.count(Severity::Warn), 0);
    }

    #[test]
    fn deterministic_drift_fails_in_both_directions() {
        let old = file_with(vec![
            Metric::deterministic("gbps", "gbps", 3.0).higher_is_better()
        ]);
        for new_value in [2.9, 3.1] {
            let new = file_with(vec![
                Metric::deterministic("gbps", "gbps", new_value).higher_is_better()
            ]);
            let d = diff_files(&old, &new);
            assert!(d.has_failures(), "drift to {new_value} must fail");
        }
    }

    #[test]
    fn deterministic_ulp_drift_fails() {
        let old = file_with(vec![Metric::deterministic("c", "cost_seconds", 1.0)]);
        let new = file_with(vec![Metric::deterministic(
            "c",
            "cost_seconds",
            f64::from_bits(1.0f64.to_bits() + 1),
        )]);
        assert!(diff_files(&old, &new).has_failures());
    }

    #[test]
    fn wall_drift_warns_only_beyond_tolerance_and_only_when_worse() {
        let old = file_with(vec![Metric::wall("t", "seconds_wall", 1.0)]);
        let cases = [
            (1.1, 0), // 10 % slower: inside the 25 % band
            (1.5, 1), // 50 % slower: warn
            (0.5, 0), // 50 % faster: improvement never warns (lower is better)
        ];
        for (new_value, warns) in cases {
            let new = file_with(vec![Metric::wall("t", "seconds_wall", new_value)]);
            let d = diff_files(&old, &new);
            assert!(!d.has_failures(), "wall drift must never fail");
            assert_eq!(d.count(Severity::Warn), warns, "value {new_value}");
        }
    }

    #[test]
    fn deterministic_unit_or_direction_change_fails_at_equal_bits() {
        let old = file_with(vec![
            Metric::deterministic("gbps", "gbps", 3.0).higher_is_better()
        ]);
        for new in [
            Metric::deterministic("gbps", "gbps", 3.0),
            Metric::deterministic("gbps", "masks", 3.0).higher_is_better(),
        ] {
            let d = diff_files(&old, &file_with(vec![new]));
            assert!(d.has_failures(), "{}", d.render());
            assert!(d
                .render()
                .contains("changed kind: gbps, higher_is_better true -> "));
        }
    }

    #[test]
    fn vanished_deterministic_metric_fails() {
        let old = file_with(vec![
            Metric::deterministic("kept", "masks", 1.0),
            Metric::deterministic("gone", "masks", 2.0),
        ]);
        let new = file_with(vec![Metric::deterministic("kept", "masks", 1.0)]);
        let d = diff_files(&old, &new);
        assert!(d.has_failures());
    }

    #[test]
    fn unmatched_reports_are_informational() {
        let old = file_with(vec![Metric::deterministic("m", "masks", 1.0)]);
        let mut new = ReportFile::new("test");
        new.upsert(BenchReport::new("other_fig", "default"));
        let d = diff_files(&old, &new);
        assert!(!d.has_failures());
        assert_eq!(d.count(Severity::Info), 2); // not re-run + new report
        assert_eq!((d.compared, d.compared_deterministic), (0, 0));
    }

    #[test]
    fn render_mentions_failures_first() {
        let old = file_with(vec![
            Metric::deterministic("c", "cost_seconds", 1.0),
            Metric::wall("t", "seconds_wall", 1.0),
        ]);
        let new = file_with(vec![
            Metric::deterministic("c", "cost_seconds", 2.0),
            Metric::wall("t", "seconds_wall", 10.0),
        ]);
        let d = diff_files(&old, &new);
        let text = d.render();
        assert!(text.starts_with("FAIL"));
        assert!(text.contains("warn"));
        assert!(text.contains("1 failure(s), 1 warning(s)"));
    }
}
