//! Machine-readable benchmark reports: the `BENCH_<area>.json` files at the repo root.
//!
//! Every figure binary emits its headline numbers through this module (its
//! [`Figure`](crate::Figure) harness appends one [`BenchReport`] on `finish()` when the
//! shared `--json <path>` flag names a file), so the repo's cost-model story lives in
//! diffable, regression-gated files instead of commit messages. Figure binaries are the only producers: wall-clock measurement of
//! the code itself is the standalone `benchmark/` package's job, not a report row.
//!
//! The model is deliberately small:
//!
//! * a [`Metric`] is one named number with a unit, a direction
//!   (`higher_is_better`), and — the load-bearing bit — a `deterministic` flag.
//!   Deterministic metrics come from the simulator's calibrated cost model
//!   (`tse-switch::cost`): same commit, same flags → same bits, on any machine, which
//!   is what lets CI gate on them from a 1-core container. Wall-clock metrics
//!   (`*_wall` units — a binary's own advisory run time) are machine-dependent and
//!   only ever warn.
//! * a [`BenchReport`] is one run of one producer (a figure binary) under one
//!   parameterisation;
//! * a [`ReportFile`] is one `BENCH_<area>.json`: a set of reports keyed by
//!   `(name, params)`. Re-running a producer replaces its previous report in place
//!   (byte-identically so, when the deterministic metrics are unchanged).
//!
//! `report::diff` compares two files: strict bit-equality for deterministic metrics
//! (any drift fails), a fixed 25 % band for wall-clock ones (drift warns). See the README's "Benchmark reports & regression gate" section for the
//! workflow.

pub mod diff;
pub mod json;

use std::path::Path;

pub use diff::{diff_files, DiffEntry, DiffReport, Severity};
pub use json::{Json, JsonError};

/// Current report-file format version, bumped on incompatible layout changes. A file
/// whose `version` is missing or differs is refused on load, so a bump keeps
/// `bench_diff` from reading a file of another layout leniently.
pub const FORMAT_VERSION: f64 = 1.0;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, unique within its report (e.g. `"pinned/none/victim_a_gbps"`).
    pub name: String,
    /// Unit label. Deterministic units in use: `gbps`, `pps`, `masks`, `entries`,
    /// `packets`, `percent`, `cost_seconds` (summed `tse-switch::cost` model time).
    /// Wall-clock units carry a `_wall` suffix; the one in use is `seconds_wall`.
    pub unit: String,
    /// The value. Always finite — constructors reject NaN/inf.
    pub value: f64,
    /// Direction of improvement: `true` if larger is better (throughput), `false` if
    /// smaller is better (cost, masks, latency).
    pub higher_is_better: bool,
    /// Whether the value is a pure function of the code and flags (cost-model units,
    /// mask counts) or depends on the machine and the moment (wall clock). The
    /// regression gate is strict on the former and advisory on the latter.
    pub deterministic: bool,
}

impl Metric {
    fn new(name: &str, unit: &str, value: f64, deterministic: bool) -> Self {
        assert!(
            value.is_finite(),
            "metric {name:?} has non-finite value {value}; reports cannot represent it"
        );
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            higher_is_better: false,
            deterministic,
        }
    }

    /// A deterministic (cost-model / counter) metric, lower-is-better by default.
    pub fn deterministic(name: &str, unit: &str, value: f64) -> Self {
        Metric::new(name, unit, value, true)
    }

    /// A wall-clock metric, lower-is-better by default.
    pub fn wall(name: &str, unit: &str, value: f64) -> Self {
        Metric::new(name, unit, value, false)
    }

    /// Mark this metric as higher-is-better (throughputs, delivered Gbps).
    pub fn higher_is_better(mut self) -> Self {
        self.higher_is_better = true;
        self
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("unit".into(), Json::Str(self.unit.clone())),
            ("value".into(), Json::Num(self.value)),
            ("higher_is_better".into(), Json::Bool(self.higher_is_better)),
            ("deterministic".into(), Json::Bool(self.deterministic)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let text = |k: &str| member(v, "metric", k, "a string", Json::as_str).map(str::to_string);
        // A flag that is not a JSON bool is an error, not `false`: reading
        // `"deterministic": "true"` as false would demote a gated metric to advisory.
        let flag = |k: &str| member(v, "metric", k, "a bool", Json::as_bool);
        Ok(Metric {
            name: text("name")?,
            unit: text("unit")?,
            value: member(v, "metric", "value", "a number", Json::as_num)?,
            higher_is_better: flag("higher_is_better")?,
            deterministic: flag("deterministic")?,
        })
    }
}

/// Member `k` of the JSON object `v` (a `what`: a metric, a report), read by `read`. The
/// error names the member when it is missing or not a `kind`.
fn member<'a, T>(
    v: &'a Json,
    what: &str,
    k: &str,
    kind: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, JsonError> {
    let fail = |message| JsonError { message, offset: 0 };
    let m = v
        .get(k)
        .ok_or_else(|| fail(format!("{what} is missing {k:?}")))?;
    read(m).ok_or_else(|| fail(format!("{what} {k:?} is not {kind}")))
}

/// One producer's report: a named, parameterised set of metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Producer name — a figure binary (`"fig_shard_blast_radius"`).
    pub name: String,
    /// Canonical parameter string (e.g. `"duration=70,shards=4,parallel=1"`, or
    /// `"default"` for parameterless producers). Together with `name` it identifies
    /// the report in its file: CI smoke runs and full-length runs of the same binary
    /// coexist as separate entries, each diffed against its own baseline.
    pub params: String,
    /// The metrics, in the producer's emission order.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// Start an empty report.
    pub fn new(name: &str, params: &str) -> Self {
        BenchReport {
            name: name.to_string(),
            params: params.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Append a metric (panics on a duplicate name — each name must identify one
    /// number for diffing to make sense).
    pub fn push(&mut self, metric: Metric) {
        assert!(
            self.metrics.iter().all(|m| m.name != metric.name),
            "duplicate metric {:?} in report {:?}",
            metric.name,
            self.name
        );
        self.metrics.push(metric);
    }

    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("params".into(), Json::Str(self.params.clone())),
            (
                "metrics".into(),
                Json::Arr(self.metrics.iter().map(Metric::to_json).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let text = |k: &str| member(v, "report", k, "a string", Json::as_str).map(str::to_string);
        let metrics = member(v, "report", "metrics", "an array", Json::as_arr)?
            .iter()
            .map(Metric::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        // `push` forbids a duplicate name; a parsed file must not sneak one past it, or
        // `metric(name)` — and with it the diff — would see only the first.
        for (i, m) in metrics.iter().enumerate() {
            if metrics[..i].iter().any(|earlier| earlier.name == m.name) {
                return Err(JsonError {
                    message: format!("report has a duplicate metric {:?}", m.name),
                    offset: 0,
                });
            }
        }
        Ok(BenchReport {
            name: text("name")?,
            params: text("params")?,
            metrics,
        })
    }
}

/// One `BENCH_<area>.json` file: an area label plus a set of reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportFile {
    /// Area label (`"datapath"`, `"classifier"`, `"mitigation"`, `"sharding"`),
    /// derived from the `BENCH_<area>.json` filename on first write.
    pub area: String,
    /// The reports, kept sorted by `(name, params)` so file layout is independent of
    /// the order producers ran in.
    pub reports: Vec<BenchReport>,
}

impl ReportFile {
    /// An empty file for `area`.
    pub fn new(area: &str) -> Self {
        ReportFile {
            area: area.to_string(),
            reports: Vec::new(),
        }
    }

    /// Derive the area label from a report path: `BENCH_sharding.json` → `sharding`;
    /// any other filename is its own stem.
    fn area_of(path: &Path) -> String {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        stem.strip_prefix("BENCH_").unwrap_or(&stem).to_string()
    }

    /// Load `path`, or return an empty file (with the area derived from the filename)
    /// if it does not exist yet. Parse or I/O errors other than "not found" are
    /// returned — a corrupt baseline must not be silently clobbered.
    fn load_or_empty(path: &Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json_text(&text)
                .map_err(|e| format!("{}: invalid report file: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Ok(ReportFile::new(&Self::area_of(path)))
            }
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Load `path`, erroring if it does not exist (the `bench_diff` entry point —
    /// diffing against a missing baseline is a setup error, not an empty diff).
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json_text(&text)
            .map_err(|e| format!("{}: invalid report file: {e}", path.display()))
    }

    /// Parse a report file from its JSON text. A member the layout does not name (the
    /// `env` block older files carry) is ignored.
    pub fn from_json_text(text: &str) -> Result<Self, JsonError> {
        let v = json::parse(text)?;
        let version = member(&v, "report file", "version", "a number", Json::as_num)?;
        if version != FORMAT_VERSION {
            return Err(JsonError {
                message: format!(
                    "report file \"version\" is {version}; this build reads version {FORMAT_VERSION}"
                ),
                offset: 0,
            });
        }
        let area = member(&v, "report file", "area", "a string", Json::as_str)?.to_string();
        let reports = member(&v, "report file", "reports", "an array", Json::as_arr)?
            .iter()
            .map(BenchReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReportFile { area, reports })
    }

    /// Serialize to the canonical byte representation (sorted reports, deterministic
    /// writer, trailing newline).
    pub fn to_json_text(&self) -> String {
        let mut sorted: Vec<&BenchReport> = self.reports.iter().collect();
        sorted.sort_by(|a, b| (&a.name, &a.params).cmp(&(&b.name, &b.params)));
        let v = Json::Obj(vec![
            ("version".into(), Json::Num(FORMAT_VERSION)),
            ("area".into(), Json::Str(self.area.clone())),
            (
                "reports".into(),
                Json::Arr(sorted.iter().map(|r| r.to_json()).collect()),
            ),
        ]);
        json::write(&v).expect("metric constructors reject non-finite values")
    }

    /// Insert `report`, replacing any existing report with the same `(name, params)`.
    pub fn upsert(&mut self, report: BenchReport) {
        match self
            .reports
            .iter_mut()
            .find(|r| r.name == report.name && r.params == report.params)
        {
            Some(slot) => *slot = report,
            None => self.reports.push(report),
        }
    }

    /// Look up a report by identity.
    pub fn report(&self, name: &str, params: &str) -> Option<&BenchReport> {
        self.reports
            .iter()
            .find(|r| r.name == name && r.params == params)
    }

    /// Write the file to `path` (canonical bytes).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json_text()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Load-or-create the file at `path`, upsert `report` into it, and write it back —
/// the append operation behind every producer's `--json` flag.
pub(crate) fn append_report(path: &Path, report: BenchReport) -> Result<(), String> {
    let mut file = ReportFile::load_or_empty(path)?;
    file.upsert(report);
    file.save(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(name: &str, params: &str) -> BenchReport {
        let mut r = BenchReport::new(name, params);
        r.push(Metric::deterministic(
            "total_cost_seconds",
            "cost_seconds",
            1.25e-3,
        ));
        r.push(Metric::deterministic("victim_gbps", "gbps", 3.75).higher_is_better());
        r.push(Metric::wall("wall_seconds", "seconds_wall", 0.42));
        r
    }

    #[test]
    fn report_file_roundtrips() {
        let mut file = ReportFile::new("sharding");
        file.upsert(sample_report("fig_a", "duration=70"));
        file.upsert(sample_report("fig_b", "default"));
        let text = file.to_json_text();
        let back = ReportFile::from_json_text(&text).unwrap();
        assert_eq!(back.area, "sharding");
        assert_eq!(back.reports.len(), 2);
        let a = back.report("fig_a", "duration=70").unwrap();
        assert_eq!(a.metric("victim_gbps").unwrap().value, 3.75);
        assert!(a.metric("victim_gbps").unwrap().higher_is_better);
        assert!(a.metric("total_cost_seconds").unwrap().deterministic);
        assert!(!a.metric("wall_seconds").unwrap().deterministic);
    }

    #[test]
    fn serialization_is_order_independent() {
        let mut ab = ReportFile::new("x");
        ab.upsert(sample_report("a", "p"));
        ab.upsert(sample_report("b", "p"));
        let mut ba = ReportFile::new("x");
        ba.upsert(sample_report("b", "p"));
        ba.upsert(sample_report("a", "p"));
        assert_eq!(ab.to_json_text(), ba.to_json_text());
    }

    #[test]
    fn upsert_replaces_matching_identity_only() {
        let mut file = ReportFile::new("x");
        file.upsert(sample_report("fig", "duration=10"));
        file.upsert(sample_report("fig", "duration=70"));
        assert_eq!(
            file.reports.len(),
            2,
            "different params are distinct reports"
        );
        let mut replacement = sample_report("fig", "duration=10");
        replacement.metrics[0].value = 9.0;
        file.upsert(replacement);
        assert_eq!(file.reports.len(), 2);
        assert_eq!(
            file.report("fig", "duration=10").unwrap().metrics[0].value,
            9.0
        );
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metric_names_are_rejected() {
        let mut r = BenchReport::new("r", "default");
        r.push(Metric::deterministic("m", "masks", 1.0));
        r.push(Metric::deterministic("m", "masks", 2.0));
    }

    /// A one-report file holding `metrics` (JSON object text) verbatim.
    fn file_text(metrics: &str) -> String {
        format!(
            r#"{{"version": 1, "area": "x", "reports": [{{"name": "r", "params": "default", "metrics": [{metrics}]}}]}}"#
        )
    }

    fn metric_text(deterministic: &str, higher_is_better: &str) -> String {
        format!(
            r#"{{"name": "m", "unit": "masks", "value": 1, "higher_is_better": {higher_is_better}, "deterministic": {deterministic}}}"#
        )
    }

    #[test]
    fn a_flag_that_is_not_a_bool_is_an_error_naming_it() {
        let ok = ReportFile::from_json_text(&file_text(&metric_text("true", "false"))).unwrap();
        assert!(ok.reports[0].metrics[0].deterministic);
        for (deterministic, higher_is_better, field) in [
            ("\"true\"", "false", "deterministic"),
            ("1", "false", "deterministic"),
            ("true", "null", "higher_is_better"),
        ] {
            let text = file_text(&metric_text(deterministic, higher_is_better));
            let e = ReportFile::from_json_text(&text).unwrap_err();
            assert!(
                e.message.contains(&format!("{field:?} is not a bool")),
                "{e}"
            );
        }
    }

    #[test]
    fn a_parsed_duplicate_metric_name_is_an_error() {
        let m = metric_text("true", "false");
        let e = ReportFile::from_json_text(&file_text(&format!("{m}, {m}"))).unwrap_err();
        assert!(e.message.contains("duplicate metric \"m\""), "{e}");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_metric_values_are_rejected() {
        Metric::deterministic("m", "gbps", f64::NAN);
    }

    #[test]
    fn area_is_derived_from_filename() {
        assert_eq!(
            ReportFile::area_of(Path::new("/repo/BENCH_datapath.json")),
            "datapath"
        );
        assert_eq!(ReportFile::area_of(Path::new("custom.json")), "custom");
    }

    #[test]
    fn append_report_merges_on_disk() {
        let dir = std::env::temp_dir().join("tse_report_test_append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_unit.json");
        let _ = std::fs::remove_file(&path);
        append_report(&path, sample_report("first", "default")).unwrap();
        append_report(&path, sample_report("second", "default")).unwrap();
        // Re-appending an identical report must not change the bytes (determinism).
        let before = std::fs::read_to_string(&path).unwrap();
        let mut again = sample_report("first", "default");
        again.metrics.retain(|m| m.deterministic); // drop the wall metric
        again.push(Metric::wall("wall_seconds", "seconds_wall", 0.42));
        append_report(&path, again).unwrap();
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(before, after);
        let file = ReportFile::load(&path).unwrap();
        assert_eq!(file.area, "unit");
        assert_eq!(file.reports.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_files_error_instead_of_clobbering() {
        let dir = std::env::temp_dir().join("tse_report_test_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_bad.json");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(ReportFile::load_or_empty(&path).is_err());
        assert!(append_report(&path, sample_report("r", "default")).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
