//! # tse-bench
//!
//! The figure layer of the reproduction. It has four parts:
//!
//! * **figure binaries** (`src/bin/`): one binary per table/figure of the paper's
//!   evaluation, each printing the same rows/series the paper reports (the README's
//!   "Running the figure binaries" section is the experiment index; the committed
//!   `BENCH_*.json` files hold the recorded headline numbers). They report; they do not
//!   judge — `tests/paper_claims.rs` holds the paper's claims as named rows checked on
//!   the binaries' own runs;
//! * **the [`Figure`] harness** ([`figure`]) every one of them runs inside: it parses
//!   the shared CLI from a [`FigArgs`] of defaults, holds the run's only stopwatch,
//!   takes the headline rows in call order and, on `finish()`, prints the end-of-run
//!   summary and appends the report the `--json <path>` flag asked for;
//! * **the SipDp experiments as data** ([`sipdp`]): the shard-targeted binaries
//!   (`fig_mitigation_matrix`, `fig_overlay_explosion`, `fig_shard_blast_radius`,
//!   `ipv6_entry_explosion`) are each a fixture and a table of `const` variants that
//!   [`sipdp::sweep`] runs, names `<variant>/<row>` and tabulates;
//! * **the [`report`] subsystem**: the machine-readable `BENCH_<area>.json` files at
//!   the repo root those reports land in, and the `bench_diff` regression gate that
//!   compares two such files (strict equality for deterministic cost-model metrics, a
//!   tolerance band for the advisory `wall_seconds`). See the README's "Benchmark
//!   reports & regression gate" section.
//!
//! Nothing here times a layer: per-layer and end-to-end wall-clock measurement is the
//! standalone `benchmark/` package's job. The one clock read of the workspace is the
//! harness's whole-run stopwatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure;
pub mod report;
pub mod sipdp;

use std::path::PathBuf;

use tse_switch::exec::{PersistentPoolExecutor, SequentialExecutor, ShardExecutor};

pub use figure::Figure;

/// Command line of a figure binary: the defaults a binary hands [`Figure::parse`], and
/// what comes back as [`Figure::args`].
#[derive(Debug, Clone, PartialEq)]
pub struct FigArgs {
    /// Experiment horizon, seconds (`--duration`); `0.0` for binaries with no time
    /// axis.
    pub duration: f64,
    /// Number of datapath shards / PMD threads to model (`--shards`), or `None` for
    /// binaries without a sharded datapath — there is no sentinel shard count.
    pub shards: Option<usize>,
    /// Worker threads driving the per-shard fan-out (`--parallel <n>`: a long-lived
    /// persistent pool of `n` workers; 1 = sequential).
    pub threads: usize,
    /// Where to append this run's benchmark report (`--json <path>`), typically one
    /// of the repo-root `BENCH_<area>.json` files; `None` disables emission.
    pub json: Option<PathBuf>,
    /// Tenant count of a fleet-scale binary (`--tenants`), or `None` for binaries
    /// without a tenant axis.
    pub tenants: Option<usize>,
    /// Per-tenant SLO floor in Gbps (`--slo-gbps`), or `None` for binaries without
    /// SLO tracking.
    pub slo_gbps: Option<f64>,
}

/// The defaults of a parameterless binary: no time axis, no shards, no fleet, the
/// sequential executor. A binary's defaults also select the flags its parser accepts.
impl Default for FigArgs {
    fn default() -> Self {
        FigArgs {
            duration: 0.0,
            shards: None,
            threads: 1,
            json: None,
            tenants: None,
            slo_gbps: None,
        }
    }
}

impl FigArgs {
    /// The shard count of a sharded figure binary. Panics if the binary's defaults
    /// carry none — a non-sharded binary has no shard count to ask for.
    pub fn shard_count(&self) -> usize {
        self.shards
            .expect("this binary has no --shards flag; give its defaults a shard count")
    }

    /// The shard executor the flags select: a [`PersistentPoolExecutor`] when
    /// `--parallel <n>` asked for more than one thread (long-lived parked workers,
    /// the PMD-thread model), the default [`SequentialExecutor`] otherwise. Timelines
    /// are identical in both cases; only wall-clock time changes.
    pub fn executor(&self) -> Box<dyn ShardExecutor> {
        if self.threads > 1 {
            Box::new(PersistentPoolExecutor::new(self.threads))
        } else {
            Box::new(SequentialExecutor)
        }
    }

    /// `"sequential"` or `"persistent-pool(N)"` — for experiment headers.
    pub fn executor_label(&self) -> String {
        if self.threads > 1 {
            format!("persistent-pool({})", self.threads)
        } else {
            "sequential".to_string()
        }
    }

    /// Canonical parameter string identifying this run's configuration inside a
    /// report file: `"duration=35,shards=4,parallel=2"`, with absent axes omitted and
    /// `"default"` when the binary has no parameters at all. Reports from different
    /// configurations (a CI smoke run vs. a full-length baseline run) coexist in the
    /// same file under distinct identities.
    pub(crate) fn params(&self) -> String {
        let mut parts = Vec::new();
        if self.duration > 0.0 {
            parts.push(format!("duration={}", self.duration));
        }
        if let Some(shards) = self.shards {
            parts.push(format!("shards={shards}"));
            parts.push(format!("parallel={}", self.threads));
        }
        if let Some(tenants) = self.tenants {
            parts.push(format!("tenants={tenants}"));
        }
        if let Some(slo) = self.slo_gbps {
            parts.push(format!("slo={slo}"));
        }
        if parts.is_empty() {
            "default".to_string()
        } else {
            parts.join(",")
        }
    }
}

/// The one parser of the figure CLI: `--duration <seconds>`, `--shards <n>`,
/// `--parallel <threads>`, `--tenants <n>`, `--slo-gbps <gbps>` and `--json <path>`,
/// each also in `--flag=value` form, falling back to `defaults`. The defaults select
/// the accepted flags: a positive default duration enables `--duration`, a default shard
/// count `--shards` / `--parallel` (`--parallel` defaults to 1, the sequential
/// executor), a default tenant count `--tenants` / `--slo-gbps`; `--json` is always on.
/// An unknown flag is an error naming the offending argument and the supported set, so a
/// typo'd CI smoke invocation fails loudly instead of silently running full-length.
pub(crate) fn parse_args(
    args: impl Iterator<Item = String>,
    defaults: FigArgs,
) -> Result<FigArgs, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))
    }
    let timed = defaults.duration > 0.0;
    let sharded = defaults.shards.is_some();
    let fleet = defaults.tenants.is_some();
    let mut out = defaults;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut take = |accepted: bool, flag: &str| -> Result<Option<String>, String> {
            if !accepted {
                Ok(None)
            } else if a == flag {
                match args.next() {
                    Some(v) => Ok(Some(v)),
                    None => Err(format!("{flag} needs a value")),
                }
            } else {
                Ok(a.strip_prefix(&format!("{flag}=")).map(str::to_string))
            }
        };
        if let Some(v) = take(timed, "--duration")? {
            out.duration = value("--duration", &v)?;
        } else if let Some(v) = take(sharded, "--shards")? {
            out.shards = Some(value("--shards", &v)?);
        } else if let Some(v) = take(sharded, "--parallel")? {
            out.threads = value("--parallel", &v)?;
        } else if let Some(v) = take(fleet, "--tenants")? {
            out.tenants = Some(value("--tenants", &v)?);
        } else if let Some(v) = take(fleet, "--slo-gbps")? {
            out.slo_gbps = Some(value("--slo-gbps", &v)?);
        } else if let Some(v) = take(true, "--json")? {
            if v.is_empty() {
                return Err("--json needs a non-empty path".into());
            }
            out.json = Some(PathBuf::from(v));
        } else {
            let mut supported = Vec::new();
            if timed {
                supported.push("--duration <seconds>");
            }
            if sharded {
                supported.extend(["--shards <n>", "--parallel <threads>"]);
            }
            if fleet {
                supported.extend(["--tenants <n>", "--slo-gbps <gbps>"]);
            }
            supported.push("--json <path>");
            return Err(format!(
                "unknown argument {a:?}; supported flags: {}",
                supported.join(", ")
            ));
        }
    }
    if out.shards == Some(0) {
        return Err("--shards must be positive".into());
    }
    if out.threads == 0 {
        return Err("--parallel must be positive".into());
    }
    // NaN and inf pass a bare `<= 0.0` test and would only trip `run_mix`'s assert.
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if timed && !positive(out.duration) {
        return Err("--duration must be positive and finite".into());
    }
    if let Some(t) = out.tenants {
        if t < 2 {
            return Err("--tenants must be at least 2 (one tenant has nobody to attack)".into());
        }
    }
    if out.slo_gbps.is_some_and(|slo| !positive(slo)) {
        return Err("--slo-gbps must be positive and finite".into());
    }
    Ok(out)
}

/// Render a simple aligned table: a header row plus data rows of equal arity.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            &["masks", "gbps"],
            &[
                vec!["1".into(), "10.0".into()],
                vec!["8200".into(), "0.02".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("masks"));
        assert!(lines[3].contains("8200"));
    }

    fn sharded() -> FigArgs {
        FigArgs {
            duration: 70.0,
            shards: Some(4),
            ..FigArgs::default()
        }
    }
    fn duration_only() -> FigArgs {
        FigArgs {
            duration: 70.0,
            ..FigArgs::default()
        }
    }
    fn fleet() -> FigArgs {
        FigArgs {
            tenants: Some(1000),
            slo_gbps: Some(0.005),
            ..sharded()
        }
    }

    fn parse(args: &[&str], defaults: FigArgs) -> Result<FigArgs, String> {
        parse_args(args.iter().map(|s| s.to_string()), defaults)
    }

    #[test]
    fn fig_args_defaults_and_flags() {
        assert_eq!(
            parse(&[], sharded()).unwrap(),
            FigArgs {
                duration: 70.0,
                shards: Some(4),
                threads: 1,
                json: None,
                tenants: None,
                slo_gbps: None,
            }
        );
        assert_eq!(
            parse(
                &["--duration", "35", "--parallel", "8", "--shards", "16"],
                sharded()
            )
            .unwrap(),
            FigArgs {
                duration: 35.0,
                shards: Some(16),
                threads: 8,
                json: None,
                tenants: None,
                slo_gbps: None,
            }
        );
        assert_eq!(
            parse(&["--parallel=2", "--duration=5.5"], sharded()).unwrap(),
            FigArgs {
                duration: 5.5,
                shards: Some(4),
                threads: 2,
                json: None,
                tenants: None,
                slo_gbps: None,
            }
        );
    }

    #[test]
    fn fleet_flags_parse_validate_and_stay_scoped() {
        let parsed = parse(&["--tenants", "64", "--slo-gbps=0.002"], fleet()).unwrap();
        assert_eq!(parsed.tenants, Some(64));
        assert_eq!(parsed.slo_gbps, Some(0.002));
        // Defaults survive when unset.
        let parsed = parse(&[], fleet()).unwrap();
        assert_eq!((parsed.tenants, parsed.slo_gbps), (Some(1000), Some(0.005)));
        // Validation mirrors --shards/--parallel: loud errors, no panics.
        assert!(parse(&["--tenants", "1"], fleet())
            .unwrap_err()
            .contains("at least 2"));
        assert!(parse(&["--slo-gbps", "0"], fleet())
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--tenants", "many"], fleet())
            .unwrap_err()
            .contains("bad --tenants"));
        assert!(parse(&["--tenants"], fleet())
            .unwrap_err()
            .contains("needs a value"));
        // Non-fleet binaries reject the flags and list the fleet set only when on.
        let e = parse(&["--tenants", "64"], sharded()).unwrap_err();
        assert!(e.contains("--tenants") && !e.contains("--slo-gbps <gbps>"));
        let e = parse(&["--frobnicate"], fleet()).unwrap_err();
        assert!(e.contains("--tenants <n>") && e.contains("--slo-gbps <gbps>"));
        // Params identity includes the fleet axes.
        assert_eq!(
            parse(&["--duration=35", "--tenants=64"], fleet())
                .unwrap()
                .params(),
            "duration=35,shards=4,parallel=1,tenants=64,slo=0.005"
        );
    }

    #[test]
    fn json_flag_is_accepted_everywhere() {
        for defaults in [sharded(), duration_only(), FigArgs::default()] {
            let parsed = parse(&["--json", "BENCH_x.json"], defaults).unwrap();
            assert_eq!(
                parsed.json.as_deref(),
                Some(std::path::Path::new("BENCH_x.json"))
            );
        }
        let parsed = parse(&["--json=out/b.json"], FigArgs::default()).unwrap();
        assert_eq!(
            parsed.json.as_deref(),
            Some(std::path::Path::new("out/b.json"))
        );
        assert!(parse(&["--json", ""], FigArgs::default()).is_err());
    }

    #[test]
    fn fig_args_selects_the_executor() {
        assert_eq!(
            parse(&[], sharded()).unwrap().executor().name(),
            "sequential"
        );
        assert_eq!(
            parse(&[], sharded()).unwrap().executor_label(),
            "sequential"
        );
        // Plain `--parallel N` selects the long-lived persistent pool.
        let par = parse(&["--parallel", "4"], sharded()).unwrap();
        assert_eq!(par.executor().name(), "persistent-pool");
        assert_eq!(par.executor_label(), "persistent-pool(4)");
        // A later value overrides an earlier one.
        let overridden = parse(&["--parallel=3", "--parallel=2"], sharded()).unwrap();
        assert_eq!(overridden.executor_label(), "persistent-pool(2)");
    }

    #[test]
    fn unknown_flags_report_the_flag_and_the_supported_set() {
        let e = parse(&["--parallel", "4"], duration_only()).unwrap_err();
        assert!(
            e.contains("--parallel"),
            "must name the offending flag: {e}"
        );
        assert!(e.contains("--duration <seconds>"), "must list the set: {e}");
        assert!(e.contains("--json <path>"), "must list the set: {e}");
        assert!(
            !e.contains("--shards <n>"),
            "must not claim unsupported flags: {e}"
        );

        let e = parse(&["--duration", "5"], FigArgs::default()).unwrap_err();
        assert!(e.contains("--duration"));
        assert_eq!(
            parse(&["--frobnicate"], sharded()).unwrap_err(),
            "unknown argument \"--frobnicate\"; supported flags: --duration <seconds>, \
             --shards <n>, --parallel <threads>, --json <path>"
        );
    }

    #[test]
    fn invalid_values_are_errors_not_panics() {
        assert!(parse(&["--parallel", "0"], sharded())
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--shards", "0"], sharded())
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--shards"], sharded())
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["--duration", "nope"], sharded())
            .unwrap_err()
            .contains("bad --duration"));
        assert!(parse(&["--duration", "-3"], sharded())
            .unwrap_err()
            .contains("positive"));
        // NaN and inf parse as f64 and pass a bare `<= 0.0` test.
        for bad in ["NaN", "inf", "-inf"] {
            assert!(parse(&["--duration", bad], sharded())
                .unwrap_err()
                .contains("--duration must be positive"));
            assert!(parse(&["--slo-gbps", bad], fleet())
                .unwrap_err()
                .contains("--slo-gbps must be positive"));
        }
    }

    #[test]
    fn shard_count_accessor() {
        assert_eq!(
            parse(&["--shards", "16"], sharded()).unwrap().shard_count(),
            16
        );
    }

    #[test]
    #[should_panic(expected = "no --shards flag")]
    fn shard_count_panics_without_sharding() {
        parse(&[], duration_only()).unwrap().shard_count();
    }

    #[test]
    fn params_canonicalization() {
        assert_eq!(
            parse(&[], sharded()).unwrap().params(),
            "duration=70,shards=4,parallel=1"
        );
        assert_eq!(
            parse(&["--duration=35", "--parallel=2"], sharded())
                .unwrap()
                .params(),
            "duration=35,shards=4,parallel=2"
        );
        assert_eq!(
            parse(&["--duration=5.5"], duration_only())
                .unwrap()
                .params(),
            "duration=5.5"
        );
        assert_eq!(parse(&[], FigArgs::default()).unwrap().params(), "default");
    }
}
