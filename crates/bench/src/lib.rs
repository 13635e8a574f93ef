//! # tse-bench
//!
//! The benchmark harness of the reproduction. It has three halves:
//!
//! * **figure binaries** (`src/bin/`): one binary per table/figure of the paper's
//!   evaluation, each printing the same rows/series the paper reports (see DESIGN.md §5
//!   for the experiment index and EXPERIMENTS.md for recorded outputs);
//! * **criterion micro-benchmarks** (`benches/`): wall-clock measurements of the TSS
//!   lookup as the mask count grows, the megaflow-generation strategies, the baseline
//!   classifiers, and the sharded-datapath scaling curve;
//! * **the [`report`] subsystem**: the machine-readable `BENCH_<area>.json` files at
//!   the repo root that both halves emit their headline numbers into — figure binaries
//!   through the shared `--json <path>` flag ([`FigArgs::emit`]), criterion groups
//!   through the stub's `TSE_BENCH_OUT` hook folded in by the `bench_ingest` binary —
//!   and the `bench_diff` regression gate that compares two such files (strict
//!   equality for deterministic cost-model metrics, a tolerance band for wall-clock).
//!   See the README's "Benchmark reports & regression gate" section.
//!
//! This library crate hosts the report model and small shared helpers for the
//! binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use std::path::PathBuf;

use tse_switch::exec::{PersistentPoolExecutor, SequentialExecutor, ShardExecutor};

use report::{BenchReport, Metric};

/// Parse an optional `--duration <seconds>` / `--duration=<seconds>` CLI flag,
/// falling back to `default`. Shorthand over [`fig_args_duration`] for call sites
/// that only need the horizon; binaries that also emit reports use the full
/// [`FigArgs`] form.
pub fn duration_arg(default: f64) -> f64 {
    fig_args_duration(default).duration
}

/// Parsed command line of a figure binary (see [`fig_args`], [`fig_args_duration`]
/// and [`fig_args_static`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FigArgs {
    /// Experiment horizon, seconds (`--duration`); `0.0` for binaries with no time
    /// axis ([`fig_args_static`]).
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

impl FigArgs {
    /// The shard count of a sharded figure binary. Panics if the binary was not
    /// parsed with [`fig_args`] — a non-sharded binary has no shard count to ask for.
    pub fn shard_count(&self) -> usize {
        self.shards
            .expect("this binary has no --shards flag; use fig_args(..) to enable it")
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
    pub fn params(&self) -> String {
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

    /// Append a report carrying `metrics` under this binary's `name` to the file the
    /// `--json` flag named (no-op without the flag). Exits with an error message if
    /// the target file exists but cannot be parsed — a corrupt committed baseline
    /// must be fixed, not overwritten.
    pub fn emit(&self, name: &str, metrics: Vec<Metric>) {
        let Some(path) = &self.json else { return };
        let mut report = BenchReport::new(name, &self.params());
        for m in metrics {
            report.push(m);
        }
        if let Err(e) = report::append_report(path, report) {
            eprintln!("error: failed to write benchmark report: {e}");
            std::process::exit(2);
        }
        println!("[report] {name} appended to {}", path.display());
    }
}

/// Which flags a binary's parser accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlagSet {
    duration: bool,
    sharded: bool,
    fleet: bool,
}

impl FlagSet {
    fn supported(&self) -> String {
        let mut flags = Vec::new();
        if self.duration {
            flags.push("--duration <seconds>");
        }
        if self.sharded {
            flags.push("--shards <n>");
            flags.push("--parallel <threads>");
        }
        if self.fleet {
            flags.push("--tenants <n>");
            flags.push("--slo-gbps <gbps>");
        }
        flags.push("--json <path>");
        flags.join(", ")
    }
}

/// Parse the shared CLI of the sharded figure binaries: `--duration <seconds>`,
/// `--shards <n>`, `--parallel <threads>` and `--json <path>` (each also in
/// `--flag=value` form), falling back to the given defaults (`--parallel` defaults
/// to 1, i.e. the sequential executor). An unknown flag prints the offending
/// argument plus the supported flag set to stderr and exits with status 2, so a
/// typo'd CI smoke invocation fails loudly instead of silently running full-length.
pub fn fig_args(default_duration: f64, default_shards: usize) -> FigArgs {
    parse_or_exit(
        std::env::args().skip(1),
        FigArgs {
            duration: default_duration,
            shards: Some(default_shards),
            threads: 1,
            json: None,
            tenants: None,
            slo_gbps: None,
        },
        FlagSet {
            duration: true,
            sharded: true,
            fleet: false,
        },
    )
}

/// Parse the CLI of a tenant-fleet binary: everything [`fig_args`] accepts plus
/// `--tenants <n>` (fleet size) and `--slo-gbps <gbps>` (per-tenant delivered-rate
/// floor), each also in `--flag=value` form. Same error behaviour as [`fig_args`].
pub fn fig_args_fleet(
    default_duration: f64,
    default_shards: usize,
    default_tenants: usize,
    default_slo_gbps: f64,
) -> FigArgs {
    parse_or_exit(
        std::env::args().skip(1),
        FigArgs {
            duration: default_duration,
            shards: Some(default_shards),
            threads: 1,
            json: None,
            tenants: Some(default_tenants),
            slo_gbps: Some(default_slo_gbps),
        },
        FlagSet {
            duration: true,
            sharded: true,
            fleet: true,
        },
    )
}

/// Parse the CLI of a non-sharded timeline binary: `--duration <seconds>` and
/// `--json <path>` only. Same error behaviour as [`fig_args`].
pub fn fig_args_duration(default_duration: f64) -> FigArgs {
    parse_or_exit(
        std::env::args().skip(1),
        FigArgs {
            duration: default_duration,
            shards: None,
            threads: 1,
            json: None,
            tenants: None,
            slo_gbps: None,
        },
        FlagSet {
            duration: true,
            sharded: false,
            fleet: false,
        },
    )
}

/// Parse the CLI of a parameterless figure binary: `--json <path>` only. Same error
/// behaviour as [`fig_args`].
pub fn fig_args_static() -> FigArgs {
    parse_or_exit(
        std::env::args().skip(1),
        FigArgs {
            duration: 0.0,
            shards: None,
            threads: 1,
            json: None,
            tenants: None,
            slo_gbps: None,
        },
        FlagSet {
            duration: false,
            sharded: false,
            fleet: false,
        },
    )
}

fn parse_or_exit(args: impl Iterator<Item = String>, defaults: FigArgs, flags: FlagSet) -> FigArgs {
    parse_args(args, defaults, flags).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The parser behind the `fig_args*` entry points.
fn parse_args(
    args: impl Iterator<Item = String>,
    defaults: FigArgs,
    flags: FlagSet,
) -> Result<FigArgs, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))
    }
    let mut out = defaults;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut take = |flag: &str| -> Result<Option<String>, String> {
            if a == flag {
                match args.next() {
                    Some(v) => Ok(Some(v)),
                    None => Err(format!("{flag} needs a value")),
                }
            } else {
                Ok(a.strip_prefix(&format!("{flag}=")).map(str::to_string))
            }
        };
        if let Some(v) = if flags.duration {
            take("--duration")?
        } else {
            None
        } {
            out.duration = value("--duration", &v)?;
        } else if let Some(v) = if flags.sharded {
            take("--shards")?
        } else {
            None
        } {
            out.shards = Some(value("--shards", &v)?);
        } else if let Some(v) = if flags.sharded {
            take("--parallel")?
        } else {
            None
        } {
            out.threads = value("--parallel", &v)?;
        } else if let Some(v) = if flags.fleet {
            take("--tenants")?
        } else {
            None
        } {
            out.tenants = Some(value("--tenants", &v)?);
        } else if let Some(v) = if flags.fleet {
            take("--slo-gbps")?
        } else {
            None
        } {
            out.slo_gbps = Some(value("--slo-gbps", &v)?);
        } else if let Some(v) = take("--json")? {
            if v.is_empty() {
                return Err("--json needs a non-empty path".into());
            }
            out.json = Some(PathBuf::from(v));
        } else {
            return Err(format!(
                "unknown argument {a:?}; supported flags: {}",
                flags.supported()
            ));
        }
    }
    if out.shards == Some(0) {
        return Err("--shards must be positive".into());
    }
    if out.threads == 0 {
        return Err("--parallel must be positive".into());
    }
    if flags.duration && out.duration <= 0.0 {
        return Err("--duration must be positive".into());
    }
    if let Some(t) = out.tenants {
        if t < 2 {
            return Err("--tenants must be at least 2 (one tenant has nobody to attack)".into());
        }
    }
    if let Some(slo) = out.slo_gbps {
        if slo <= 0.0 {
            return Err("--slo-gbps must be positive".into());
        }
    }
    Ok(out)
}

/// Format a throughput value as `x.xx Gbps`.
pub fn gbps(v: f64) -> String {
    format!("{v:7.3} Gbps")
}

/// Format a percentage relative to a baseline.
pub fn percent(value: f64, baseline: f64) -> String {
    format!("{:6.2} %", 100.0 * value / baseline)
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

    #[test]
    fn formatting_helpers() {
        assert!(gbps(1.5).contains("1.500 Gbps"));
        assert!(percent(5.0, 10.0).contains("50.00"));
    }

    const SHARDED: FlagSet = FlagSet {
        duration: true,
        sharded: true,
        fleet: false,
    };
    const DURATION_ONLY: FlagSet = FlagSet {
        duration: true,
        sharded: false,
        fleet: false,
    };
    const STATIC: FlagSet = FlagSet {
        duration: false,
        sharded: false,
        fleet: false,
    };
    const FLEET: FlagSet = FlagSet {
        duration: true,
        sharded: true,
        fleet: true,
    };

    fn parse(args: &[&str], flags: FlagSet) -> Result<FigArgs, String> {
        parse_args(
            args.iter().map(|s| s.to_string()),
            FigArgs {
                duration: if flags.duration { 70.0 } else { 0.0 },
                shards: flags.sharded.then_some(4),
                threads: 1,
                json: None,
                tenants: flags.fleet.then_some(1000),
                slo_gbps: flags.fleet.then_some(0.005),
            },
            flags,
        )
    }

    #[test]
    fn fig_args_defaults_and_flags() {
        assert_eq!(
            parse(&[], SHARDED).unwrap(),
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
                SHARDED
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
            parse(&["--parallel=2", "--duration=5.5"], SHARDED).unwrap(),
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
        let parsed = parse(&["--tenants", "64", "--slo-gbps=0.002"], FLEET).unwrap();
        assert_eq!(parsed.tenants, Some(64));
        assert_eq!(parsed.slo_gbps, Some(0.002));
        // Defaults survive when unset.
        let parsed = parse(&[], FLEET).unwrap();
        assert_eq!((parsed.tenants, parsed.slo_gbps), (Some(1000), Some(0.005)));
        // Validation mirrors --shards/--parallel: loud errors, no panics.
        assert!(parse(&["--tenants", "1"], FLEET)
            .unwrap_err()
            .contains("at least 2"));
        assert!(parse(&["--slo-gbps", "0"], FLEET)
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--tenants", "many"], FLEET)
            .unwrap_err()
            .contains("bad --tenants"));
        assert!(parse(&["--tenants"], FLEET)
            .unwrap_err()
            .contains("needs a value"));
        // Non-fleet binaries reject the flags and list the fleet set only when on.
        let e = parse(&["--tenants", "64"], SHARDED).unwrap_err();
        assert!(e.contains("--tenants") && !e.contains("--slo-gbps <gbps>"));
        let e = parse(&["--frobnicate"], FLEET).unwrap_err();
        assert!(e.contains("--tenants <n>") && e.contains("--slo-gbps <gbps>"));
        // Params identity includes the fleet axes.
        assert_eq!(
            parse(&["--duration=35", "--tenants=64"], FLEET)
                .unwrap()
                .params(),
            "duration=35,shards=4,parallel=1,tenants=64,slo=0.005"
        );
    }

    #[test]
    fn json_flag_is_accepted_everywhere() {
        for flags in [SHARDED, DURATION_ONLY, STATIC] {
            let parsed = parse(&["--json", "BENCH_x.json"], flags).unwrap();
            assert_eq!(
                parsed.json.as_deref(),
                Some(std::path::Path::new("BENCH_x.json"))
            );
        }
        let parsed = parse(&["--json=out/b.json"], STATIC).unwrap();
        assert_eq!(
            parsed.json.as_deref(),
            Some(std::path::Path::new("out/b.json"))
        );
        assert!(parse(&["--json", ""], STATIC).is_err());
    }

    #[test]
    fn fig_args_selects_the_executor() {
        assert_eq!(parse(&[], SHARDED).unwrap().executor().name(), "sequential");
        assert_eq!(parse(&[], SHARDED).unwrap().executor_label(), "sequential");
        // Plain `--parallel N` selects the long-lived persistent pool.
        let par = parse(&["--parallel", "4"], SHARDED).unwrap();
        assert_eq!(par.executor().name(), "persistent-pool");
        assert_eq!(par.executor_label(), "persistent-pool(4)");
        // A later value overrides an earlier one.
        let overridden = parse(&["--parallel=3", "--parallel=2"], SHARDED).unwrap();
        assert_eq!(overridden.executor_label(), "persistent-pool(2)");
    }

    #[test]
    fn unknown_flags_report_the_flag_and_the_supported_set() {
        let e = parse(&["--parallel", "4"], DURATION_ONLY).unwrap_err();
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

        let e = parse(&["--duration", "5"], STATIC).unwrap_err();
        assert!(e.contains("--duration"));
        assert_eq!(
            parse(&["--frobnicate"], SHARDED).unwrap_err(),
            "unknown argument \"--frobnicate\"; supported flags: --duration <seconds>, \
             --shards <n>, --parallel <threads>, --json <path>"
        );
    }

    #[test]
    fn invalid_values_are_errors_not_panics() {
        assert!(parse(&["--parallel", "0"], SHARDED)
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--shards", "0"], SHARDED)
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--shards"], SHARDED)
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["--duration", "nope"], SHARDED)
            .unwrap_err()
            .contains("bad --duration"));
        assert!(parse(&["--duration", "-3"], SHARDED)
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn shard_count_accessor() {
        assert_eq!(
            parse(&["--shards", "16"], SHARDED).unwrap().shard_count(),
            16
        );
    }

    #[test]
    #[should_panic(expected = "no --shards flag")]
    fn shard_count_panics_without_sharding() {
        parse(&[], DURATION_ONLY).unwrap().shard_count();
    }

    #[test]
    fn params_canonicalization() {
        assert_eq!(
            parse(&[], SHARDED).unwrap().params(),
            "duration=70,shards=4,parallel=1"
        );
        assert_eq!(
            parse(&["--duration=35", "--parallel=2"], SHARDED)
                .unwrap()
                .params(),
            "duration=35,shards=4,parallel=2"
        );
        assert_eq!(
            parse(&["--duration=5.5"], DURATION_ONLY).unwrap().params(),
            "duration=5.5"
        );
        assert_eq!(parse(&[], STATIC).unwrap().params(), "default");
    }
}
