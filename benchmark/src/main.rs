//! `tse-benchmark`: the repository's wall-clock spine — five workloads through
//! `ExperimentRunner::run_mix`, four end-to-end metrics over fresh-process repeats, and
//! a traced pass that times every layer from outside. See `benchmark/README.md`.
//!
//! ```text
//! tse-benchmark [suite] [--workload W]… [--seed N] [--seconds S] [--repeats R]
//!                       [--quick] [--no-trace] [--exec sequential|pool]
//!                                                     all workloads → out/results.json
//! tse-benchmark measure --workload W --seed N --seconds S --trace 0|1
//!                                                     one workload, one result line
//! tse-benchmark compare A.json B.json                 judge B against A by the bounds
//! ```

mod alloc;
mod check;
mod drills;
mod harness;
mod metrics;
mod pipeline;
mod results;
mod run;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use tse_bench::report::json;

use crate::workloads::{Exec, Workload, QUICK_SIM_SECONDS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds one workload measures for when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Repeats per workload under `--quick`.
const QUICK_REPEATS: usize = 2;

type Error = Box<dyn std::error::Error>;

/// The flags after the subcommand: `--name value` pairs and bare `--switches`.
struct Flags(Vec<String>);

impl Flags {
    fn values(&self, name: &str) -> Vec<&str> {
        self.0
            .windows(2)
            .filter(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, Error> {
        match self.values(name).last() {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: cannot parse {v:?}").into()),
            None => Ok(default),
        }
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, Error> {
        let names = self.values("--workload");
        if names.is_empty() {
            return Ok(WORKLOADS.iter().collect());
        }
        names
            .into_iter()
            .map(|n| Workload::by_name(n).ok_or_else(|| format!("unknown workload {n:?}").into()))
            .collect()
    }
}

/// `benchmark/out` of the checkout this binary was built in, whatever the working
/// directory.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(first) if !first.starts_with("--") => args.remove(0),
        _ => "suite".to_owned(),
    };
    let flags = Flags(args);
    let outcome = match command.as_str() {
        "suite" => suite(&flags),
        "measure" => measure(&flags),
        "child" => child(&flags),
        "compare" => compare(&flags),
        other => Err(format!("unknown command {other:?}").into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tse-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One timed repeat in this process; prints the [`run::RunResult`] as one line.
fn child(flags: &Flags) -> Result<bool, Error> {
    let workload = *flags.workloads()?.first().ok_or("child needs --workload")?;
    let result = run::run_once(
        workload,
        flags.parsed("--seed", 1)?,
        flags.parsed("--sim-seconds", workload.sim_seconds)?,
        flags.parsed("--exec", Exec::Workload)?,
        flags.has("--oracle"),
        flags.parsed("--spawned-at", run::epoch_nanos())?,
    );
    println!("{}", results::compact(&result.to_json()));
    Ok(true)
}

/// The driver's contract: one workload, `--seconds` of measurement, and as the last
/// line one JSON object — the end-to-end metrics (`--trace 0`) or the per-layer ones
/// (`--trace 1`).
fn measure(flags: &Flags) -> Result<bool, Error> {
    let [name] = flags.values("--workload")[..] else {
        return Err("measure needs exactly one --workload".into());
    };
    let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = flags.parsed("--seed", 1)?;
    let seconds: f64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    let sim_seconds = workload.sim_seconds;
    let (attempted, failed, metrics) = if flags.parsed("--trace", 0u8)? == 0 {
        let repeats = workload.repeats_for(seconds);
        let m = harness::measure(workload, seed, sim_seconds, repeats, Exec::Workload)?;
        results::print_measured(&m);
        let metrics = m
            .end_to_end()
            .iter()
            .map(|(metric, e)| (metric.name, e.value, metric.unit))
            .collect();
        (m.attempted(), m.failed(), metrics)
    } else {
        let t = traced::trace_workload(workload, seed, sim_seconds, &out_dir())?;
        results::print_traced(workload.name, &t);
        let metrics = t
            .metrics
            .iter()
            .map(|(def, value)| (def.name, *value, def.unit))
            .collect();
        (t.events, t.failed, metrics)
    };
    println!("{}", results::driver_line(attempted, failed, metrics));
    Ok(failed == 0)
}

/// Every selected workload: timed repeats, then the traced pass; results to
/// `out/results.json`. Fails if any event failed a check or the staged pipeline
/// diverged from `run_mix`.
fn suite(flags: &Flags) -> Result<bool, Error> {
    let quick = flags.has("--quick");
    let seed = flags.parsed("--seed", 1)?;
    let seconds: f64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    let repeats_flag: usize = flags.parsed("--repeats", 0)?;
    let exec = flags.parsed("--exec", Exec::Workload)?;
    println!(
        "tse-benchmark: seed {seed}, available parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut ok = true;
    let mut reports = Vec::new();
    for workload in flags.workloads()? {
        let sim_seconds = if quick {
            QUICK_SIM_SECONDS
        } else {
            workload.sim_seconds
        };
        let repeats = match repeats_flag {
            0 if quick => QUICK_REPEATS,
            0 => workload.repeats_for(seconds),
            n => n,
        };
        let m = harness::measure(workload, seed, sim_seconds, repeats, exec)?;
        results::print_measured(&m);
        ok &= m.failed() == 0;
        let t = if flags.has("--no-trace") {
            None
        } else {
            let t = traced::trace_workload(workload, seed, sim_seconds, &out_dir())?;
            results::print_traced(workload.name, &t);
            ok &= t.failed == 0;
            Some(t)
        };
        reports.push(results::workload_json(&m, t.as_ref()));
    }
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(&path, json::write(&results::results_json(seed, reports))?)?;
    println!("results written to {}", path.display());
    if !ok {
        println!("FAILED: failed_ops_share > 0 or the staged pipeline diverged from run_mix");
    }
    Ok(ok)
}

/// `compare A.json B.json`.
fn compare(flags: &Flags) -> Result<bool, Error> {
    let [old, new] = flags.0.as_slice() else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Result<json::Json, Error> {
        Ok(json::parse(&std::fs::read_to_string(path)?)?)
    };
    let (report, ok) = results::compare(&load(old)?, &load(new)?);
    print!("{report}");
    println!(
        "{}",
        if ok {
            "every end-to-end metric within its bound; every count identical"
        } else {
            "REGRESSION or changed count"
        }
    );
    Ok(ok)
}
