//! The harness every figure binary runs inside.
//!
//! A binary's `main` is `Figure::parse(env!("CARGO_BIN_NAME"), defaults)`, the
//! experiment, one adder call per headline number, `finish()`. (A binary that
//! `tests/paper_claims.rs` compiles as a module names itself with `CARGO_CRATE_NAME`,
//! the same string, which is also set there.) Everything the sixteen
//! binaries used to choreograph by hand lives here once: the CLI ([`FigArgs`] defaults in,
//! parsed flags out, exit 2 on a bad command line), the run's stopwatches, the row
//! list in call order, the advisory `wall_seconds` row, the end-of-run summary line and
//! the `--json` append. A binary cannot read a clock (this file holds the workspace's
//! only `tse-lint`-sanctioned `*wall*` bindings: the whole-run stopwatch, and the rounds
//! of [`Figure::host_ns`] behind a binary's advisory host-time rows) and cannot forget
//! or misplace the advisory row.

use std::time::{Duration, Instant};

use tse_switch::DatapathStats;

use crate::report::{self, BenchReport, Metric};
use crate::FigArgs;

/// The rounds [`Figure::host_ns`] takes of each measurement.
const HOST_ROUNDS: u32 = 25;

/// The span [`Figure::host_ns`] spreads a measurement's rounds over: longer than the
/// 1–4 s phases in which a shared host runs at one of its speeds (measured 1.6× apart on
/// a 2-vCPU VM), so that a measurement's rounds see more than one phase and its least
/// round is a fast phase's, whichever phase it starts in. The crate's unit tests take
/// their rounds back to back.
const HOST_SPAN: Duration = if cfg!(test) {
    Duration::ZERO
} else {
    Duration::from_secs(5)
};

/// One run of one figure binary, from command line to report.
#[derive(Debug)]
pub struct Figure {
    /// The parsed command line.
    pub args: FigArgs,
    name: &'static str,
    wall: Instant,
    rows: Vec<Metric>,
    events: u64,
    busy_seconds: f64,
}

impl Figure {
    /// Parse the process's command line over `defaults` (which also select the accepted
    /// flags, see [`FigArgs`]) and start the run's stopwatch. `name` is the report
    /// identity — `env!("CARGO_BIN_NAME")`. A bad command line prints `error: …` to
    /// stderr and exits with status 2.
    pub fn parse(name: &'static str, defaults: FigArgs) -> Figure {
        let args = crate::parse_args(std::env::args().skip(1), defaults).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        Figure::new(name, args)
    }

    /// A run over already-parsed `args`, its stopwatch started — for a caller that is
    /// not a binary's `main`, such as a test judging a binary's sweep.
    pub fn new(name: &'static str, args: FigArgs) -> Figure {
        Figure {
            args,
            name,
            wall: Instant::now(),
            rows: Vec::new(),
            events: 0,
            busy_seconds: 0.0,
        }
    }

    /// Record a delivered-throughput row: deterministic, unit `gbps`, higher is better.
    pub fn gbps(&mut self, name: &str, value: f64) {
        self.rows
            .push(Metric::deterministic(name, "gbps", value).higher_is_better());
    }

    /// Record a deterministic lower-is-better row in `unit`: a count (`masks`,
    /// `entries`, `packets`, …), a `percent`, or `cost_seconds` of simulated time.
    pub fn row(&mut self, name: &str, unit: &str, value: f64) {
        self.rows.push(Metric::deterministic(name, unit, value));
    }

    /// Host nanoseconds per call of `f`: the least, over `HOST_ROUNDS` rounds of `reps`
    /// calls each, of a round's time per call, so that the first round warms what `f`
    /// reads and a round the machine interrupted does not count. The rounds start evenly
    /// spread over `HOST_SPAN`, the measurement sleeping in between, so that it takes
    /// that long and little more CPU than its rounds. Machine- and load-dependent: it
    /// feeds [`Figure::advisory`] rows only, never a deterministic one.
    pub fn host_ns(&self, reps: usize, mut f: impl FnMut()) -> f64 {
        let reps = reps.max(1);
        let wall_span = Instant::now();
        (0..HOST_ROUNDS)
            .map(|round| {
                let due = HOST_SPAN * round / HOST_ROUNDS;
                std::thread::sleep(due.saturating_sub(wall_span.elapsed()));
                let wall_round = Instant::now();
                for _ in 0..reps {
                    f();
                }
                wall_round.elapsed().as_nanos() as f64 / reps as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Record an advisory row ([`Metric::wall`]): host time measured by
    /// [`Figure::host_ns`], or a figure fitted to such times. `bench_diff` warns on its
    /// drift and never fails on it.
    ///
    /// # Panics
    /// Panics if `metric` is deterministic: those go through [`Figure::row`] or
    /// [`Figure::gbps`].
    pub fn advisory(&mut self, metric: Metric) {
        assert!(!metric.deterministic, "{} is deterministic", metric.name);
        self.rows.push(metric);
    }

    /// Account a datapath this run drove, for the end-of-run summary: its packets are
    /// the run's simulated events, its `busy_seconds` the simulated time they cost.
    pub fn account(&mut self, stats: &DatapathStats) {
        self.events += stats.packets();
        self.busy_seconds += stats.busy_seconds;
    }

    /// Stop the clock: the summary line, and the report with the rows in call order.
    /// A run that accounted a datapath is rated in simulated events per wall second and
    /// carries the advisory `wall_seconds` row, last; a closed-form binary (no datapath
    /// accounted) has nothing the clock could rate and reports its wall time on stdout
    /// only.
    fn close(self) -> (String, BenchReport) {
        let wall = self.wall.elapsed().as_secs_f64();
        let mut report = BenchReport::new(self.name, &self.args.params());
        for row in self.rows {
            report.push(row);
        }
        if self.events == 0 {
            return (format!("[summary] {wall:.3} wall s"), report);
        }
        report.push(Metric::wall("wall_seconds", "seconds_wall", wall));
        let summary = format!(
            "[summary] {} simulated events, {:.3} simulated busy s, {wall:.3} wall s, {:.0} events/s",
            self.events,
            self.busy_seconds,
            self.events as f64 / wall.max(1e-9),
        );
        (summary, report)
    }

    /// End the run: print the summary line and append the report to the file `--json`
    /// named (nothing is written without the flag). Exits with status 2 if that file
    /// exists but cannot be parsed — a corrupt committed baseline must be fixed, not
    /// overwritten.
    pub fn finish(self) {
        let (name, json) = (self.name, self.args.json.clone());
        let (summary, report) = self.close();
        println!("{summary}");
        let Some(path) = json else { return };
        if let Err(e) = report::append_report(&path, report) {
            eprintln!("error: failed to write benchmark report: {e}");
            std::process::exit(2);
        }
        println!("[report] {name} appended to {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(report: &BenchReport) -> Vec<&str> {
        report.metrics.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn rows_keep_call_order_with_wall_seconds_last_and_once() {
        let defaults = FigArgs {
            duration: 35.0,
            ..FigArgs::default()
        };
        let mut fig = Figure::new("fig_x", defaults);
        fig.row("peak_masks", "masks", 513.0);
        fig.gbps("victim_gbps", 3.75);
        fig.row("total_cost_seconds", "cost_seconds", 1.25e-3);
        fig.account(&DatapathStats {
            megaflow_hits: 90,
            upcalls: 10,
            busy_seconds: 1.25e-3,
            ..DatapathStats::default()
        });
        let (summary, report) = fig.close();
        assert_eq!(
            (report.name.as_str(), report.params.as_str()),
            ("fig_x", "duration=35")
        );
        assert_eq!(
            names(&report),
            [
                "peak_masks",
                "victim_gbps",
                "total_cost_seconds",
                "wall_seconds"
            ]
        );
        let flags = |name: &str| {
            let m = report.metric(name).unwrap();
            (m.unit.as_str(), m.higher_is_better, m.deterministic)
        };
        assert_eq!(flags("peak_masks"), ("masks", false, true));
        assert_eq!(flags("victim_gbps"), ("gbps", true, true));
        assert_eq!(flags("total_cost_seconds"), ("cost_seconds", false, true));
        assert_eq!(flags("wall_seconds"), ("seconds_wall", false, false));
        assert!(
            summary.starts_with("[summary] 100 simulated events, 0.001 simulated busy s, "),
            "{summary}"
        );
        assert!(summary.ends_with(" events/s"), "{summary}");
    }

    #[test]
    fn host_time_lands_in_advisory_rows_only() {
        let mut fig = Figure::new("fig_x", FigArgs::default());
        let mut calls = 0;
        let ns = fig.host_ns(3, || calls += 1);
        assert_eq!(calls, 3 * HOST_ROUNDS, "rounds of three");
        assert!(ns.is_finite() && ns >= 0.0, "{ns}");
        fig.row("SipDp/miss_masks_scanned", "masks", 513.0);
        fig.advisory(Metric::wall("lookup/ns_per_mask", "ns_per_mask_wall", ns));
        fig.advisory(Metric::wall("lookup/fit_r2", "r2", 0.99).higher_is_better());
        let (_, report) = fig.close();
        let flags: Vec<(bool, bool)> = report
            .metrics
            .iter()
            .map(|m| (m.deterministic, m.higher_is_better))
            .collect();
        assert_eq!(flags, [(true, false), (false, false), (false, true)]);
    }

    #[test]
    #[should_panic(expected = "is deterministic")]
    fn an_advisory_row_is_not_deterministic() {
        let mut fig = Figure::new("fig_x", FigArgs::default());
        fig.advisory(Metric::deterministic("masks", "masks", 1.0));
    }

    #[test]
    fn a_closed_form_binary_reports_wall_time_on_stdout_only() {
        let mut fig = Figure::new("theorem_x", FigArgs::default());
        fig.row("chunk1/masks", "masks", 12.0);
        let (summary, report) = fig.close();
        assert_eq!(report.params, "default");
        assert_eq!(names(&report), ["chunk1/masks"]);
        assert!(
            summary.starts_with("[summary] ") && summary.ends_with(" wall s"),
            "{summary}"
        );
        assert!(!summary.contains("events"), "{summary}");
    }

    #[test]
    fn default_args_still_reject_duration() {
        let args = ["--duration", "5"].map(String::from).into_iter();
        assert_eq!(
            crate::parse_args(args, FigArgs::default()).unwrap_err(),
            "unknown argument \"--duration\"; supported flags: --json <path>"
        );
    }
}
