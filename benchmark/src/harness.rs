//! The timed repeats of one workload: a fresh child process per repeat, the
//! cross-repeat digest check, and the four end-to-end metrics estimated over them.

use std::process::{Command, Stdio};

use tse_bench::report::json;

use crate::metrics::{EndToEnd, END_TO_END};
use crate::run::{epoch_nanos, RunResult};
use crate::stats::{self, Summary};
use crate::workloads::{Exec, Workload};

/// The timed repeats of one workload at one seed.
#[derive(Debug)]
pub struct Measured {
    /// The workload.
    pub workload: &'static Workload,
    /// Simulated seconds each repeat ran.
    pub sim_seconds: f64,
    /// One result per repeat, in the order they ran.
    pub repeats: Vec<RunResult>,
    /// Events failed per repeat: the repeat's own failed checks, or all of its
    /// events when its digest differs from the first repeat's.
    pub failed: Vec<u64>,
    /// One line per failed check, across repeats.
    pub notes: Vec<String>,
}

/// Run `repeats` fresh child processes of this executable, each one timed repeat of
/// `workload` on executor `exec`; the first also runs the oracle.
pub fn measure(
    workload: &'static Workload,
    seed: u64,
    sim_seconds: f64,
    repeats: usize,
    exec: Exec,
) -> std::io::Result<Measured> {
    let exe = std::env::current_exe()?;
    let mut results: Vec<RunResult> = Vec::with_capacity(repeats);
    for repeat in 0..repeats {
        let mut child = Command::new(&exe);
        child
            .arg("child")
            .args(["--workload", workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--sim-seconds", &sim_seconds.to_string()])
            .args(["--exec", exec.name()])
            .args(["--spawned-at", &epoch_nanos().to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if repeat == 0 {
            child.arg("--oracle");
        }
        // `output` waits for the child to end and collects its standard output.
        let output = child.output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout
            .lines()
            .last()
            .and_then(|line| json::parse(line).ok())
            .and_then(|json| RunResult::from_json(&json))
            .filter(|_| output.status.success())
            .ok_or_else(|| {
                std::io::Error::other(format!(
                    "{} repeat {repeat} ended with {} and printed {stdout:?}",
                    workload.name, output.status
                ))
            })?;
        results.push(result);
    }
    let mut notes = Vec::new();
    let failed = results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            notes.extend(r.notes.iter().map(|n| format!("repeat {i}: {n}")));
            if r.digest == results[0].digest {
                r.failed
            } else {
                notes.push(format!(
                    "repeat {i}: digest {:016x} differs from repeat 0's {:016x}",
                    r.digest, results[0].digest
                ));
                r.events
            }
        })
        .collect();
    Ok(Measured {
        workload,
        sim_seconds,
        repeats: results,
        failed,
        notes,
    })
}

/// One end-to-end metric over a workload's repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The reported value, over all repeats.
    pub value: f64,
    /// The same estimator over the even-numbered and over the odd-numbered repeats
    /// alone. How far the two halves disagree is the run-to-run spread `compare`
    /// judges a bound against.
    pub halves: [f64; 2],
}

impl Estimate {
    /// Distance between the halves as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.halves[0] - self.halves[1]) / self.value).abs()
        }
    }
}

impl Measured {
    /// Events attempted over all repeats.
    pub fn attempted(&self) -> u64 {
        self.repeats.iter().map(|r| r.events).sum()
    }

    /// Events failed over all repeats.
    pub fn failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Failed events as a share of attempted ones.
    pub fn failed_ops_share(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Events per wall second of each repeat's own `run_mix` call — the raw
    /// measurements, which on a shared host swing with what else the host is doing.
    pub fn events_per_s_by_repeat(&self) -> Summary {
        Summary::of(
            self.repeats
                .iter()
                .map(|r| r.events as f64 / r.wall_s)
                .collect(),
        )
    }

    /// One metric over the repeats numbered in `subset`.
    fn estimate(&self, name: &str, subset: &[usize]) -> f64 {
        let of = |f: &dyn Fn(usize) -> f64| subset.iter().map(|&i| f(i)).collect::<Vec<f64>>();
        let min = |values: Vec<f64>| values.into_iter().fold(f64::INFINITY, f64::min);
        match name {
            // The same seed does the same work in segment k (one simulated second) of
            // every repeat. Host interference only ever adds time, and it comes and
            // goes within seconds, so each segment is taken from the repeat that ran
            // it fastest: the time of one undisturbed pass, pieced together.
            "events_per_s" => {
                let first = &self.repeats[subset[0]];
                let undisturbed_s: f64 = (0..first.segments_s.len())
                    .map(|k| {
                        min(of(&|i| {
                            let segments = &self.repeats[i].segments_s;
                            segments.get(k).copied().unwrap_or(f64::INFINITY)
                        }))
                    })
                    .sum();
                first.events as f64 / undisturbed_s
            }
            "setup_s" => min(of(&|i| self.repeats[i].setup_s)),
            "peak_rss_mb" => stats::median(&of(&|i| self.repeats[i].peak_rss_mb)),
            "ok_ops_share" => min(of(&|i| {
                1.0 - self.failed[i] as f64 / self.repeats[i].events.max(1) as f64
            })),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        }
    }

    /// The end-to-end metrics over the repeats, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static EndToEnd, Estimate)> {
        let n = self.repeats.len();
        let all: Vec<usize> = (0..n).collect();
        let evens: Vec<usize> = (0..n).step_by(2).collect();
        // With a single repeat both halves are that repeat.
        let odds: Vec<usize> = if n > 1 {
            (1..n).step_by(2).collect()
        } else {
            all.clone()
        };
        END_TO_END
            .iter()
            .map(|metric| {
                let estimate = Estimate {
                    value: self.estimate(metric.name, &all),
                    halves: [
                        self.estimate(metric.name, &evens),
                        self.estimate(metric.name, &odds),
                    ],
                };
                (metric, estimate)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn repeat(segments_s: &[f64], setup_s: f64, peak_rss_mb: f64) -> RunResult {
        RunResult {
            events: 1000,
            wall_s: segments_s.iter().sum(),
            segments_s: segments_s.to_vec(),
            setup_s,
            peak_rss_mb,
            digest: 7,
            failed: 0,
            notes: Vec::new(),
        }
    }

    #[test]
    fn estimates_piece_the_undisturbed_pass_together() {
        let m = Measured {
            workload: &WORKLOADS[0],
            sim_seconds: 3.0,
            repeats: vec![
                repeat(&[1.0, 2.0, 1.0], 0.30, 10.0),
                repeat(&[2.0, 1.0, 1.0], 0.10, 30.0),
                repeat(&[1.0, 1.0, 2.0], 0.20, 20.0),
            ],
            failed: vec![0, 0, 100],
            notes: Vec::new(),
        };
        let by_name = |name: &str| {
            m.end_to_end()
                .into_iter()
                .find(|(metric, _)| metric.name == name)
                .map(|(_, e)| e)
                .unwrap()
        };
        // Every segment ran in 1 s somewhere: 3 s for 1000 events. The even half
        // (repeats 0 and 2) never saw segment 1 faster than 1 s either; the odd half is
        // repeat 1 alone.
        let eps = by_name("events_per_s");
        assert_eq!(eps.value, 1000.0 / 3.0);
        assert_eq!(eps.halves, [1000.0 / 3.0, 1000.0 / 4.0]);
        assert_eq!(by_name("setup_s").value, 0.10);
        assert_eq!(by_name("peak_rss_mb").value, 20.0);
        assert_eq!(by_name("ok_ops_share").value, 0.9);
        assert_eq!(by_name("setup_s").halves, [0.20, 0.10]);
        assert_eq!((m.attempted(), m.failed()), (3000, 100));
    }
}
