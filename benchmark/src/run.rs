//! One timed repeat: set up, one `run_mix` call under the clock, checks.
//!
//! Every repeat runs in a fresh child process (`tse-benchmark child …`), so peak RSS
//! is the run's own and no repeat inherits a warm allocator from the one before. The
//! child prints one JSON object; [`RunResult`] is that object.

use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use tse::prelude::{EventPayload, Key, SourceRole, TrafficEvent, TrafficSource};
use tse_bench::report::json::Json;

use crate::check;
use crate::workloads::{Exec, Workload};

/// A wall clock inside `run_mix`, built from the public [`TrafficSource`] trait alone:
/// one event per simulated second, and every time the mix asks for the next one — as it
/// starts draining a sample interval — the wall time is noted. The events are probes
/// of a source that is no victim, which `run_mix` sets aside untouched, so they reach
/// neither the datapath nor the timeline (a self-test holds the digest equal).
struct TickSource {
    key: Key,
    next_second: u64,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl TrafficSource for TickSource {
    fn label(&self) -> &str {
        "clock"
    }

    fn role(&self) -> SourceRole {
        SourceRole::Background
    }

    fn next_event(&mut self) -> Option<TrafficEvent> {
        self.stamps
            .lock()
            .expect("no thread panics while noting a time")
            .push(Instant::now());
        let time = self.next_second as f64;
        self.next_second += 1;
        Some(TrafficEvent {
            time,
            key: self.key.clone(),
            bytes: 0,
            payload: EventPayload::Probe { offered_gbps: 0.0 },
        })
    }
}

/// What one repeat measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Events the datapath accounted for: packets + probes + malformed.
    pub events: u64,
    /// Wall seconds of the timed `run_mix` call.
    pub wall_s: f64,
    /// The same wall time cut at every simulated second (they sum to `wall_s`). The
    /// same seed does the same work in segment `k` of every repeat, so the harness can
    /// take each segment from the repeat the host disturbed least.
    pub segments_s: Vec<f64>,
    /// Wall seconds from the harness spawning the process to the `run_mix` call:
    /// process start, table/datapath/runner/mix construction and cache warm-up.
    pub setup_s: f64,
    /// Peak resident set of the process (`VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// Digest of the simulated result ([`check::digest`]).
    pub digest: u64,
    /// Events that failed a check in this repeat (oracle disagreement, unaccounted
    /// events; every event if a workload invariant broke).
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

/// Nanoseconds since the Unix epoch — the clock a parent and its child share.
pub fn epoch_nanos() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Run one repeat of `workload` in this process, which the harness spawned at
/// `spawned_at` ([`epoch_nanos`]). With `with_oracle` the drained events are also
/// classified by the linear-scan oracle (after the clock stops).
pub fn run_once(
    workload: &'static Workload,
    seed: u64,
    sim_seconds: f64,
    exec: Exec,
    with_oracle: bool,
    spawned_at: u128,
) -> RunResult {
    let inst = workload.instance(seed, sim_seconds);
    let mut runner = inst.runner(exec);
    let mut mix = inst.mix();
    let stamps = Arc::new(Mutex::new(Vec::new()));
    mix.push(Box::new(TickSource {
        key: inst.schema.zero_value(),
        next_second: 0,
        stamps: Arc::clone(&stamps),
    }));
    let setup_s = epoch_nanos().saturating_sub(spawned_at) as f64 / 1e9;

    let start = Instant::now();
    let timeline = runner.run_mix(mix, inst.duration);
    let end = Instant::now();
    let peak_rss_mb = peak_rss_mb();
    let mut cuts = vec![start];
    cuts.extend(stamps.lock().expect("run_mix has returned").iter().copied());
    cuts.push(end);
    let segments_s = cuts
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect();
    let wall_s = (end - start).as_secs_f64();

    let stats = runner.datapath.stats();
    let events = stats.packets();
    let mut notes = check::invariant_violations(&inst, &timeline, &stats);
    let mut failed = if notes.is_empty() { 0 } else { events };
    if with_oracle {
        let oracle = check::oracle(&inst);
        let mismatches = check::oracle_mismatches(&stats, &oracle);
        if mismatches > 0 {
            notes.push(format!(
                "oracle {oracle:?} vs datapath allowed {} denied {} events {events}",
                stats.allowed, stats.denied
            ));
            failed = failed.max(mismatches.min(events));
        }
    }
    RunResult {
        events,
        wall_s,
        segments_s,
        setup_s,
        peak_rss_mb,
        digest: check::digest(&timeline, &stats),
        failed,
        notes,
    }
}

/// The process's peak resident set in MB, from `/proc/self/status` (0 where that
/// file does not exist — the check that every metric is non-zero then fails loudly).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl RunResult {
    /// The one-object form the child prints.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("events".into(), Json::Num(self.events as f64)),
            ("wall_s".into(), Json::Num(self.wall_s)),
            (
                "segments_s".into(),
                Json::Arr(self.segments_s.iter().copied().map(Json::Num).collect()),
            ),
            ("setup_s".into(), Json::Num(self.setup_s)),
            ("peak_rss_mb".into(), Json::Num(self.peak_rss_mb)),
            // A u64 does not survive a trip through f64.
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Parse what [`RunResult::to_json`] wrote.
    pub fn from_json(json: &Json) -> Option<RunResult> {
        let num = |key: &str| json.get(key)?.as_num();
        Some(RunResult {
            events: num("events")? as u64,
            wall_s: num("wall_s")?,
            segments_s: json
                .get("segments_s")?
                .as_arr()?
                .iter()
                .filter_map(Json::as_num)
                .collect(),
            setup_s: num("setup_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            digest: u64::from_str_radix(json.get("digest")?.as_str()?, 16).ok()?,
            failed: num("failed")? as u64,
            notes: json
                .get("notes")?
                .as_arr()?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_owned))
                .collect(),
        })
    }
}
