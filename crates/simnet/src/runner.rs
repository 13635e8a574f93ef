//! The timeline experiment runner: an event-driven loop over composable traffic
//! sources sharing one datapath, sampled once per second — the machinery behind
//! Fig. 8a/8b/8c and any mix the streaming API can express.
//!
//! The runner drains a [`TrafficMix`] one sample interval at a time. Packet events
//! (attack traffic) are what mutates the cache: the interval's packets, still cut into
//! their per-source runs, cross the executor in **one**
//! [`ShardedDatapath::process_timed_runs`] dispatch, every shard replaying its share
//! run by run, each packet at its own timestamp. Victim flows are multi-gigabit, so
//! simulating them per packet would be pointless; instead each victim source emits one
//! mid-interval *probe* event per interval (which also keeps the victim's megaflow
//! entry alive, exactly like the real traffic would), the interval's probes cross the
//! executor in one second dispatch — each shard answers the victims steered to it —
//! the runner reads off the per-invocation cost, and converts the CPU budget left over
//! from attack processing into achieved victim throughput — attributed per source in
//! the [`TimelineSample`]s.
//!
//! [`ExperimentRunner::run_mix`] is a sequence of eight named stage functions over one
//! private `RunState`; [`ExperimentRunner::run_mix_observed`] runs the same loop and
//! tells a [`RunObserver`] as each [`Stage`] starts and ends, on the calling thread.
//! Every interval is drained from the mix on the calling thread and then processed; the
//! executor runs shard jobs and nothing else, a number of times per interval that does
//! not depend on how many events, runs or probes the interval holds.
//!
//! [`ExperimentRunner::run`] is the single-attacker entry point the original figure
//! experiments use; it is a thin shim that puts the stored victims and one attack
//! source into a [`TrafficMix`] and produces a timeline identical to the pre-streaming
//! runner (asserted bit-for-bit by `tests/golden_runner_parity.rs`).

use tse_attack::source::{EventPayload, SourceRole, TrafficEvent, TrafficMix, TrafficSource};
use tse_classifier::flowtable::FlowTable;
use tse_mitigation::stack::{Mitigation, MitigationAction, MitigationCtx, MitigationStack};
use tse_packet::fields::Key;
use tse_packet::wire::WireFault;
use tse_switch::datapath::Datapath;
use tse_switch::exec::ShardExecutor;
use tse_switch::pmd::ShardedDatapath;

use crate::offload::OffloadConfig;
use crate::telemetry::{TelemetryConfig, TelemetryStore};
use crate::traffic::{VictimFlow, VictimSource};

/// One per-interval sample of the experiment timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSample {
    /// Interval start time, seconds.
    pub time: f64,
    /// Achieved throughput of each victim flow, Gbps (0 when the flow is inactive),
    /// in the order of [`Timeline::victim_names`].
    pub victim_gbps: Vec<f64>,
    /// Attack packets sent during this interval (all attacker sources combined).
    pub attacker_pps: f64,
    /// Attack packets per second delivered by each attacker source during this
    /// interval, in the order of [`Timeline::attacker_names`].
    pub attacker_pps_by_source: Vec<f64>,
    /// Benign background packets per second replayed through the datapath during this
    /// interval ([`SourceRole::Background`] sources — e.g. tenant flow churn). The
    /// packets consume CPU like any other traffic but are attributed to no attacker
    /// series (0.0 in every mix without background sources).
    pub background_pps: f64,
    /// Raw frames per second the wire parser could not turn into a classifiable key
    /// this interval ([`EventPayload::Malformed`] events — truncated/garbled frames or
    /// an address family the installed table cannot express). Each is charged to
    /// shard 0, the ingestion point, and counted here rather than in any attacker
    /// series (always 0.0 for key-level sources, which cannot emit malformed events).
    pub malformed_pps: f64,
    /// Megaflow masks at the end of the interval (all shards combined).
    pub mask_count: usize,
    /// Megaflow entries at the end of the interval (all shards combined).
    pub entry_count: usize,
    /// Masks scanned by a victim fast-path lookup during this interval (0 if no victim
    /// is active).
    pub victim_masks_scanned: usize,
    /// Megaflow masks per datapath shard at the end of the interval (a singleton for
    /// the default 1-shard runner; sums to [`TimelineSample::mask_count`]).
    pub shard_masks: Vec<usize>,
    /// Megaflow entries per datapath shard at the end of the interval.
    pub shard_entries: Vec<usize>,
    /// Attack packets per second delivered to each shard during this interval — the
    /// shard-local blast radius series.
    pub shard_attacker_pps: Vec<f64>,
    /// What the mitigation stack did at the end of this interval, in pipeline order
    /// (empty when no stack is attached or no stage intervened). Per-shard actions
    /// carry their shard id ([`MitigationAction::shard`]); a rekey is switch-wide.
    pub mitigation_actions: Vec<MitigationAction>,
}

impl TimelineSample {
    /// Aggregate victim throughput ("Victim SUM" in Fig. 8a).
    pub fn total_victim_gbps(&self) -> f64 {
        self.victim_gbps.iter().sum()
    }
}

/// A complete experiment timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Victim source names, in the order of [`TimelineSample::victim_gbps`].
    pub victim_names: Vec<String>,
    /// Attacker source names, in the order of
    /// [`TimelineSample::attacker_pps_by_source`].
    pub attacker_names: Vec<String>,
    /// Number of datapath shards the experiment ran over (1 for the monolithic runner).
    pub shard_count: usize,
    /// Per-second samples.
    pub samples: Vec<TimelineSample>,
}

impl Timeline {
    /// The samples whose interval start lies in `[start, stop)`, in time order — the one
    /// window every reducer below folds over.
    fn window(&self, start: f64, stop: f64) -> impl Iterator<Item = &TimelineSample> {
        self.samples
            .iter()
            .filter(move |s| s.time >= start && s.time < stop)
    }

    /// Mean of `value` over the window: in-order sum over the sample count, 0.0 for an
    /// empty or out-of-range window.
    fn mean_between(&self, start: f64, stop: f64, value: impl Fn(&TimelineSample) -> f64) -> f64 {
        let (sum, n) = self
            .window(start, stop)
            .fold((0.0, 0usize), |(sum, n), s| (sum + value(s), n + 1));
        sum / n.max(1) as f64
    }

    /// Mean aggregate victim throughput over a time window.
    pub fn mean_total_between(&self, start: f64, stop: f64) -> f64 {
        self.mean_between(start, stop, TimelineSample::total_victim_gbps)
    }

    /// Mean achieved throughput of victim `idx` (its position in
    /// [`Timeline::victim_names`]) over a time window, Gbps.
    pub fn mean_victim_between(&self, idx: usize, start: f64, stop: f64) -> f64 {
        // Defensive, like the attacker series below: a hand-built sample may carry
        // fewer per-source entries than the timeline has names.
        self.mean_between(start, stop, |s| {
            s.victim_gbps.get(idx).copied().unwrap_or(0.0)
        })
    }

    /// Mean delivered rate of one attacker source (by label) over a time window, pps.
    pub fn mean_attacker_pps_between(&self, label: &str, start: f64, stop: f64) -> f64 {
        let Some(idx) = self.attacker_names.iter().position(|n| n == label) else {
            return 0.0;
        };
        self.mean_between(start, stop, |s| {
            s.attacker_pps_by_source.get(idx).copied().unwrap_or(0.0)
        })
    }

    /// Largest whole-switch megaflow mask count any sample recorded (0 for an empty
    /// timeline).
    pub fn peak_masks(&self) -> usize {
        self.samples.iter().map(|s| s.mask_count).max().unwrap_or(0)
    }

    /// Largest whole-switch megaflow entry count any sample recorded (0 for an empty
    /// timeline).
    pub fn peak_entries(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.entry_count)
            .max()
            .unwrap_or(0)
    }

    /// Render the timeline as an aligned text table (one row per second), the textual
    /// equivalent of the Fig. 8 plots. With more than one attacker source, a delivered
    /// pps column is appended per attacker; with more than one datapath shard, a
    /// per-shard mask-count column is appended per shard (single-shard output is
    /// unchanged from the monolithic runner's).
    pub fn render_table(&self) -> String {
        let multi_attacker = self.attacker_names.len() > 1;
        let multi_shard = self.shard_count > 1;
        let mut out = String::new();
        out.push_str("time_s");
        for name in &self.victim_names {
            out.push_str(&format!("\t{name}_gbps"));
        }
        out.push_str("\tvictim_sum_gbps\tattack_pps\tmfc_masks\tmfc_entries");
        if multi_attacker {
            for name in &self.attacker_names {
                out.push_str(&format!("\t{name}_pps"));
            }
        }
        if multi_shard {
            for i in 0..self.shard_count {
                out.push_str(&format!("\tshard{i}_masks"));
            }
        }
        out.push('\n');
        for s in &self.samples {
            out.push_str(&format!("{:6.0}", s.time));
            for v in &s.victim_gbps {
                out.push_str(&format!("\t{v:9.3}"));
            }
            out.push_str(&format!(
                "\t{:9.3}\t{:10.0}\t{:9}\t{:11}",
                s.total_victim_gbps(),
                s.attacker_pps,
                s.mask_count,
                s.entry_count
            ));
            if multi_attacker {
                for pps in &s.attacker_pps_by_source {
                    out.push_str(&format!("\t{pps:10.0}"));
                }
            }
            if multi_shard {
                for m in &s.shard_masks {
                    out.push_str(&format!("\t{m:12}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// The eight stages of one [`ExperimentRunner::run_mix`] sample interval, in run order.
/// Each variant's doc says what the `items` count handed to [`RunObserver::exit`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `drain_interval`: packets, probes and malformed frames kept for the interval.
    Drain,
    /// `install_due_tables`: flow tables installed.
    InstallTables,
    /// `replay_chunks`: packet events replayed by the one
    /// [`ShardedDatapath::process_timed_runs`] dispatch.
    Replay,
    /// `charge_faults_and_expire`: malformed frames charged to shard 0.
    FaultsAndExpiry,
    /// `replay_probes`: victim probes replayed.
    Probes,
    /// `allocate_victim_throughput`: victims with a probe this interval.
    Allocate,
    /// `run_mitigations`: actions the mitigation stack returned.
    Mitigations,
    /// `record_sample`: always 1, the sample recorded.
    Record,
}

/// Watches [`ExperimentRunner::run_mix_observed`]'s interval loop. `enter` and `exit`
/// bracket every stage call of interval `interval` (0-based); they run on the calling
/// thread between stages, never inside a shard job, so the sequence of calls — and
/// every `items` count — is the same on every executor. The runner reads no clock: an
/// observer that wants stage times reads its own at the hooks.
pub trait RunObserver {
    /// `stage` of interval `interval` is about to run.
    fn enter(&mut self, _interval: usize, _stage: Stage) {}
    /// `stage` of interval `interval` has run over `items` (see [`Stage`]).
    fn exit(&mut self, _interval: usize, _stage: Stage, _items: usize) {}
}

/// The observer [`ExperimentRunner::run_mix`] runs under: it does nothing.
impl RunObserver for () {}

/// The experiment runner — a Fig. 8 timeline can be produced for the TSS cache (the
/// default) or for a datapath built with any of the §7 attack-immune classifiers
/// ([`FastPathKind`](tse_switch::datapath::FastPathKind)), which is how the comparison
/// of Fig. 9 is run through the real pipeline instead of bare classify loops.
///
/// The datapath under test is a [`ShardedDatapath`]: [`ExperimentRunner::new`] wraps a
/// plain [`Datapath`] as a single shard (bit-for-bit the monolithic behaviour, see
/// `tests/golden_runner_parity.rs`), while [`ExperimentRunner::sharded`] runs a true
/// multi-PMD experiment — every shard owns a private cache *and a private CPU budget*,
/// so an attack only costs the victims steered to the shards it actually hits.
///
/// Workloads are composed as [`TrafficMix`]es of [`TrafficSource`]s
/// (see [`ExperimentRunner::run_mix`]); [`ExperimentRunner::run`] is the
/// one-attacker-plus-stored-victims entry point, a shim over the mix form.
#[derive(Debug)]
pub struct ExperimentRunner {
    /// The (possibly sharded) hypervisor datapath under test.
    pub datapath: ShardedDatapath,
    /// Victim flows used by the [`ExperimentRunner::run`] shim (wrapped into
    /// [`VictimSource`]s; [`ExperimentRunner::run_mix`] ignores them).
    pub victims: Vec<VictimFlow>,
    /// Victim-side offload configuration (bytes per classifier invocation, line rate).
    pub offload: OffloadConfig,
    /// The ordered mitigation pipeline protecting the datapath, invoked once per
    /// sample interval (empty by default — no defense).
    pub mitigations: MitigationStack,
    /// Sampling/measurement interval in seconds.
    pub sample_interval: f64,
    /// Telemetry recording configuration ([`TelemetryConfig::default`] keeps every
    /// classic short-horizon run inside the hot ring, so the returned [`Timeline`] is
    /// unchanged bit-for-bit; shrink [`TelemetryConfig::hot_capacity`] for hour-long
    /// runs that must hold constant memory).
    pub telemetry_config: TelemetryConfig,
    /// The telemetry store of the most recent `run`/`run_mix`, if any.
    last_telemetry: Option<TelemetryStore>,
    /// Scheduled flow-table replacements `(time, table)`, applied at the start of the
    /// first interval whose start time is ≥ the scheduled time (sorted by time).
    table_updates: Vec<(f64, FlowTable)>,
}

impl ExperimentRunner {
    /// Create a runner over a monolithic datapath (wrapped as one shard) with a
    /// 1-second sampling interval and no guard.
    pub fn new(datapath: Datapath, victims: Vec<VictimFlow>, offload: OffloadConfig) -> Self {
        Self::sharded(ShardedDatapath::single(datapath), victims, offload)
    }

    /// Create a runner over a sharded multi-PMD datapath with a 1-second sampling
    /// interval and no guard.
    pub fn sharded(
        datapath: ShardedDatapath,
        victims: Vec<VictimFlow>,
        offload: OffloadConfig,
    ) -> Self {
        ExperimentRunner {
            datapath,
            victims,
            offload,
            mitigations: MitigationStack::new(),
            sample_interval: 1.0,
            telemetry_config: TelemetryConfig::default(),
            last_telemetry: None,
            table_updates: Vec::new(),
        }
    }

    /// Configure telemetry recording (builder form): hot-ring capacity and per-tenant
    /// SLO tracking. See [`TelemetryStore`].
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry_config = config;
        self
    }

    /// Schedule mid-run flow-table replacements (builder form): at the start of the
    /// first sample interval whose start time is ≥ each entry's time, the table is
    /// installed on every shard via [`ShardedDatapath::install_table`] — megaflows
    /// are revalidated against the new ACL, exactly like an OVS controller update.
    /// Entries are applied in time order.
    ///
    /// # Panics
    /// Panics if an entry's time is not finite, naming the entry's index and time: a
    /// NaN or infinite time would never come due — and a `-NaN`, sorted first, would
    /// hold back every update after it — so the schedule would be silently dropped.
    pub fn with_table_updates(mut self, mut updates: Vec<(f64, FlowTable)>) -> Self {
        for (i, (at, _)) in updates.iter().enumerate() {
            assert!(
                at.is_finite(),
                "table update {i} is scheduled at a non-finite time, got {at}"
            );
        }
        updates.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.table_updates = updates;
        self
    }

    /// The telemetry store recorded by the most recent [`ExperimentRunner::run`] /
    /// [`ExperimentRunner::run_mix`]: whole-run streaming aggregates, per-tenant SLO
    /// trackers and the hot sample window.
    pub fn last_telemetry(&self) -> Option<&TelemetryStore> {
        self.last_telemetry.as_ref()
    }

    /// Take ownership of the most recent run's telemetry store.
    pub fn take_telemetry(&mut self) -> Option<TelemetryStore> {
        self.last_telemetry.take()
    }

    /// Append a mitigation to the runner's defense pipeline (builder form; stages run
    /// in the order they were added, once per sample interval).
    pub fn with_mitigation(mut self, mitigation: impl Mitigation + Send + 'static) -> Self {
        self.mitigations.push(mitigation);
        self
    }

    /// Select the shard-execution model of the datapath under test (builder form):
    /// [`SequentialExecutor`](tse_switch::exec::SequentialExecutor) by default, or a
    /// [`PersistentPoolExecutor`](tse_switch::exec::PersistentPoolExecutor) for
    /// long-lived parked workers (the PMD-thread model — spawn cost paid once).
    /// Timelines are bit-for-bit identical on every executor
    /// (`tests/executor_parity.rs`); only wall-clock time changes. The executor runs
    /// the per-shard jobs only: draining the mix stays on the calling thread.
    pub fn with_executor(mut self, executor: impl ShardExecutor + 'static) -> Self {
        self.datapath.set_executor(executor);
        self
    }

    /// Run the experiment for `duration` seconds against one attack source — an
    /// `AttackGenerator` or `WireGenerator`, say, labelled as the timeline's attacker
    /// series — and the runner's stored victim flows, and return the timeline.
    ///
    /// This is the classic single-attacker entry point: it puts one [`VictimSource`] per
    /// stored victim, then `attack`, into a [`TrafficMix`] and defers to
    /// [`ExperimentRunner::run_mix`]. The produced timeline is identical bit-for-bit to
    /// the pre-streaming runner's, which fed concrete packets where this one feeds their
    /// keys (asserted by `tests/golden_runner_parity.rs`).
    ///
    /// Calling this again on the same runner is not a continuation — see "Reusing a
    /// runner" on [`ExperimentRunner::run_mix`]; each call takes a fresh source.
    pub fn run(&mut self, attack: impl TrafficSource, duration: f64) -> Timeline {
        let schema = self.datapath.table().schema().clone();
        let mut mix = TrafficMix::new();
        for flow in &self.victims {
            mix.push(Box::new(VictimSource::new(
                flow.clone(),
                &schema,
                self.sample_interval,
            )));
        }
        self.run_mix(mix.with(attack), duration)
    }

    /// Run the experiment for `duration` seconds over an arbitrary [`TrafficMix`] —
    /// any number of attacker sources (key- or wire-level generators, recorded frame
    /// traces) and victim sources, merged by timestamp — and return the timeline.
    ///
    /// Per sample interval `[t, t + dt)` the loop runs one stage function each. In
    /// brackets: the [`Stage`] a [`RunObserver`] sees it as, and what its `items` count.
    ///
    /// 1. `drain_interval` ([`Stage::Drain`]: packets, probes and malformed frames
    ///    kept) — pulls every event below `t + dt` out of the mix into one flat buffer
    ///    (merged timestamp order), noting where the source changes; probe and
    ///    malformed-frame events are set aside;
    /// 2. `install_due_tables` ([`Stage::InstallTables`]: tables installed) — applies
    ///    the flow-table replacements scheduled at or before `t`;
    /// 3. `replay_chunks` ([`Stage::Replay`]: packet events replayed) — replays the
    ///    interval's packet events through one [`ShardedDatapath::process_timed_runs`]
    ///    dispatch: every shard walks its share of the per-source runs (each packet at
    ///    its own time, each run one batch);
    /// 4. `charge_faults_and_expire` ([`Stage::FaultsAndExpiry`]: malformed frames
    ///    charged) — charges malformed frames to shard 0
    ///    ([`ShardedDatapath::note_wire_fault`]) and runs the idle-expiry sweep at the
    ///    interval end;
    /// 5. `replay_probes` ([`Stage::Probes`]: victim probes replayed) — one more
    ///    dispatch: each shard's probes refresh their victims' fast-path entries and
    ///    yield the current per-invocation cost under the runner's offload model;
    /// 6. `allocate_victim_throughput` ([`Stage::Allocate`]: victims with a probe) —
    ///    splits the CPU each shard has left over from packet processing across its
    ///    active victims (equal shares, one redistribution pass, aggregate line-rate
    ///    cap);
    /// 7. `run_mitigations` ([`Stage::Mitigations`]: actions returned) —
    ///    [`MitigationStack::on_sample`], stages in order, each seeing per-shard
    ///    telemetry for the interval;
    /// 8. `record_sample` ([`Stage::Record`]: always 1) — emits the
    ///    [`TimelineSample`] with per-attacker delivered-pps attribution and the
    ///    stack's [`MitigationAction`]s.
    ///
    /// Before the first interval the stack's [`Mitigation::on_start`] hooks run with
    /// zeroed telemetry, so defenses that must be armed *during* the first interval
    /// (install quotas) are in force from t = 0; after the last interval the
    /// [`Mitigation::on_finish`] hooks disarm whatever per-shard state the stages
    /// installed, so a reused runner or datapath leaves the run undefended.
    ///
    /// Draining is not overlapped with shard work. What each stage costs is measured by
    /// an observer that reads a clock at the hooks of
    /// [`ExperimentRunner::run_mix_observed`]; the per-workload stage table lives in
    /// `ROADMAP.md`. On the attack workloads the drain is 7–15 % of the run and the
    /// shards' tuple-space scan and upcalls own the wall clock. On `benign_wire`, where
    /// a packet scans ≤ 2 masks, the drain (craft, encode, decode and merge one frame)
    /// is 71 %, the largest stage by far.
    ///
    /// # Reusing a runner
    /// Every call restarts simulated time at 0, but the datapath is not reset: it keeps
    /// its cache, its `last_sweep` and every entry's `last_used` from the previous call.
    /// `Datapath::maybe_expire` sweeps when `now - last_sweep >= interval`, so after a
    /// first run that ended at T the second run's idle expiry is off until its own
    /// clock passes T (plus the interval) — entries installed earlier neither age nor
    /// expire in between. `fig8c_kubernetes_timeline` stitches three 50 s `run` calls
    /// this way, so its phases 2 and 3 never sweep. An experiment with phases belongs in
    /// one `run_mix` over the whole horizon, with
    /// [`ExperimentRunner::with_table_updates`] for mid-run ACL changes.
    ///
    /// # Panics
    /// Panics if [`ExperimentRunner::sample_interval`] is not finite and positive, or
    /// if `duration` is not finite or is negative — either would make the interval
    /// count endless or silently empty. A `duration` of `0.0` is a legal empty run.
    pub fn run_mix(&mut self, mix: TrafficMix<'_>, duration: f64) -> Timeline {
        self.run_mix_observed(mix, duration, &mut ())
    }

    /// [`ExperimentRunner::run_mix`], telling `observer` as each [`Stage`] of every
    /// interval starts and ends. The observer sees the run and cannot change it: the
    /// timeline, the datapath and the telemetry are the ones `run_mix` produces. No
    /// hook runs around the stack's `on_start` / `on_finish`.
    ///
    /// # Panics
    /// As [`ExperimentRunner::run_mix`].
    pub fn run_mix_observed(
        &mut self,
        mix: TrafficMix<'_>,
        duration: f64,
        observer: &mut dyn RunObserver,
    ) -> Timeline {
        let dt = self.sample_interval;
        assert!(
            dt.is_finite() && dt > 0.0,
            "sample_interval must be finite and positive, got {dt}"
        );
        assert!(
            duration.is_finite() && duration >= 0.0,
            "run duration must be finite and non-negative, got {duration}"
        );
        let steps = (duration / dt).ceil() as usize;
        let n_shards = self.datapath.shard_count();
        let mut st = RunState::new(mix, dt, n_shards, self.telemetry_config.clone());
        let idle = vec![0.0f64; n_shards];
        self.mitigation_hook(
            &st.store,
            0.0,
            &idle,
            &idle,
            &idle,
            MitigationStack::on_start,
        );
        for step in 0..steps {
            let t = step as f64 * dt;
            let t_end = t + dt;
            let mut tally = IntervalTally::new(n_shards, st.n_victims, st.n_attackers);
            observer.enter(step, Stage::Drain);
            let kept = drain_interval(&mut st.mix, t, t_end, &mut st.batch);
            observer.exit(step, Stage::Drain, kept);
            observer.enter(step, Stage::InstallTables);
            let installed = self.install_due_tables(&mut st, t);
            observer.exit(step, Stage::InstallTables, installed);
            observer.enter(step, Stage::Replay);
            let replayed = self.replay_chunks(&st, &mut tally);
            observer.exit(step, Stage::Replay, replayed);
            observer.enter(step, Stage::FaultsAndExpiry);
            let charged = self.charge_faults_and_expire(&st, &mut tally, t_end);
            observer.exit(step, Stage::FaultsAndExpiry, charged);
            observer.enter(step, Stage::Probes);
            let probed = self.replay_probes(&st, &mut tally);
            observer.exit(step, Stage::Probes, probed);
            observer.enter(step, Stage::Allocate);
            let victim_gbps =
                allocate_victim_throughput(&tally.shard_busy, &tally.probes, &self.offload, dt);
            observer.exit(step, Stage::Allocate, tally.probes.iter().flatten().count());
            observer.enter(step, Stage::Mitigations);
            let (shard_attacker_pps, actions) = self.run_mitigations(&mut st.store, &tally, t_end);
            observer.exit(step, Stage::Mitigations, actions.len());
            observer.enter(step, Stage::Record);
            self.record_sample(&mut st, t, &tally, victim_gbps, shard_attacker_pps, actions);
            observer.exit(step, Stage::Record, 1);
        }
        // Teardown: stages disarm whatever per-shard state they installed (e.g. upcall
        // quotas), so a reused runner/datapath leaves the run undefended.
        let end = steps as f64 * dt;
        self.mitigation_hook(
            &st.store,
            end,
            &idle,
            &idle,
            &idle,
            MitigationStack::on_finish,
        );
        st.store.finish();
        // The returned timeline is the store's recent window — bit-for-bit the classic
        // unbounded timeline whenever the horizon fits the hot ring (the default for
        // every short-horizon experiment; `tests/golden_runner_parity.rs`).
        let timeline = st.store.recent_timeline();
        self.last_telemetry = Some(st.store);
        timeline
    }

    /// Run one hook of the mitigation stack at simulated time `now` against the given
    /// per-shard telemetry.
    fn mitigation_hook<R>(
        &mut self,
        store: &TelemetryStore,
        now: f64,
        shard_attack_pps: &[f64],
        shard_delivered_pps: &[f64],
        shard_busy_seconds: &[f64],
        hook: impl FnOnce(&mut MitigationStack, &mut MitigationCtx<'_>) -> R,
    ) -> R {
        let mut ctx = MitigationCtx {
            datapath: &mut self.datapath,
            now,
            dt: self.sample_interval,
            shard_attack_pps,
            shard_delivered_pps,
            shard_busy_seconds,
            pressure: store.pressure(),
        };
        hook(&mut self.mitigations, &mut ctx)
    }

    /// Apply every flow-table replacement scheduled at or before the interval start
    /// `t` — the controller-side half of tenant churn. Returns how many were installed.
    fn install_due_tables(&mut self, st: &mut RunState<'_>, t: f64) -> usize {
        let first = st.update_cursor;
        while let Some((_, table)) = self
            .table_updates
            .get(st.update_cursor)
            .filter(|(at, _)| *at <= t)
        {
            self.datapath.install_table(table.clone());
            st.update_cursor += 1;
        }
        st.update_cursor - first
    }

    /// Replay the drained interval's packets in one dispatch, in merged timestamp order
    /// within every shard, charging cost and packet counts per shard — every shard is a
    /// PMD thread with a private CPU budget. A run belongs to one source, so its
    /// packets are all-attack or all-background: background runs charge shard CPU like
    /// any traffic but stay out of the attack-attribution series. Returns the number of
    /// packets replayed.
    fn replay_chunks(&mut self, st: &RunState<'_>, tally: &mut IntervalTally) -> usize {
        let slots = &st.slots;
        let mut start = 0;
        for &(src, end) in &st.batch.runs {
            if let Slot::Attacker(a) = slots[src] {
                tally.per_attacker[a] += (end - start) as u64;
            }
            start = end;
        }
        let busy = tally.shard_busy.iter_mut();
        let mut per_shard: Vec<(&mut f64, &mut u64)> =
            busy.zip(tally.shard_packets.iter_mut()).collect();
        self.datapath.process_timed_runs(
            &st.batch.events,
            &st.batch.runs,
            &mut per_shard,
            |(busy, packets), src, report| {
                **busy += report.total_cost;
                if !matches!(slots[src], Slot::Background) {
                    **packets += report.processed as u64;
                }
            },
        );
        st.batch.events.len()
    }

    /// Charge the interval's malformed frames (wire-level sources only) to shard 0 —
    /// the ingestion point, through [`ShardedDatapath::note_wire_fault`] — each at its
    /// own timestamp, consuming shard 0's CPU budget without joining any
    /// attack-attribution series; then run the idle-expiry sweep at the interval end.
    /// Returns the number of frames charged.
    fn charge_faults_and_expire(
        &mut self,
        st: &RunState<'_>,
        tally: &mut IntervalTally,
        t_end: f64,
    ) -> usize {
        for &(fault, bytes, time) in &st.batch.faults {
            tally.shard_busy[0] += self.datapath.note_wire_fault(fault, bytes, time).cost;
        }
        self.datapath.maybe_expire(t_end);
        st.batch.faults.len()
    }

    /// Replay the probes (already in time-then-insertion order) in one dispatch: each
    /// shard refreshes the megaflow entries of the victims *steered to it* and reads off
    /// their current per-invocation cost; the answers are applied in drain order, so a
    /// victim probed twice keeps its last one. The scan is re-priced with this
    /// experiment's offload cost model (the datapath's own model prices the attack
    /// packets). A probe from a non-victim source has nothing to attribute and is left
    /// untouched. Returns the number of probes replayed.
    fn replay_probes(&mut self, st: &RunState<'_>, tally: &mut IntervalTally) -> usize {
        let probes: Vec<(usize, usize, &TrafficEvent, f64)> = st
            .batch
            .probes
            .iter()
            .filter_map(|(src, ev)| match (st.slots[*src], ev.payload) {
                (Slot::Victim(slot), EventPayload::Probe { offered_gbps }) => {
                    Some((slot, self.datapath.shard_of_key(&ev.key), ev, offered_gbps))
                }
                _ => None,
            })
            .collect();
        let cost_model = &self.offload.cost;
        let answers = self.datapath.for_each_shard(|i, shard| {
            let mine = probes.iter().filter(|probe| probe.1 == i);
            let priced = mine.map(|&(_, _, ev, _)| {
                let outcome = shard.process_key(&ev.key, ev.bytes, ev.time);
                (
                    outcome.masks_scanned,
                    cost_model.path_cost(outcome.path, outcome.masks_scanned),
                )
            });
            priced.collect::<Vec<_>>()
        });
        let mut answers: Vec<_> = answers.into_iter().map(Vec::into_iter).collect();
        for &(slot, shard, _, offered_gbps) in &probes {
            if let Some((masks_scanned, cost)) = answers[shard].next() {
                tally.shard_probes[shard] += 1;
                tally.victim_masks_scanned = tally.victim_masks_scanned.max(masks_scanned);
                tally.probes[slot] = Some(VictimProbe {
                    shard,
                    cost,
                    offered_gbps,
                });
            }
        }
        probes.len()
    }

    /// Run the mitigation pipeline at the interval end `t_end` — each stage sees this
    /// interval's per-shard telemetry (including the rolling pressure window, updated
    /// first so adaptive stages see the interval just measured) and the datapath as
    /// left by the stages before it. Returns the per-shard attack pps it derived and
    /// what the stages did.
    fn run_mitigations(
        &mut self,
        store: &mut TelemetryStore,
        tally: &IntervalTally,
        t_end: f64,
    ) -> (Vec<f64>, Vec<MitigationAction>) {
        let dt = self.sample_interval;
        let packets = tally.shard_packets.iter();
        let attacker_pps: Vec<f64> = packets.clone().map(|&c| c as f64 / dt).collect();
        let delivered_pps: Vec<f64> = packets
            .zip(&tally.shard_probes)
            .map(|(&pkts, &probes)| (pkts + probes) as f64 / dt)
            .collect();
        store.note_pressure(&attacker_pps);
        let actions = self.mitigation_hook(
            store,
            t_end,
            &attacker_pps,
            &delivered_pps,
            &tally.shard_busy,
            MitigationStack::on_sample,
        );
        (attacker_pps, actions)
    }

    /// Record the interval starting at `t` into the telemetry store: the hot ring
    /// keeps the sample in full detail (aging into the cold aggregates past capacity),
    /// SLO trackers fold in the delivered rates of the victims active this interval.
    fn record_sample(
        &self,
        st: &mut RunState<'_>,
        t: f64,
        tally: &IntervalTally,
        victim_gbps: Vec<f64>,
        shard_attacker_pps: Vec<f64>,
        mitigation_actions: Vec<MitigationAction>,
    ) {
        let dt = self.sample_interval;
        let victim_active: Vec<bool> = tally.probes.iter().map(Option::is_some).collect();
        // Every packet a shard counted is non-background; the rest of the interval is.
        let attack_packets: u64 = tally.shard_packets.iter().sum();
        let sample = TimelineSample {
            time: t,
            victim_gbps,
            attacker_pps: attack_packets as f64 / dt,
            attacker_pps_by_source: tally.per_attacker.iter().map(|&c| c as f64 / dt).collect(),
            background_pps: (st.batch.events.len() as u64 - attack_packets) as f64 / dt,
            malformed_pps: st.batch.faults.len() as f64 / dt,
            mask_count: self.datapath.mask_count(),
            entry_count: self.datapath.entry_count(),
            victim_masks_scanned: tally.victim_masks_scanned,
            shard_masks: self.datapath.shard_mask_counts(),
            shard_entries: self.datapath.shard_entry_counts(),
            shard_attacker_pps,
            mitigation_actions,
        };
        st.store.record(sample, &victim_active);
    }
}

/// What a traffic source's packets and probes are attributed to.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Index into [`Timeline::victim_names`].
    Victim(usize),
    /// Index into [`Timeline::attacker_names`].
    Attacker(usize),
    /// Benign load: consumes CPU, joins no attack-attribution series.
    Background,
}

/// One active victim's probe result for the interval.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VictimProbe {
    /// The shard the victim's flow is steered to.
    shard: usize,
    /// Current per-invocation cost under the offload cost model, seconds.
    cost: f64,
    /// Rate the victim offers, Gbps.
    offered_gbps: f64,
}

/// Everything one `run_mix` carries across its sample intervals.
struct RunState<'a> {
    mix: TrafficMix<'a>,
    /// Attribution of each source index.
    slots: Vec<Slot>,
    n_victims: usize,
    n_attackers: usize,
    store: TelemetryStore,
    /// Next entry of the runner's scheduled table updates.
    update_cursor: usize,
    /// The interval being processed; its buffers are recycled across the whole run.
    batch: IntervalBatch,
}

impl<'a> RunState<'a> {
    fn new(mix: TrafficMix<'a>, dt: f64, n_shards: usize, telemetry: TelemetryConfig) -> Self {
        let (mut victim_names, mut attacker_names) = (Vec::new(), Vec::new());
        let slots = mix
            .roles()
            .iter()
            .zip(mix.labels())
            .map(|(role, label)| match role {
                SourceRole::Victim => {
                    victim_names.push(label);
                    Slot::Victim(victim_names.len() - 1)
                }
                SourceRole::Attacker => {
                    attacker_names.push(label);
                    Slot::Attacker(attacker_names.len() - 1)
                }
                SourceRole::Background => Slot::Background,
            })
            .collect();
        RunState {
            mix,
            slots,
            n_victims: victim_names.len(),
            n_attackers: attacker_names.len(),
            store: TelemetryStore::new(telemetry, dt, victim_names, attacker_names, n_shards),
            update_cursor: 0,
            batch: IntervalBatch::default(),
        }
    }
}

/// One interval's counters, built zeroed at the top of every interval.
struct IntervalTally {
    /// Packets delivered by each attacker source.
    per_attacker: Vec<u64>,
    /// CPU seconds each shard spent on replayed packets and malformed frames.
    shard_busy: Vec<f64>,
    /// Non-background packets each shard processed.
    shard_packets: Vec<u64>,
    /// Victim probes each shard answered.
    shard_probes: Vec<u64>,
    /// The latest probe of each victim, `None` while the victim is inactive.
    probes: Vec<Option<VictimProbe>>,
    /// Largest fast-path scan of a victim probe.
    victim_masks_scanned: usize,
}

impl IntervalTally {
    fn new(n_shards: usize, n_victims: usize, n_attackers: usize) -> Self {
        IntervalTally {
            per_attacker: vec![0; n_attackers],
            shard_busy: vec![0.0; n_shards],
            shard_packets: vec![0; n_shards],
            shard_probes: vec![0; n_shards],
            probes: vec![None; n_victims],
            victim_masks_scanned: 0,
        }
    }
}

/// Convert the CPU each shard has left after replaying packets (`dt - shard_busy[s]`)
/// into achieved throughput, Gbps, for every victim slot of `probes` — per shard: each
/// PMD splits *its own* leftover cycles across the victims steered to it (equal
/// shares, one redistribution pass), so an attack pinned to one shard starves only
/// that shard's victims. Inactive victims (`None`) get 0. The aggregate is capped at
/// the line rate: the NIC is shared by all shards.
fn allocate_victim_throughput(
    shard_busy: &[f64],
    probes: &[Option<VictimProbe>],
    offload: &OffloadConfig,
    dt: f64,
) -> Vec<f64> {
    let bytes = offload.bytes_per_invocation as f64;
    let mut victim_gbps = vec![0.0; probes.len()];
    for (shard, busy) in shard_busy.iter().enumerate() {
        let available_cpu = (dt - busy).max(0.0);
        let active: Vec<(usize, VictimProbe)> = probes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.filter(|p| p.shard == shard).map(|p| (i, p)))
            .collect();
        if active.is_empty() {
            continue;
        }
        let share = available_cpu / active.len() as f64;
        let mut leftover = 0.0;
        for &(i, p) in &active {
            let offered_pps = p.offered_gbps * 1e9 / 8.0 / bytes;
            let achievable_pps = share / p.cost / dt;
            let pps = achievable_pps.min(offered_pps);
            leftover += (achievable_pps - pps).max(0.0) * p.cost * dt;
            victim_gbps[i] = pps * bytes * 8.0 / 1e9;
        }
        // One redistribution pass: give unused CPU to still-limited flows on the same
        // shard.
        if leftover > 1e-12 {
            let limited: Vec<(usize, VictimProbe)> = active
                .iter()
                .copied()
                .filter(|&(i, p)| {
                    victim_gbps[i] + 1e-9 < p.offered_gbps.min(offload.line_rate_gbps)
                })
                .collect();
            if !limited.is_empty() {
                let extra = leftover / limited.len() as f64;
                for &(i, p) in &limited {
                    let extra_gbps = extra / p.cost / dt * bytes * 8.0 / 1e9;
                    victim_gbps[i] = (victim_gbps[i] + extra_gbps).min(p.offered_gbps);
                }
            }
        }
    }
    let total: f64 = victim_gbps.iter().sum();
    if total > offload.line_rate_gbps {
        let scale = offload.line_rate_gbps / total;
        for v in &mut victim_gbps {
            *v *= scale;
        }
    }
    victim_gbps
}

/// One sample interval's worth of drained traffic. The buffers are recycled across
/// intervals.
#[derive(Debug, Default)]
struct IntervalBatch {
    /// The interval's packets, in merged timestamp order.
    events: Vec<(Key, usize, f64)>,
    /// Per-source runs over `events` as `(source, end index)` — the run list
    /// `replay_chunks` dispatches: a run starts where the previous one ends (the first
    /// at 0) and holds consecutive packets of one source.
    runs: Vec<(usize, usize)>,
    /// Probe events, in drain order.
    probes: Vec<(usize, TrafficEvent)>,
    /// Malformed-frame events as `(fault, wire bytes, time)`, in drain order. Charged
    /// to shard 0 (the ingestion point) when the interval is processed.
    faults: Vec<(WireFault, usize, f64)>,
}

/// Drain every event of `[t, t_end)` from the mix into `batch`: packet events append
/// to the flat event buffer (a new run opens whenever the source changes — runs
/// preserve merged timestamp order), probe events are set aside verbatim, and
/// malformed-frame events land in the faults list (they carry no steerable key, so
/// they never join a run). Packet and malformed events that predate the window
/// (possible in the very first interval) are consumed without being recorded, like
/// the classic replay loop; probes are always kept. Returns the number of events kept.
fn drain_interval(
    mix: &mut TrafficMix<'_>,
    t: f64,
    t_end: f64,
    batch: &mut IntervalBatch,
) -> usize {
    batch.events.clear();
    batch.runs.clear();
    batch.probes.clear();
    batch.faults.clear();
    while let Some((src, ev)) = mix.next_before(t_end) {
        match ev.payload {
            EventPayload::Packet => {
                if ev.time < t {
                    continue;
                }
                batch.events.push((ev.key, ev.bytes, ev.time));
                let end = batch.events.len();
                match batch.runs.last_mut() {
                    Some(run) if run.0 == src => run.1 = end,
                    _ => batch.runs.push((src, end)),
                }
            }
            EventPayload::Probe { .. } => batch.probes.push((src, ev)),
            EventPayload::Malformed { fault } => {
                if ev.time < t {
                    continue;
                }
                batch.faults.push((fault, ev.bytes, ev.time));
            }
        }
    }
    batch.events.len() + batch.probes.len() + batch.faults.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tse_attack::scenarios::Scenario;
    use tse_attack::source::AttackGenerator;
    use tse_packet::fields::FieldSchema;
    use tse_switch::datapath::Datapath;
    use tse_switch::stats::PathTaken;

    const VICTIM_IP: u32 = 0x0a00_0063;

    /// A runner over the scenario's ACL with one 10 Gbps victim.
    fn setup(scenario: Scenario) -> ExperimentRunner {
        let schema = FieldSchema::ovs_ipv4();
        let datapath = Datapath::new(scenario.flow_table(&schema));
        let victims = vec![VictimFlow::iperf_tcp(
            "Victim 1", 0x0a000005, VICTIM_IP, 10.0,
        )];
        ExperimentRunner::new(datapath, victims, OffloadConfig::gro_off())
    }

    /// The scenario's co-located key sequence, cycled: `count` packets at `rate` pps
    /// from `start`.
    fn attack(scenario: Scenario, rate: f64, start: f64, count: usize) -> impl TrafficSource {
        let schema = FieldSchema::ovs_ipv4();
        let keys = scenario.key_iter(&schema, &schema.zero_value()).cycle();
        let rng = StdRng::seed_from_u64(99);
        AttackGenerator::new("Attacker", &schema, keys, rng, rate, start).with_limit(count)
    }

    /// The attack `setup`'s runner replays: 100 pps from t = 30 s, 3000 packets.
    fn attack_at_30(scenario: Scenario) -> impl TrafficSource {
        attack(scenario, 100.0, 30.0, 3000)
    }

    #[test]
    fn victim_runs_at_baseline_before_attack_and_degrades_during() {
        let mut runner = setup(Scenario::SipDp);
        let timeline = runner.run(attack_at_30(Scenario::SipDp), 90.0);
        assert_eq!(timeline.samples.len(), 90);
        let before = timeline.mean_total_between(5.0, 29.0);
        let during = timeline.mean_total_between(45.0, 59.0);
        assert!(
            before > 8.0,
            "baseline should be near 10 Gbps, got {before}"
        );
        assert!(
            during < before * 0.25,
            "SipDp attack should cut throughput by >75 %: {before} -> {during}"
        );
    }

    #[test]
    fn victim_recovers_after_idle_timeout() {
        let mut runner = setup(Scenario::SipDp);
        // Attack packets span t=30..60 s (3000 packets at 100 pps).
        let timeline = runner.run(attack_at_30(Scenario::SipDp), 90.0);
        let recovered = timeline.mean_total_between(75.0, 89.0);
        assert!(
            recovered > 8.0,
            "victim should recover ~10 s after the attack stops: {recovered}"
        );
        // Mask count also collapses back.
        let final_masks = timeline.samples.last().unwrap().mask_count;
        assert!(
            final_masks < 20,
            "attack masks should expire: {final_masks}"
        );
    }

    #[test]
    fn masks_grow_during_attack() {
        let mut runner = setup(Scenario::SpDp);
        let timeline = runner.run(attack_at_30(Scenario::SpDp), 70.0);
        let peak = timeline.samples.iter().map(|s| s.mask_count).max().unwrap();
        assert!(peak > 100, "SpDp should spawn >100 masks, got {peak}");
    }

    #[test]
    fn guarded_run_keeps_victim_fast() {
        use tse_mitigation::guard::{GuardConfig, GuardMitigation};
        let mut runner =
            setup(Scenario::SipDp).with_mitigation(GuardMitigation::new(GuardConfig {
                interval: 10.0,
                mask_threshold: 30,
                ..GuardConfig::default()
            }));
        let timeline = runner.run(attack_at_30(Scenario::SipDp), 90.0);
        // With the guard wiping drop entries every 10 s, the victim's average rate during
        // the attack stays much higher than the unguarded run.
        let during = timeline.mean_total_between(45.0, 59.0);
        assert!(
            during > 5.0,
            "guarded victim should keep most of its throughput: {during}"
        );
    }

    #[test]
    fn mitigation_actions_land_in_the_timeline() {
        use tse_mitigation::guard::{GuardConfig, GuardMitigation};
        use tse_mitigation::stack::MitigationAction;
        let mut runner =
            setup(Scenario::SipDp).with_mitigation(GuardMitigation::new(GuardConfig {
                interval: 10.0,
                mask_threshold: 30,
                ..GuardConfig::default()
            }));
        assert_eq!(runner.mitigations.names(), vec!["mfcguard"]);
        let timeline = runner.run(attack_at_30(Scenario::SipDp), 60.0);
        // Guard passes fire once per 10 s interval, one report per shard (1 shard
        // here); during the attack they actually sweep.
        let sweeps: Vec<&MitigationAction> = timeline
            .samples
            .iter()
            .flat_map(|s| s.mitigation_actions.iter())
            .collect();
        assert!(!sweeps.is_empty());
        let swept_entries: usize = sweeps
            .iter()
            .map(|a| match a {
                MitigationAction::GuardSweep(r) => r.entries_removed,
                other => panic!("unexpected action {other:?}"),
            })
            .sum();
        assert!(
            swept_entries > 50,
            "guard swept the explosion: {swept_entries}"
        );
        // Shard attribution: every action here applies to shard 0.
        for s in &timeline.samples {
            assert!(s.mitigation_actions.iter().all(|a| a.shard() == Some(0)));
        }
        // An undefended runner reports no actions.
        let tl = setup(Scenario::SipDp).run(attack_at_30(Scenario::SipDp), 20.0);
        assert!(tl.samples.iter().all(|s| s.mitigation_actions.is_empty()));
    }

    #[test]
    fn reused_runner_stays_defended_and_restores_steering() {
        use tse_classifier::flowtable::FlowTable;
        use tse_mitigation::defenses::RssKeyRandomizer;
        use tse_mitigation::guard::{GuardConfig, GuardMitigation};
        use tse_mitigation::stack::MitigationAction;
        let mut runner = setup(Scenario::SipDp)
            .with_mitigation(GuardMitigation::new(GuardConfig {
                interval: 10.0,
                mask_threshold: 30,
                ..GuardConfig::default()
            }))
            .with_mitigation(RssKeyRandomizer::new(15.0, 9));
        let count = |tl: &Timeline| {
            let mut sweeps = 0;
            let mut rekeys = 0;
            for s in &tl.samples {
                for a in &s.mitigation_actions {
                    match a {
                        MitigationAction::GuardSweep(r) if r.entries_removed > 0 => sweeps += 1,
                        MitigationAction::Rekeyed { .. } => rekeys += 1,
                        _ => {}
                    }
                }
            }
            (sweeps, rekeys)
        };
        let tl1 = runner.run(attack_at_30(Scenario::SipDp), 60.0);
        let (sweeps1, rekeys1) = count(&tl1);
        assert!(
            sweeps1 > 0 && rekeys1 > 0,
            "run 1 defends: {sweeps1}/{rekeys1}"
        );
        // The rotation must not outlive the run: steering is back on the entry key.
        assert_eq!(
            runner.datapath.hash_key(),
            tse_packet::rss::DEFAULT_HASH_KEY
        );
        // Suppression persists in the slow path by design (the observed OVS behaviour),
        // which would leave run 2 with nothing to sweep. A table without the deny rule
        // forgets it; the original table then comes back unsuppressed, so run 2
        // re-explodes and must be re-defended.
        let suppressed =
            |r: &ExperimentRunner| r.datapath.shard(0).slow_path().suppressed_rules().len();
        assert_eq!(suppressed(&runner), 1, "run 1 suppressed the deny rule");
        let original = runner.datapath.table().clone();
        let deny = original.len() - 1;
        let mut without_deny = FlowTable::new(original.schema().clone());
        for rule in &original.rules()[..deny] {
            without_deny.push(rule.clone());
        }
        runner.datapath.install_table(without_deny);
        runner.datapath.install_table(original);
        assert_eq!(suppressed(&runner), 0);
        // Run 2 on the same runner: the stages re-arm (interval gates and the rekey
        // schedule re-anchor at the new t = 0) instead of staying silently inert.
        let tl2 = runner.run(attack_at_30(Scenario::SipDp), 60.0);
        let (sweeps2, rekeys2) = count(&tl2);
        assert!(
            sweeps2 > 0 && rekeys2 > 0,
            "run 2 must stay defended: {sweeps2} sweeps, {rekeys2} rekeys"
        );
        assert_eq!(
            rekeys2, rekeys1,
            "same schedule, same horizon, same rotations"
        );
    }

    #[test]
    fn upcall_quota_is_disarmed_after_the_run() {
        use tse_mitigation::UpcallLimiter;
        let mut runner = setup(Scenario::Dp).with_mitigation(UpcallLimiter::new(3));
        runner.run(attack_at_30(Scenario::Dp), 40.0);
        // On an emptied cache, the attack's keys replayed after the run install more
        // megaflows than one quota window allows, and none is denied: on_finish removed
        // the quota from every shard.
        let shard = runner.datapath.shard_mut(0);
        let denied = shard.slow_path().quota_denied_upcalls();
        assert!(denied > 0, "the quota bound during the run");
        shard.megaflow_mut().clear();
        let schema = FieldSchema::ovs_ipv4();
        for (i, key) in Scenario::Dp
            .key_iter(&schema, &schema.zero_value())
            .enumerate()
        {
            shard.process_key(&key, 60, 40.0 + i as f64 * 1e-3);
        }
        assert!(
            shard.entry_count() > 3,
            "installs resume: {} entries",
            shard.entry_count()
        );
        assert_eq!(shard.slow_path().quota_denied_upcalls(), denied);
    }

    #[test]
    fn inactive_victims_report_zero() {
        let schema = FieldSchema::ovs_ipv4();
        let table = Scenario::Dp.flow_table(&schema);
        let victims =
            vec![VictimFlow::iperf_udp("late", 1, VICTIM_IP, 1.0).active_between(30.0, 60.0)];
        let mut runner = ExperimentRunner::new(Datapath::new(table), victims, OffloadConfig::udp());
        let timeline = runner.run(attack_at_30(Scenario::Baseline), 40.0);
        assert_eq!(timeline.samples[10].total_victim_gbps(), 0.0);
        assert!(timeline.samples[35].total_victim_gbps() > 0.5);
    }

    #[test]
    fn timeline_window_accessors_are_total_on_degenerate_input() {
        // Empty timeline: every window accessor answers 0.0, never NaN/∞/panic.
        let empty = Timeline::default();
        assert_eq!(empty.mean_total_between(0.0, 100.0), 0.0);
        assert_eq!(empty.mean_attacker_pps_between("atk", 0.0, 100.0), 0.0);
        assert_eq!(empty.mean_victim_between(0, 0.0, 100.0), 0.0);
        assert!(empty.mean_victim_between(0, 0.0, 100.0).is_sign_positive());
        assert_eq!((empty.peak_masks(), empty.peak_entries()), (0, 0));

        let tl = Timeline {
            victim_names: vec!["v".into()],
            attacker_names: vec!["atk".into()],
            shard_count: 1,
            samples: vec![TimelineSample {
                time: 0.0,
                victim_gbps: vec![1.0],
                attacker_pps: 50.0,
                // Deliberately narrower than `attacker_names`, as a hand-built
                // sample may be.
                attacker_pps_by_source: Vec::new(),
                background_pps: 0.0,
                malformed_pps: 0.0,
                mask_count: 3,
                entry_count: 7,
                victim_masks_scanned: 0,
                shard_masks: vec![3],
                shard_entries: vec![7],
                shard_attacker_pps: vec![50.0],
                mitigation_actions: Vec::new(),
            }],
        };
        // Out-of-range and inverted windows select nothing and answer 0.0.
        assert_eq!(tl.mean_total_between(10.0, 20.0), 0.0);
        assert_eq!(tl.mean_total_between(5.0, 1.0), 0.0);
        assert_eq!(tl.mean_victim_between(0, 10.0, 20.0), 0.0);
        // Unknown labels and missing per-source entries degrade to 0.0, not a panic.
        assert_eq!(tl.mean_attacker_pps_between("nope", 0.0, 1.0), 0.0);
        assert_eq!(tl.mean_attacker_pps_between("atk", 0.0, 1.0), 0.0);
        assert_eq!(tl.mean_victim_between(1, 0.0, 1.0), 0.0);
        // A well-formed window still answers exactly.
        assert_eq!(tl.mean_total_between(0.0, 1.0), 1.0);
        assert_eq!(tl.mean_victim_between(0, 0.0, 1.0), 1.0);
        assert_eq!((tl.peak_masks(), tl.peak_entries()), (3, 7));
    }

    #[test]
    fn render_table_has_header_and_rows() {
        let timeline = setup(Scenario::Dp).run(attack_at_30(Scenario::Dp), 5.0);
        let table = timeline.render_table();
        assert!(table.starts_with("time_s"));
        assert_eq!(table.lines().count(), 6);
        assert!(table.contains("mfc_masks"));
    }

    #[test]
    fn run_is_run_mix_over_the_stored_victims() {
        // `run(attack)` is the mix of the stored victims' probe sources, then `attack`:
        // the timelines agree exactly.
        let schema = FieldSchema::ovs_ipv4();
        let victim = VictimFlow::iperf_tcp("V", 0x0a000005, VICTIM_IP, 10.0);
        let runner = |victims| {
            let datapath = Datapath::new(Scenario::SipDp.flow_table(&schema));
            ExperimentRunner::new(datapath, victims, OffloadConfig::gro_off())
        };
        let by_run =
            runner(vec![victim.clone()]).run(attack(Scenario::SipDp, 100.0, 10.0, 2000), 40.0);
        let mix = TrafficMix::new()
            .with(VictimSource::new(victim, &schema, 1.0))
            .with(attack(Scenario::SipDp, 100.0, 10.0, 2000));
        let by_mix = runner(vec![]).run_mix(mix, 40.0);
        assert_eq!(by_run.victim_names, by_mix.victim_names);
        assert_eq!(by_run.attacker_names, vec!["Attacker"]);
        for (a, b) in by_run.samples.iter().zip(&by_mix.samples) {
            assert_eq!(a, b, "samples diverged at t={}", a.time);
        }
    }

    #[test]
    fn wire_mix_reproduces_key_level_timeline_and_charges_malformed_to_shard_zero() {
        use tse_attack::wire::{WireGenerator, WireSource};
        use tse_packet::wire::WireTrace;
        let schema = FieldSchema::ovs_ipv4();
        let scenario = Scenario::SipDp;
        let table = scenario.flow_table(&schema);
        let victim = VictimFlow::iperf_tcp("V", 0x0a000005, VICTIM_IP, 10.0);
        // The key-level attack's packets, serialised to raw Ethernet frames and re-parsed.
        let wire_attack = || {
            let keys = scenario.key_iter(&schema, &schema.zero_value()).cycle();
            let rng = StdRng::seed_from_u64(99);
            WireGenerator::new("Attacker", &schema, keys, rng, 100.0, 10.0).with_limit(2000)
        };

        // Key-level reference run.
        let mut by_key = ExperimentRunner::new(
            Datapath::new(table.clone()),
            vec![victim.clone()],
            OffloadConfig::gro_off(),
        );
        let tl_key = by_key.run(attack(scenario, 100.0, 10.0, 2000), 40.0);

        // The timeline is reproduced bit-for-bit (frame length == modelled wire length).
        let mut by_wire = ExperimentRunner::new(
            Datapath::new(table.clone()),
            vec![],
            OffloadConfig::gro_off(),
        );
        let mix = TrafficMix::new()
            .with(VictimSource::new(victim.clone(), &schema, 1.0))
            .with(wire_attack());
        let tl_wire = by_wire.run_mix(mix, 40.0);
        assert_eq!(tl_key.samples, tl_wire.samples);
        assert!(tl_wire.samples.iter().all(|s| s.malformed_pps == 0.0));

        // Now corrupt the wire: truncated frames ride along. They never reach the cache
        // (same masks/entries), are charged to shard 0's counters, and surface in the
        // timeline's malformed rate instead of any attacker rate.
        let mut garbage = WireTrace::new();
        for i in 0..50 {
            // 9 bytes: shorter than an Ethernet header.
            garbage.push(30.0 + i as f64 * 0.01, &[0xDE; 9]);
        }
        let mut by_bad =
            ExperimentRunner::new(Datapath::new(table), vec![], OffloadConfig::gro_off());
        let mix = TrafficMix::new()
            .with(VictimSource::new(victim, &schema, 1.0))
            .with(wire_attack())
            .with(WireSource::replay("Garbage", garbage, &schema));
        /// Sums the frames `charge_faults_and_expire` reports charging.
        struct Charged(usize);
        impl RunObserver for Charged {
            fn exit(&mut self, _interval: usize, stage: Stage, items: usize) {
                if stage == Stage::FaultsAndExpiry {
                    self.0 += items;
                }
            }
        }
        let mut charged = Charged(0);
        let tl_bad = by_bad.run_mix_observed(mix, 40.0, &mut charged);
        assert_eq!(charged.0, 50);
        let malformed: f64 = tl_bad.samples.iter().map(|s| s.malformed_pps).sum();
        assert_eq!(malformed.round() as u64, 50);
        assert_eq!(by_bad.datapath.shard(0).stats().truncated, 50);
        for (a, b) in tl_key.samples.iter().zip(&tl_bad.samples) {
            assert_eq!(a.mask_count, b.mask_count, "t={}", a.time);
            assert_eq!(a.attacker_pps, b.attacker_pps, "t={}", a.time);
        }
    }

    fn degenerate_run(sample_interval: f64, duration: f64) -> Timeline {
        let schema = FieldSchema::ovs_ipv4();
        let datapath = Datapath::new(Scenario::Dp.flow_table(&schema));
        let mut runner = ExperimentRunner::new(datapath, vec![], OffloadConfig::gro_off());
        runner.sample_interval = sample_interval;
        runner.run_mix(TrafficMix::new(), duration)
    }

    #[test]
    #[should_panic(expected = "sample_interval must be finite and positive, got 0")]
    fn zero_sample_interval_is_rejected() {
        degenerate_run(0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "sample_interval must be finite and positive, got -1")]
    fn negative_sample_interval_is_rejected() {
        degenerate_run(-1.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "sample_interval must be finite and positive, got NaN")]
    fn nan_sample_interval_is_rejected() {
        degenerate_run(f64::NAN, 10.0);
    }

    #[test]
    #[should_panic(expected = "run duration must be finite and non-negative, got inf")]
    fn infinite_duration_is_rejected() {
        degenerate_run(1.0, f64::INFINITY);
    }

    /// A `-NaN` update time sorts first under `total_cmp` and is never `<= t`: before
    /// the check, the run completed with the update cursor stuck on it, and the valid
    /// update behind it was silently never installed.
    #[test]
    #[should_panic(expected = "table update 0 is scheduled at a non-finite time, got NaN")]
    fn non_finite_table_update_time_is_rejected() {
        let schema = FieldSchema::ovs_ipv4();
        let (a, b) = (
            Scenario::Dp.flow_table(&schema),
            Scenario::SpDp.flow_table(&schema),
        );
        let mut runner =
            ExperimentRunner::new(Datapath::new(a.clone()), vec![], OffloadConfig::gro_off())
                .with_table_updates(vec![(-f64::NAN, a), (5.0, b.clone())]);
        runner.run_mix(TrafficMix::new(), 10.0);
        assert_eq!(
            runner.datapath.table().rules(),
            b.rules(),
            "the update at t = 5 is installed"
        );
    }

    #[test]
    fn zero_duration_is_a_legal_empty_run() {
        assert!(degenerate_run(1.0, 0.0).samples.is_empty());
    }

    /// A source of one role replaying a fixed list of `(time, payload)` events of one
    /// key.
    struct Scripted(
        &'static str,
        SourceRole,
        Key,
        std::vec::IntoIter<(f64, EventPayload)>,
    );

    impl tse_attack::source::TrafficSource for Scripted {
        fn label(&self) -> &str {
            self.0
        }

        fn role(&self) -> SourceRole {
            self.1
        }

        fn next_event(&mut self) -> Option<TrafficEvent> {
            let (time, payload) = self.3.next()?;
            Some(TrafficEvent {
                time,
                key: self.2.clone(),
                bytes: 64,
                payload,
            })
        }
    }

    fn scripted(label: &'static str, events: Vec<(f64, EventPayload)>) -> Scripted {
        let key = FieldSchema::hyp().zero_value();
        Scripted(label, SourceRole::Attacker, key, events.into_iter())
    }

    fn packets(label: &'static str, times: &[f64]) -> Scripted {
        scripted(
            label,
            times.iter().map(|&t| (t, EventPayload::Packet)).collect(),
        )
    }

    const PROBE: EventPayload = EventPayload::Probe { offered_gbps: 1.0 };
    const MALFORMED: EventPayload = EventPayload::Malformed {
        fault: WireFault::FamilyMismatch,
    };

    /// The batch's runs as `(source, packet times)`.
    fn runs_of(batch: &IntervalBatch) -> Vec<(usize, Vec<f64>)> {
        let mut start = 0;
        let times = |&(src, end): &(usize, usize)| {
            let events = &batch.events[std::mem::replace(&mut start, end)..end];
            (src, events.iter().map(|e| e.2).collect())
        };
        batch.runs.iter().map(times).collect()
    }

    #[test]
    fn interleaved_sources_drain_into_one_event_runs_in_merged_order() {
        let mut mix = TrafficMix::new()
            .with(packets("a", &[0.1, 0.4, 0.7]))
            .with(packets("b", &[0.2, 0.5, 0.8]))
            .with(packets("c", &[0.3, 0.6, 0.9, 1.5]));
        let mut batch = IntervalBatch::default();
        drain_interval(&mut mix, 0.0, 1.0, &mut batch);
        // Every run boundary falls exactly at a source change...
        let expect: Vec<(usize, Vec<f64>)> = (1..=9)
            .map(|i| ((i - 1) % 3, vec![i as f64 / 10.0]))
            .collect();
        assert_eq!(runs_of(&batch), expect);
        // ...and the concatenated slices are the flat buffer, in merged order.
        let flat: Vec<f64> = batch.events.iter().map(|e| e.2).collect();
        let joined: Vec<f64> = runs_of(&batch).into_iter().flat_map(|r| r.1).collect();
        assert_eq!(flat, joined);
        assert!(flat.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(batch.runs.last(), Some(&(2, 9)));
        // The event at t = 1.5 stays in the mix for the next interval.
        drain_interval(&mut mix, 1.0, 2.0, &mut batch);
        assert_eq!(runs_of(&batch), vec![(2, vec![1.5])]);
    }

    #[test]
    fn consecutive_events_of_one_source_extend_the_run() {
        let mut mix = TrafficMix::new()
            .with(packets("a", &[0.1, 0.2, 0.3, 0.5, 0.6]))
            .with(packets("b", &[0.4]))
            // A probe or a malformed frame between two packets of one source does not
            // split its run: neither joins the event buffer.
            .with(scripted("v", vec![(0.15, PROBE)]))
            .with(scripted("w", vec![(0.25, MALFORMED)]));
        let mut batch = IntervalBatch::default();
        drain_interval(&mut mix, 0.0, 1.0, &mut batch);
        assert_eq!(batch.runs, vec![(0, 3), (1, 4), (0, 6)]);
        assert_eq!(
            runs_of(&batch),
            vec![
                (0, vec![0.1, 0.2, 0.3]),
                (1, vec![0.4]),
                (0, vec![0.5, 0.6])
            ]
        );
        assert_eq!(batch.probes.len(), 1);
        assert_eq!(batch.faults, vec![(WireFault::FamilyMismatch, 64, 0.25)]);
    }

    #[test]
    fn events_predating_the_window_are_dropped_but_probes_are_kept() {
        let script = vec![
            (0.5, EventPayload::Packet),
            (0.6, MALFORMED),
            (0.7, PROBE),
            (1.2, EventPayload::Packet),
            (1.3, MALFORMED),
            (2.5, EventPayload::Packet),
        ];
        let mut mix = TrafficMix::new().with(scripted("late", script));
        let mut batch = IntervalBatch::default();
        drain_interval(&mut mix, 1.0, 2.0, &mut batch);
        assert_eq!(runs_of(&batch), vec![(0, vec![1.2])]);
        assert_eq!(batch.faults, vec![(WireFault::FamilyMismatch, 64, 1.3)]);
        let probe_times: Vec<f64> = batch.probes.iter().map(|(_, ev)| ev.time).collect();
        assert_eq!(probe_times, vec![0.7]);
    }

    #[test]
    fn packetless_interval_yields_no_runs_and_keeps_the_buffers() {
        let busy: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        let mut mix = TrafficMix::new()
            .with(packets("a", &busy))
            .with(packets("b", &[0.5, 2.5]))
            .with(scripted("v", vec![(1.5, PROBE)]));
        let mut batch = IntervalBatch::default();
        drain_interval(&mut mix, 0.0, 1.0, &mut batch);
        assert_eq!(batch.events.len(), 51);
        let (events_cap, runs_cap) = (batch.events.capacity(), batch.runs.capacity());
        let events_buf = batch.events.as_ptr();

        drain_interval(&mut mix, 1.0, 2.0, &mut batch);
        assert!(batch.events.is_empty() && batch.runs.is_empty());
        assert_eq!(batch.probes.len(), 1);
        assert!(batch.events.capacity() >= events_cap && batch.runs.capacity() >= runs_cap);

        drain_interval(&mut mix, 2.0, 3.0, &mut batch);
        assert_eq!(runs_of(&batch), vec![(1, vec![2.5])]);
        assert!(batch.probes.is_empty());
        assert_eq!(
            batch.events.as_ptr(),
            events_buf,
            "the event buffer is reused"
        );
    }

    /// The serial probe walk `replay_probes` replaced — one `process_key` at a time on
    /// the calling thread, in drain order — kept as its oracle.
    fn serial_probe_walk(
        runner: &mut ExperimentRunner,
        st: &RunState<'_>,
        tally: &mut IntervalTally,
    ) {
        for (src, ev) in &st.batch.probes {
            let (Slot::Victim(slot), EventPayload::Probe { offered_gbps }) =
                (st.slots[*src], ev.payload)
            else {
                continue;
            };
            let shard = runner.datapath.shard_of_key(&ev.key);
            tally.shard_probes[shard] += 1;
            let outcome = runner
                .datapath
                .shard_mut(shard)
                .process_key(&ev.key, ev.bytes, ev.time);
            tally.victim_masks_scanned = tally.victim_masks_scanned.max(outcome.masks_scanned);
            let units = outcome.masks_scanned;
            let cost = match outcome.path {
                PathTaken::SlowPath => runner.offload.cost.slow_path(units),
                _ => runner.offload.cost.fast_path(units),
            };
            tally.probes[slot] = Some(VictimProbe {
                shard,
                cost,
                offered_gbps,
            });
        }
    }

    #[test]
    fn probe_pass_matches_the_serial_walk_on_every_executor() {
        use tse_mitigation::guard::{GuardConfig, MfcGuard};
        use tse_switch::exec::{ChaosExecutor, PersistentPoolExecutor, SequentialExecutor};
        use tse_switch::pmd::{Steering, SteeringView};
        let schema = FieldSchema::ovs_ipv4();
        let field = |name: &str| schema.field_index(name).unwrap();
        let (tp_src, tp_dst) = (field("tp_src"), field("tp_dst"));
        let table = FlowTable::whitelist_default_deny(&schema, &[(tp_dst, 80)]);
        let flow = |src_port: u128, dst_port: u128| {
            let mut key = schema.zero_value();
            key.set(field("ip_src"), 0x0a00_0005);
            key.set(field("ip_dst"), VICTIM_IP as u128);
            key.set(tp_src, src_port);
            key.set(tp_dst, dst_port);
            key
        };
        // Three victims: one probed twice per interval, one steered to another shard,
        // and one the ACL denies.
        let view = SteeringView::new(Steering::Rss, &schema, 4);
        let twice = flow(40_000, 80);
        let elsewhere = (40_001..)
            .map(|port| flow(port, 80))
            .find(|key| view.shard_of_key(key) != view.shard_of_key(&twice))
            .unwrap();
        let blocked = flow(40_000, 443);
        let probers = |intervals: usize| {
            let prober = |label, role, key: &Key, offsets: &[f64]| {
                let times = (0..intervals).flat_map(|k| offsets.iter().map(move |o| k as f64 + o));
                let probes: Vec<_> = times.map(|t| (t, PROBE)).collect();
                Scripted(label, role, key.clone(), probes.into_iter())
            };
            TrafficMix::new()
                .with(prober("twice", SourceRole::Victim, &twice, &[0.25, 0.75]))
                .with(prober("elsewhere", SourceRole::Victim, &elsewhere, &[0.5]))
                .with(prober("blocked", SourceRole::Victim, &blocked, &[0.5]))
                // No victim: the probe is set aside untouched (the benchmark's tick
                // clock is such a source).
                .with(prober("clock", SourceRole::Background, &twice, &[0.0]))
        };
        // `blocked` was denied once, then a guard sweep removed its drop entry and
        // suppressed the deny rule: its probes upcall from now on.
        let swept_runner = |executor: Box<dyn ShardExecutor>| {
            let datapath = ShardedDatapath::new(table.clone(), 4, Steering::Rss);
            let mut runner = ExperimentRunner::sharded(datapath, vec![], OffloadConfig::gro_off())
                .with_executor(executor);
            let shard = runner.datapath.shard_of_key(&blocked);
            let shard = runner.datapath.shard_mut(shard);
            shard.process_key(&blocked, 64, 0.0);
            let config = GuardConfig {
                mask_threshold: 0,
                ..GuardConfig::default()
            };
            assert_eq!(
                MfcGuard::new(config)
                    .run_once(shard, 0.0, 0.0)
                    .entries_removed,
                1
            );
            runner
        };
        let first_interval = || {
            let mut st = RunState::new(probers(1), 1.0, 4, TelemetryConfig::default());
            drain_interval(&mut st.mix, 0.0, 1.0, &mut st.batch);
            let tally = IntervalTally::new(4, st.n_victims, st.n_attackers);
            (st, tally)
        };
        let executors = || -> [Box<dyn ShardExecutor>; 3] {
            [
                Box::new(SequentialExecutor),
                Box::new(PersistentPoolExecutor::new(2)),
                Box::new(ChaosExecutor::new(3, 7)),
            ]
        };

        let mut oracle = swept_runner(Box::new(SequentialExecutor));
        let (st, mut expect) = first_interval();
        serial_probe_walk(&mut oracle, &st, &mut expect);
        let [Some(twice_probe), Some(elsewhere_probe), Some(blocked_probe)] = expect.probes[..]
        else {
            panic!("every victim was probed: {:?}", expect.probes);
        };
        // The first probe of `twice` upcalled, the second hit its one mask: the last in
        // drain order is the one the interval keeps.
        let cost = &oracle.offload.cost;
        assert_eq!(twice_probe.cost.to_bits(), cost.fast_path(1).to_bits());
        assert!(blocked_probe.cost >= cost.slow_path(0));
        assert_ne!(twice_probe.shard, elsewhere_probe.shard);
        assert_eq!(expect.shard_probes.iter().sum::<u64>(), 4);
        let stats = oracle.datapath.stats();
        assert_eq!(
            (stats.packets(), stats.upcalls, stats.megaflow_hits),
            (5, 4, 1)
        );
        assert_eq!(
            oracle.datapath.entry_count(),
            2,
            "nothing reinstalled for `blocked`"
        );

        for executor in executors() {
            let mut runner = swept_runner(executor);
            let (st, mut tally) = first_interval();
            runner.replay_probes(&st, &mut tally);
            assert_eq!(tally.probes, expect.probes);
            for (got, want) in tally
                .probes
                .iter()
                .flatten()
                .zip(expect.probes.iter().flatten())
            {
                assert_eq!(got.cost.to_bits(), want.cost.to_bits());
            }
            assert_eq!(tally.shard_probes, expect.shard_probes);
            assert_eq!(tally.victim_masks_scanned, expect.victim_masks_scanned);
            for shard in 0..4 {
                let (got, want) = (
                    runner.datapath.shard(shard).stats(),
                    oracle.datapath.shard(shard).stats(),
                );
                assert_eq!(got, want, "shard {shard}");
                assert_eq!(got.busy_seconds.to_bits(), want.busy_seconds.to_bits());
            }
        }

        // And through `run_mix`: the same timeline, to the bit, on every executor.
        let timelines = executors().map(|executor| swept_runner(executor).run_mix(probers(3), 3.0));
        assert!(timelines[0].samples.iter().all(|s| s.victim_gbps[0] > 0.0));
        for timeline in &timelines[1..] {
            assert_eq!(timeline.samples, timelines[0].samples);
            for (got, want) in timeline.samples.iter().zip(&timelines[0].samples) {
                let bits = |s: &TimelineSample| {
                    s.victim_gbps
                        .iter()
                        .map(|g| g.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(got), bits(want));
            }
        }
    }

    fn probe(shard: usize, cost: f64, offered_gbps: f64) -> Option<VictimProbe> {
        Some(VictimProbe {
            shard,
            cost,
            offered_gbps,
        })
    }

    #[test]
    fn allocation_never_exceeds_offered_rate_or_line_rate() {
        use rand::Rng;
        let offload = OffloadConfig::gro_off();
        let mut rng = StdRng::seed_from_u64(12);
        for case in 0..500 {
            let n_shards = rng.gen_range(1usize..6);
            let busy: Vec<f64> = (0..n_shards).map(|_| rng.gen_range(0.0..1.5)).collect();
            let probes: Vec<Option<VictimProbe>> = (0..rng.gen_range(0usize..12))
                .map(|_| {
                    let active: bool = rng.gen();
                    active.then(|| VictimProbe {
                        shard: rng.gen_range(0..n_shards),
                        cost: rng.gen_range(1e-7..1e-4),
                        offered_gbps: rng.gen_range(0.01..12.0),
                    })
                })
                .collect();
            let gbps = allocate_victim_throughput(&busy, &probes, &offload, 1.0);
            assert_eq!(gbps.len(), probes.len());
            for (i, (g, p)) in gbps.iter().zip(&probes).enumerate() {
                let offered = p.map_or(0.0, |p| p.offered_gbps);
                assert!(
                    (0.0..=offered).contains(g),
                    "case {case}: victim {i} got {g} of {offered} offered"
                );
            }
            let total: f64 = gbps.iter().sum();
            assert!(
                total <= offload.line_rate_gbps * (1.0 + 1e-12),
                "case {case}: aggregate {total} above the line rate"
            );
        }
    }

    #[test]
    fn saturated_shard_starves_only_its_own_victims() {
        let offload = OffloadConfig::gro_off();
        let probes = [
            probe(0, 2e-6, 3.0),
            probe(1, 2e-6, 3.0),
            probe(1, 4e-6, 1.0),
        ];
        let calm = allocate_victim_throughput(&[0.2, 0.2], &probes, &offload, 1.0);
        assert!(
            calm.iter().all(|&g| g > 0.0),
            "everyone is served: {calm:?}"
        );
        // Shard 0 spends its whole interval (and more) on the attack.
        for busy0 in [1.0, 1.7] {
            let hit = allocate_victim_throughput(&[busy0, 0.2], &probes, &offload, 1.0);
            assert_eq!(hit[0], 0.0);
            assert_eq!(hit[1].to_bits(), calm[1].to_bits());
            assert_eq!(hit[2].to_bits(), calm[2].to_bits());
        }
    }

    #[test]
    fn allocation_without_active_victims_is_a_no_op() {
        let offload = OffloadConfig::gro_off();
        assert!(allocate_victim_throughput(&[0.3, 0.9], &[], &offload, 1.0).is_empty());
        let idle = allocate_victim_throughput(&[0.3, 0.9], &[None, None], &offload, 1.0);
        assert_eq!(idle, vec![0.0, 0.0]);
        // An inactive victim next to an active one stays at 0 and takes no share.
        let alone = allocate_victim_throughput(&[0.0], &[probe(0, 2e-6, 9.0)], &offload, 1.0);
        let mixed = allocate_victim_throughput(&[0.0], &[None, probe(0, 2e-6, 9.0)], &offload, 1.0);
        assert_eq!(mixed, vec![0.0, alone[0]]);
    }

    #[test]
    fn per_attacker_attribution_sums_to_total() {
        let schema = FieldSchema::ovs_ipv4();
        let scenario = Scenario::SpDp;
        let source = |label, rate, start, count| {
            let keys = scenario.key_iter(&schema, &schema.zero_value()).cycle();
            let rng = StdRng::seed_from_u64(1);
            AttackGenerator::new(label, &schema, keys, rng, rate, start).with_limit(count)
        };
        let mut runner = ExperimentRunner::new(
            Datapath::new(scenario.flow_table(&schema)),
            vec![],
            OffloadConfig::gro_off(),
        );
        let mix = TrafficMix::new()
            .with(source("atk-1", 100.0, 5.0, 500))
            .with(source("atk-2", 200.0, 10.0, 600));
        let tl = runner.run_mix(mix, 20.0);
        assert_eq!(tl.attacker_names, vec!["atk-1", "atk-2"]);
        let mut delivered = [0.0f64; 2];
        for s in &tl.samples {
            assert_eq!(s.attacker_pps_by_source.len(), 2);
            let sum: f64 = s.attacker_pps_by_source.iter().sum();
            assert!((sum - s.attacker_pps).abs() < 1e-9);
            delivered[0] += s.attacker_pps_by_source[0];
            delivered[1] += s.attacker_pps_by_source[1];
        }
        assert_eq!(delivered[0].round() as u64, 500);
        assert_eq!(delivered[1].round() as u64, 600);
        // atk-2 only starts at t=10 s.
        assert_eq!(tl.mean_attacker_pps_between("atk-2", 0.0, 10.0), 0.0);
        assert!(tl.mean_attacker_pps_between("atk-2", 10.0, 13.0) > 100.0);
    }
}
