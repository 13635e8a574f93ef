//! The composable mitigation pipeline: an ordered stack of [`Mitigation`]s the
//! experiment runner invokes once per sample interval.
//!
//! The paper's §8 ships exactly one countermeasure (MFCGuard), and until this module
//! existed the runner hard-wired it as an `Option<MfcGuard>` — every other defense the
//! multi-PMD datapath makes possible (RSS hash-key rotation against shard-pinned
//! explosions, per-shard upcall governance, mask-pressure caps) had nowhere to plug in.
//! [`Mitigation`] is that seam: a defense observes one interval's worth of per-shard
//! telemetry through a [`MitigationCtx`], mutates the [`ShardedDatapath`] through the
//! same public interface the real tools use (`ovs-dpctl del-flow`, NIC re-configuration,
//! handler quotas), and reports what it did as [`MitigationAction`]s that land in the
//! timeline for attribution.
//!
//! Defenses compose in an ordered [`MitigationStack`]; order is observable (an eviction
//! pass sees the cache state left by the stage before it), so two stacks with the same
//! members in different orders legitimately produce different action logs. Everything
//! is deterministic: the same experiment with the same stack yields the same actions.
//! Stages run strictly in pipeline order, but *within* a stage per-shard work is free
//! to fan out through the datapath's `ShardExecutor`
//! (`ShardedDatapath::for_each_shard_with` — the per-shard guard sweeps do), so
//! executor selection on the runner/datapath propagates into the defense pipeline
//! without the stack needing its own threading knobs; action logs stay bit-for-bit
//! executor-independent.
//!
//! # Cost-model assumptions
//!
//! Mitigations run *between* sample intervals and are not charged against the shard CPU
//! budgets: sweeps and re-keying model management-plane work (`ovs-dpctl`, PF driver
//! ioctls) executed off the PMD cores. The costs they *induce* are modelled where they
//! land — packets denied a megaflow install by [`UpcallLimiter`](crate::UpcallLimiter)
//! keep paying the slow-path price per packet, entries evicted by
//! [`MaskCap`](crate::MaskCap) or the guard re-spark through upcalls (unless
//! suppressed), and a rekey strands cached entries on their old shard until the idle
//! timeout collects them.

use std::collections::VecDeque;

use tse_switch::pmd::ShardedDatapath;

use crate::guard::GuardReport;

/// A bounded ring of the last few intervals' per-shard attack rates — the "recent
/// window" adaptive mitigations read to decide whether the switch is under pressure.
///
/// The telemetry layer (the runner's `TelemetryStore`) pushes one row per sample
/// interval, keeping at most `depth` rows; a detached window (depth 0, never pushed)
/// reads as "no pressure anywhere", so stages that gate on pressure are inert when
/// driven by a consumer that does not track it. Everything is plain streaming
/// arithmetic over the retained rows: deterministic, allocation-bounded, executor-
/// independent.
#[derive(Debug, Clone, PartialEq)]
pub struct PressureWindow {
    depth: usize,
    shard_count: usize,
    rows: VecDeque<Vec<f64>>,
}

impl PressureWindow {
    /// A window retaining the last `depth` intervals for `shard_count` shards.
    pub fn new(shard_count: usize, depth: usize) -> Self {
        PressureWindow {
            depth,
            shard_count,
            rows: VecDeque::new(),
        }
    }

    /// A depth-0 window that never reports pressure — the default for consumers that
    /// do not track telemetry (e.g. driving a stack by hand in tests).
    pub const fn detached() -> Self {
        PressureWindow {
            depth: 0,
            shard_count: 0,
            rows: VecDeque::new(),
        }
    }

    /// Record one interval's per-shard attack packets-per-second row. Slices shorter
    /// or longer than the window's shard count are truncated/zero-padded defensively.
    /// A depth-0 window discards the row.
    pub fn push(&mut self, shard_attack_pps: &[f64]) {
        if self.depth == 0 {
            return;
        }
        let mut row = vec![0.0; self.shard_count];
        for (slot, v) in row.iter_mut().zip(shard_attack_pps) {
            *slot = *v;
        }
        if self.rows.len() == self.depth {
            self.rows.pop_front();
        }
        self.rows.push_back(row);
    }

    /// Number of intervals currently retained (0 ≤ len ≤ depth).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no intervals have been recorded (always true for a detached window).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Maximum number of intervals the window retains.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of shards each row covers.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Mean attack pps on `shard` over the retained intervals (0.0 when empty or out
    /// of range).
    pub fn shard_mean(&self, shard: usize) -> f64 {
        if self.rows.is_empty() || shard >= self.shard_count {
            return 0.0;
        }
        let sum: f64 = self.rows.iter().map(|r| r[shard]).sum();
        sum / self.rows.len() as f64
    }

    /// The largest per-shard windowed mean — "how hard is the hottest shard being
    /// pushed, smoothed over the window". The usual trigger for adaptive stages.
    pub fn hottest_shard_mean(&self) -> f64 {
        (0..self.shard_count)
            .map(|s| self.shard_mean(s))
            .fold(0.0, f64::max)
    }
}

/// One sample interval's view of the experiment, handed to every mitigation in the
/// stack. All slices have one element per datapath shard.
#[derive(Debug)]
pub struct MitigationCtx<'a> {
    /// The (possibly sharded) datapath under defense. Mitigations mutate it through
    /// its public per-shard interface.
    pub datapath: &'a mut ShardedDatapath,
    /// End of the sample interval just measured, in simulation seconds.
    pub now: f64,
    /// Length of the sample interval, seconds. Each shard's CPU budget for the
    /// interval is exactly `dt` seconds of core time.
    pub dt: f64,
    /// Attack packets per second delivered to each shard during the interval.
    pub shard_attack_pps: &'a [f64],
    /// All packets per second (attack events plus victim probes) processed by each
    /// shard during the interval.
    pub shard_delivered_pps: &'a [f64],
    /// CPU seconds each shard spent during the interval on every packet it replayed —
    /// attack and background alike — plus, on shard 0, the malformed frames charged
    /// to it (out of its `dt`-second budget; the remainder went to victim traffic).
    pub shard_busy_seconds: &'a [f64],
    /// Smoothed attack pressure over the last few intervals, maintained by the
    /// telemetry store. Adaptive stages gate on this instead of the single-interval
    /// slices above; it reads as zero pressure when the consumer does not track it
    /// ([`PressureWindow::detached`]).
    pub pressure: &'a PressureWindow,
}

impl MitigationCtx<'_> {
    /// Number of datapath shards (PMD threads).
    pub fn shard_count(&self) -> usize {
        self.datapath.shard_count()
    }
}

/// What a mitigation did during one sample interval — recorded in the timeline
/// (`TimelineSample::mitigation_actions`) so a figure can attribute cache shrinkage,
/// steering changes or install throttling to the defense that caused them.
#[derive(Debug, Clone, PartialEq)]
pub enum MitigationAction {
    /// An MFCGuard pass ran on one shard (the report carries the shard id, mask
    /// before/after counts and the balancing-exit outcome).
    GuardSweep(GuardReport),
    /// The RSS hash key was rotated — switch-wide: every shard's steering changed at
    /// once.
    Rekeyed {
        /// Simulation time of the rotation.
        time: f64,
        /// The key that was in effect before.
        old_key: u64,
        /// The key in effect from now on.
        new_key: u64,
    },
    /// A shard's megaflow-install quota denied upcall installs during the interval.
    UpcallsClamped {
        /// The shard whose slow path hit its quota.
        shard: usize,
        /// Upcalls answered without an install this interval.
        denied: u64,
        /// The per-interval install quota in force.
        quota: u64,
    },
    /// A shard exceeded the mask ceiling and its lowest-hit masks were evicted.
    MaskCapped {
        /// The shard that was over the ceiling.
        shard: usize,
        /// Number of masks evicted (enough to return to the ceiling).
        masks_evicted: usize,
        /// Megaflow entries removed along with those masks.
        entries_removed: usize,
        /// The ceiling in force.
        ceiling: usize,
    },
}

impl MitigationAction {
    /// The shard this action applies to, or `None` for switch-wide actions (a rekey
    /// re-steers every shard at once).
    pub fn shard(&self) -> Option<usize> {
        match self {
            MitigationAction::GuardSweep(report) => Some(report.shard),
            MitigationAction::Rekeyed { .. } => None,
            MitigationAction::UpcallsClamped { shard, .. }
            | MitigationAction::MaskCapped { shard, .. } => Some(*shard),
        }
    }
}

/// A countermeasure that runs once per sample interval against the datapath under
/// attack.
///
/// Implementations observe per-shard telemetry through the [`MitigationCtx`], mutate
/// the datapath, and return the [`MitigationAction`]s describing what they did (empty
/// when the interval needed no intervention). They must be deterministic: any
/// randomness (e.g. the rekeying schedule) is derived from seeds fixed at
/// construction, so a rerun of the same experiment reproduces the same action log.
///
/// Stages are stored as `Box<dyn Mitigation + Send>`, so a stack — and the
/// experiment runner holding one — can cross threads alongside the sharded datapath it
/// defends (the compile-time audit in `tests/send_audit.rs` covers this).
pub trait Mitigation {
    /// Short human-readable name for reports and stack listings.
    fn name(&self) -> &str;

    /// Called once before the first sample interval, with `ctx.now == 0` and zeroed
    /// telemetry — the place to arm per-shard state that must be in force *during*
    /// the first interval (e.g. install quotas). Defaults to doing nothing.
    fn on_start(&mut self, ctx: &mut MitigationCtx<'_>) {
        let _ = ctx;
    }

    /// Called once at the end of every sample interval, after throughput accounting.
    /// Returns the actions taken (possibly none).
    fn on_sample(&mut self, ctx: &mut MitigationCtx<'_>) -> Vec<MitigationAction>;

    /// Called once after the final sample interval — the place to disarm per-shard
    /// state the mitigation installed into the datapath (e.g. install quotas), so the
    /// datapath leaves the run undefended exactly as it entered it. Defaults to doing
    /// nothing.
    fn on_finish(&mut self, ctx: &mut MitigationCtx<'_>) {
        let _ = ctx;
    }
}

/// An ordered stack of boxed [`Mitigation`]s — the runner's defense pipeline.
///
/// Stages run strictly in insertion order each interval, and each stage sees the
/// datapath as left by the stages before it, so ordering is part of the configuration:
/// `guard → rekey` sweeps the caches the attack actually filled, while `rekey → guard`
/// sweeps them after the steering already moved. The combined action log preserves
/// stage order within the interval.
#[derive(Default)]
pub struct MitigationStack {
    stages: Vec<Box<dyn Mitigation + Send>>,
}

impl MitigationStack {
    /// An empty stack (no defense; the runner's default).
    pub fn new() -> Self {
        MitigationStack { stages: Vec::new() }
    }

    /// Append a mitigation to the end of the pipeline.
    pub fn push(&mut self, mitigation: impl Mitigation + Send + 'static) {
        self.stages.push(Box::new(mitigation));
    }

    /// Builder form of [`MitigationStack::push`].
    pub fn with(mut self, mitigation: impl Mitigation + Send + 'static) -> Self {
        self.push(mitigation);
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the stack has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage names, in pipeline order.
    pub fn names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Run every stage's [`Mitigation::on_start`] hook, in order.
    pub fn on_start(&mut self, ctx: &mut MitigationCtx<'_>) {
        for stage in &mut self.stages {
            stage.on_start(ctx);
        }
    }

    /// Run every stage in order and concatenate their actions.
    pub fn on_sample(&mut self, ctx: &mut MitigationCtx<'_>) -> Vec<MitigationAction> {
        let mut actions = Vec::new();
        for stage in &mut self.stages {
            actions.extend(stage.on_sample(ctx));
        }
        actions
    }

    /// Run every stage's [`Mitigation::on_finish`] hook, in order.
    pub fn on_finish(&mut self, ctx: &mut MitigationCtx<'_>) {
        for stage in &mut self.stages {
            stage.on_finish(ctx);
        }
    }
}

impl std::fmt::Debug for MitigationStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MitigationStack")
            .field(&self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_classifier::flowtable::FlowTable;
    use tse_packet::fields::FieldSchema;
    use tse_switch::pmd::Steering;

    /// A test mitigation that logs a rekey-shaped action every call.
    struct Tattle(u64);

    impl Mitigation for Tattle {
        fn name(&self) -> &str {
            "tattle"
        }
        fn on_sample(&mut self, ctx: &mut MitigationCtx<'_>) -> Vec<MitigationAction> {
            vec![MitigationAction::Rekeyed {
                time: ctx.now,
                old_key: self.0,
                new_key: self.0 + 1,
            }]
        }
    }

    fn ctx_fixture() -> ShardedDatapath {
        let schema = FieldSchema::ovs_ipv4();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        ShardedDatapath::new(
            FlowTable::whitelist_default_deny(&schema, &[(tp_dst, 80)]),
            2,
            Steering::Rss,
        )
    }

    #[test]
    fn stack_runs_stages_in_order() {
        let mut datapath = ctx_fixture();
        let mut stack: MitigationStack = MitigationStack::new().with(Tattle(10)).with(Tattle(20));
        assert_eq!(stack.names(), vec!["tattle", "tattle"]);
        assert_eq!(stack.len(), 2);
        let zeros = [0.0, 0.0];
        let pressure = PressureWindow::detached();
        let mut ctx = MitigationCtx {
            datapath: &mut datapath,
            now: 1.0,
            dt: 1.0,
            shard_attack_pps: &zeros,
            shard_delivered_pps: &zeros,
            shard_busy_seconds: &zeros,
            pressure: &pressure,
        };
        assert_eq!(ctx.shard_count(), 2);
        let actions = stack.on_sample(&mut ctx);
        assert_eq!(
            actions,
            vec![
                MitigationAction::Rekeyed {
                    time: 1.0,
                    old_key: 10,
                    new_key: 11
                },
                MitigationAction::Rekeyed {
                    time: 1.0,
                    old_key: 20,
                    new_key: 21
                },
            ]
        );
    }

    #[test]
    fn empty_stack_is_a_no_op() {
        let mut datapath = ctx_fixture();
        let mut stack: MitigationStack = MitigationStack::new();
        assert!(stack.is_empty());
        let zeros = [0.0, 0.0];
        let pressure = PressureWindow::detached();
        let mut ctx = MitigationCtx {
            datapath: &mut datapath,
            now: 1.0,
            dt: 1.0,
            shard_attack_pps: &zeros,
            shard_delivered_pps: &zeros,
            shard_busy_seconds: &zeros,
            pressure: &pressure,
        };
        stack.on_start(&mut ctx);
        assert!(stack.on_sample(&mut ctx).is_empty());
    }

    #[test]
    fn pressure_window_is_bounded_and_streaming() {
        let mut w = PressureWindow::new(2, 3);
        assert!(w.is_empty());
        assert_eq!(w.hottest_shard_mean(), 0.0);
        w.push(&[10.0, 0.0]);
        w.push(&[20.0, 2.0]);
        w.push(&[30.0, 4.0]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.shard_mean(0), 20.0);
        assert_eq!(w.shard_mean(1), 2.0);
        assert_eq!(w.hottest_shard_mean(), 20.0);
        // A fourth push ages out the first row: the window stays depth-bounded.
        w.push(&[40.0, 6.0]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.shard_mean(0), 30.0);
        // Out-of-range shard and short rows are defensive, not panics.
        assert_eq!(w.shard_mean(7), 0.0);
        w.push(&[1.0]);
        assert_eq!(w.len(), 3);
        // Detached windows never retain anything.
        let mut d = PressureWindow::detached();
        d.push(&[100.0, 100.0]);
        assert!(d.is_empty());
        assert_eq!(d.hottest_shard_mean(), 0.0);
    }

    #[test]
    fn action_shard_attribution() {
        let sweep = MitigationAction::GuardSweep(GuardReport {
            time: 1.0,
            shard: 3,
            masks_before: 10,
            masks_after: 5,
            entries_removed: 5,
            projected_cpu_percent: 1.0,
            stopped_by_cpu: false,
        });
        assert_eq!(sweep.shard(), Some(3));
        assert_eq!(
            MitigationAction::Rekeyed {
                time: 0.0,
                old_key: 0,
                new_key: 1
            }
            .shard(),
            None
        );
        assert_eq!(
            MitigationAction::UpcallsClamped {
                shard: 1,
                denied: 2,
                quota: 3
            }
            .shard(),
            Some(1)
        );
        assert_eq!(
            MitigationAction::MaskCapped {
                shard: 2,
                masks_evicted: 1,
                entries_removed: 1,
                ceiling: 64
            }
            .shard(),
            Some(2)
        );
    }
}
