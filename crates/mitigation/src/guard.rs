//! MFCGuard — the short-term mitigation of §8 (Algorithm 2).
//!
//! Every `interval` seconds (10 s, matching the MFC eviction cadence) the guard checks
//! the number of megaflow masks. If it exceeds `mask_threshold`, it scans the cache for
//! TSE-patterned entries and removes them — but **only entries with a drop action**
//! (requirement (i)), so traffic that is eventually allowed keeps its fast path. Removal
//! stops early if the projected slow-path CPU utilisation reaches `cpu_threshold`
//! (requirement (ii) / the balancing exit of Alg. 2).
//!
//! The reproduction also models the undocumented OVS behaviour the authors observed:
//! entries wiped by the guard are not re-sparked by the slow path (the corresponding
//! deny rules are *suppressed*), so adversarial packets keep paying the slow-path price
//! while the victim's fast path stays clean.

use tse_classifier::rule::Action;
use tse_switch::datapath::Datapath;

use crate::cpu_model;
use crate::pattern::{allow_exact_fields, examines_target_field};
use crate::stack::{Mitigation, MitigationAction, MitigationCtx};

/// MFCGuard configuration: the cadence and the two thresholds of Alg. 2. A pass that
/// wipes entries always suppresses the deny rules behind them (the observed OVS
/// behaviour, see the module doc), so that part of a pass has no setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Run the check every this many seconds (Alg. 2 line 1).
    pub interval: f64,
    /// Mask-count threshold `m_th` above which cleaning starts.
    pub mask_threshold: usize,
    /// Slow-path CPU utilisation threshold `c_th` (percent) at which cleaning stops.
    pub cpu_threshold: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            interval: 10.0,
            mask_threshold: 50,
            cpu_threshold: 200.0,
        }
    }
}

/// Report of one guard pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardReport {
    /// Simulation time of the pass.
    pub time: f64,
    /// Datapath shard the pass ran on (0 for the monolithic datapath).
    pub shard: usize,
    /// Mask count before cleaning.
    pub masks_before: usize,
    /// Mask count after cleaning.
    pub masks_after: usize,
    /// Number of megaflow entries removed.
    pub entries_removed: usize,
    /// Projected slow-path CPU utilisation (percent) given the observed attack rate.
    pub projected_cpu_percent: f64,
    /// Whether cleaning stopped early because of the CPU threshold.
    pub stopped_by_cpu: bool,
}

/// The MFCGuard monitor.
#[derive(Debug, Clone)]
pub struct MfcGuard {
    config: GuardConfig,
    last_run: Option<f64>,
}

impl MfcGuard {
    /// Create a guard with the given configuration.
    pub fn new(config: GuardConfig) -> Self {
        MfcGuard {
            config,
            last_run: None,
        }
    }

    /// Reset the interval gate, as if the guard had never run: the next
    /// [`MfcGuard::maybe_run_on_shard`] call fires regardless of how recently the
    /// previous run's last pass was. Used when a guard is re-armed for a new experiment
    /// whose clock restarts at zero.
    pub(crate) fn reset_interval_gate(&mut self) {
        self.last_run = None;
    }

    /// The shared interval gate: true (and the clock is advanced) when a pass is due.
    fn interval_elapsed(&mut self, now: f64) -> bool {
        if let Some(last) = self.last_run {
            if now - last < self.config.interval {
                return false;
            }
        }
        self.last_run = Some(now);
        true
    }

    /// Run one guard pass unconditionally (Alg. 2 lines 2–14).
    pub fn run_once(
        &mut self,
        datapath: &mut Datapath,
        now: f64,
        observed_attack_pps: f64,
    ) -> GuardReport {
        self.run_pass(datapath, now, observed_attack_pps, 0)
    }

    /// Interval-gated pass over one shard's datapath, recorded under `shard`.
    /// `observed_attack_pps` is the measured rate of packets currently missing the fast
    /// path (what `top` shows translated to a rate); it drives the projected-CPU exit
    /// condition.
    ///
    /// The sweep removes entries from the shard's megaflow cache. Behind a §7 classifier
    /// that cache stays empty, so its mask count never crosses the threshold and the pass
    /// leaves the datapath untouched.
    ///
    /// This is the building block [`GuardMitigation`] uses to run one *independently
    /// configured* guard per shard, each with its own cadence and thresholds: a sharded
    /// datapath is guarded by one `MfcGuard` per shard, not by one guard over all of
    /// them.
    pub(crate) fn maybe_run_on_shard(
        &mut self,
        datapath: &mut Datapath,
        now: f64,
        observed_attack_pps: f64,
        shard: usize,
    ) -> Option<GuardReport> {
        if !self.interval_elapsed(now) {
            return None;
        }
        Some(self.run_pass(datapath, now, observed_attack_pps, shard))
    }

    /// One guard pass over one (shard's) datapath, recorded under `shard`.
    fn run_pass(
        &self,
        datapath: &mut Datapath,
        now: f64,
        observed_attack_pps: f64,
        shard: usize,
    ) -> GuardReport {
        let masks_before = datapath.mask_count();
        let projected_cpu = cpu_model::utilization_percent(observed_attack_pps);
        let mut entries_removed = 0;
        let mut stopped_by_cpu = false;

        if masks_before > self.config.mask_threshold {
            if projected_cpu >= self.config.cpu_threshold {
                // Wiping would push the slow path past the budget: leave the cache alone
                // (the system is "balanced" in Alg. 2's terms).
                stopped_by_cpu = true;
            } else {
                // Remove every TSE-patterned drop entry. Requirement (i): only deny
                // entries are ever touched. What the sweep needs of the table is read
                // once, before the cache and slow path are borrowed mutably.
                let table = datapath.table();
                let target_fields = allow_exact_fields(table);
                let deny_rules: Vec<usize> = (0..table.len())
                    .filter(|&i| table.rules()[i].action == Action::Deny)
                    .collect();
                entries_removed = datapath
                    .megaflow_mut()
                    .remove_where(|entry| examines_target_field(entry, &target_fields));
                for r in deny_rules {
                    datapath.slow_path_mut().suppress_rule(r);
                }
            }
        }

        GuardReport {
            time: now,
            shard,
            masks_before,
            masks_after: datapath.mask_count(),
            entries_removed,
            projected_cpu_percent: projected_cpu,
            stopped_by_cpu,
        }
    }
}

/// MFCGuard as a [`Mitigation`] stage: one guard instance **per shard**, each with its
/// own configuration (interval, mask threshold, CPU budget) and its own interval
/// gating.
///
/// By default every shard runs under the same [`GuardConfig`];
/// [`GuardMitigation::with_shard_config`] overrides individual shards — e.g. a tighter
/// mask threshold on the PMD that carries a latency-critical tenant, or a disabled
/// guard (`mask_threshold: usize::MAX`) on a shard reserved for bulk traffic. Every
/// pass surfaces its [`GuardReport`] as a
/// [`MitigationAction::GuardSweep`], so per-shard guard activity is attributable in
/// the timeline. A sweep suppresses the deny rules it wiped on its own shard's slow
/// path only, so an override changes when and whether a shard is swept, never what a
/// sweep does.
///
/// With a uniform config this is behaviourally identical to the pre-stack runner's
/// hard-wired guard hook, which swept every shard under one shared interval gate
/// (pinned by the guarded runs of `tests/golden_runner_parity.rs`, recorded while a frozen
/// copy of that hook still ran beside the stage): per-shard gating fires at
/// exactly the times the shared gate did, because every shard observes the same clock.
pub struct GuardMitigation {
    default_config: GuardConfig,
    overrides: Vec<(usize, GuardConfig)>,
    /// One guard per shard, created on the first hook call (when the shard count is
    /// first observable).
    guards: Vec<MfcGuard>,
}

impl GuardMitigation {
    /// Guard every shard under `config`.
    pub fn new(config: GuardConfig) -> Self {
        GuardMitigation {
            default_config: config,
            overrides: Vec::new(),
            guards: Vec::new(),
        }
    }

    /// Override the configuration of one shard (builder form; the last override for a
    /// shard wins). Must be called before the first sample. An override for a shard
    /// the datapath does not have panics at the stage's first hook.
    pub fn with_shard_config(mut self, shard: usize, config: GuardConfig) -> Self {
        assert!(
            self.guards.is_empty(),
            "shard overrides must be configured before the first sample"
        );
        self.overrides.retain(|(s, _)| *s != shard);
        self.overrides.push((shard, config));
        self
    }

    /// The configuration shard `shard` runs under.
    pub fn config_for(&self, shard: usize) -> GuardConfig {
        self.overrides
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|(_, c)| *c)
            .unwrap_or(self.default_config)
    }

    /// Build one guard per shard on first use.
    ///
    /// # Panics
    /// Panics if an override names a shard the datapath does not have, naming the
    /// shard and the shard count: that shard's config would otherwise never apply.
    fn ensure_guards(&mut self, n_shards: usize) {
        if self.guards.len() != n_shards {
            for &(shard, _) in &self.overrides {
                assert!(
                    shard < n_shards,
                    "guard override for shard {shard}, but the datapath has {n_shards} shards"
                );
            }
            self.guards = (0..n_shards)
                .map(|s| MfcGuard::new(self.config_for(s)))
                .collect();
        }
    }
}

impl Mitigation for GuardMitigation {
    fn name(&self) -> &str {
        "mfcguard"
    }

    fn on_start(&mut self, ctx: &mut MitigationCtx<'_>) {
        // A new run's clock restarts at zero: reset every per-shard guard's interval
        // gate so a reused runner is defended from the first interval, not gated off
        // by the previous run's final pass time.
        self.ensure_guards(ctx.shard_count());
        for guard in &mut self.guards {
            guard.reset_interval_gate();
        }
    }

    fn on_sample(&mut self, ctx: &mut MitigationCtx<'_>) -> Vec<MitigationAction> {
        let n = ctx.shard_count();
        assert_eq!(ctx.shard_attack_pps.len(), n);
        self.ensure_guards(n);
        // Each shard's sweep pairs the shard with its own guard and runs through the
        // datapath's ShardExecutor: with a thread-pool executor the per-shard passes
        // proceed in parallel, and the reports still come back in shard order, so the
        // action log is identical to the sequential walk's.
        let now = ctx.now;
        let pps = ctx.shard_attack_pps;
        ctx.datapath
            .for_each_shard_with(&mut self.guards, |shard, dp, guard| {
                guard.maybe_run_on_shard(dp, now, pps[shard], shard)
            })
            .into_iter()
            .flatten()
            .map(MitigationAction::GuardSweep)
            .collect()
    }
}

impl std::fmt::Debug for GuardMitigation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardMitigation")
            .field("default_config", &self.default_config)
            .field("overrides", &self.overrides)
            .field("shards", &self.guards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_attack::scenarios::Scenario;
    use tse_classifier::flowtable::FlowTable;
    use tse_classifier::rule::{Action, Rule};
    use tse_packet::fields::FieldSchema;
    use tse_switch::datapath::Datapath;

    /// Build a datapath under a Dp/SipDp-style attack with the victim's allow entry
    /// installed.
    fn attacked_datapath(scenario: Scenario) -> (Datapath, tse_packet::fields::Key) {
        let schema = FieldSchema::ovs_ipv4();
        let table = scenario.flow_table(&schema);
        let mut dp = Datapath::new(table);
        // Victim: dst port 80 (allowed by rule #1).
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let mut victim = schema.zero_value();
        victim.set(tp_dst, 80);
        dp.process_key(&victim, 1500, 0.0);
        // Attack trace.
        for (i, h) in scenario.key_iter(&schema, &schema.zero_value()).enumerate() {
            dp.process_key(&h, 60, 0.1 + i as f64 * 1e-3);
        }
        (dp, victim)
    }

    #[test]
    fn guard_cleans_attack_masks_but_keeps_victim_entry() {
        let (mut dp, victim) = attacked_datapath(Scenario::SpDp);
        let before = dp.mask_count();
        assert!(
            before > 50,
            "attack should have exploded the tuple space: {before}"
        );
        let mut guard = MfcGuard::new(GuardConfig::default());
        let report = guard.run_once(&mut dp, 1.0, 100.0);
        assert_eq!(report.masks_before, before);
        // Only allow-side masks survive: the victim's plus the (at most w_i per field)
        // allow-decomposition masks — an order of magnitude below the attack's product.
        assert!(
            report.masks_after <= 20 && report.masks_after < before / 5,
            "deny masks should be wiped: {} -> {}",
            report.masks_before,
            report.masks_after
        );
        assert!(report.entries_removed > 50);
        // The victim still hits the fast path, now scanning only the few allow masks.
        let outcome = dp.process_key(&victim, 1500, 1.1);
        assert_eq!(outcome.action, Action::Allow);
        assert!(outcome.masks_scanned <= report.masks_after);
    }

    #[test]
    fn guard_respects_interval() {
        let (mut dp, _) = attacked_datapath(Scenario::Dp);
        let mut guard = MfcGuard::new(GuardConfig {
            interval: 10.0,
            ..GuardConfig::default()
        });
        let passes = [0.0, 5.0, 10.5].map(|t| guard.maybe_run_on_shard(&mut dp, t, 100.0, 0));
        assert!(passes[0].is_some());
        assert!(passes[1].is_none());
        assert!(passes[2].is_some());
        assert_eq!(passes.iter().flatten().count(), 2);
    }

    #[test]
    fn guard_idles_below_mask_threshold() {
        let (mut dp, _) = attacked_datapath(Scenario::Dp); // only ~16 masks
        let mut guard = MfcGuard::new(GuardConfig {
            mask_threshold: 50,
            ..GuardConfig::default()
        });
        let report = guard.run_once(&mut dp, 0.0, 100.0);
        assert_eq!(report.entries_removed, 0);
        assert_eq!(report.masks_before, report.masks_after);
    }

    #[test]
    fn guard_stops_when_cpu_budget_exceeded() {
        let (mut dp, _) = attacked_datapath(Scenario::SpDp);
        let before = dp.mask_count();
        let mut guard = MfcGuard::new(GuardConfig {
            cpu_threshold: 50.0,
            ..GuardConfig::default()
        });
        // 20 kpps of attack would drive the slow path way past 50 %.
        let report = guard.run_once(&mut dp, 0.0, 20_000.0);
        assert!(report.stopped_by_cpu);
        assert_eq!(report.entries_removed, 0);
        assert_eq!(dp.mask_count(), before);
    }

    #[test]
    fn sharded_sweep_cleans_only_the_attacked_shard() {
        use tse_switch::pmd::{ShardedDatapath, Steering};
        let schema = FieldSchema::ovs_ipv4();
        let table = Scenario::SpDp.flow_table(&schema);
        // Pin everything to shard 1 of 3: only that shard's cache explodes.
        let mut sharded = ShardedDatapath::new(table, 3, Steering::Pinned(1));
        let keys = Scenario::SpDp.key_iter(&schema, &schema.zero_value());
        for (i, h) in keys.enumerate() {
            sharded.process_key(&h, 60, 0.1 + i as f64 * 1e-3);
        }
        assert!(sharded.shard(1).mask_count() > 50);
        // One guard per shard, each on its own shard's observed attack rate.
        let mut guards = vec![MfcGuard::new(GuardConfig::default()); 3];
        let pps = [0.0, 100.0, 0.0];
        let mut sweep = |sharded: &mut ShardedDatapath, now: f64| -> Vec<GuardReport> {
            (0..3)
                .filter_map(|s| guards[s].maybe_run_on_shard(sharded.shard_mut(s), now, pps[s], s))
                .collect()
        };
        let reports = sweep(&mut sharded, 1.0);
        assert_eq!(
            reports.iter().map(|r| r.shard).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Clean shards are below the mask threshold: untouched. The attacked shard is
        // swept under its own budget.
        assert_eq!(reports[0].entries_removed, 0);
        assert_eq!(reports[2].entries_removed, 0);
        assert!(reports[1].entries_removed > 50);
        assert!(sharded.shard(1).mask_count() < reports[1].masks_before / 5);
        // Every shard sees the same clock, so every gate holds until the interval has
        // elapsed.
        assert!(sweep(&mut sharded, 5.0).is_empty());
        assert_eq!(sweep(&mut sharded, 11.0).len(), 3);
    }

    #[test]
    fn guard_mitigation_applies_per_shard_configs() {
        use tse_switch::pmd::{ShardedDatapath, Steering};
        let schema = FieldSchema::ovs_ipv4();
        let table = Scenario::SpDp.flow_table(&schema);
        // Two shards, both exploded identically via pinned replays.
        let mut sharded = ShardedDatapath::new(table, 2, Steering::Pinned(0));
        let keys: Vec<_> = Scenario::SpDp
            .key_iter(&schema, &schema.zero_value())
            .collect();
        for (i, h) in keys.iter().enumerate() {
            sharded.process_key(h, 60, 0.1 + i as f64 * 1e-3);
        }
        // Replay the same keys onto shard 1 through its direct interface.
        for (i, h) in keys.iter().enumerate() {
            sharded
                .shard_mut(1)
                .process_key(h, 60, 0.1 + i as f64 * 1e-3);
        }
        assert!(sharded.shard(0).mask_count() > 50);
        assert_eq!(sharded.shard(0).mask_count(), sharded.shard(1).mask_count());

        // Shard 0 sweeps under the default config; shard 1's threshold is set above
        // its mask count, so its guard idles.
        let mut mitigation = GuardMitigation::new(GuardConfig::default()).with_shard_config(
            1,
            GuardConfig {
                mask_threshold: usize::MAX,
                ..GuardConfig::default()
            },
        );
        assert_eq!(mitigation.config_for(1).mask_threshold, usize::MAX);
        assert_eq!(
            mitigation.config_for(0).mask_threshold,
            GuardConfig::default().mask_threshold
        );
        let pps = [100.0, 100.0];
        let zeros = [0.0, 0.0];
        let pressure = crate::stack::PressureWindow::new(0, 0);
        let mut ctx = MitigationCtx {
            datapath: &mut sharded,
            now: 1.0,
            dt: 1.0,
            shard_attack_pps: &pps,
            shard_delivered_pps: &pps,
            shard_busy_seconds: &zeros,
            pressure: &pressure,
        };
        let actions = Mitigation::on_sample(&mut mitigation, &mut ctx);
        assert_eq!(actions.len(), 2, "one sweep report per shard");
        let reports: Vec<GuardReport> = actions
            .iter()
            .map(|a| match a {
                MitigationAction::GuardSweep(r) => *r,
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(reports[0].shard, 0);
        assert!(reports[0].entries_removed > 50, "default config sweeps");
        assert_eq!(reports[1].shard, 1);
        assert_eq!(reports[1].entries_removed, 0, "override idles shard 1");
        assert!(sharded.shard(0).mask_count() < sharded.shard(1).mask_count());
        assert_eq!(reports.len(), 2);

        // An override for a shard the datapath does not have is rejected on the first
        // hook, not dropped while the run goes on under the default config.
        let mut stray = GuardMitigation::new(GuardConfig::default()).with_shard_config(
            2,
            GuardConfig {
                mask_threshold: 0,
                ..GuardConfig::default()
            },
        );
        let mut ctx = MitigationCtx {
            datapath: &mut sharded,
            now: 2.0,
            dt: 1.0,
            shard_attack_pps: &pps,
            shard_delivered_pps: &pps,
            shard_busy_seconds: &zeros,
            pressure: &pressure,
        };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Mitigation::on_sample(&mut stray, &mut ctx)
        }))
        .expect_err("an override for shard 2 of a 2-shard datapath must panic");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("guard override for shard 2, but the datapath has 2 shards")
        );
    }

    #[test]
    fn suppression_keeps_attack_out_of_fast_path() {
        let (mut dp, _) = attacked_datapath(Scenario::SpDp);
        let schema = FieldSchema::ovs_ipv4();
        let mut guard = MfcGuard::new(GuardConfig::default());
        guard.run_once(&mut dp, 1.0, 100.0);
        let cleaned = dp.mask_count();
        // Replay the attack: with suppression the deny megaflows are not re-created.
        for (i, h) in Scenario::SpDp
            .key_iter(&schema, &schema.zero_value())
            .enumerate()
        {
            dp.process_key(&h, 60, 2.0 + i as f64 * 1e-3);
        }
        assert_eq!(
            dp.mask_count(),
            cleaned,
            "suppressed deny rules must not re-spark masks"
        );
        assert!(dp.slow_path().suppressed_upcalls() > 100);
    }

    #[test]
    fn suppression_follows_the_deny_rule_across_a_table_install() {
        // An ACL update that adds a clause in front of the DefaultDeny moves the deny
        // from index N to N + 1. The suppression must move with it: left on N, it would
        // name the new allow clause and let the attack's deny megaflows re-spark.
        let (mut dp, _) = attacked_datapath(Scenario::SpDp);
        let schema = FieldSchema::ovs_ipv4();
        MfcGuard::new(GuardConfig::default()).run_once(&mut dp, 1.0, 100.0);
        let deny = dp.table().len() - 1;
        assert_eq!(dp.slow_path().suppressed_rules(), &[deny]);

        let rules = dp.table().rules().to_vec();
        let mut update = FlowTable::new(schema.clone());
        for rule in &rules[..deny] {
            update.push(rule.clone());
        }
        let ip_src = schema.field_index("ip_src").unwrap();
        update.push(Rule::exact_on_field(
            &schema,
            ip_src,
            0x0a00_0009,
            5,
            Action::Allow,
        ));
        update.push(rules[deny].clone());
        dp.install_table(update);
        assert_eq!(dp.slow_path().suppressed_rules(), &[deny + 1]);
        assert_eq!(dp.table().rules()[deny + 1].action, Action::Deny);

        // The attack replayed against the updated table installs no deny megaflow.
        for (i, h) in Scenario::SpDp
            .key_iter(&schema, &schema.zero_value())
            .enumerate()
        {
            dp.process_key(&h, 60, 2.0 + i as f64 * 1e-3);
        }
        assert!(dp.megaflow().entries().all(|e| e.action == Action::Allow));
        assert!(dp.slow_path().suppressed_upcalls() > 100);

        // A table without the deny rule forgets the suppression.
        dp.install_table(FlowTable::new(schema));
        assert!(dp.slow_path().suppressed_rules().is_empty());
    }
}
