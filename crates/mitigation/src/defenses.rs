//! Mitigations beyond MFCGuard: RSS hash-key rotation, slow-path upcall governance,
//! and mask-pressure caps — the defenses the sharded multi-PMD datapath makes possible
//! and the composable [`Mitigation`] pipeline makes pluggable.

use crate::stack::{Mitigation, MitigationAction, MitigationCtx};

/// The rotation both rekey stages share: a deterministic SplitMix64 key sequence, the
/// at-most-once-per-`period` gate, and the restore-on-finish contract.
#[derive(Debug, Clone)]
struct KeyRotation {
    period: f64,
    state: u64,
    last_rotate: f64,
    /// The hash key in force when the run started ([`KeyRotation::start`]), restored
    /// by [`KeyRotation::finish`] so the rotation does not outlive the run.
    entry_key: Option<u64>,
}

impl KeyRotation {
    fn new(period: f64, seed: u64) -> Self {
        assert!(period > 0.0, "rekey period must be positive");
        KeyRotation {
            period,
            state: seed,
            last_rotate: 0.0,
            entry_key: None,
        }
    }

    /// Next key in the SplitMix64 sequence, skipping the reserved default key.
    fn next_key(&mut self) -> u64 {
        loop {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let key = tse_packet::rss::splitmix64_mix(self.state);
            if key != tse_packet::rss::DEFAULT_HASH_KEY {
                return key;
            }
        }
    }

    fn start(&mut self, ctx: &mut MitigationCtx<'_>) {
        // Re-anchor the schedule at the new run's t = 0 (a reused runner's previous
        // run would otherwise leave `last_rotate` past the whole horizon and the
        // stage silently inert), and remember the entry key for restoration.
        self.last_rotate = 0.0;
        self.entry_key = Some(ctx.datapath.hash_key());
    }

    /// Rotate to the next key unless the last rotation is less than `period` ago.
    fn rotate_if_due(&mut self, ctx: &mut MitigationCtx<'_>) -> Vec<MitigationAction> {
        if ctx.now - self.last_rotate < self.period {
            return Vec::new();
        }
        self.last_rotate = ctx.now;
        let old_key = ctx.datapath.hash_key();
        let new_key = self.next_key();
        ctx.datapath.rekey(new_key);
        vec![MitigationAction::Rekeyed {
            time: ctx.now,
            old_key,
            new_key,
        }]
    }

    fn finish(&mut self, ctx: &mut MitigationCtx<'_>) {
        // Restore the entry key: steering must not outlive the run on a reused
        // datapath (stranded cache entries still age out on their own, exactly like
        // after any mid-run rotation). Driven without `start`, there is nothing to
        // restore to and the rotated key stays — the pre-hook behaviour.
        if let Some(key) = self.entry_key.take() {
            ctx.datapath.rekey(key);
        }
    }
}

/// Pressure-gated RSS hash-key rotation: rotates like [`RssKeyRandomizer`], but only
/// while the telemetry window ([`MitigationCtx::pressure`]) shows a shard under
/// sustained attack — the benign path never pays the re-homing upcalls a blind
/// periodic rotation charges every flow.
///
/// The trigger is the hottest shard's windowed-mean attack rate
/// ([`crate::stack::PressureWindow::hottest_shard_mean`]) crossing `threshold_pps`.
/// When triggered, the stage rotates at most once per `period` seconds (the first
/// rotation fires in the first triggered interval at least `period` after the last
/// rotation, so a fresh attack is answered within one sample). Keys come from the same
/// deterministic SplitMix64 sequence as [`RssKeyRandomizer`]; driven through a
/// depth-0 or empty pressure window the stage is provably inert.
#[derive(Debug, Clone)]
pub struct AdaptiveRekey {
    rotation: KeyRotation,
    threshold_pps: f64,
}

impl AdaptiveRekey {
    /// Rotate at most every `period` seconds while the hottest shard's windowed mean
    /// attack rate is at least `threshold_pps`, drawing keys from a deterministic
    /// sequence seeded by `seed`.
    ///
    /// # Panics
    /// Panics if `period` or `threshold_pps` is not positive.
    pub fn new(period: f64, threshold_pps: f64, seed: u64) -> Self {
        assert!(threshold_pps > 0.0, "pressure threshold must be positive");
        AdaptiveRekey {
            rotation: KeyRotation::new(period, seed),
            threshold_pps,
        }
    }

    /// The minimum spacing between rotations, seconds.
    pub fn period(&self) -> f64 {
        self.rotation.period
    }

    /// The windowed-mean attack rate (pps, hottest shard) that arms the rotation.
    pub fn threshold_pps(&self) -> f64 {
        self.threshold_pps
    }
}

impl Mitigation for AdaptiveRekey {
    fn name(&self) -> &str {
        "adaptive-rekey"
    }

    fn on_start(&mut self, ctx: &mut MitigationCtx<'_>) {
        self.rotation.start(ctx);
    }

    fn on_sample(&mut self, ctx: &mut MitigationCtx<'_>) -> Vec<MitigationAction> {
        if ctx.pressure.hottest_shard_mean() < self.threshold_pps {
            return Vec::new();
        }
        self.rotation.rotate_if_due(ctx)
    }

    fn on_finish(&mut self, ctx: &mut MitigationCtx<'_>) {
        self.rotation.finish(ctx);
    }
}

/// Periodically rotates the datapath's RSS hash key
/// ([`ShardedDatapath::rekey`](tse_switch::pmd::ShardedDatapath::rekey)), defeating
/// *shard-pinned* explosions: an attacker who retagged her 5-tuples to land on a
/// chosen PMD under the old key (`pin_to_shard`) finds them scattered pseudo-randomly
/// under the new one — her per-shard blast radius degrades from "the whole explosion
/// on the victim's cache" to roughly a 1/N spray she cannot aim.
///
/// The rotation schedule is deterministic: keys come from a SplitMix64 sequence seeded
/// at construction, and the first rotation fires at the first sample whose time is at
/// least `period` (then every `period` seconds). Rekeying changes placement only;
/// entries cached under the old key stay on their shard until the idle timeout
/// collects them (see the module docs of [`crate::stack`] for the cost model), and
/// benign flows simply re-home to their new shard, paying one slow-path upcall there.
/// The hash key in force when the run started ([`Mitigation::on_start`]) is restored by
/// [`Mitigation::on_finish`].
#[derive(Debug, Clone)]
pub struct RssKeyRandomizer {
    rotation: KeyRotation,
}

impl RssKeyRandomizer {
    /// Rotate every `period` seconds, drawing keys from a deterministic sequence
    /// seeded by `seed`.
    ///
    /// # Panics
    /// Panics if `period` is not positive.
    pub fn new(period: f64, seed: u64) -> Self {
        RssKeyRandomizer {
            rotation: KeyRotation::new(period, seed),
        }
    }

    /// The rotation period, seconds.
    pub fn period(&self) -> f64 {
        self.rotation.period
    }
}

impl Mitigation for RssKeyRandomizer {
    fn name(&self) -> &str {
        "rss-rekey"
    }

    fn on_start(&mut self, ctx: &mut MitigationCtx<'_>) {
        self.rotation.start(ctx);
    }

    fn on_sample(&mut self, ctx: &mut MitigationCtx<'_>) -> Vec<MitigationAction> {
        self.rotation.rotate_if_due(ctx)
    }

    fn on_finish(&mut self, ctx: &mut MitigationCtx<'_>) {
        self.rotation.finish(ctx);
    }
}

/// Clamps each shard's slow path to at most `quota` megaflow installs per sample
/// interval — the model of OVS's upcall governance (bounded `ovs-vswitchd`
/// handler/flow-put budget per revalidation pass).
///
/// Benign traffic installs a handful of entries and never feels the quota; a TSE
/// attacker needs *hundreds of distinct installs per interval* to keep her mask count
/// up against the idle timeout, so the quota directly throttles how fast the tuple
/// space can grow. Packets denied an install are still classified correctly — they
/// just keep paying the slow-path price per packet (the attacker's cost, not the
/// victim's, since upcall handling is off the PMD fast path in this model).
///
/// The quota is armed before the first interval (via [`Mitigation::on_start`]) and
/// re-armed at every sample; denials are read per interval from each shard's
/// cumulative [`SlowPath::quota_denied_upcalls`](tse_switch::slowpath::SlowPath::quota_denied_upcalls)
/// counter and surfaced as [`MitigationAction::UpcallsClamped`].
#[derive(Debug, Clone)]
pub struct UpcallLimiter {
    quota: u64,
    /// Cumulative per-shard denial counts at the previous sample.
    seen_denied: Vec<u64>,
}

impl UpcallLimiter {
    /// Allow at most `quota` megaflow installs per shard per sample interval.
    pub fn new(quota: u64) -> Self {
        UpcallLimiter {
            quota,
            seen_denied: Vec::new(),
        }
    }

    /// The per-shard, per-interval install quota.
    pub fn quota(&self) -> u64 {
        self.quota
    }

    fn arm(&mut self, ctx: &mut MitigationCtx<'_>) {
        for shard in 0..ctx.shard_count() {
            ctx.datapath
                .shard_mut(shard)
                .slow_path_mut()
                .set_install_quota(Some(self.quota));
        }
    }
}

impl Mitigation for UpcallLimiter {
    fn name(&self) -> &str {
        "upcall-limiter"
    }

    fn on_start(&mut self, ctx: &mut MitigationCtx<'_>) {
        // Baseline from the live counters (not zero): a reused runner's shards carry
        // the previous run's cumulative denial totals.
        self.seen_denied = (0..ctx.shard_count())
            .map(|s| ctx.datapath.shard(s).slow_path().quota_denied_upcalls())
            .collect();
        self.arm(ctx);
    }

    fn on_sample(&mut self, ctx: &mut MitigationCtx<'_>) -> Vec<MitigationAction> {
        let n = ctx.shard_count();
        // Tolerate a stack driven without on_start (the first interval then ran
        // unclamped): initialise the baseline from the current counters.
        if self.seen_denied.len() != n {
            self.seen_denied = (0..n)
                .map(|s| ctx.datapath.shard(s).slow_path().quota_denied_upcalls())
                .collect();
        }
        let mut actions = Vec::new();
        for shard in 0..n {
            let total = ctx.datapath.shard(shard).slow_path().quota_denied_upcalls();
            let denied = total - self.seen_denied[shard];
            self.seen_denied[shard] = total;
            if denied > 0 {
                actions.push(MitigationAction::UpcallsClamped {
                    shard,
                    denied,
                    quota: self.quota,
                });
            }
        }
        self.arm(ctx);
        actions
    }

    fn on_finish(&mut self, ctx: &mut MitigationCtx<'_>) {
        // Disarm: the quota must not outlive the run on a reused datapath.
        for shard in 0..ctx.shard_count() {
            ctx.datapath
                .shard_mut(shard)
                .slow_path_mut()
                .set_install_quota(None);
        }
    }
}

/// Caps each shard's distinct-mask count: when a shard ends an interval above
/// `ceiling`, the excess masks are evicted in ascending hit-count order (coldest
/// first; ties broken by probe order, stably) until the shard is back at the ceiling.
///
/// This bounds the TSS lookup cost directly — Observation 1 says lookup time is
/// O(|M|), so a ceiling of `c` caps every fast-path scan at `c` probes no matter how
/// hard the tuple space is pushed. The trade-off is recall: evicted entries (benign
/// ones included, if they are cold enough) re-spark through slow-path upcalls, so an
/// undersized ceiling under a hot rule set trades fast-path time for upcall load.
/// Attack masks are the natural prey: every adversarial key is fresh, so its mask
/// accumulates almost no hits while a victim's long-lived mask is hit once per packet.
#[derive(Debug, Clone)]
pub struct MaskCap {
    ceiling: usize,
}

impl MaskCap {
    /// Evict down to at most `ceiling` masks per shard at every sample.
    ///
    /// # Panics
    /// Panics if `ceiling` is zero (a shard must be allowed at least one mask).
    pub fn new(ceiling: usize) -> Self {
        assert!(ceiling > 0, "mask ceiling must be positive");
        MaskCap { ceiling }
    }

    /// The per-shard mask ceiling.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }
}

impl Mitigation for MaskCap {
    fn name(&self) -> &str {
        "mask-cap"
    }

    fn on_sample(&mut self, ctx: &mut MitigationCtx<'_>) -> Vec<MitigationAction> {
        let mut actions = Vec::new();
        for shard in 0..ctx.shard_count() {
            let dp = ctx.datapath.shard_mut(shard);
            let count = dp.mask_count();
            if count <= self.ceiling {
                continue;
            }
            let mut usage = dp.megaflow().mask_usage();
            // Stable sort: equal hit counts keep their probe order, so the eviction
            // order is fully deterministic.
            usage.sort_by_key(|(_, hits)| *hits);
            let excess = count - self.ceiling;
            let mut entries_removed = 0;
            for (mask, _) in usage.into_iter().take(excess) {
                entries_removed += dp.megaflow_mut().remove_mask(&mask);
            }
            actions.push(MitigationAction::MaskCapped {
                shard,
                masks_evicted: excess,
                entries_removed,
                ceiling: self.ceiling,
            });
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_classifier::flowtable::FlowTable;
    use tse_packet::fields::FieldSchema;
    use tse_switch::pmd::{ShardedDatapath, Steering};

    fn fixture(n_shards: usize, steering: Steering) -> (FieldSchema, ShardedDatapath) {
        use tse_classifier::strategy::MegaflowStrategy;
        use tse_switch::datapath::Datapath;
        let schema = FieldSchema::ovs_ipv4();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let table = FlowTable::whitelist_default_deny(&schema, &[(tp_dst, 80)]);
        // Exact-match generation: every distinct key installs its own entry, making
        // install/quota arithmetic exact.
        let builder = Datapath::builder(table).strategy(MegaflowStrategy::exact_match(&schema));
        let dp = ShardedDatapath::from_builder(builder, n_shards, steering);
        (schema, dp)
    }

    static NO_PRESSURE: crate::stack::PressureWindow = crate::stack::PressureWindow::new(0, 0);

    fn ctx<'a>(datapath: &'a mut ShardedDatapath, now: f64, zeros: &'a [f64]) -> MitigationCtx<'a> {
        MitigationCtx {
            datapath,
            now,
            dt: 1.0,
            shard_attack_pps: zeros,
            shard_delivered_pps: zeros,
            shard_busy_seconds: zeros,
            pressure: &NO_PRESSURE,
        }
    }

    #[test]
    fn rekey_rearms_and_restores_across_runs() {
        let (_, mut dp) = fixture(4, Steering::Rss);
        let zeros = vec![0.0; 4];
        let mut rekey = RssKeyRandomizer::new(10.0, 7);
        // Run 1: arm, rotate at t = 10, disarm.
        {
            let mut c = ctx(&mut dp, 0.0, &zeros);
            Mitigation::on_start(&mut rekey, &mut c);
        }
        let actions = {
            let mut c = ctx(&mut dp, 10.0, &zeros);
            Mitigation::on_sample(&mut rekey, &mut c)
        };
        assert_eq!(actions.len(), 1);
        assert_ne!(dp.hash_key(), tse_packet::rss::DEFAULT_HASH_KEY);
        {
            let mut c = ctx(&mut dp, 60.0, &zeros);
            Mitigation::on_finish(&mut rekey, &mut c);
        }
        assert_eq!(
            dp.hash_key(),
            tse_packet::rss::DEFAULT_HASH_KEY,
            "on_finish must restore the entry key — steering does not outlive the run"
        );
        // Run 2 with the same stage: the schedule re-anchors at the new t = 0 (without
        // the on_start reset, last_rotate ≈ 10 from run 1 would gate the first
        // rotations off); the stage keeps defending.
        {
            let mut c = ctx(&mut dp, 0.0, &zeros);
            Mitigation::on_start(&mut rekey, &mut c);
        }
        let actions = {
            let mut c = ctx(&mut dp, 10.0, &zeros);
            Mitigation::on_sample(&mut rekey, &mut c)
        };
        assert_eq!(
            actions.len(),
            1,
            "a reused stage must keep rotating in run 2"
        );
    }

    #[test]
    fn rekey_fires_on_schedule_and_is_deterministic() {
        let (_, mut dp1) = fixture(4, Steering::Rss);
        let (_, mut dp2) = fixture(4, Steering::Rss);
        let zeros = vec![0.0; 4];
        let run = |dp: &mut ShardedDatapath| {
            let mut rekey = RssKeyRandomizer::new(10.0, 42);
            let mut log = Vec::new();
            for step in 1..=30 {
                let mut c = ctx(dp, step as f64, &zeros);
                log.extend(Mitigation::on_sample(&mut rekey, &mut c));
            }
            log
        };
        let log1 = run(&mut dp1);
        let log2 = run(&mut dp2);
        assert_eq!(log1, log2, "schedule and keys are deterministic");
        // Rotations at t=10, 20, 30.
        assert_eq!(log1.len(), 3);
        let times: Vec<f64> = log1
            .iter()
            .map(|a| match a {
                MitigationAction::Rekeyed { time, .. } => *time,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0]);
        // Keys chain: each rotation's old_key is the previous new_key.
        let mut prev = tse_packet::rss::DEFAULT_HASH_KEY;
        for a in &log1 {
            let MitigationAction::Rekeyed {
                old_key, new_key, ..
            } = a
            else {
                unreachable!()
            };
            assert_eq!(*old_key, prev);
            assert_ne!(*new_key, tse_packet::rss::DEFAULT_HASH_KEY);
            prev = *new_key;
        }
        assert_eq!(dp1.hash_key(), prev);
    }

    #[test]
    fn adaptive_rekey_rotates_only_under_pressure() {
        use crate::stack::PressureWindow;
        let (_, mut dp) = fixture(4, Steering::Rss);
        let zeros = vec![0.0; 4];
        let mut rekey = AdaptiveRekey::new(10.0, 500.0, 7);
        let mut pressure = PressureWindow::new(4, 3);
        {
            let mut c = ctx(&mut dp, 0.0, &zeros);
            Mitigation::on_start(&mut rekey, &mut c);
        }
        let sample = |dp: &mut ShardedDatapath,
                      rekey: &mut AdaptiveRekey,
                      pressure: &PressureWindow,
                      now: f64,
                      zeros: &[f64]| {
            let mut c = MitigationCtx {
                datapath: dp,
                now,
                dt: 1.0,
                shard_attack_pps: zeros,
                shard_delivered_pps: zeros,
                shard_busy_seconds: zeros,
                pressure,
            };
            Mitigation::on_sample(rekey, &mut c)
        };
        // Quiet window: no rotation, no matter how much time passes.
        pressure.push(&[0.0; 4]);
        for t in 1..=30 {
            assert!(
                sample(&mut dp, &mut rekey, &pressure, t as f64, &zeros).is_empty(),
                "must stay inert without pressure"
            );
        }
        assert_eq!(dp.hash_key(), tse_packet::rss::DEFAULT_HASH_KEY);
        // Pressure crosses the threshold on shard 2: the first triggered sample
        // rotates immediately (last rotation was 31 s ago, period is 10 s) …
        pressure.push(&[0.0, 0.0, 2000.0, 0.0]);
        pressure.push(&[0.0, 0.0, 2000.0, 0.0]);
        pressure.push(&[0.0, 0.0, 2000.0, 0.0]);
        let actions = sample(&mut dp, &mut rekey, &pressure, 31.0, &zeros);
        assert_eq!(actions.len(), 1, "first pressured sample rotates");
        assert_ne!(dp.hash_key(), tse_packet::rss::DEFAULT_HASH_KEY);
        // … then paces at the period while pressure persists.
        assert!(sample(&mut dp, &mut rekey, &pressure, 32.0, &zeros).is_empty());
        assert_eq!(
            sample(&mut dp, &mut rekey, &pressure, 41.0, &zeros).len(),
            1,
            "rotates again one period later under sustained pressure"
        );
        // Pressure subsides (windowed mean decays below threshold): inert again.
        pressure.push(&[0.0; 4]);
        pressure.push(&[0.0; 4]);
        pressure.push(&[0.0; 4]);
        assert!(sample(&mut dp, &mut rekey, &pressure, 60.0, &zeros).is_empty());
        // on_finish restores the entry key.
        {
            let mut c = ctx(&mut dp, 61.0, &zeros);
            Mitigation::on_finish(&mut rekey, &mut c);
        }
        assert_eq!(dp.hash_key(), tse_packet::rss::DEFAULT_HASH_KEY);
    }

    #[test]
    fn upcall_limiter_clamps_per_shard_installs() {
        let (schema, mut dp) = fixture(2, Steering::Pinned(0));
        let tp_src = schema.field_index("tp_src").unwrap();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let zeros = vec![0.0; 2];
        let mut limiter = UpcallLimiter::new(5);
        {
            let mut c = ctx(&mut dp, 0.0, &zeros);
            Mitigation::on_start(&mut limiter, &mut c);
        }
        // 20 distinct deny keys, all pinned to shard 0: 5 install, 15 are denied.
        for i in 0..20u128 {
            let mut k = schema.zero_value();
            k.set(tp_src, 2000 + i);
            k.set(tp_dst, 9000 + i);
            dp.process_key(&k, 60, 0.1 + i as f64 * 1e-3);
        }
        let actions = {
            let mut c = ctx(&mut dp, 1.0, &zeros);
            Mitigation::on_sample(&mut limiter, &mut c)
        };
        assert_eq!(
            actions,
            vec![MitigationAction::UpcallsClamped {
                shard: 0,
                denied: 15,
                quota: 5
            }]
        );
        // The quota is re-armed: 3 more installs land next interval, and the next
        // sample reports only that interval's denials.
        for i in 0..3u128 {
            let mut k = schema.zero_value();
            k.set(tp_src, 5000 + i);
            k.set(tp_dst, 9500 + i);
            dp.process_key(&k, 60, 1.1 + i as f64 * 1e-3);
        }
        let actions = {
            let mut c = ctx(&mut dp, 2.0, &zeros);
            Mitigation::on_sample(&mut limiter, &mut c)
        };
        assert!(actions.is_empty(), "under quota: no clamping reported");
        assert_eq!(dp.shard(0).slow_path().quota_denied_upcalls(), 15);
    }

    #[test]
    fn mask_cap_evicts_coldest_masks_first() {
        use tse_attack::scenarios::Scenario;
        let schema = FieldSchema::ovs_ipv4();
        let table = Scenario::SpDp.flow_table(&schema);
        let mut dp = ShardedDatapath::new(table, 1, Steering::Pinned(0));
        // Victim flow: one hot allow mask (dst 80), hit repeatedly.
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let mut victim = schema.zero_value();
        victim.set(tp_dst, 80);
        dp.process_key(&victim, 1500, 0.0);
        for i in 0..10 {
            dp.process_key(&victim, 1500, 0.01 + i as f64 * 1e-3);
        }
        // The SpDp explosion: hundreds of cold masks, each key seen once.
        for (i, h) in Scenario::SpDp
            .key_iter(&schema, &schema.zero_value())
            .enumerate()
        {
            dp.process_key(&h, 60, 0.5 + i as f64 * 1e-3);
        }
        let total = dp.shard(0).mask_count();
        assert!(total > 50, "attack spawned masks: {total}");
        let hottest = dp
            .shard(0)
            .megaflow()
            .mask_usage()
            .iter()
            .map(|(_, h)| *h)
            .max()
            .unwrap();
        assert!(hottest >= 10, "victim mask is hot: {hottest}");

        let zeros = vec![0.0; 1];
        let mut cap = MaskCap::new(20);
        let actions = {
            let mut c = ctx(&mut dp, 1.0, &zeros);
            Mitigation::on_sample(&mut cap, &mut c)
        };
        assert_eq!(actions.len(), 1);
        let MitigationAction::MaskCapped {
            shard,
            masks_evicted,
            entries_removed,
            ceiling,
        } = actions[0]
        else {
            panic!("unexpected action {:?}", actions[0]);
        };
        assert_eq!((shard, ceiling), (0, 20));
        assert_eq!(masks_evicted, total - 20);
        assert!(entries_removed >= masks_evicted);
        assert_eq!(dp.shard(0).mask_count(), 20);
        // The hot victim mask survives: eviction is coldest-first.
        let survivors = dp.shard(0).megaflow().mask_usage();
        assert!(
            survivors.iter().any(|(_, h)| *h == hottest),
            "hottest mask must survive the cap"
        );
        // Under the ceiling: no action.
        let actions = {
            let mut c = ctx(&mut dp, 2.0, &zeros);
            Mitigation::on_sample(&mut cap, &mut c)
        };
        assert!(actions.is_empty());
    }

    #[test]
    fn mask_cap_tie_break_is_probe_order_stable() {
        use tse_classifier::rule::Action;
        // All-cold masks (zero hits): eviction must take them in probe order — the
        // first `excess` masks of the probe list go, the rest keep their order.
        let table = FlowTable::fig1_hyp();
        let schema = table.schema().clone();
        let mut dp = ShardedDatapath::new(table, 1, Steering::Pinned(0));
        let k = |v: u128| tse_packet::fields::Key::from_values(&schema, &[v]);
        // The Fig. 3 cache: three distinct masks (111, 100, 110), all with zero hits.
        let cache = dp.shard_mut(0).megaflow_mut();
        cache
            .insert(k(0b001), k(0b111), Action::Allow, 0.0)
            .unwrap();
        cache.insert(k(0b100), k(0b100), Action::Deny, 0.0).unwrap();
        cache.insert(k(0b010), k(0b110), Action::Deny, 0.0).unwrap();
        let before: Vec<_> = dp.shard(0).megaflow().mask_usage();
        assert_eq!(before.len(), 3);
        assert!(before.iter().all(|(_, h)| *h == 0));
        let expected_survivors: Vec<_> = before.iter().skip(1).map(|(m, _)| m.clone()).collect();
        let zeros = vec![0.0; 1];
        let mut cap = MaskCap::new(2);
        let mut c = ctx(&mut dp, 1.0, &zeros);
        Mitigation::on_sample(&mut cap, &mut c);
        let after: Vec<_> = dp
            .shard(0)
            .megaflow()
            .mask_usage()
            .into_iter()
            .map(|(m, _)| m)
            .collect();
        assert_eq!(after, expected_survivors);
    }
}
