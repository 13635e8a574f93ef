//! The composable mitigation pipeline, end to end: RSS rekeying still partitions the
//! flow space (proptest), rotation defeats shard-pinned targeting computed under the
//! old key, stack ordering is observable and deterministic, and the full stack
//! restores a pinned victim the unmitigated run collapses.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;

const N_SHARDS: usize = 4;

fn tcp_base(schema: &FieldSchema) -> Key {
    let mut base = schema.zero_value();
    base.set(schema.field_index("ip_proto").unwrap(), 6);
    base.set(schema.field_index("ip_dst").unwrap(), 0x0a00_00c8);
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A rekeyed `Steering::Rss` is still a stable, total partition: every key maps to
    /// exactly one in-range shard under any hash key, and repeated evaluations agree.
    #[test]
    fn rekeyed_rss_still_totally_partitions_keys(
        values in proptest::collection::vec((0u32..u32::MAX, 0u16..u16::MAX, 0u16..u16::MAX), 1..40),
        hash_key in 0u64..u64::MAX,
    ) {
        let schema = FieldSchema::ovs_ipv4();
        let ip_src = schema.field_index("ip_src").unwrap();
        let tp_src = schema.field_index("tp_src").unwrap();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        // The rotation as the datapath performs it, asked the way a dispatch asks.
        let mut dp = ShardedDatapath::new(Scenario::SpDp.flow_table(&schema), N_SHARDS, Steering::Rss);
        dp.rekey(hash_key);
        for (src, sport, dport) in values {
            let mut key = tcp_base(&schema);
            key.set(ip_src, src as u128);
            key.set(tp_src, sport as u128);
            key.set(tp_dst, dport as u128);
            let shard = dp.shard_of_key(&key);
            prop_assert!(shard < N_SHARDS);
            prop_assert_eq!(shard, dp.shard_of_key(&key));
            prop_assert_eq!(shard, dp.steering_view().shard_of_key(&key));
        }
    }

    /// Shard-pinning solved under the *old* hash key no longer aims after a rotation:
    /// the retagged key set scatters (~1/N still land on the target by chance, never
    /// anywhere close to all of them).
    #[test]
    fn stale_pinning_no_longer_lands_on_the_target_after_rotation(
        hash_key in 1u64..u64::MAX,
        target in 0usize..N_SHARDS,
    ) {
        let schema = FieldSchema::ovs_ipv4();
        let ip_dst = schema.field_index("ip_dst").unwrap();
        let mut dp = ShardedDatapath::new(Scenario::SpDp.flow_table(&schema), N_SHARDS, Steering::Rss);
        let pinned: Vec<Key> = pin_to_shard(
            &schema,
            Scenario::SpDp.key_iter(&schema, &tcp_base(&schema)),
            ip_dst,
            N_SHARDS,
            target,
        )
        .collect();
        // Under the old (default) key the aim is exact...
        for k in &pinned {
            prop_assert_eq!(dp.shard_of_key(k), target);
        }
        // ...under the rotated key it is gone: the stream scatters pseudo-randomly.
        dp.rekey(hash_key);
        let still_on_target = pinned.iter().filter(|k| dp.shard_of_key(k) == target).count();
        prop_assert!(
            still_on_target * 2 < pinned.len(),
            "{} of {} stale-pinned keys still hit shard {} under key {:#x}",
            still_on_target, pinned.len(), target, hash_key
        );
    }
}

/// The pinned SipDp blast-radius fixture of `tests/sharded_blast_radius.rs`, with a
/// configurable shard count and mitigation stack.
fn run_pinned_attack(
    n_shards: usize,
    build_stack: impl FnOnce(ExperimentRunner) -> ExperimentRunner,
    duration: f64,
) -> Timeline {
    let schema = FieldSchema::ovs_ipv4();
    let ip_dst = schema.field_index("ip_dst").unwrap();
    let table = Scenario::SipDp.flow_table(&schema);
    let sharded = ShardedDatapath::from_builder(Datapath::builder(table), n_shards, Steering::Rss);
    let mut runner = build_stack(ExperimentRunner::sharded(
        sharded,
        Vec::new(),
        OffloadConfig::gro_off(),
    ));
    let victim = VictimFlow::iperf_tcp("Victim A", 0x0a00_0005, 0x0a00_0063, 4.0).steered_to_shard(
        &schema,
        Steering::Rss,
        n_shards,
        0,
    );
    let keys = pin_to_shard(
        &schema,
        Scenario::SipDp
            .key_iter(&schema, &tcp_base(&schema))
            .cycle(),
        ip_dst,
        n_shards,
        0,
    );
    let mix = TrafficMix::new()
        .with(VictimSource::new(victim, &schema, runner.sample_interval))
        .with(
            AttackGenerator::new(
                "Attacker",
                &schema,
                keys,
                StdRng::seed_from_u64(7),
                100.0,
                15.0,
            )
            .with_limit(((duration - 15.0) * 100.0) as usize),
        );
    runner.run_mix(mix, duration)
}

fn all_actions(tl: &Timeline) -> Vec<MitigationAction> {
    tl.samples
        .iter()
        .flat_map(|s| s.mitigation_actions.iter().cloned())
        .collect()
}

#[test]
fn stack_order_is_observable_and_deterministic() {
    // Guard every 3 s (passes at t = 1, 4, 7, 10, ...), rekey every 10 s (t = 10, 20,
    // ...): at t = 10 both stages fire in the same interval, so their pipeline order
    // is visible in that sample's action log.
    let guard = || {
        GuardMitigation::new(GuardConfig {
            interval: 3.0,
            mask_threshold: 30,
            ..GuardConfig::default()
        })
    };
    let rekey = || RssKeyRandomizer::new(10.0, 0xC0FFEE);
    let guard_then_rekey =
        |r: ExperimentRunner| r.with_mitigation(guard()).with_mitigation(rekey());
    let rekey_then_guard =
        |r: ExperimentRunner| r.with_mitigation(rekey()).with_mitigation(guard());

    let tl_a = run_pinned_attack(N_SHARDS, guard_then_rekey, 45.0);
    let tl_b = run_pinned_attack(N_SHARDS, rekey_then_guard, 45.0);
    let (log_a, log_b) = (all_actions(&tl_a), all_actions(&tl_b));
    // Re-running the same stack reproduces the same log, bit for bit.
    let log_a2 = all_actions(&run_pinned_attack(N_SHARDS, guard_then_rekey, 45.0));
    assert_eq!(log_a, log_a2, "action logs are deterministic");
    // ...but the two orders genuinely differ: within the co-firing interval the
    // actions appear in pipeline order.
    assert_ne!(log_a, log_b, "stack order must be observable");
    assert!(
        log_a
            .iter()
            .any(|a| matches!(a, MitigationAction::GuardSweep(r) if r.entries_removed > 0)),
        "guard sweeps in stack A"
    );
    let co_fire = |tl: &Timeline| {
        tl.samples
            .iter()
            .find(|s| s.time == 9.0)
            .expect("sample at t=9 (interval ending t=10)")
            .mitigation_actions
            .clone()
    };
    let (int_a, int_b) = (co_fire(&tl_a), co_fire(&tl_b));
    assert!(matches!(
        int_a.first(),
        Some(MitigationAction::GuardSweep(_))
    ));
    assert!(matches!(
        int_a.last(),
        Some(MitigationAction::Rekeyed { .. })
    ));
    assert!(matches!(
        int_b.first(),
        Some(MitigationAction::Rekeyed { .. })
    ));
    assert!(matches!(
        int_b.last(),
        Some(MitigationAction::GuardSweep(_))
    ));
}

#[test]
fn rekey_restores_the_pinned_victim_the_unmitigated_run_collapses() {
    // 16 PMD shards, the `fig_mitigation_matrix` configuration: the unmitigated pinned
    // run concentrates the whole explosion on the victim's shard (the PR 3 collapse
    // shape, independent of shard count), while under rotation the stale-pinned stream
    // dilutes to ~1/16 per shard — below the ~83-mask knee where the victim's
    // fast-path scan still sustains half its offered rate.
    let duration = 45.0;
    let n_shards = 16;
    let unmitigated = run_pinned_attack(n_shards, |r| r, duration);
    let rekeyed = run_pinned_attack(
        n_shards,
        |r| r.with_mitigation(RssKeyRandomizer::new(10.0, 0xC0FFEE)),
        duration,
    );
    let mean = |tl: &Timeline, start: f64, stop: f64| tl.mean_total_between(start, stop);
    let baseline = mean(&unmitigated, 5.0, 14.0);
    let collapsed = mean(&unmitigated, 25.0, duration - 1.0);
    let restored = mean(&rekeyed, 25.0, duration - 1.0);
    assert!(baseline > 3.9, "baseline ~4 Gbps: {baseline}");
    assert!(
        collapsed < baseline * 0.25,
        "unmitigated pinned attack collapses the victim: {baseline} -> {collapsed}"
    );
    assert!(
        restored > baseline * 0.5,
        "rekeying must restore the victim to within 2x of baseline: \
         {baseline} -> {restored} (unmitigated: {collapsed})"
    );
}

#[test]
fn full_stack_reports_every_defense_and_bounds_the_masks() {
    let duration = 45.0;
    let tl = run_pinned_attack(
        N_SHARDS,
        |r| {
            r.with_mitigation(GuardMitigation::new(GuardConfig {
                interval: 10.0,
                mask_threshold: 64,
                ..GuardConfig::default()
            }))
            .with_mitigation(RssKeyRandomizer::new(10.0, 0xC0FFEE))
            // After a rotation the stale-pinned stream spreads to ~25 installs per
            // shard per second; a quota of 10 bites every interval.
            .with_mitigation(UpcallLimiter::new(10))
            .with_mitigation(MaskCap::new(64))
        },
        duration,
    );
    let actions = all_actions(&tl);
    assert!(actions
        .iter()
        .any(|a| matches!(a, MitigationAction::GuardSweep(_))));
    assert!(actions
        .iter()
        .any(|a| matches!(a, MitigationAction::Rekeyed { .. })));
    assert!(actions
        .iter()
        .any(|a| matches!(a, MitigationAction::UpcallsClamped { .. })));
    // MaskCap is last: it only acts when the stages before it left a shard above the
    // ceiling, but the ceiling must hold in every sample *after* the stack ran.
    for s in &tl.samples {
        for (shard, &masks) in s.shard_masks.iter().enumerate() {
            assert!(
                masks <= 64,
                "shard {shard} ended t={} above the mask cap: {masks}",
                s.time
            );
        }
    }
    // And the victim does better than the unmitigated collapse.
    let unmitigated = run_pinned_attack(N_SHARDS, |r| r, duration);
    assert!(
        tl.mean_total_between(25.0, duration - 1.0)
            > unmitigated.mean_total_between(25.0, duration - 1.0)
    );
}
