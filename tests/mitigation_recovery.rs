//! MFCGuard end-to-end: under attack, the guarded datapath keeps the victim's fast path
//! clean while the unguarded one collapses; recovery follows the 10 s idle timeout.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;

/// The SipDp key sequence cycled: `count` packets at `rate` pps from `start`.
fn build_attack(
    schema: &FieldSchema,
    seed: u64,
    rate: f64,
    start: f64,
    count: usize,
) -> impl TrafficSource {
    let keys = Scenario::SipDp
        .key_iter(schema, &schema.zero_value())
        .cycle();
    let rng = StdRng::seed_from_u64(seed);
    AttackGenerator::new("Attacker", schema, keys, rng, rate, start).with_limit(count)
}

// Note: the guard can only evict *drop* entries (requirement (i) of §8), so the scenario
// here is SipDp — the pattern an OpenStack tenant can express. Under SipSpDp the
// attacker's allow-side decomposition (hundreds of allow masks for its own service)
// survives a drop-only clean (`guard_cleans_attack_masks_but_keeps_victim_entry` in
// `crates/mitigation/src/guard.rs` pins what such a sweep leaves behind).
#[test]
fn guard_preserves_victim_throughput() {
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipDp.flow_table(&schema);
    let victims = vec![VictimFlow::iperf_tcp(
        "victim", 0x0a000005, 0x0a000063, 10.0,
    )];

    let mut unguarded = ExperimentRunner::new(
        Datapath::new(table.clone()),
        victims.clone(),
        OffloadConfig::gro_off(),
    );
    let unguarded_tl = unguarded.run(build_attack(&schema, 77, 500.0, 10.0, 25_000), 60.0);

    let mut guarded =
        ExperimentRunner::new(Datapath::new(table), victims, OffloadConfig::gro_off())
            .with_mitigation(GuardMitigation::new(GuardConfig {
                mask_threshold: 50,
                ..GuardConfig::default()
            }));
    let guarded_tl = guarded.run(build_attack(&schema, 77, 500.0, 10.0, 25_000), 60.0);

    let unguarded_mean = unguarded_tl.mean_total_between(25.0, 59.0);
    let guarded_mean = guarded_tl.mean_total_between(25.0, 59.0);
    assert!(
        guarded_mean > 2.0 * unguarded_mean,
        "guard should at least double throughput under attack: {unguarded_mean:.2} vs {guarded_mean:.2} Gbps"
    );
    assert!(
        guarded_mean > 4.0,
        "guarded victim should keep most of its capacity: {guarded_mean:.2}"
    );
}

#[test]
fn unguarded_datapath_recovers_via_idle_timeout() {
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipDp.flow_table(&schema);
    let victims = vec![VictimFlow::iperf_tcp(
        "victim", 0x0a000005, 0x0a000063, 10.0,
    )];
    // Attack runs t=10..40 s.
    let attack = build_attack(&schema, 3, 100.0, 10.0, 3000);
    let mut runner = ExperimentRunner::new(Datapath::new(table), victims, OffloadConfig::gro_off());
    let tl = runner.run(attack, 70.0);
    let during = tl.mean_total_between(20.0, 39.0);
    let after = tl.mean_total_between(55.0, 69.0);
    assert!(
        during < 4.0,
        "during the attack the victim is degraded: {during:.2}"
    );
    assert!(
        after > 8.0,
        "10 s after the attack the victim recovers: {after:.2}"
    );
}

#[test]
fn guard_removes_only_drop_entries() {
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipSpDp.flow_table(&schema);
    let mut dp = Datapath::new(table);
    // Victim entry plus attack entries.
    let victim = PacketBuilder::tcp_v4([192, 168, 0, 2], [10, 0, 0, 99], 40000, 80).build();
    dp.process_packet(&victim, 0.0);
    for (i, key) in Scenario::SpDp
        .key_iter(&schema, &schema.zero_value())
        .enumerate()
    {
        dp.process_key(&key, 64, 0.01 + i as f64 * 1e-4);
    }
    let allows_before = dp
        .megaflow()
        .entries()
        .filter(|e| e.action == Action::Allow)
        .count();
    let mut guard = MfcGuard::new(GuardConfig::default());
    guard.run_once(&mut dp, 1.0, 100.0);
    let allows_after = dp
        .megaflow()
        .entries()
        .filter(|e| e.action == Action::Allow)
        .count();
    let denies_after = dp
        .megaflow()
        .entries()
        .filter(|e| e.action == Action::Deny)
        .count();
    assert_eq!(
        allows_before, allows_after,
        "allow entries must never be deleted"
    );
    assert_eq!(denies_after, 0, "all TSE drop entries must be wiped");
}
