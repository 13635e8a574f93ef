//! Acceptance: a multi-attacker scenario — two staggered attack sources plus two
//! victims, composed via `TrafficMix` — runs end-to-end through `ExperimentRunner`
//! on both the TSS fast path and an attack-immune baseline backend.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;
use tse::simnet::VictimSource;

const VICTIM_IP: u32 = 0x0a00_0063;

/// Two victims (one joining late) and two staggered attackers: a SipDp generator over
/// t=20..60 s and an SpDp generator joining at t=40 s (overlapping onset, both active in
/// 40..60 s).
fn staggered_mix(schema: &FieldSchema) -> TrafficMix<'static> {
    TrafficMix::new()
        .with(VictimSource::new(
            VictimFlow::iperf_tcp("Victim 1", 0x0a000005, VICTIM_IP, 10.0).with_src_port(40001),
            schema,
            1.0,
        ))
        .with(VictimSource::new(
            VictimFlow::iperf_tcp("Victim 2", 0x0a000006, VICTIM_IP, 10.0)
                .with_src_port(40002)
                .active_between(10.0, f64::INFINITY),
            schema,
            1.0,
        ))
        .with(
            AttackGenerator::new(
                "Attacker 1",
                schema,
                Scenario::SipDp
                    .key_iter(schema, &schema.zero_value())
                    .cycle(),
                StdRng::seed_from_u64(3),
                100.0,
                20.0,
            )
            .with_limit(4000),
        )
        .with(
            AttackGenerator::new(
                "Attacker 2",
                schema,
                Scenario::SpDp
                    .key_iter(schema, &schema.zero_value())
                    .cycle(),
                StdRng::seed_from_u64(5),
                150.0,
                40.0,
            )
            .with_limit(3000),
        )
}

#[test]
fn staggered_multi_attacker_mix_on_tss() {
    let schema = FieldSchema::ovs_ipv4();
    // The merged ACL: both attackers' scenarios target the same Fig. 6 rules.
    let table = Scenario::SipSpDp.flow_table(&schema);
    let mut runner =
        ExperimentRunner::new(Datapath::new(table), Vec::new(), OffloadConfig::gro_off());
    let tl = runner.run_mix(staggered_mix(&schema), 90.0);

    assert_eq!(tl.victim_names, vec!["Victim 1", "Victim 2"]);
    assert_eq!(tl.attacker_names, vec!["Attacker 1", "Attacker 2"]);
    assert_eq!(tl.samples.len(), 90);

    // Victim 2 is inactive before t=10 s and active after.
    assert_eq!(tl.samples[5].victim_gbps[1], 0.0);
    assert!(tl.samples[12].victim_gbps[1] > 1.0);

    // Per-source attribution: attacker 1 delivers in [20, 60), attacker 2 in [40, 60);
    // the per-source series always sums to the total.
    assert_eq!(tl.mean_attacker_pps_between("Attacker 1", 0.0, 20.0), 0.0);
    assert!(tl.mean_attacker_pps_between("Attacker 1", 25.0, 38.0) > 90.0);
    assert_eq!(tl.mean_attacker_pps_between("Attacker 2", 0.0, 40.0), 0.0);
    assert!(tl.mean_attacker_pps_between("Attacker 2", 45.0, 58.0) > 140.0);
    for s in &tl.samples {
        let sum: f64 = s.attacker_pps_by_source.iter().sum();
        assert!((sum - s.attacker_pps).abs() < 1e-9, "t={}", s.time);
    }

    // Staggered onset visible end-to-end on TSS: healthy before any attacker, degraded
    // once attacker 1 is up, degraded further (and more masks) once attacker 2 joins.
    let before = tl.mean_total_between(12.0, 19.0);
    let one_attacker = tl.mean_total_between(30.0, 38.0);
    let two_attackers = tl.mean_total_between(48.0, 58.0);
    assert!(
        before > 9.0,
        "two victims should saturate the shared 10G line rate: {before}"
    );
    assert!(
        one_attacker < before * 0.5,
        "SipDp attacker should degrade the victims: {before} -> {one_attacker}"
    );
    assert!(
        two_attackers < one_attacker,
        "second attacker should bite further: {one_attacker} -> {two_attackers}"
    );
    let masks_one = tl.samples[38].mask_count;
    let masks_two = tl.samples[55].mask_count;
    assert!(masks_one > 100, "SipDp masks: {masks_one}");
    assert!(
        masks_two > masks_one,
        "SpDp adds masks: {masks_one} -> {masks_two}"
    );
}

#[test]
fn staggered_multi_attacker_mix_on_baseline_backend() {
    // Same mix through an attack-immune hierarchical-trie fast path: runs end-to-end
    // and the victims keep (nearly) full throughput through both attack waves.
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipSpDp.flow_table(&schema);
    let mut runner = ExperimentRunner::new(
        Datapath::builder(table)
            .fast_path(FastPathKind::Trie)
            .build(),
        Vec::new(),
        OffloadConfig::gro_off(),
    );
    let tl = runner.run_mix(staggered_mix(&schema), 90.0);
    assert_eq!(tl.samples.len(), 90);
    assert_eq!(tl.attacker_names.len(), 2);

    let before = tl.mean_total_between(12.0, 19.0);
    let during_both = tl.mean_total_between(48.0, 58.0);
    assert!(
        during_both > before * 0.95,
        "trie backend must shrug off both attackers: {before} -> {during_both}"
    );
    // No megaflow state to explode.
    assert!(tl.samples.iter().all(|s| s.mask_count == 0));
    // The attack packets were still delivered (they just cost O(depth) lookups).
    assert!(tl.mean_attacker_pps_between("Attacker 2", 45.0, 58.0) > 140.0);
}
