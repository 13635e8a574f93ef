//! Recorded timelines: the runner's output on the canonical Fig. 8a-style runs, pinned
//! sample by sample. Each run's digest is FNV-1a-64 over every `TimelineSample`'s `{:?}`
//! text, in order; Rust's `f64` `Debug` output round-trips, so a digest moves when any
//! bit of any sample does. The table was recorded when the runner was still held equal,
//! run by run, to frozen copies of the pre-streaming and pre-mitigation-stack loops, so
//! each entry is those loops' own output. `tests/oracle_switch.rs` checks the datapath
//! under the runner against an independent model; this file pins what the runner makes
//! of it.
//!
//! A mismatch names the run and prints its new entry.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;

/// `(run, samples, digest)`, one entry per run. The 1-shard sharded runs equal the plain
/// ones: `ExperimentRunner::new` is a 1-shard sharded runner.
const DIGESTS: &[(&str, usize, u64)] = &[
    ("plain/Baseline", 90, 0xf6231a8b5e2ed023),
    ("plain/Dp", 90, 0xc9fc5c0ec0310813),
    ("plain/SpDp", 90, 0xa686331433ff41d1),
    ("plain/SipDp", 90, 0xaff081faeff7ad84),
    ("plain/SipSpDp", 90, 0xbb11bb062140629f),
    ("sharded(1)/Baseline", 90, 0xf6231a8b5e2ed023),
    ("sharded(1)/Dp", 90, 0xc9fc5c0ec0310813),
    ("sharded(1)/SpDp", 90, 0xa686331433ff41d1),
    ("sharded(1)/SipDp", 90, 0xaff081faeff7ad84),
    ("sharded(1)/SipSpDp", 90, 0xbb11bb062140629f),
    ("guarded/Baseline", 90, 0x0c18c6ea14331f19),
    ("guarded/Dp", 90, 0x4a903eab5915d8d5),
    ("guarded/SpDp", 90, 0xf6444d6a0ddcd2a9),
    ("guarded/SipDp", 90, 0xda58af727983a703),
    ("guarded/SipSpDp", 90, 0xebb2fa90e808bd87),
    ("guarded-sharded(4)/Baseline", 90, 0xe25e839b8f236f09),
    ("guarded-sharded(4)/Dp", 90, 0x0ca97ea51f395b04),
    ("guarded-sharded(4)/SpDp", 90, 0xcaf4af136ae31ab0),
    ("guarded-sharded(4)/SipDp", 90, 0xe9e91052635da2e5),
    ("guarded-sharded(4)/SipSpDp", 90, 0x75c2ea2831c5d68b),
    ("Dp/udp/47s", 47, 0xc706169450bbf444),
];

/// FNV-1a-64 over every sample's `{:?}` text.
fn digest(timeline: &Timeline) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for sample in &timeline.samples {
        for byte in format!("{sample:?}").bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Check every `(run, timeline)` against the table; on a mismatch, fail naming each run
/// that moved with its new entry.
fn assert_recorded(runs: Vec<(String, Timeline)>) {
    let moved: Vec<String> = runs
        .iter()
        .filter_map(|(name, timeline)| {
            let entry = (timeline.samples.len(), digest(timeline));
            let recorded = DIGESTS
                .iter()
                .find(|(run, ..)| run == name)
                .map(|&(_, n, d)| (n, d));
            (recorded != Some(entry))
                .then(|| format!("    ({name:?}, {}, {:#018x}),", entry.0, entry.1))
        })
        .collect();
    assert!(moved.is_empty(), "timelines moved:\n{}", moved.join("\n"));
}

/// The canonical Fig. 8a-style setup, per scenario: three victims with staggered
/// activity windows.
fn scenario_fixture(scenario: Scenario) -> (FlowTable, Vec<VictimFlow>) {
    let schema = FieldSchema::ovs_ipv4();
    let table = scenario.flow_table(&schema);
    let victims = vec![
        VictimFlow::iperf_tcp("Victim 1", 0x0a000005, 0x0a000063, 10.0).with_src_port(40001),
        VictimFlow::iperf_tcp("Victim 2", 0x0a000006, 0x0a000063, 6.0).with_src_port(40002),
        VictimFlow::iperf_udp("Victim 3", 0x0a000007, 0x0a000063, 3.0).active_between(20.0, 70.0),
    ];
    (table, victims)
}

/// The scenario's cyclic co-located attack: 3000 packets at 100 pps from t=30 s (none
/// for Baseline). Every call is the same stream from its start.
fn attack(scenario: Scenario) -> impl TrafficSource {
    let schema = FieldSchema::ovs_ipv4();
    let keys = scenario.key_iter(&schema, &schema.zero_value()).cycle();
    let rng = StdRng::seed_from_u64(99);
    AttackGenerator::new("Attacker", &schema, keys, rng, 100.0, 30.0).with_limit(3000)
}

/// A guard that fires and evicts during every scenario's attack phase.
fn guard() -> GuardMitigation {
    GuardMitigation::new(GuardConfig {
        interval: 10.0,
        mask_threshold: 30,
        ..GuardConfig::default()
    })
}

/// Every scenario through a runner `make` builds over its table and victims, 90 s each;
/// each timeline names the fixture's victims.
fn every_scenario(
    label: &str,
    make: impl Fn(FlowTable, Vec<VictimFlow>) -> ExperimentRunner,
) -> Vec<(String, Timeline)> {
    Scenario::ALL
        .into_iter()
        .map(|scenario| {
            let (table, victims) = scenario_fixture(scenario);
            let names: Vec<String> = victims.iter().map(|v| v.name.clone()).collect();
            let timeline = make(table, victims).run(attack(scenario), 90.0);
            assert_eq!(timeline.victim_names, names);
            (format!("{label}/{scenario}"), timeline)
        })
        .collect()
}

fn sharded(table: FlowTable, shards: usize) -> ShardedDatapath {
    ShardedDatapath::from_builder(Datapath::builder(table), shards, Steering::Rss)
}

#[test]
fn event_driven_runner_matches_frozen_reference_for_every_scenario() {
    let runs = every_scenario("plain", |table, victims| {
        ExperimentRunner::new(Datapath::new(table), victims, OffloadConfig::gro_off())
    });
    assert!(runs.iter().all(|(_, t)| t.shard_count == 1));
    assert_recorded(runs);
}

#[test]
fn one_shard_sharded_runner_matches_frozen_reference_for_every_scenario() {
    let runs = every_scenario("sharded(1)", |table, victims| {
        ExperimentRunner::sharded(sharded(table, 1), victims, OffloadConfig::gro_off())
    });
    assert!(runs.iter().all(|(_, t)| t.shard_count == 1));
    assert_recorded(runs);
}

#[test]
fn parity_holds_for_udp_offload_and_partial_duration() {
    let (table, victims) = scenario_fixture(Scenario::Dp);
    let names: Vec<String> = victims.iter().map(|v| v.name.clone()).collect();
    let mut udp = ExperimentRunner::new(Datapath::new(table), victims, OffloadConfig::udp());
    let timeline = udp.run(attack(Scenario::Dp), 47.0);
    assert_eq!(timeline.victim_names, names);
    assert_recorded(vec![("Dp/udp/47s".into(), timeline)]);
}

#[test]
fn guard_stage_matches_frozen_guarded_reference_for_every_scenario() {
    let runs = every_scenario("guarded", |table, victims| {
        ExperimentRunner::new(Datapath::new(table), victims, OffloadConfig::gro_off())
            .with_mitigation(guard())
    });
    assert_recorded(runs);
}

#[test]
fn guard_stage_matches_frozen_guarded_reference_on_a_sharded_datapath() {
    let runs = every_scenario("guarded-sharded(4)", |table, victims| {
        ExperimentRunner::sharded(sharded(table, 4), victims, OffloadConfig::gro_off())
            .with_mitigation(guard())
    });
    assert_recorded(runs);
}
