//! Integration tests for the headline result: the TSE attack explodes the tuple space
//! and degrades victim throughput as §5 reports.

use tse::prelude::*;

/// Co-located TSE reaches (approximately) the per-scenario mask ceilings of §5.2.
#[test]
fn colocated_reaches_paper_mask_counts() {
    let schema = FieldSchema::ovs_ipv4();
    for (scenario, lo, hi) in [
        (Scenario::Dp, 16, 20),
        (Scenario::SpDp, 256, 300),
        (Scenario::SipDp, 512, 560),
    ] {
        let table = scenario.flow_table(&schema);
        let mut dp = Datapath::new(table);
        for (i, key) in scenario.key_iter(&schema, &schema.zero_value()).enumerate() {
            dp.process_key(&key, 64, i as f64 * 1e-4);
        }
        let masks = dp.mask_count();
        assert!(
            (lo..=hi).contains(&masks),
            "{}: expected {}..={} masks, got {}",
            scenario.name(),
            lo,
            hi,
            masks
        );
    }
}

/// The full-blown SipSpDp attack lands in the ~8200-mask regime the paper quotes.
#[test]
fn full_blown_attack_is_in_the_8200_mask_regime() {
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipSpDp.flow_table(&schema);
    let mut dp = Datapath::new(table);
    let keys = Scenario::SipSpDp.key_iter(&schema, &schema.zero_value());
    for (i, key) in keys.enumerate() {
        dp.process_key(&key, 64, i as f64 * 1e-5);
    }
    let masks = dp.mask_count();
    assert!((8192..=8400).contains(&masks), "SipSpDp masks = {masks}");
}

/// General TSE: the measured mask counts track the analytic expectation within a
/// reasonable factor (the Fig. 9b "M" vs "E" agreement).
#[test]
fn general_tse_tracks_expectation() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let schema = FieldSchema::ovs_ipv4();
    for scenario in [Scenario::Dp, Scenario::SipDp] {
        let model = ExpectationModel::for_scenario(&schema, scenario);
        let table = scenario.flow_table(&schema);
        let mut dp = Datapath::new(table);
        let rng = StdRng::seed_from_u64(2024);
        let n = 5_000usize;
        let keys = RandomKeys::new(rng, &schema, scenario, &schema.zero_value()).take(n);
        for (i, key) in keys.enumerate() {
            dp.process_key(&key, 64, i as f64 * 1e-4);
        }
        let expected = model.expected_masks(n as u64);
        let measured = dp.mask_count() as f64;
        let ratio = measured / expected;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "{}: measured {measured} vs expected {expected:.1}",
            scenario.name()
        );
    }
}

/// The attack needs only a sub-Mbps packet stream (the "low-rate" claim of the title):
/// the wire bytes of the generator's events over the time they span.
#[test]
fn attack_bandwidth_stays_low_rate() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let schema = FieldSchema::ovs_ipv4();
    let keys = Scenario::SipSpDp.key_iter(&schema, &schema.zero_value());
    let rng = StdRng::seed_from_u64(5);
    let mut attack = AttackGenerator::new("atk", &schema, keys, rng, 1000.0, 0.0);
    let events: Vec<TrafficEvent> = std::iter::from_fn(|| attack.next_event()).collect();
    assert_eq!(events.len(), 17 * 33 * 17);
    let bytes: usize = events.iter().map(|ev| ev.bytes).sum();
    let bps = bytes as f64 * 8.0 / (events[events.len() - 1].time - events[0].time);
    assert!(bps < 1.0e6, "attack uses {bps} bps");
}
