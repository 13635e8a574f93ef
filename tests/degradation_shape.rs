//! §5.4 / Fig. 9a shape checks: relative victim degradation as the mask count grows,
//! per offload configuration.

use tse::prelude::*;

/// The §5.4 percentages, qualitatively: GRO OFF collapses first, GRO ON survives until
/// the full-blown attack, FHO sits in between, and everything dies at ~8200 masks.
#[test]
fn fig9a_degradation_ordering() {
    let gro_off = OffloadConfig::gro_off();
    let gro_on = OffloadConfig::gro_on();
    let fho = OffloadConfig::full_hw_offload();

    for masks in [17usize, 260, 516] {
        let off = gro_off.degradation_percent(masks);
        let on = gro_on.degradation_percent(masks);
        let hw = fho.degradation_percent(masks);
        assert!(
            on > hw && hw > off,
            "@{masks}: GRO ON {on:.1}% > FHO {hw:.1}% > GRO OFF {off:.1}%"
        );
    }
    for cfg in OffloadConfig::fig9a_set() {
        assert!(
            cfg.degradation_percent(8200) < 6.0,
            "{} must collapse at 8200 masks",
            cfg.name
        );
    }
}

/// End-to-end: measured victim cost through the datapath reproduces the same shape as
/// the analytic curve (victim per-packet cost ~ linear in the mask count).
#[test]
fn measured_victim_cost_tracks_mask_count() {
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipDp.flow_table(&schema);
    let mut dp = Datapath::new(table);
    let victim = PacketBuilder::tcp_v4([192, 168, 0, 2], [10, 0, 0, 99], 40000, 80).build();
    dp.process_packet(&victim, 0.0);

    let mut samples: Vec<(usize, f64)> = Vec::new();
    let trace = Scenario::SipDp.key_iter(&schema, &schema.zero_value());
    for (i, key) in trace.enumerate() {
        dp.process_key(&key, 64, 0.01 + i as f64 * 1e-4);
        if i % 100 == 0 {
            let cost = dp.process_packet(&victim, 0.5 + i as f64 * 1e-4).cost;
            samples.push((dp.mask_count(), cost));
        }
    }
    // Cost is (weakly) monotone in the mask count and spans at least an order of
    // magnitude from the first to the last sample.
    let first = samples.first().unwrap().1;
    let last = samples.last().unwrap().1;
    assert!(
        last > 10.0 * first,
        "victim cost should grow >10x: {first} -> {last}"
    );
    for pair in samples.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1 * 0.9,
            "cost should not drop as masks grow"
        );
    }
}

/// Flow-completion time of a 1 GB transfer grows roughly linearly with the mask count
/// (the secondary axis of Fig. 9a).
#[test]
fn flow_completion_time_scales() {
    let cfg = OffloadConfig::gro_off();
    let fct_base = cfg.flow_completion_time(1, 1.0);
    let fct_17 = cfg.flow_completion_time(17, 1.0);
    let fct_8200 = cfg.flow_completion_time(8200, 1.0);
    assert!(fct_17 > 1.5 * fct_base);
    assert!(fct_8200 > 200.0 * fct_base);
    assert!(
        fct_8200 < 1000.0,
        "1 GB should still complete within ~17 minutes: {fct_8200}"
    );
}
