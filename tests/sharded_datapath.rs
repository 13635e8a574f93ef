//! Sharded-datapath invariants: a 1-shard [`ShardedDatapath`] is bit-for-bit the plain
//! [`Datapath`] on every scenario, steering is a total stable partition of the key
//! space, aggregate stats are exactly the merge of the per-shard stats, and a concrete
//! packet is its flow key.

use proptest::prelude::*;
use tse::packet::IpProto;
use tse::prelude::*;
use tse::switch::stats::DatapathStats;

/// Replay a scenario's co-located trace (capped for the heavy SipSpDp case) as a
/// timed event batch.
fn scenario_events(schema: &FieldSchema, scenario: Scenario) -> Vec<(Key, usize, f64)> {
    scenario
        .key_iter(schema, &schema.zero_value())
        .take(2500)
        .enumerate()
        .map(|(i, k)| (k, 64usize, 0.01 + i as f64 * 1e-3))
        .collect()
}

#[test]
fn one_shard_matches_plain_datapath_on_every_scenario() {
    let schema = FieldSchema::ovs_ipv4();
    for scenario in Scenario::ALL {
        let table = scenario.flow_table(&schema);
        let events = scenario_events(&schema, scenario);

        let mut mono = Datapath::new(table.clone());
        let mono_report = mono.process_timed_batch(&events);
        let mut sharded = ShardedDatapath::new(table, 1, Steering::Rss);
        let sharded_report = sharded.process_timed_batch(&events);

        assert_eq!(
            sharded_report.aggregate(),
            mono_report,
            "{scenario}: batch report"
        );
        assert_eq!(sharded.stats(), *mono.stats(), "{scenario}: stats");
        assert_eq!(
            sharded.stats().busy_seconds.to_bits(),
            mono.stats().busy_seconds.to_bits(),
            "{scenario}: cost must match to the f64 bit"
        );
        assert_eq!(sharded.mask_count(), mono.mask_count(), "{scenario}: masks");
        assert_eq!(
            sharded.entry_count(),
            mono.entry_count(),
            "{scenario}: entries"
        );

        // Per-key verdicts agree after the replay too (including post-expiry state).
        let mut probe = schema.zero_value();
        probe.set(schema.field_index("tp_dst").unwrap(), 80);
        let a = mono.process_key(&probe, 1500, 20.0);
        let b = sharded.process_key(&probe, 1500, 20.0);
        assert_eq!(a, b, "{scenario}: probe outcome");
    }
}

#[test]
fn merged_shard_stats_equal_aggregate_and_monolithic_verdict_counters() {
    // Partitioning traffic over shards must preserve the verdict counters the flow
    // table decides (allowed/denied and their byte counts are per-key properties), and
    // the aggregate must be exactly the merge of the per-shard stats.
    let schema = FieldSchema::ovs_ipv4();
    let scenario = Scenario::SipDp;
    let table = scenario.flow_table(&schema);
    let events = scenario_events(&schema, scenario);

    let mut mono = Datapath::new(table.clone());
    mono.process_timed_batch(&events);
    for n_shards in [2usize, 4] {
        let mut sharded = ShardedDatapath::new(table.clone(), n_shards, Steering::Rss);
        sharded.process_timed_batch(&events);

        let mut merged = DatapathStats::default();
        for i in 0..sharded.shard_count() {
            merged.merge(sharded.shard(i).stats());
        }
        assert_eq!(merged, sharded.stats(), "{n_shards} shards: merge identity");

        // Verdicts are key-local, so the partition cannot change them.
        let agg = sharded.stats();
        assert_eq!(agg.allowed, mono.stats().allowed, "{n_shards} shards");
        assert_eq!(agg.denied, mono.stats().denied, "{n_shards} shards");
        assert_eq!(agg.allowed_bytes, mono.stats().allowed_bytes);
        assert_eq!(agg.packets(), mono.stats().packets());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn steering_is_a_total_stable_partition(
        values in proptest::collection::vec(0u128..u128::MAX, 6..7),
        n_shards in 1usize..9,
        pinned in 0usize..9,
    ) {
        let schema = FieldSchema::ovs_ipv4();
        let key = Key::from_values(&schema, &values);
        for steering in [
            Steering::Rss,
            Steering::PerTenant,
            Steering::Pinned(pinned % n_shards),
        ] {
            // What a dispatch runs: the datapath's own steering function.
            let dp = ShardedDatapath::new(
                Scenario::Dp.flow_table(&schema),
                n_shards,
                steering,
            );
            // Every key maps to exactly one shard...
            let shard = dp.shard_of_key(&key);
            prop_assert!(shard < n_shards, "{steering:?}: {shard} out of range");
            // ...stable across calls...
            prop_assert_eq!(shard, dp.shard_of_key(&key));
            // ...and a view built outside the datapath (victim placement, partitions
            // computed ahead of dispatch) answers the same.
            prop_assert_eq!(shard, dp.steering_view().shard_of_key(&key));
            prop_assert_eq!(
                shard,
                SteeringView::new(steering, &schema, n_shards).shard_of_key(&key)
            );
        }
    }

    #[test]
    fn rss_steering_ignores_noise_fields(
        values in proptest::collection::vec(0u128..u128::MAX, 6..7),
        ttl in 0u128..256,
    ) {
        let schema = FieldSchema::ovs_ipv4();
        let key = Key::from_values(&schema, &values);
        let mut noisy = key.clone();
        noisy.set(schema.field_index("ttl").unwrap(), ttl);
        let dp = ShardedDatapath::new(Scenario::Dp.flow_table(&schema), 8, Steering::Rss);
        prop_assert_eq!(
            dp.shard_of_key(&key),
            dp.shard_of_key(&noisy),
            "TTL must not move a flow between shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `process_packet` is `process_key` on the packet's checked key, or a family
    /// mismatch charged through `note_wire_fault`: random IPv4 and IPv6, TCP and UDP
    /// packets around the Fig. 6 ACL's allow values, their times spanning revalidation
    /// intervals and idle timeouts, give the same outcome per packet and the same
    /// statistics, mask count and entry count after each one.
    #[test]
    fn process_packet_is_process_key_on_the_checked_key(
        flows in proptest::collection::vec((0u8..4, 0u8..4, 0u16..16, 0usize..4), 1..80),
    ) {
        let mut now = 0.0;
        let packets: Vec<(bool, Packet, f64)> = flows
            .iter()
            .map(|&(kind, host, ports, gap)| {
                let (v6, udp) = (kind & 1 == 1, kind & 2 == 2);
                let (sport, dport) = (12_344 + (ports & 3), 79 + (ports >> 2));
                let proto = if udp { IpProto::Udp } else { IpProto::Tcp };
                let builder = if v6 {
                    let net = 0x2001_0db8 << 96;
                    PacketBuilder::from_numeric_v6(net | u128::from(host), net | 99, proto, sport, dport)
                } else {
                    let net = 0x0a00_0000;
                    PacketBuilder::from_numeric_v4(net | u32::from(host), net | 99, proto, sport, dport)
                };
                now += [0.0, 0.003, 0.4, 4.0][gap];
                (v6, builder.build(), now)
            })
            .collect();
        let schema = FieldSchema::ovs_ipv4();
        let table = Scenario::SipSpDp.flow_table(&schema);
        let (mut by_packet, mut by_key) = (Datapath::new(table.clone()), Datapath::new(table));
        for (i, (v6, pkt, now)) in packets.iter().enumerate() {
            let bytes = pkt.wire_len();
            let got = by_packet.process_packet(pkt, *now);
            let expect = if *v6 {
                by_key.note_wire_fault(WireFault::FamilyMismatch, bytes, *now)
            } else {
                let key = FlowKey::from_packet(pkt).checked_key(&schema);
                prop_assert!(key.is_ok(), "packet {} is IPv4", i);
                by_key.process_key(&key.unwrap(), bytes, *now)
            };
            prop_assert_eq!(got, expect, "packet {}", i);
            prop_assert_eq!(got.cost.to_bits(), expect.cost.to_bits());
            let (got, expect) = (by_packet.stats(), by_key.stats());
            prop_assert_eq!(got.busy_seconds.to_bits(), expect.busy_seconds.to_bits());
            prop_assert_eq!(got, expect, "stats after packet {}", i);
            prop_assert_eq!(by_packet.mask_count(), by_key.mask_count());
            prop_assert_eq!(by_packet.entry_count(), by_key.entry_count());
        }
    }
}
