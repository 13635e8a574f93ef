//! The wire-ingestion acceptance path, end-to-end: an IPv6 explosion replayed as
//! *raw Ethernet frames* — crafted, serialized and re-parsed per packet by
//! [`WireGenerator`] — through the sharded datapath, with a garbage replay riding
//! along. The timeline must be bit-for-bit identical across all three executors,
//! the attack must degrade the victim, the guard+rekey stack must restore it, and
//! every undecodable frame must be charged to shard 0's per-kind counters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::packet::wire::WireFault;
use tse::packet::IpProto;
use tse::prelude::*;

const ATTACK_START: f64 = 15.0;
const ATTACK_PPS: f64 = 400.0;
const DURATION: f64 = 50.0;
const GARBAGE_FRAMES: usize = 120;
const ALLOWED_SRC: u128 = 0xfd00_0000_0000_0000_0000_0000_0000_0001;
const SERVICE_DST: u128 = 0xfd00_0000_0000_0000_0000_0000_0000_0063;

/// One full wire-level experiment: IPv6 victim + serialized random SipDp-over-IPv6
/// explosion + a burst of truncated garbage frames, on 4 shards under `executor`.
/// Returns the timeline and the merged + shard-0 wire counters.
fn run(executor: impl ShardExecutor + 'static, guarded: bool) -> (Timeline, u64, u64) {
    let schema = FieldSchema::ovs_ipv6();
    let tp_dst = schema.field_index("tp_dst").unwrap();
    let ip6_src = schema.field_index("ip6_src").unwrap();
    let table = FlowTable::whitelist_default_deny(&schema, &[(tp_dst, 80), (ip6_src, ALLOWED_SRC)]);
    let sharded = ShardedDatapath::from_builder(
        Datapath::builder(table).strategy(MegaflowStrategy::wildcarding(&schema)),
        4,
        Steering::Rss,
    )
    .with_executor(executor);
    let mut runner = ExperimentRunner::sharded(sharded, Vec::new(), OffloadConfig::gro_off());
    if guarded {
        runner = runner
            .with_mitigation(GuardMitigation::new(GuardConfig::default()))
            .with_mitigation(RssKeyRandomizer::new(10.0, 0xC0FFEE));
    }

    let rng = StdRng::seed_from_u64(99);
    let keys = RandomKeys::on_fields(rng, &schema, &[ip6_src, tp_dst], &schema.zero_value())
        .take(((DURATION - ATTACK_START) * ATTACK_PPS) as usize);
    let mut garbage = WireTrace::new();
    for i in 0..GARBAGE_FRAMES {
        // 9 bytes: shorter than an Ethernet header, so every frame is Truncated.
        garbage.push(ATTACK_START + i as f64 * 0.05, &[0xDE; 9]);
    }
    let mix = TrafficMix::new()
        .with(VictimSource::new(
            VictimFlow::iperf_tcp_v6("Victim", ALLOWED_SRC, SERVICE_DST, 10.0),
            &schema,
            1.0,
        ))
        .with(WireGenerator::new(
            "Attacker",
            &schema,
            keys,
            StdRng::seed_from_u64(7),
            ATTACK_PPS,
            ATTACK_START,
        ))
        .with(WireSource::replay("Garbage", garbage, &schema));
    let tl = runner.run_mix(mix, DURATION);
    let truncated_shard0 = runner.datapath.shard(0).stats().truncated;
    let truncated_elsewhere: u64 = (1..4)
        .map(|s| runner.datapath.shard(s).stats().truncated)
        .sum();
    (tl, truncated_shard0, truncated_elsewhere)
}

#[test]
fn wire_replay_is_executor_invariant_degrades_and_recovers() {
    for guarded in [false, true] {
        let stack = if guarded { "guard+rekey" } else { "none" };
        let (seq, seq_s0, seq_rest) = run(SequentialExecutor, guarded);
        let (pers, pers_s0, pers_rest) = run(PersistentPoolExecutor::new(4), guarded);

        // Bit-for-bit executor parity, malformed series included: Vec<TimelineSample>
        // equality compares every f64 of every sample.
        assert_eq!(
            seq.samples, pers.samples,
            "{stack}: persistent pool diverged"
        );

        // Every garbage frame is charged to shard 0 — the ingestion point — and
        // nowhere else, under every executor.
        for (who, s0, rest) in [
            ("sequential", seq_s0, seq_rest),
            ("persistent", pers_s0, pers_rest),
        ] {
            assert_eq!(
                s0, GARBAGE_FRAMES as u64,
                "{stack}/{who}: shard-0 truncated"
            );
            assert_eq!(
                rest, 0,
                "{stack}/{who}: truncated frames leaked off shard 0"
            );
        }
        let malformed: f64 = seq.samples.iter().map(|s| s.malformed_pps).sum();
        assert_eq!(malformed.round() as usize, GARBAGE_FRAMES);

        // The well-formed frames, meanwhile, explode the tuple space.
        let peak_masks = seq.samples.iter().map(|s| s.mask_count).max().unwrap();
        // Baseline window ends before the first rekey (t = 10 s), which re-steers
        // the victim for one interval even with no attack underway.
        let before = seq.mean_total_between(3.0, 9.0);
        let during = seq.mean_total_between(ATTACK_START + 10.0, DURATION - 1.0);
        assert!(
            (before - 10.0).abs() < 0.5,
            "{stack}: victim baseline {before}"
        );
        if guarded {
            assert!(
                during > before * 0.5,
                "guard+rekey must restore the victim: {before} -> {during}"
            );
        } else {
            assert!(peak_masks > 200, "explosion too small: {peak_masks} masks");
            assert!(
                during < before * 0.5,
                "the wire-replayed explosion must degrade the victim: {before} -> {during}"
            );
        }
    }
}

/// Replays a fixed list of events — a key-level source of packets it did not craft.
struct Replay(std::vec::IntoIter<TrafficEvent>);

impl TrafficSource for Replay {
    fn label(&self) -> &str {
        "atk"
    }

    fn next_event(&mut self) -> Option<TrafficEvent> {
        self.0.next()
    }
}

/// A packet of a family the schema cannot express is one fault, not two behaviours:
/// the key-level ingress (`FlowKey::checked_key` into `TrafficEvent::classified`) and the
/// wire-level replay of the packets' frames emit the same `Malformed { FamilyMismatch }`
/// events (zero key — no address is ever cut down to the other family's width), and a
/// run over either charges shard 0 and installs nothing.
#[test]
fn a_family_the_schema_cannot_express_is_the_same_fault_on_both_ingresses() {
    fn stream(mut src: impl TrafficSource) -> Vec<TrafficEvent> {
        std::iter::from_fn(move || src.next_event()).collect()
    }
    let (v4, v6) = (FieldSchema::ovs_ipv4(), FieldSchema::ovs_ipv6());
    for (packets_v6, acl) in [(true, &v4), (false, &v6)] {
        // 64 TCP packets of the other family at 50 pps from t = 0.5 s.
        let packets: Vec<(f64, Packet)> = (0..64u16)
            .map(|i| {
                let builder = if packets_v6 {
                    PacketBuilder::from_numeric_v6(
                        (0xfd00 << 112) | u128::from(i),
                        (0xfd00 << 112) | 0x63,
                        IpProto::Tcp,
                        40_000 + i,
                        80,
                    )
                } else {
                    PacketBuilder::tcp_v4([10, 0, 1, i as u8], [10, 0, 0, 0x63], 40_000 + i, 80)
                };
                (0.5 + f64::from(i) / 50.0, builder.build())
            })
            .collect();
        let keyed: Vec<TrafficEvent> = packets
            .iter()
            .map(|(time, p)| {
                let key = FlowKey::from_packet(p).checked_key(acl);
                TrafficEvent::classified(*time, p.wire_len(), key, acl)
            })
            .collect();
        let frames = || {
            let mut frames = WireTrace::new();
            for (time, p) in &packets {
                frames.push_packet(*time, p, Encap::None);
            }
            WireSource::replay("atk", frames, acl)
        };
        assert_eq!(keyed, stream(frames()));
        for (ev, (time, p)) in keyed.iter().zip(&packets) {
            let fault = WireFault::FamilyMismatch;
            assert_eq!(ev.payload, EventPayload::Malformed { fault });
            assert_eq!(ev.key, acl.zero_value());
            assert_eq!((ev.time, ev.bytes), (*time, p.wire_len()));
        }

        let tp_dst = acl.field_index("tp_dst").unwrap();
        let table = FlowTable::whitelist_default_deny(acl, &[(tp_dst, 80)]);
        let n = packets.len() as u64;
        let run = |source: Box<dyn TrafficSource>| {
            let dp = ShardedDatapath::new(table.clone(), 4, Steering::Rss);
            let mut runner = ExperimentRunner::sharded(dp, Vec::new(), OffloadConfig::gro_off());
            let mut mix = TrafficMix::new();
            mix.push(source);
            let tl = runner.run_mix(mix, 3.0);
            let dp = &runner.datapath;
            assert_eq!(dp.shard(0).stats().unclassified, n);
            assert_eq!(dp.stats().packets(), n, "shard 0 only");
            assert_eq!(dp.stats().allowed, n);
            assert!(tl.samples.iter().all(|s| s.mask_count == 0));
            assert_eq!((dp.mask_count(), dp.entry_count()), (0, 0));
            tl
        };
        let by_key = run(Box::new(Replay(keyed.clone().into_iter())));
        let by_wire = run(Box::new(frames()));
        assert_eq!(by_key.samples, by_wire.samples);
        let malformed: f64 = by_key.samples.iter().map(|s| s.malformed_pps).sum();
        assert_eq!(malformed.round() as u64, n);
    }
}
