//! The tuple-space explosion replayed as raw Ethernet frames.
//!
//! The same SipDp attack, twice: once as pre-parsed keys (`AttackGenerator`) and once
//! serialized to wire bytes and re-parsed per frame (`WireGenerator`, inside a VLAN
//! tag) — the timelines are bit-for-bit identical, so everything proven at the key
//! level holds on the byte level. A burst of truncated garbage rides along
//! (`WireSource`): the parser never panics, the frames are charged to shard 0's per-kind
//! decode counters, and the timeline reports them in its own `malformed_pps` series
//! instead of any attacker series.
//!
//! Run with `cargo run --release --example wire_replay`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;

const N_SHARDS: usize = 4;
const DURATION: f64 = 32.0;

fn runner(schema: &FieldSchema) -> ExperimentRunner {
    let sharded = ShardedDatapath::from_builder(
        Datapath::builder(Scenario::SipDp.flow_table(schema)),
        N_SHARDS,
        Steering::Rss,
    );
    ExperimentRunner::sharded(sharded, vec![], OffloadConfig::gro_off())
}

fn main() {
    let schema = FieldSchema::ovs_ipv4();
    let victim = VictimFlow::iperf_tcp("Victim", 0x0a00_0005, 0x0a00_0063, 10.0);

    // One SipDp attack: the first 512 keys replayed in a loop, 2000 packets at 100 pps
    // from t = 10 s.
    let keys = || {
        let one_pass = Scenario::SipDp.key_iter(&schema, &schema.zero_value());
        one_pass.take(512).cycle()
    };
    let rng = || StdRng::seed_from_u64(42);

    // Replay it at the key level...
    let mut by_key = runner(&schema);
    let attack = AttackGenerator::new("Attacker", &schema, keys(), rng(), 100.0, 10.0);
    let tl_key = by_key.run_mix(
        TrafficMix::new()
            .with(VictimSource::new(victim.clone(), &schema, 1.0))
            .with(attack.with_limit(2000)),
        DURATION,
    );

    // ...and as raw frames through the wire parser (VLAN-tagged, for good measure —
    // the decoder strips the envelope and classifies the same inner 5-tuple), with
    // truncated junk after the last well-formed frame.
    let attack = WireGenerator::new("Attacker", &schema, keys(), rng(), 100.0, 10.0)
        .with_encap(Encap::Vlan { tci: 7 });
    let mut garbage = WireTrace::new();
    for i in 0..200 {
        garbage.push(30.0 + i as f64 * 0.004, &[0xDE; 9]);
    }
    let mut by_wire = runner(&schema);
    let tl_wire = by_wire.run_mix(
        TrafficMix::new()
            .with(VictimSource::new(victim.clone(), &schema, 1.0))
            .with(attack.with_limit(2000))
            .with(WireSource::replay("Garbage", garbage, &schema)),
        DURATION,
    );

    // The well-formed frames reproduce the key-level run exactly — every f64 of
    // every sample except the malformed series the junk adds.
    for (k, w) in tl_key.samples.iter().zip(&tl_wire.samples) {
        assert_eq!(k.victim_gbps, w.victim_gbps);
        assert_eq!(k.mask_count, w.mask_count);
        assert_eq!(k.attacker_pps, w.attacker_pps);
    }
    let malformed: f64 = tl_wire.samples.iter().map(|s| s.malformed_pps).sum();
    let stats0 = by_wire.datapath.shard(0).stats();
    println!(
        "key-level and wire-level timelines agree over {} samples",
        tl_key.samples.len()
    );
    println!(
        "victim: {:.2} Gbps before, {:.2} Gbps under attack; peak masks {}",
        tl_wire.mean_total_between(2.0, 9.0),
        tl_wire.mean_total_between(20.0, 29.0),
        tl_wire.peak_masks(),
    );
    println!(
        "garbage: {malformed:.0} malformed frames, all truncated ({}) and charged to \
         shard 0 at the unclassified cost",
        stats0.truncated,
    );
    assert_eq!(malformed as u64, stats0.truncated);
}
