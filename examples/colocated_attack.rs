//! Co-located TSE (§5): the attacker leases a VM next to the victim, installs the Fig. 6
//! ACL for its own service through the CMS, and replays the bit-inversion trace at
//! 100 pps. The victim's iperf throughput collapses and recovers ~10 s after the attack
//! stops (the megaflow idle timeout).
//!
//! Run with: `cargo run --release --example colocated_attack`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;

const VICTIM_IP: u32 = 0x0a00_0063; // 10.0.0.99
const ATTACKER_IP: u32 = 0x0a00_00c8; // 10.0.0.200

fn main() {
    let schema = FieldSchema::ovs_ipv4();

    // The shared hypervisor switch runs the merged ACLs of both tenants.
    let table = tse::switch::tenant::victim_and_attacker_table(
        &schema,
        u128::from(VICTIM_IP),
        u128::from(ATTACKER_IP),
    );
    let datapath = Datapath::new(table);

    // Victim: a 10 Gbps iperf session towards its web service.
    let victims = vec![VictimFlow::iperf_tcp(
        "victim",
        0x0a00_0005,
        VICTIM_IP,
        10.0,
    )];

    // Attacker: co-located trace against its *own* ACL (destination = attacker's service),
    // 100 pps from t = 30 s for 30 s.
    let mut base = schema.zero_value();
    base.set(
        schema.field_index("ip_dst").unwrap(),
        u128::from(ATTACKER_IP),
    );
    let keys = Scenario::SipSpDp.key_iter(&schema, &base).cycle();
    let rng = StdRng::seed_from_u64(42);
    let attack = AttackGenerator::new("Attacker", &schema, keys, rng, 100.0, 30.0).with_limit(3000);
    // What the attacker puts on the wire, read off a copy of the stream.
    let mut copy = attack.clone();
    let events: Vec<TrafficEvent> = std::iter::from_fn(|| copy.next_event()).collect();
    let bytes: usize = events.iter().map(|ev| ev.bytes).sum();
    let seconds = events[events.len() - 1].time - events[0].time;
    println!(
        "attack trace: {} packets, {:.2} Mbps on the wire",
        events.len(),
        bytes as f64 * 8.0 / seconds / 1e6
    );

    let mut runner = ExperimentRunner::new(datapath, victims, OffloadConfig::gro_off());
    let timeline = runner.run(attack, 90.0);
    println!("{}", timeline.render_table());
    println!(
        "mean victim throughput: before {:.2} Gbps, under attack {:.2} Gbps, after recovery {:.2} Gbps",
        timeline.mean_total_between(5.0, 29.0),
        timeline.mean_total_between(40.0, 59.0),
        timeline.mean_total_between(75.0, 89.0),
    );
}
