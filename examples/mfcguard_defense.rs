//! MFCGuard (§8): the same Co-located attack as `colocated_attack`, but with the guard
//! wiping TSE-patterned drop entries every 10 s. The victim keeps its throughput; the
//! cost is slow-path CPU burned on the attacker's packets.
//!
//! Run with: `cargo run --release --example mfcguard_defense`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::mitigation::cpu_model;
use tse::prelude::*;

fn main() {
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipSpDp.flow_table(&schema);

    let victims = vec![VictimFlow::iperf_tcp(
        "victim",
        0x0a00_0005,
        0x0a00_0063,
        10.0,
    )];
    // 60 000 packets at 1 000 pps from t = 10 s, the same stream for both runs.
    let attack = || {
        let keys = Scenario::SipSpDp
            .key_iter(&schema, &schema.zero_value())
            .cycle();
        let rng = StdRng::seed_from_u64(1);
        AttackGenerator::new("Attacker", &schema, keys, rng, 1000.0, 10.0).with_limit(60_000)
    };

    for guarded in [false, true] {
        let datapath = Datapath::new(table.clone());
        let mut runner = ExperimentRunner::new(datapath, victims.clone(), OffloadConfig::gro_off());
        if guarded {
            runner = runner.with_mitigation(GuardMitigation::new(GuardConfig::default()));
        }
        let timeline = runner.run(attack(), 80.0);
        println!(
            "{:9}: victim mean under attack = {:.2} Gbps, peak MFC masks = {}",
            if guarded { "guarded" } else { "unguarded" },
            timeline.mean_total_between(20.0, 69.0),
            timeline.peak_masks()
        );
    }

    println!("\nMFCGuard cost (slow-path CPU, Fig. 9c):");
    for rate in [100.0, 1_000.0, 10_000.0, 50_000.0] {
        println!(
            "  {:>7.0} pps -> {:>6.1} % CPU",
            rate,
            cpu_model::utilization_percent(rate)
        );
    }
}
