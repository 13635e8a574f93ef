//! Quickstart: build the Fig. 6 ACL, run the Co-located TSE attack against a simulated
//! OVS datapath, and watch the tuple space explode — then put an attack-immune classifier
//! (§7) on the fast path and watch nothing happen.
//!
//! Run with: `cargo run --example quickstart`

use tse::prelude::*;

/// Replay a scenario's attack trace through a datapath (any fast path) and report the
/// victim's per-packet cost before and after, using the batched entry point.
fn attack_report(
    mut dp: Datapath,
    schema: &FieldSchema,
    scenario: Scenario,
) -> (f64, f64, usize, usize) {
    // The victim: a web service reachable on port 80 (rule #1 of Fig. 6).
    let victim = PacketBuilder::tcp_v4([192, 168, 1, 10], [10, 0, 0, 99], 40000, 80).build();
    dp.process_packet(&victim, 0.0);
    let baseline_cost = dp.process_packet(&victim, 0.001).cost;

    // The attacker: the co-located bit-inversion trace, pushed through in one batch.
    let trace: Vec<(Key, usize, f64)> = scenario
        .key_iter(schema, &schema.zero_value())
        .map(|key| (key, 64, 0.5))
        .collect();
    let report = dp.process_timed_batch(&trace);

    let attacked_cost = dp.process_packet(&victim, 1.0).cost;
    (
        baseline_cost,
        attacked_cost,
        report.processed,
        dp.mask_count(),
    )
}

fn main() {
    let schema = FieldSchema::ovs_ipv4();

    println!("== Tuple Space Explosion quickstart ==\n");
    println!("-- TSS fast path (the default backend; Observation 1 in action) --");
    for scenario in Scenario::ALL {
        let table = scenario.flow_table(&schema);
        let dp = Datapath::builder(table).build();
        let (base, attacked, packets, masks) = attack_report(dp, &schema, scenario);
        println!(
            "{:9}: {:5} attack packets -> {:5} MFC masks; victim per-packet cost {:6.2} us -> {:8.2} us ({}x)",
            scenario.name(),
            packets,
            masks,
            base * 1e6,
            attacked * 1e6,
            (attacked / base).round()
        );
    }

    println!("\n-- Hierarchical-trie fast path (attack-immune, §7) --");
    for scenario in Scenario::ALL {
        let table = scenario.flow_table(&schema);
        let dp = Datapath::builder(table)
            .fast_path(FastPathKind::Trie)
            .build();
        let (base, attacked, packets, masks) = attack_report(dp, &schema, scenario);
        println!(
            "{:9}: {:5} attack packets -> {:5} masks; victim per-packet cost {:6.2} us -> {:8.2} us ({}x)",
            scenario.name(),
            packets,
            masks,
            base * 1e6,
            attacked * 1e6,
            (attacked / base).round()
        );
    }

    println!(
        "\nSee the README's \"Running the figure binaries\" for the full figure reproductions."
    );
}
