//! E-F8c: the Kubernetes timeline of Fig. 8c — 1 Gbps virtio link, SipSpDp ACL injected
//! mid-experiment (t2), attack rate stepping from 1 000 to 2 000 pps (t4), with the
//! megaflow count as the secondary series.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse_attack::scenarios::Scenario;
use tse_attack::source::AttackGenerator;
use tse_bench::{FigArgs, Figure};
use tse_packet::fields::FieldSchema;
use tse_simnet::cloud::CloudPlatform;
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::ExperimentRunner;
use tse_simnet::traffic::VictimFlow;
use tse_switch::cost::CostModel;
use tse_switch::datapath::Datapath;

fn main() {
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), FigArgs::default());
    let platform = CloudPlatform::Kubernetes;
    let schema = FieldSchema::ovs_ipv4();
    let scenario = platform.clamp_scenario(Scenario::SipSpDp);

    // Timeline (matching Fig. 8c): victim iperf from t=0; attacker starts sending at
    // t1=20 s at 1 000 pps against a benign ACL (only the victim's allow rule), injects
    // the malicious ACL at t2=50 s, and doubles the rate to 2 000 pps at t4=100 s.
    let benign_table = Scenario::Baseline.flow_table(&schema);
    let malicious_table = scenario.flow_table(&schema);

    let victims = vec![VictimFlow::iperf_tcp(
        "Victim",
        0x0a000005,
        0x0a000063,
        platform.line_rate_gbps(),
    )];
    let offload = OffloadConfig {
        name: "Kubernetes virtio",
        bytes_per_invocation: 1538,
        line_rate_gbps: platform.line_rate_gbps(),
        cost: CostModel::ovs_kernel_default(),
    };

    // One noise RNG across the three phases. Each phase's last packet is sent before its
    // 50 s run ends, so every phase drains its attacker — and its draws — in full.
    let mut rng = StdRng::seed_from_u64(3);
    let keys = || scenario.key_iter(&schema, &schema.zero_value()).cycle();

    // Phase 1: t=0..50 s, benign ACL, attacker on from t=20 s at 1 000 pps.
    let mut runner = ExperimentRunner::new(Datapath::new(benign_table), victims.clone(), offload);
    let attack1 = AttackGenerator::new("Attacker", &schema, keys(), &mut rng, 1000.0, 20.0);
    let phase1 = runner.run(attack1.with_limit(30_000), 50.0);

    // Phase 2: ACL injected at t2 = 50 s, attack continues at 1 000 pps until t4 = 100 s.
    runner.datapath.install_table(malicious_table);
    let attack2 = AttackGenerator::new("Attacker", &schema, keys(), &mut rng, 1000.0, 0.0);
    let phase2 = runner.run(attack2.with_limit(50_000), 50.0);

    // Phase 3: rate doubled to 2 000 pps from t4 = 100 s to t = 150 s.
    let attack3 = AttackGenerator::new("Attacker", &schema, keys(), &mut rng, 2000.0, 0.0);
    let phase3 = runner.run(attack3.with_limit(100_000), 50.0);

    println!("== Fig. 8c: Kubernetes (OVN), SipSpDp, ACL injected at t2=50 s, rate 1k->2k pps at t4=100 s ==\n");
    println!("time_s\tvictim_gbps\tattack_pps\tmfc_masks\tmfc_entries");
    for (offset, phase) in [(0.0, &phase1), (50.0, &phase2), (100.0, &phase3)] {
        for s in &phase.samples {
            println!(
                "{:6.0}\t{:11.3}\t{:10.0}\t{:9}\t{:11}",
                s.time + offset,
                s.total_victim_gbps(),
                s.attacker_pps,
                s.mask_count,
                s.entry_count
            );
        }
    }
    let benign = phase1.mean_total_between(25.0, 49.0);
    let injected = phase2.mean_total_between(10.0, 49.0);
    let doubled = phase3.mean_total_between(10.0, 49.0);
    println!(
        "\nvictim mean: before ACL injection {benign:.3} Gbps | after injection (1 kpps) {injected:.3} Gbps | at 2 kpps {doubled:.3} Gbps",
    );
    println!("paper: ~1 Gbps baseline, ~80 % drop once the ACL lands, near-zero at 2 000 pps.");

    let peak_masks = [&phase1, &phase2, &phase3]
        .iter()
        .map(|p| p.peak_masks())
        .max()
        .unwrap_or(0);
    let stats = runner.datapath.stats();
    fig.gbps("victim_gbps_benign_acl", benign);
    fig.gbps("victim_gbps_acl_injected", injected);
    fig.gbps("victim_gbps_2kpps", doubled);
    fig.row("peak_masks", "masks", peak_masks as f64);
    fig.row("total_cost_seconds", "cost_seconds", stats.busy_seconds);
    fig.account(&stats);
    fig.finish();
}
