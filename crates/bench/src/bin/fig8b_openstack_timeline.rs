//! E-F8b: the OpenStack timeline of Fig. 8b — SipDp (the strongest pattern the OpenStack
//! security-group API can express), attacker active 0–60 s and again from 90 s, victim
//! (full-rate UDP iperf) joining at t = 30 s.
//!
//! The on/off attacker is expressed with the streaming API: two attack generators in
//! one `TrafficMix` (no hand-stitched trace), the late-joining victim is a third source.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse_attack::scenarios::Scenario;
use tse_attack::source::{AttackGenerator, TrafficMix};
use tse_bench::{FigArgs, Figure};
use tse_packet::fields::FieldSchema;
use tse_simnet::cloud::CloudPlatform;
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::ExperimentRunner;
use tse_simnet::traffic::{VictimFlow, VictimSource};
use tse_switch::cost::CostModel;
use tse_switch::datapath::Datapath;

fn main() {
    let defaults = FigArgs {
        duration: 120.0,
        ..FigArgs::default()
    };
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), defaults);
    let duration = fig.args.duration;
    let platform = CloudPlatform::OpenStack;
    let scenario = platform.clamp_scenario(Scenario::SipSpDp);
    let schema = FieldSchema::ovs_ipv4();
    let table = scenario.flow_table(&schema);

    // Victim: UDP iperf joining at t = 30 s, offered at the platform's line rate.
    let victim = VictimFlow::iperf_udp("Victim", 0x0a000005, 0x0a000063, platform.line_rate_gbps())
        .active_between(30.0, f64::INFINITY);
    // Attacker: 100 pps, on during 0–60 s and again 90–120 s — two sources, one mix,
    // each wave with its own noise seed.
    let wave = |label, seed, start, count| {
        let keys = scenario.key_iter(&schema, &schema.zero_value()).cycle();
        let rng = StdRng::seed_from_u64(seed);
        AttackGenerator::new(label, &schema, keys, rng, 100.0, start).with_limit(count)
    };

    let offload = OffloadConfig {
        name: "OpenStack UDP",
        bytes_per_invocation: 1538,
        line_rate_gbps: platform.line_rate_gbps(),
        cost: CostModel::ovs_kernel_default(),
    };
    let mut runner = ExperimentRunner::new(Datapath::new(table), Vec::new(), offload);
    let mix = TrafficMix::new()
        .with(VictimSource::new(victim, &schema, runner.sample_interval))
        .with(wave("Attacker (1st wave)", 21, 0.0, 6000))
        .with(wave("Attacker (2nd wave)", 22, 90.0, 3000));
    let timeline = runner.run_mix(mix, duration);
    println!(
        "== Fig. 8b: OpenStack (OVN), {} scenario, victim joins at t=30 s ==\n",
        scenario.name()
    );
    println!("{}", timeline.render_table());
    let attacker_on = timeline.mean_total_between(30.0, 60.0);
    let attacker_off = timeline.mean_total_between(70.0, 89.0);
    let attacker_back = timeline.mean_total_between(95.0, 119.0);
    println!(
        "victim mean: 30–60 s (attacker on) {attacker_on:.3} Gbps | 70–90 s (attacker off) {attacker_off:.3} Gbps | 95–120 s (attacker back) {attacker_back:.3} Gbps",
    );
    println!(
        "paper: >90 % reduction while both are active; recovery 10 s after the attacker stops."
    );
    println!("note: the paper's re-activation anomaly (long-lived flows barely affected when the");
    println!("attacker returns) was tied to an unstable OVS build and is not modelled.");

    let stats = runner.datapath.stats();
    fig.gbps("victim_gbps_attacker_on", attacker_on);
    fig.gbps("victim_gbps_attacker_off", attacker_off);
    fig.gbps("victim_gbps_attacker_back", attacker_back);
    fig.row("peak_masks", "masks", timeline.peak_masks() as f64);
    fig.row("peak_entries", "entries", timeline.peak_entries() as f64);
    fig.row("total_cost_seconds", "cost_seconds", stats.busy_seconds);
    fig.account(&stats);
    fig.finish();
}
