//! E-F8a: the synthetic timeline of Fig. 8a — three concurrent TCP victim flows, the
//! SipDp Co-located attack at 100 pps between t1 = 30 s and t2 = 60 s, victim recovery
//! ~10 s after the attack stops (the megaflow idle timeout).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse_attack::scenarios::Scenario;
use tse_attack::source::AttackGenerator;
use tse_bench::{FigArgs, Figure};
use tse_packet::fields::FieldSchema;
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::ExperimentRunner;
use tse_simnet::traffic::VictimFlow;
use tse_switch::datapath::Datapath;

fn main() {
    let defaults = FigArgs {
        duration: 90.0,
        ..FigArgs::default()
    };
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), defaults);
    let duration = fig.args.duration;
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipDp.flow_table(&schema);
    let victims = vec![
        VictimFlow::iperf_tcp("Victim 1", 0x0a000005, 0x0a000063, 10.0).with_src_port(40001),
        VictimFlow::iperf_tcp("Victim 2", 0x0a000006, 0x0a000063, 10.0).with_src_port(40002),
        VictimFlow::iperf_tcp("Victim 3", 0x0a000007, 0x0a000063, 10.0).with_src_port(40003),
    ];
    // Attack: 100 pps from t1 = 30 s for 30 s (3000 packets), cycling the SipDp trace.
    let keys = Scenario::SipDp
        .key_iter(&schema, &schema.zero_value())
        .cycle();
    let rng = StdRng::seed_from_u64(8);
    let attack = AttackGenerator::new("Attacker", &schema, keys, rng, 100.0, 30.0).with_limit(3000);

    let mut runner = ExperimentRunner::new(Datapath::new(table), victims, OffloadConfig::gro_off());
    let timeline = runner.run(attack, duration);
    println!("== Fig. 8a: synthetic timeline, 3 TCP victims, SipDp attack @100 pps, t1=30 s t2=60 s ==\n");
    println!("{}", timeline.render_table());
    let before = timeline.mean_total_between(5.0, 29.0);
    let during = timeline.mean_total_between(40.0, 59.0);
    let after = timeline.mean_total_between(75.0, 89.0);
    println!(
        "aggregate victim rate: before attack {before:.2} Gbps | under attack {during:.2} Gbps | after recovery {after:.2} Gbps",
    );
    println!("paper: 9.7 Gbps aggregate drops below 0.5 Gbps during the attack; recovery lags t2 by ~10 s");

    let stats = runner.datapath.stats();
    fig.gbps("victim_gbps_before", before);
    fig.gbps("victim_gbps_under_attack", during);
    fig.gbps("victim_gbps_recovered", after);
    fig.row("peak_masks", "masks", timeline.peak_masks() as f64);
    fig.row("peak_entries", "entries", timeline.peak_entries() as f64);
    fig.row("total_cost_seconds", "cost_seconds", stats.busy_seconds);
    fig.account(&stats);
    fig.finish();
}
