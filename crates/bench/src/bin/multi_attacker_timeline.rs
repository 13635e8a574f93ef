//! E-MA: a scenario the paper's testbed never ran but the streaming API makes a
//! few-lines experiment — **multi-attacker staggered onset**. Three co-located tenants
//! launch TSE waves of increasing strength (Dp at t=20 s, SipDp at t=50 s, a lazy
//! General-TSE SipSpDp sprayer at t=80 s) against a shared datapath carrying two
//! victim flows; the timeline attributes delivered pps per attacker.
//!
//! Run with `--duration <s>` (default 140) — CI smoke-runs it short.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse_attack::general::RandomKeys;
use tse_attack::scenarios::Scenario;
use tse_attack::source::{AttackGenerator, TrafficMix};
use tse_bench::{FigArgs, Figure};
use tse_packet::fields::FieldSchema;
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::ExperimentRunner;
use tse_simnet::traffic::{VictimFlow, VictimSource};
use tse_switch::datapath::Datapath;

fn main() {
    let defaults = FigArgs {
        duration: 140.0,
        ..FigArgs::default()
    };
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), defaults);
    let duration = fig.args.duration;
    let schema = FieldSchema::ovs_ipv4();
    let base = schema.zero_value();
    let table = Scenario::SipSpDp.flow_table(&schema);
    let mut runner =
        ExperimentRunner::new(Datapath::new(table), Vec::new(), OffloadConfig::gro_off());

    // Everything below is lazily generated — no trace is materialised.
    let mix = TrafficMix::new()
        .with(VictimSource::new(
            VictimFlow::iperf_tcp("Victim 1", 0x0a000005, 0x0a000063, 10.0).with_src_port(40001),
            &schema,
            runner.sample_interval,
        ))
        .with(VictimSource::new(
            VictimFlow::iperf_tcp("Victim 2", 0x0a000006, 0x0a000063, 10.0).with_src_port(40002),
            &schema,
            runner.sample_interval,
        ))
        .with(
            AttackGenerator::new(
                "Dp@20s",
                &schema,
                Scenario::Dp.key_iter(&schema, &base).cycle(),
                StdRng::seed_from_u64(1),
                100.0,
                20.0,
            )
            .with_limit(12_000),
        )
        .with(
            AttackGenerator::new(
                "SipDp@50s",
                &schema,
                Scenario::SipDp.key_iter(&schema, &base).cycle(),
                StdRng::seed_from_u64(2),
                100.0,
                50.0,
            )
            .with_limit(9_000),
        )
        .with(
            AttackGenerator::new(
                "General@80s",
                &schema,
                RandomKeys::new(StdRng::seed_from_u64(3), &schema, Scenario::SipSpDp, &base),
                StdRng::seed_from_u64(4),
                500.0,
                80.0,
            )
            .with_limit(20_000),
        );

    let timeline = runner.run_mix(mix, duration);
    println!(
        "== Multi-attacker staggered onset: Dp@20s + SipDp@50s + General-TSE@80s, 2 victims ==\n"
    );
    println!("{}", timeline.render_table());
    let clean = timeline.mean_total_between(5.0, 19.0);
    let dp_only = timeline.mean_total_between(30.0, 49.0);
    let plus_sipdp = timeline.mean_total_between(60.0, 79.0);
    let plus_general = timeline.mean_total_between(90.0, 119.0);
    println!(
        "victim sum: clean {clean:.2} Gbps | Dp only {dp_only:.2} | +SipDp {plus_sipdp:.2} | +General {plus_general:.2}",
    );

    let stats = runner.datapath.stats();
    fig.gbps("victim_gbps_clean", clean);
    fig.gbps("victim_gbps_dp_only", dp_only);
    fig.gbps("victim_gbps_plus_sipdp", plus_sipdp);
    fig.gbps("victim_gbps_plus_general", plus_general);
    fig.row("peak_masks", "masks", timeline.peak_masks() as f64);
    fig.row("peak_entries", "entries", timeline.peak_entries() as f64);
    fig.row("total_cost_seconds", "cost_seconds", stats.busy_seconds);
    fig.account(&stats);
    fig.finish();
}
