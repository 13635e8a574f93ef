//! E-F9c: MFCGuard's cost — slow-path (ovs-vswitchd) CPU utilisation as a function of
//! the attack packet rate once the guard keeps adversarial traffic out of the fast path.
//!
//! Two halves:
//!
//! 1. a guarded timeline per attack rate, run through the composable
//!    `MitigationStack` API ([`GuardMitigation`] attached with
//!    `ExperimentRunner::with_mitigation`): the victim keeps its throughput while the
//!    guard's sweeps — surfaced as [`MitigationAction::GuardSweep`] in the timeline —
//!    report the projected slow-path CPU the balancing exit of Alg. 2 reasons about;
//! 2. the bare calibrated CPU model, the analytic curve of Fig. 9c.
//!
//! Run with `--duration <s>` (default 60) — CI smoke-runs it short.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse_attack::scenarios::Scenario;
use tse_attack::source::{AttackGenerator, TrafficMix};
use tse_bench::sipdp::attack_packets;
use tse_bench::{render_table, FigArgs, Figure};
use tse_mitigation::cpu_model;
use tse_mitigation::guard::{GuardConfig, GuardMitigation};
use tse_mitigation::stack::MitigationAction;
use tse_packet::fields::FieldSchema;
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::ExperimentRunner;
use tse_simnet::traffic::{VictimFlow, VictimSource};
use tse_switch::datapath::Datapath;

const ATTACK_START: f64 = 10.0;

fn main() {
    let defaults = FigArgs {
        duration: 60.0,
        ..FigArgs::default()
    };
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), defaults);
    let duration = fig.args.duration;
    let schema = FieldSchema::ovs_ipv4();
    let scenario = Scenario::SipDp;

    println!("== Fig. 9c: slow-path CPU usage vs. attack rate (MFCGuard active) ==\n");
    println!("-- guarded timelines (MitigationStack: one GuardMitigation stage) --");
    let mut rows = Vec::new();
    for rate in [100.0f64, 1_000.0, 5_000.0] {
        let mut runner = ExperimentRunner::new(
            Datapath::new(scenario.flow_table(&schema)),
            Vec::new(),
            OffloadConfig::gro_off(),
        )
        .with_mitigation(GuardMitigation::new(GuardConfig::default()));
        let mix = TrafficMix::new()
            .with(VictimSource::new(
                VictimFlow::iperf_tcp("victim", 0x0a00_0005, 0x0a00_0063, 10.0),
                &schema,
                runner.sample_interval,
            ))
            .with(
                AttackGenerator::new(
                    "attacker",
                    &schema,
                    scenario.key_iter(&schema, &schema.zero_value()).cycle(),
                    StdRng::seed_from_u64(9),
                    rate,
                    ATTACK_START,
                )
                .with_limit(attack_packets(ATTACK_START, rate, duration)),
            );
        let tl = runner.run_mix(mix, duration);
        let during_end = duration - 1.0;
        let victim_during = tl.mean_total_between(ATTACK_START + 5.0, during_end);
        let (mut sweeps, mut swept_entries, mut peak_cpu) = (0u64, 0usize, 0.0f64);
        for s in &tl.samples {
            for a in &s.mitigation_actions {
                if let MitigationAction::GuardSweep(r) = a {
                    peak_cpu = peak_cpu.max(r.projected_cpu_percent);
                    if r.entries_removed > 0 {
                        sweeps += 1;
                        swept_entries += r.entries_removed;
                    }
                }
            }
        }
        rows.push(vec![
            format!("{rate:.0}"),
            format!("{victim_during:5.2}"),
            format!("{sweeps}"),
            format!("{swept_entries}"),
            format!("{peak_cpu:6.1} %"),
        ]);
        let tag = format!("guarded/{rate:.0}pps");
        fig.gbps(&format!("{tag}/victim_gbps"), victim_during);
        fig.row(
            &format!("{tag}/swept_entries"),
            "entries",
            swept_entries as f64,
        );
        fig.row(&format!("{tag}/peak_slow_path_cpu"), "percent", peak_cpu);
        fig.account(&runner.datapath.stats());
    }
    println!(
        "{}",
        render_table(
            &[
                "attack rate [pps]",
                "victim Gbps",
                "sweeps",
                "entries wiped",
                "projected slow-path CPU",
            ],
            &rows,
        )
    );

    println!("-- calibrated ovs-vswitchd CPU model --");
    let rows: Vec<Vec<String>> = [
        10.0f64, 100.0, 1_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0,
    ]
    .iter()
    .map(|&rate| {
        vec![
            format!("{rate:.0}"),
            format!("{:.1} %", cpu_model::utilization_percent(rate)),
        ]
    })
    .collect();
    println!(
        "{}",
        render_table(&["attack rate [pps]", "ovs-vswitchd CPU"], &rows)
    );
    println!("\npaper anchors: ~15 % at 1 000 pps, ~80 % at 10 000 pps, saturating ~250 % towards 50 000 pps");

    for rate in [1_000.0f64, 10_000.0, 50_000.0] {
        fig.row(
            &format!("cpu_model/{rate:.0}pps"),
            "percent",
            cpu_model::utilization_percent(rate),
        );
    }
    fig.finish();
}
