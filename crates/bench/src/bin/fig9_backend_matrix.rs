//! E-F9-DP: the §7 / Fig. 9 classifier comparison run through the **real datapath**
//! instead of bare classify loops — a datapath of every [`FastPathKind`] (TSS, and the
//! three attack-immune classifiers in front of the megaflow cache) processes the same
//! Co-located attack traces through the full fast path → slow path pipeline, and the
//! victim's per-invocation cost is read off the datapath itself.
//!
//! The second half replays the Fig. 8a timeline experiment (victims + attacker sharing
//! one switch, sampled per second) over the trie and HyperCuts backends: with an
//! attack-immune fast path the victim's throughput stays at baseline through the whole
//! attack window — the end-to-end form of the paper's mitigation claim.

use tse_attack::scenarios::Scenario;
use tse_attack::source::AttackGenerator;
use tse_bench::{render_table, FigArgs, Figure};
use tse_classifier::flowtable::FlowTable;
use tse_packet::fields::{FieldSchema, Key};
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::ExperimentRunner;
use tse_simnet::traffic::VictimFlow;
use tse_switch::datapath::{Datapath, FastPathKind};
use tse_switch::DatapathStats;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Victim cost (µs/packet) and fast-path state before and after replaying a scenario's
/// attack trace through a datapath.
struct CaseRow {
    backend: &'static str,
    baseline_us: f64,
    attacked_us: f64,
    masks: usize,
    entries: usize,
    stats: DatapathStats,
}

fn run_case(table: &FlowTable, kind: FastPathKind, scenario: Scenario, victim: &Key) -> CaseRow {
    let mut dp = Datapath::builder(table.clone()).fast_path(kind).build();
    dp.process_key(victim, 1500, 0.0);
    let baseline = dp.process_key(victim, 1500, 0.001);
    let schema = dp.table().schema().clone();
    for (i, key) in scenario.key_iter(&schema, &schema.zero_value()).enumerate() {
        dp.process_key(&key, 64, 0.01 + i as f64 * 1e-4);
    }
    let attacked = dp.process_key(victim, 1500, 0.9);
    CaseRow {
        backend: kind.name(),
        baseline_us: baseline.cost * 1e6,
        attacked_us: attacked.cost * 1e6,
        masks: dp.mask_count(),
        entries: dp.entry_count(),
        stats: *dp.stats(),
    }
}

fn backend_matrix(fig: &mut Figure) {
    let schema = FieldSchema::ovs_ipv4();
    println!("== Fig. 9 through the datapath: victim cost per backend, per use case ==\n");
    for scenario in [
        Scenario::Dp,
        Scenario::SpDp,
        Scenario::SipDp,
        Scenario::SipSpDp,
    ] {
        let table = scenario.flow_table(&schema);
        let mut victim = schema.zero_value();
        victim.set(schema.field_index("tp_dst").unwrap(), 80);

        let rows = [
            FastPathKind::Tss,
            FastPathKind::LinearSearch,
            FastPathKind::Trie,
            FastPathKind::HyperCuts,
        ]
        .map(|kind| run_case(&table, kind, scenario, &victim));
        println!("-- use case {} --", scenario.name());
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.backend.to_string(),
                    format!("{:.2}", r.baseline_us),
                    format!("{:.2}", r.attacked_us),
                    format!("{:.1}x", r.attacked_us / r.baseline_us),
                    r.masks.to_string(),
                    r.entries.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "backend",
                    "baseline us",
                    "attacked us",
                    "slowdown",
                    "masks",
                    "entries"
                ],
                &table_rows
            )
        );
        for r in rows {
            let tag = format!("{}/{}", scenario.name(), r.backend);
            fig.row(
                &format!("{tag}/attacked_us"),
                "us_per_packet",
                r.attacked_us,
            );
            fig.row(&format!("{tag}/masks"), "masks", r.masks as f64);
            fig.account(&r.stats);
        }
    }
}

fn timelines(fig: &mut Figure) {
    let duration = fig.args.duration;
    let schema = FieldSchema::ovs_ipv4();
    let scenario = Scenario::SipDp;
    let table = scenario.flow_table(&schema);
    let victims = vec![VictimFlow::iperf_tcp(
        "Victim 1",
        0x0a000005,
        0x0a00_0063,
        10.0,
    )];
    // The same attack for both runners: 3000 packets at 100 pps from t = 20 s.
    let attack = || {
        let keys = scenario.key_iter(&schema, &schema.zero_value()).cycle();
        let rng = StdRng::seed_from_u64(99);
        AttackGenerator::new("Attacker", &schema, keys, rng, 100.0, 20.0).with_limit(3000)
    };

    println!("\n== Fig. 8a-style timelines under attack-immune backends (SipDp, 100 pps) ==");
    let mut trie_runner = ExperimentRunner::new(
        Datapath::builder(table.clone())
            .fast_path(FastPathKind::Trie)
            .build(),
        victims.clone(),
        OffloadConfig::gro_off(),
    );
    let trie_tl = trie_runner.run(attack(), duration);
    println!("\n-- hierarchical tries --");
    println!("{}", trie_tl.render_table());

    let mut hc_runner = ExperimentRunner::new(
        Datapath::builder(table)
            .fast_path(FastPathKind::HyperCuts)
            .build(),
        victims,
        OffloadConfig::gro_off(),
    );
    let hc_tl = hc_runner.run(attack(), duration);
    println!("-- hypercuts --");
    println!("{}", hc_tl.render_table());

    for (name, tl) in [("trie", &trie_tl), ("hypercuts", &hc_tl)] {
        let before = tl.mean_total_between(5.0, 19.0);
        let during = tl.mean_total_between(30.0, 49.0);
        println!("{name}: mean victim Gbps before attack {before:.2}, during attack {during:.2}");
        fig.gbps(&format!("timeline/{name}/victim_gbps_under_attack"), during);
        fig.gbps(&format!("timeline/{name}/victim_gbps_before"), before);
    }
    fig.account(&trie_runner.datapath.stats());
    fig.account(&hc_runner.datapath.stats());
}

fn main() {
    let defaults = FigArgs {
        duration: 70.0,
        ..FigArgs::default()
    };
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), defaults);
    backend_matrix(&mut fig);
    timelines(&mut fig);
    fig.finish();
}
