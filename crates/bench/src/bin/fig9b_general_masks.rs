//! E-F9b / E-S62: General TSE — expected (analytic, Eq. 1/2) vs. measured number of MFC
//! masks as a function of the number of random attack packets, per use case, plus the
//! §6.2 degradation summary at 1 000 and 50 000 packets.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse_attack::expectation::ExpectationModel;
use tse_attack::general::RandomKeys;
use tse_attack::scenarios::Scenario;
use tse_bench::{render_table, FigArgs, Figure};
use tse_packet::fields::FieldSchema;
use tse_simnet::offload::OffloadConfig;
use tse_switch::datapath::Datapath;

fn measure(scenario: Scenario, n: usize, seed: u64) -> usize {
    let schema = FieldSchema::ovs_ipv4();
    let table = scenario.flow_table(&schema);
    let mut dp = Datapath::new(table);
    let rng = StdRng::seed_from_u64(seed);
    let keys = RandomKeys::new(rng, &schema, scenario, &schema.zero_value()).take(n);
    for (i, key) in keys.enumerate() {
        dp.process_key(&key, 64, i as f64 * 1e-5);
    }
    dp.mask_count()
}

fn main() {
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), FigArgs::default());
    let schema = FieldSchema::ovs_ipv4();
    let cases = [Scenario::Dp, Scenario::SipDp, Scenario::SipSpDp];
    let packet_counts = [10usize, 100, 1_000, 5_000, 10_000, 50_000];

    println!("== Fig. 9b: expected (E) and measured (M) MFC masks vs. random packets ==\n");
    let mut header = vec!["packets".to_string()];
    for c in &cases {
        header.push(format!("{} (E)", c.name()));
        header.push(format!("{} (M)", c.name()));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut rows = Vec::new();
    for &n in &packet_counts {
        let mut row = vec![format!("{n}")];
        for c in &cases {
            let model = ExpectationModel::for_scenario(&schema, *c);
            row.push(format!("{:.1}", model.expected_masks(n as u64)));
            row.push(format!("{}", measure(*c, n, 1000 + n as u64)));
        }
        rows.push(row);
    }
    println!("{}", render_table(&header_refs, &rows));
    println!("\npaper anchors at 50 000 packets: Dp ~16, SipDp ~122, SipSpDp ~581 masks");

    println!("\n== §6.2: General-TSE degradation (GRO OFF, % of baseline) ==\n");
    let gro_off = OffloadConfig::gro_off();
    let mut rows = Vec::new();
    for &n in &[1_000usize, 50_000] {
        for c in &cases {
            let masks = measure(*c, n, 7 + n as u64);
            rows.push(vec![
                format!("{n}"),
                c.name().to_string(),
                format!("{masks}"),
                format!("{:.1} %", gro_off.degradation_percent(masks)),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["packets", "use case", "masks", "victim capacity (GRO OFF)"],
            &rows
        )
    );
    println!("\npaper anchors: 1 000 pkts -> 72.8 % (Dp), 25.4 % (SpDp/SipDp), 11.7 % (SipSpDp); 50 000 pkts -> 52 %, 12 %, 1 %");

    for c in cases {
        let name = c.name();
        let expected = ExpectationModel::for_scenario(&schema, c).expected_masks(50_000);
        let measured = measure(c, 50_000, 1000 + 50_000);
        fig.row(&format!("{name}/expected_masks_50k"), "masks", expected);
        fig.row(
            &format!("{name}/measured_masks_50k"),
            "masks",
            measured as f64,
        );
    }
    fig.finish();
}
