//! E-F9a / E-S54: victim throughput and 1 GB flow-completion time as a function of the
//! number of MFC masks, for the four offload configurations of Fig. 9a — plus the §5.4
//! summary percentages at 17 / 260 / 516 / 8200 masks.
//!
//! The mask counts are produced by actually replaying the Co-located traces of each use
//! case through the datapath; the throughput at each point comes from the calibrated
//! cost model (`tse_switch::cost`).

use tse_attack::scenarios::Scenario;
use tse_bench::{render_table, FigArgs, Figure};
use tse_packet::fields::FieldSchema;
use tse_simnet::offload::OffloadConfig;
use tse_switch::datapath::Datapath;

fn measured_masks(scenario: Scenario) -> usize {
    let schema = FieldSchema::ovs_ipv4();
    if !scenario.has_attack_traffic() {
        return 1;
    }
    let table = scenario.flow_table(&schema);
    let mut dp = Datapath::new(table);
    for (i, key) in scenario.key_iter(&schema, &schema.zero_value()).enumerate() {
        dp.process_key(&key, 64, i as f64 * 1e-5);
    }
    dp.mask_count()
}

fn main() {
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), FigArgs::default());
    let configs = OffloadConfig::fig9a_set();

    println!("== Fig. 9a: victim throughput vs. number of MFC masks ==\n");
    let mut header = vec!["use case", "MFC masks"];
    for c in &configs {
        header.push(c.name);
    }
    header.push("FCT 1GB GRO OFF [s]");
    let mut rows = Vec::new();
    let mut per_case = Vec::new();
    for scenario in Scenario::ALL {
        let masks = measured_masks(scenario);
        per_case.push((scenario, masks));
        let mut row = vec![scenario.name().to_string(), format!("{masks}")];
        for c in &configs {
            row.push(format!("{:.3}", c.victim_gbps(masks)));
        }
        row.push(format!(
            "{:.1}",
            OffloadConfig::gro_off().flow_completion_time(masks, 1.0)
        ));
        rows.push(row);
    }
    println!("{}", render_table(&header, &rows));

    println!("\n== §5.4 summary: % of each configuration's own baseline ==\n");
    let mut rows = Vec::new();
    for (scenario, masks) in &per_case {
        if !scenario.has_attack_traffic() {
            continue;
        }
        let mut row = vec![scenario.name().to_string(), format!("{masks}")];
        for c in &configs {
            row.push(format!("{:.1} %", c.degradation_percent(*masks)));
        }
        rows.push(row);
    }
    let mut header = vec!["use case", "MFC masks"];
    for c in &configs {
        header.push(c.name);
    }
    println!("{}", render_table(&header, &rows));
    println!("\npaper anchors (GRO ON / FHO / GRO OFF): Dp 97/88/53 %, SpDp 95/43/10 %, SipDp 76/29/4.7 %, SipSpDp 3.9/2.1/0.2 %");

    let gro_off = OffloadConfig::gro_off();
    for (scenario, masks) in per_case {
        let name = scenario.name();
        fig.row(&format!("{name}/masks"), "masks", masks as f64);
        fig.gbps(
            &format!("{name}/victim_gbps_gro_off"),
            gro_off.victim_gbps(masks),
        );
    }
    fig.finish();
}
