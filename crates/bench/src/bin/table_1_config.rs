//! E-T1: Table 1 of the paper lists the physical testbeds (Xeon servers, Mellanox CX-4,
//! OpenStack Queens, Kubernetes 1.7). The reproduction runs no hardware; this binary
//! prints the simulator calibration that substitutes for it (the `tse_switch::cost`
//! module docs state the model).

use tse_bench::{render_table, FigArgs, Figure};
use tse_simnet::cloud::CloudPlatform;
use tse_simnet::offload::OffloadConfig;

fn main() {
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), FigArgs::default());
    println!("== Table 1 substitute: simulator calibration ==\n");
    let rows: Vec<Vec<String>> = OffloadConfig::fig9a_set()
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{}", c.bytes_per_invocation),
                format!("{:.1}", c.line_rate_gbps),
                format!("{:.2}", c.cost.fixed * 1e6),
                format!("{:.1}", c.cost.per_mask * 1e9),
                format!("{:.0}", c.cost.upcall * 1e6),
                format!("{:.2}", c.baseline_gbps()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "offload config",
                "bytes/invocation",
                "line Gbps",
                "fixed us",
                "per-mask ns",
                "upcall us",
                "baseline Gbps"
            ],
            &rows
        )
    );

    println!("\n== Orchestrator models ==\n");
    let rows: Vec<Vec<String>> = [
        CloudPlatform::Synthetic,
        CloudPlatform::OpenStack,
        CloudPlatform::Kubernetes,
    ]
    .iter()
    .map(|p| {
        vec![
            p.name().to_string(),
            format!("{:.1}", p.line_rate_gbps()),
            p.max_scenario().name().to_string(),
            format!("{:?}", p.allowed_fields()),
        ]
    })
    .collect();
    println!(
        "{}",
        render_table(
            &["platform", "line Gbps", "max scenario", "tenant-ACL fields"],
            &rows
        )
    );

    for c in OffloadConfig::fig9a_set() {
        fig.gbps(&format!("{}/baseline_gbps", c.name), c.baseline_gbps());
    }
    fig.finish();
}
