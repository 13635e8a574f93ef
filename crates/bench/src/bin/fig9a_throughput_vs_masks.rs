//! E-F9a / E-S54: victim throughput and 1 GB flow-completion time as a function of the
//! number of MFC masks, for the four offload configurations of Fig. 9a — plus the §5.4
//! summary percentages at 17 / 260 / 516 / 8200 masks.
//!
//! The mask counts are produced by actually replaying the Co-located traces of each use
//! case through the datapath; the throughput at each point comes from the calibrated
//! cost model (`tse_switch::cost`).
//!
//! Observation 1 in host time: at each use case's mask count, a warm `TupleSpace::lookup`
//! of a header every megaflow misses is timed, and a line fitted through the five points
//! gives this implementation's nanoseconds per mask scanned — the number the cost model's
//! `per_mask` stands in for — and the fixed cost is the one-mask miss less one mask. The
//! times are advisory rows; how many masks each miss scanned is a deterministic one.

use std::hint::black_box;

use tse_attack::scenarios::Scenario;
use tse_bench::report::Metric;
use tse_bench::{render_table, FigArgs, Figure};
use tse_packet::fields::{FieldSchema, Key};
use tse_simnet::offload::OffloadConfig;
use tse_switch::cost::CostModel;
use tse_switch::datapath::Datapath;

/// Mask probes per timed round of missed lookups: a round lasts a few milliseconds.
const PROBES_PER_ROUND: usize = 1 << 20;

/// Replay the Co-located trace of `scenario` through a fresh datapath. Returns the
/// datapath, and a header that misses every megaflow it holds: the victim's, whose
/// allowed values no attack megaflow covers. Baseline sends no attack; its datapath
/// forwards one victim packet, whose megaflow is its one mask, and the header that
/// misses it is one the ACL denies.
fn exploded(scenario: Scenario) -> (Datapath, Key) {
    let schema = FieldSchema::ovs_ipv4();
    let mut victim = schema.zero_value();
    for field in scenario.target_fields() {
        if let Some(i) = schema.field_index(field.name) {
            victim.set(i, field.allow_value);
        }
    }
    let mut dp = Datapath::new(scenario.flow_table(&schema));
    if !scenario.has_attack_traffic() {
        dp.process_key(&victim, 64, 0.0);
        return (dp, schema.zero_value());
    }
    for (i, key) in scenario.key_iter(&schema, &schema.zero_value()).enumerate() {
        dp.process_key(&key, 64, i as f64 * 1e-5);
    }
    (dp, victim)
}

/// Least-squares slope of `y` over `x`, and the fit's R².
fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let (sxy, sxx, syy) = points
        .iter()
        .fold((0.0, 0.0, 0.0), |(sxy, sxx, syy), (x, y)| {
            let (dx, dy) = (x - mx, y - my);
            (sxy + dx * dy, sxx + dx * dx, syy + dy * dy)
        });
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let r2 = if sxx * syy == 0.0 {
        1.0
    } else {
        sxy * sxy / (sxx * syy)
    };
    (slope, r2)
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
    // Per use case: how many masks a missed lookup scanned, and its host nanoseconds.
    let mut misses = Vec::new();
    for scenario in Scenario::ALL {
        let (dp, header) = exploded(scenario);
        let masks = dp.mask_count();
        per_case.push((scenario, masks));
        let mut cache = dp.megaflow().clone();
        let scanned = cache.lookup(&header, 0.0).masks_scanned;
        let ns = fig.host_ns(PROBES_PER_ROUND / scanned.max(1), || {
            black_box(cache.lookup(black_box(&header), 0.0));
        });
        misses.push((scenario.name(), scanned, ns));
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

    println!("\n== Observation 1 in host time: a missed TupleSpace::lookup ==\n");
    let rows: Vec<Vec<String>> = misses
        .iter()
        .map(|&(name, scanned, ns)| {
            vec![name.to_string(), format!("{scanned}"), format!("{ns:.0}")]
        })
        .collect();
    println!(
        "{}",
        render_table(&["use case", "masks scanned", "host ns"], &rows)
    );
    let points: Vec<(f64, f64)> = misses.iter().map(|&(_, x, y)| (x as f64, y)).collect();
    // The slope is the fit's; the fixed cost is anchored at the one-mask point, as the
    // benchmark's lookup drill anchors it: the fit's own intercept is set by points
    // thousands of masks away and swung by ~100 ns between runs.
    let (ns_per_mask, r2) = fit_line(&points);
    let fixed_ns = points.first().map_or(0.0, |&(x, y)| y - ns_per_mask * x);
    let modelled = CostModel::ovs_kernel_default().per_mask * 1e9;
    println!(
        "fit: {ns_per_mask:.2} ns per mask + {fixed_ns:.0} ns, R² {r2:.4} (the cost model charges {modelled:.0} ns per mask)"
    );

    let gro_off = OffloadConfig::gro_off();
    for (scenario, masks) in per_case {
        let name = scenario.name();
        fig.row(&format!("{name}/masks"), "masks", masks as f64);
        fig.gbps(
            &format!("{name}/victim_gbps_gro_off"),
            gro_off.victim_gbps(masks),
        );
    }
    for (name, scanned, _) in misses {
        fig.row(
            &format!("{name}/miss_masks_scanned"),
            "masks",
            scanned as f64,
        );
    }
    fig.advisory(Metric::wall(
        "lookup/ns_per_mask",
        "ns_per_mask_wall",
        ns_per_mask,
    ));
    fig.advisory(Metric::wall("lookup/fixed_ns", "ns_wall", fixed_ns));
    fig.advisory(Metric::wall("lookup/fit_r2", "r2", r2).higher_is_better());
    fig.finish();
}
