//! E-T41/E-T42: the Theorem 4.1 / 4.2 space–time trade-off curves, plus the measured
//! mask/entry counts of the chunked generation strategies that realise them.

use tse_attack::bounds::{multi_field_bound, single_field_curve};
use tse_bench::{render_table, FigArgs, Figure};
use tse_classifier::flowtable::FlowTable;
use tse_classifier::strategy::MegaflowStrategy;
use tse_classifier::tss::TupleSpace;
use tse_packet::fields::{FieldDef, FieldSchema, Key};
use tse_switch::SlowPath;

fn main() {
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), FigArgs::default());
    println!("== Theorem 4.1: single 16-bit field (e.g. a TCP port) ==\n");
    let rows: Vec<Vec<String>> = single_field_curve(16)
        .iter()
        .filter(|p| [1, 2, 4, 8, 16].contains(&(p.masks as u32)))
        .map(|p| vec![format!("{}", p.masks), format!("{:.0}", p.entries)])
        .collect();
    println!(
        "{}",
        render_table(&["k (masks, time)", "entries (space)"], &rows)
    );

    println!("\n== Theorem 4.2: the Fig. 6 fields (32 + 16 + 16 bits) ==\n");
    let widths = [32u32, 16, 16];
    let rows: Vec<Vec<String>> = [[1u32, 1, 1], [4, 4, 4], [8, 8, 8], [16, 8, 8], [32, 16, 16]]
        .iter()
        .map(|ks| {
            let (time, space) = multi_field_bound(&widths, ks);
            vec![
                format!("{ks:?}"),
                format!("{time:.0}"),
                format!("{space:.3e}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["k_i", "lookup masks (time)", "entries (space)"], &rows)
    );

    println!("\n== Measured: chunked generation strategies on a 12-bit field ==\n");
    let width = 12u32;
    let schema = FieldSchema::new(vec![FieldDef::new("f", width)]);
    let table = FlowTable::whitelist_default_deny(&schema, &[(0, 0xABC)]);
    let mut rows = Vec::new();
    for chunk in [1u32, 2, 3, 4, 6, 12] {
        let mut slow_path = SlowPath::new(MegaflowStrategy::chunked(&schema, chunk));
        let mut cache = TupleSpace::new(schema.clone());
        for v in 0..(1u128 << width) {
            let h = Key::from_values(&schema, &[v]);
            if cache.lookup(&h, 0.0).action.is_none() {
                slow_path.handle_upcall(&table, &mut cache, &h, 0.0);
            }
        }
        rows.push(vec![
            format!("{chunk}"),
            format!("{}", width.div_ceil(chunk)),
            format!("{}", cache.mask_count()),
            format!("{}", cache.entry_count()),
        ]);
        fig.row(
            &format!("chunk{chunk}/masks"),
            "masks",
            cache.mask_count() as f64,
        );
        fig.row(
            &format!("chunk{chunk}/entries"),
            "entries",
            cache.entry_count() as f64,
        );
    }
    println!(
        "{}",
        render_table(
            &[
                "chunk bits",
                "k = ceil(w/c)",
                "measured masks",
                "measured entries"
            ],
            &rows
        )
    );
    fig.finish();
}
