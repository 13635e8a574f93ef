//! E-F1..F5: print the paper's teaching examples — the Fig. 1 flow table, the Fig. 2
//! exact-match MFC, the Fig. 3 wildcarded MFC, the Fig. 4 two-field ACL and its Fig. 5
//! megaflow cache.

use tse_bench::{FigArgs, Figure};
use tse_classifier::flowtable::FlowTable;
use tse_classifier::strategy::MegaflowStrategy;
use tse_classifier::tss::TupleSpace;
use tse_packet::fields::{FieldSchema, Key};
use tse_switch::SlowPath;

/// The datapath's fill: each header a lookup misses is upcalled to the slow path.
fn populate(
    table: &FlowTable,
    strategy: MegaflowStrategy,
    headers: impl Iterator<Item = Key>,
) -> TupleSpace {
    let mut cache = TupleSpace::new(table.schema().clone());
    let mut slow_path = SlowPath::new(strategy);
    for h in headers {
        if cache.lookup(&h, 0.0).action.is_none() {
            slow_path.handle_upcall(table, &mut cache, &h, 0.0);
        }
    }
    cache
}

fn main() {
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), FigArgs::default());
    let hyp = FieldSchema::hyp();

    println!("== Fig. 1: sample flow table (3-bit HYP) ==");
    let fig1 = FlowTable::fig1_hyp();
    println!("{}\n", fig1.render());

    println!("== Fig. 2: exact-match MFC construction ==");
    let exact = populate(
        &fig1,
        MegaflowStrategy::exact_match(&hyp),
        (0..8u128).map(|v| Key::from_values(&hyp, &[v])),
    );
    println!("{}", exact.render());
    println!(
        "-> {} entries, {} mask(s)\n",
        exact.entry_count(),
        exact.mask_count()
    );

    println!("== Fig. 3: wildcarding MFC construction (adversarial trace 001,101,011,000) ==");
    let wild = populate(
        &fig1,
        MegaflowStrategy::wildcarding(&hyp),
        [0b001u128, 0b101, 0b011, 0b000]
            .into_iter()
            .map(|v| Key::from_values(&hyp, &[v])),
    );
    println!("{}", wild.render());
    println!(
        "-> {} entries, {} mask(s)\n",
        wild.entry_count(),
        wild.mask_count()
    );

    println!("== Fig. 4: two-field ACL (HYP 3 bits, HYP2 4 bits) ==");
    let fig4 = FlowTable::fig4_hyp2();
    println!("{}\n", fig4.render());

    println!("== Fig. 5: corresponding MFC under wildcarding (whole header space) ==");
    let hyp2 = FieldSchema::hyp2();
    let all = (0..8u128).flat_map(|a| (0..16u128).map(move |b| (a, b)));
    let fig5 = populate(
        &fig4,
        MegaflowStrategy::wildcarding(&hyp2),
        all.map(|(a, b)| Key::from_values(&hyp2, &[a, b])),
    );
    println!("{}", fig5.render());
    println!(
        "-> {} entries, {} masks (paper: 3*4 + 1 = 13 masks)",
        fig5.entry_count(),
        fig5.mask_count()
    );

    fig.row("fig2/exact_entries", "entries", exact.entry_count() as f64);
    fig.row("fig3/wildcard_masks", "masks", wild.mask_count() as f64);
    fig.row("fig5/masks", "masks", fig5.mask_count() as f64);
    fig.row("fig5/entries", "entries", fig5.entry_count() as f64);
    fig.finish();
}
