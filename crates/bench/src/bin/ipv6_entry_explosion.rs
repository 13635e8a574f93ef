//! E-IPv6: the §5.4 anomaly — for IPv6 ACLs OVS exact-matches the source address
//! instead of wildcarding it bit by bit, so the attack inflates the number of
//! *entries* (memory, revalidation CPU) while the mask count stays small.
//!
//! The experiment runs through the full wire-level pipeline: an IPv6 victim iperf
//! flow plus a `WireGenerator` attacker that crafts each random SipDp-over-IPv6
//! packet (uniformly random source address and destination port, the General TSE §6
//! shape), serialises it to raw Ethernet bytes and recovers the key through the real
//! parser, feeding a sharded datapath behind RSS steering. Two megaflow-generation
//! strategies are compared on identical traffic:
//!
//! * `wildcarding` — bit-level wildcarding as for IPv4: the attack sparks *masks*
//!   (the classic lookup-slowdown explosion, collapsing the victim);
//! * `ipv6_anomaly` — the observed OVS behaviour: source addresses are installed
//!   exact-match, so masks stay flat while *entries* grow with every packet —
//!   memory/revalidation exhaustion instead of lookup slowdown.
//!
//! `tests/paper_claims.rs` judges the anomaly on this binary's sweep at its defaults.
//! Each variant also records its idle sweeps' host-side work, summed over shards, as
//! deterministic `<variant>/work/sweep_*` rows: entries examined, removed and moved,
//! and index slots written.
//!
//! Run with `--duration <s>` (default 70), `--shards <n>` (default 4),
//! `--parallel <threads>` and `--json <path>` (CI smoke-runs it short and gates the
//! deterministic metrics through `BENCH_wire.json`).

use tse_bench::sipdp::Aim::Random;
use tse_bench::sipdp::Cell::*;
use tse_bench::sipdp::{self, Fixture, Variant, ATTACK_START, IPV6_SOURCE, UNDEFENDED};
use tse_bench::{FigArgs, Figure};
use tse_classifier::strategy::MegaflowStrategy;
use tse_packet::fields::FieldSchema;
use tse_packet::wire::Encap;

pub(crate) fn defaults() -> FigArgs {
    FigArgs {
        duration: 70.0,
        shards: Some(4),
        ..FigArgs::default()
    }
}

/// The allowed source's own iperf session, left where RSS steers it: a random attack
/// lands on every shard.
pub(crate) const FIXTURE: Fixture = Fixture {
    schema: FieldSchema::ovs_ipv6,
    pps: 400.0,
    victims: &[("Victim", IPV6_SOURCE, 10.0, |_| None)],
    during_cap: None,
    columns: &[
        ("megaflow generation strategy", Label, ""),
        ("peak masks", PeakMasks, "peak_masks"),
        ("peak entries", PeakEntries, "peak_entries"),
        ("victim before (Gbps)", TotalBefore, ""),
        ("victim during (Gbps)", TotalDuring, "victim_during_gbps"),
    ],
    timelines: false,
};

pub(crate) const VARIANTS: [Variant; 2] = [
    Variant {
        label: "bit-level wildcarding (IPv4-style)",
        ..Variant::new("wildcarding", Random, Some(Encap::None), UNDEFENDED)
    },
    Variant {
        label: "OVS IPv6 behaviour (exact-match addresses)",
        strategy: MegaflowStrategy::ovs_ipv6_anomaly,
        ..Variant::new("ipv6_anomaly", Random, Some(Encap::None), UNDEFENDED)
    },
];

fn main() {
    // `CARGO_CRATE_NAME` (the binary's name): `tests/paper_claims.rs` compiles this file
    // as a module, where `CARGO_BIN_NAME` is not set.
    let mut fig = Figure::parse(env!("CARGO_CRATE_NAME"), defaults());
    let (duration, n_shards) = (fig.args.duration, fig.args.shard_count());
    let packets = sipdp::attack_packets(ATTACK_START, FIXTURE.pps, duration);
    let sweep = sipdp::sweep(&mut fig, &FIXTURE, &VARIANTS);
    // Idle expiry is this experiment's revalidation: what its sweeps did, in counts.
    for run in &sweep.runs {
        let w = run.work;
        for (row, unit, count) in [
            ("examined", "entries", w.sweep_examined),
            ("removed", "entries", w.sweep_removed),
            ("moved", "entries", w.sweep_moved),
            ("slots", "slots", w.sweep_slots),
        ] {
            let name = format!("{}/work/sweep_{row}", run.variant.name);
            fig.row(&name, unit, count as f64);
        }
    }
    println!(
        "== §5.4 IPv6 anomaly: {packets} random SipDp-over-IPv6 frames through the wire \
         parser, {n_shards} shards ({} executor), duration {duration} s ==\n",
        fig.args.executor_label()
    );
    println!("{sweep}");
    println!(
        "\npaper: 'a handful of masks but hundreds of thousands of MFC entries' -> \
         memory/CPU exhaustion instead of lookup slowdown"
    );
    fig.finish();
}
