//! E-IPv6: the §5.4 anomaly — for IPv6 ACLs OVS exact-matches the source address
//! instead of wildcarding it bit by bit, so the attack inflates the number of
//! *entries* (memory, revalidation CPU) while the mask count stays small.
//!
//! The experiment runs through the full wire-level pipeline: an IPv6 victim iperf
//! flow plus a [`WireGenerator`] attacker that crafts each random SipDp-over-IPv6
//! packet, serialises it to raw Ethernet bytes and recovers the key through the real
//! parser, feeding a sharded datapath behind RSS steering. Two megaflow-generation
//! strategies are compared on identical traffic:
//!
//! * `wildcarding` — bit-level wildcarding as for IPv4: the attack sparks *masks*
//!   (the classic lookup-slowdown explosion, collapsing the victim);
//! * `ipv6_anomaly` — the observed OVS behaviour: source addresses are installed
//!   exact-match, so masks stay flat while *entries* grow with every packet —
//!   memory/revalidation exhaustion instead of lookup slowdown.
//!
//! Run with `--duration <s>` (default 70), `--shards <n>` (default 4),
//! `--parallel <threads>` and `--json <path>` (CI smoke-runs it short and gates the
//! deterministic metrics through `BENCH_wire.json`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse_attack::source::TrafficMix;
use tse_attack::wire::WireGenerator;
use tse_bench::sipdp::{attack_packets, windows};
use tse_bench::{render_table, FigArgs, Figure};
use tse_classifier::strategy::MegaflowStrategy;
use tse_packet::fields::FieldSchema;
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::ExperimentRunner;
use tse_simnet::traffic::{VictimFlow, VictimSource};
use tse_switch::datapath::Datapath;
use tse_switch::pmd::{ShardedDatapath, Steering};

const ATTACK_START: f64 = 20.0;
const ATTACK_PPS: f64 = 400.0;
const ALLOWED_SRC: u128 = 0xfd00_0000_0000_0000_0000_0000_0000_0001;
const SERVICE_DST: u128 = 0xfd00_0000_0000_0000_0000_0000_0000_0063;

fn main() {
    let defaults = FigArgs {
        duration: 70.0,
        shards: Some(4),
        ..FigArgs::default()
    };
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), defaults);
    let (duration, n_shards) = (fig.args.duration, fig.args.shard_count());
    let schema = FieldSchema::ovs_ipv6();
    let tp_dst = schema.field_index("tp_dst").unwrap();
    let ip6_src = schema.field_index("ip6_src").unwrap();
    // SipDp over IPv6: allow dst port 80, allow one source address, deny the rest.
    let table = tse_classifier::flowtable::FlowTable::whitelist_default_deny(
        &schema,
        &[(tp_dst, 80), (ip6_src, ALLOWED_SRC)],
    );
    let victim = VictimFlow::iperf_tcp_v6("Victim", ALLOWED_SRC, SERVICE_DST, 10.0);
    let packets = attack_packets(ATTACK_START, ATTACK_PPS, duration);
    let ((before_start, before_end), (during_start, during_end)) = windows(ATTACK_START, duration);

    println!(
        "== §5.4 IPv6 anomaly: {packets} random SipDp-over-IPv6 frames through the wire \
         parser, {n_shards} shards ({} executor), duration {duration} s ==\n",
        fig.args.executor_label()
    );

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (label, strategy, tag) in [
        (
            "bit-level wildcarding (IPv4-style)",
            MegaflowStrategy::wildcarding(&schema),
            "wildcarding",
        ),
        (
            "OVS IPv6 behaviour (exact-match addresses)",
            MegaflowStrategy::ovs_ipv6_anomaly(&schema),
            "ipv6_anomaly",
        ),
    ] {
        let sharded = ShardedDatapath::from_builder(
            Datapath::builder(table.clone()).strategy(strategy),
            n_shards,
            Steering::Rss,
        )
        .with_executor(fig.args.executor());
        let mut runner = ExperimentRunner::sharded(sharded, Vec::new(), OffloadConfig::gro_off());
        // Uniformly random attacker-controlled fields (the General TSE §6 shape),
        // serialised to raw frames and re-parsed on ingest.
        let keys = tse_attack::general::random_trace_on_fields(
            &mut StdRng::seed_from_u64(99),
            &schema,
            &[ip6_src, tp_dst],
            &schema.zero_value(),
            packets,
        );
        let mix = TrafficMix::new()
            .with(VictimSource::new(victim.clone(), &schema, 1.0))
            .with(WireGenerator::new(
                "Attacker",
                &schema,
                keys.into_iter(),
                StdRng::seed_from_u64(7),
                ATTACK_PPS,
                ATTACK_START,
            ));
        let tl = runner.run_mix(mix, duration);
        fig.account(&runner.datapath.stats());
        let peak_masks = tl.peak_masks();
        let peak_entries = tl.peak_entries();
        let before = tl.mean_total_between(before_start, before_end);
        let during = tl.mean_total_between(during_start, during_end);
        let malformed: f64 = tl.samples.iter().map(|s| s.malformed_pps).sum();
        assert_eq!(malformed, 0.0, "well-formed frames must all classify");
        rows.push(vec![
            label.to_string(),
            format!("{peak_masks}"),
            format!("{peak_entries}"),
            format!("{before:6.2}"),
            format!("{during:6.2}"),
        ]);
        fig.row(&format!("{tag}/peak_masks"), "masks", peak_masks as f64);
        fig.row(
            &format!("{tag}/peak_entries"),
            "entries",
            peak_entries as f64,
        );
        fig.gbps(&format!("{tag}/victim_during_gbps"), during);
        results.push((tag, peak_masks, peak_entries, before, during));
    }

    println!(
        "{}",
        render_table(
            &[
                "megaflow generation strategy",
                "peak masks",
                "peak entries",
                "victim before (Gbps)",
                "victim during (Gbps)",
            ],
            &rows
        )
    );
    println!(
        "\npaper: 'a handful of masks but hundreds of thousands of MFC entries' -> \
         memory/CPU exhaustion instead of lookup slowdown"
    );

    let (_, wc_masks, _, wc_before, wc_during) = results[0];
    let (_, an_masks, an_entries, ..) = results[1];
    if duration >= ATTACK_START + 12.0 {
        assert!(
            an_entries > an_masks * 50,
            "the anomaly inflates entries, not masks: {an_entries} entries vs {an_masks} masks"
        );
        assert!(
            wc_masks > an_masks * 4,
            "bit-level wildcarding sparks masks instead: {wc_masks} vs {an_masks}"
        );
        assert!(
            wc_during < wc_before * 0.5,
            "the wildcarding mask explosion must degrade the victim: {wc_before} -> {wc_during}"
        );
    } else {
        println!("(horizon too short for the acceptance assertions — run with --duration 70)");
    }

    fig.finish();
}
