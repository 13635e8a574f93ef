//! E-OVERLAY: the tuple-space explosion through cloud overlay encapsulations.
//!
//! A cloud gateway rarely sees the attacker's frame naked: tenant traffic arrives
//! VLAN-tagged or inside a VXLAN tunnel, and the switch classifies the *inner*
//! header the tunnel carries. This experiment replays the identical co-located SipDp
//! explosion three ways — plain Ethernet, 802.1Q-tagged, and VXLAN-encapsulated
//! (fixed VTEP addresses and VNI; the attacker controls only the inner frame) — as
//! raw bytes through the wire parser into a sharded datapath, with the explosion
//! pinned to the victim's shard.
//!
//! The headline claim is that the overlay is no defense: the parser recovers the
//! attacker-controlled inner key, so all three encapsulations produce **bit-for-bit
//! identical timelines** — same mask explosion, same victim collapse — and the
//! guard+rekey stack restores the victim identically. A control run replays
//! undecodable garbage at the same rate: it sparks nothing (decode errors are counted
//! per kind on shard 0 and surface as the malformed-frame telemetry series).
//! `tests/paper_claims.rs` judges all of it on this binary's sweep at its defaults.
//!
//! Run with `--duration <s>` (default 70), `--shards <n>` (default 4),
//! `--parallel <threads>` and `--json <path>` (CI smoke-runs it short and gates the
//! deterministic metrics through `BENCH_wire.json`).

use tse_attack::source::TrafficMix;
use tse_attack::wire::WireSource;
use tse_bench::sipdp::Aim::Pinned;
use tse_bench::sipdp::Cell::*;
use tse_bench::sipdp::{self, Fixture, Sweep, Variant, ATTACK_PPS, ATTACK_START};
use tse_bench::sipdp::{GUARD_REKEY, UNDEFENDED};
use tse_bench::{FigArgs, Figure};
use tse_packet::fields::FieldSchema;
use tse_packet::wire::{Encap, WireTrace};
use tse_simnet::runner::Timeline;
use tse_simnet::traffic::VictimSource;

pub(crate) fn defaults() -> FigArgs {
    FigArgs {
        duration: 70.0,
        shards: Some(4),
        ..FigArgs::default()
    }
}

pub(crate) const FIXTURE: Fixture = Fixture {
    schema: FieldSchema::ovs_ipv4,
    pps: ATTACK_PPS,
    victims: &[("Victim", 0x0a00_0005, 10.0, |_| Some(0))],
    during_cap: None,
    columns: &[
        ("wire format", Wire, ""),
        ("stack", Stack, ""),
        ("victim before (Gbps)", TotalBefore, ""),
        ("victim during (Gbps)", TotalDuring, "victim_during_gbps"),
        ("peak masks", PeakMasks, "peak_masks"),
    ],
    timelines: false,
};

const PLAIN: Option<Encap> = Some(Encap::None);
const VLAN: Option<Encap> = Some(Encap::Vlan { tci: 100 });
const VXLAN: Option<Encap> = Some(Encap::Vxlan {
    outer_src: 0x0a00_0001,
    outer_dst: 0x0a00_0002,
    vni: 42,
});

pub(crate) const VARIANTS: [Variant; 6] = [
    Variant::new("plain/none", Pinned, PLAIN, UNDEFENDED),
    Variant::new("vlan/none", Pinned, VLAN, UNDEFENDED),
    Variant::new("vxlan/none", Pinned, VXLAN, UNDEFENDED),
    Variant::new("plain/guard+rekey", Pinned, PLAIN, GUARD_REKEY),
    Variant::new("vlan/guard+rekey", Pinned, VLAN, GUARD_REKEY),
    Variant::new("vxlan/guard+rekey", Pinned, VXLAN, GUARD_REKEY),
];

/// The control run beside the sweep's victim: the attack's rate and budget, but every
/// frame 9 bytes of junk — shorter than any Ethernet header, so each one is a
/// `DecodeError::Truncated`. Returns the timeline and the frames shard 0 counted as
/// truncated.
pub(crate) fn garbage(fig: &mut Figure, sweep: &Sweep) -> (Timeline, u64) {
    let schema = FieldSchema::ovs_ipv4();
    let packets = sipdp::attack_packets(ATTACK_START, ATTACK_PPS, fig.args.duration);
    let mut trace = WireTrace::new();
    for i in 0..packets {
        trace.push(ATTACK_START + i as f64 / ATTACK_PPS, &[0xDE; 9]);
    }
    let mut runner = sipdp::runner(&schema, &fig.args);
    let mix = TrafficMix::new()
        .with(VictimSource::new(sweep.victims[0].clone(), &schema, 1.0))
        .with(WireSource::replay("Garbage", trace, &schema));
    let timeline = runner.run_mix(mix, fig.args.duration);
    fig.account(&runner.datapath.stats());
    (timeline, runner.datapath.shard(0).stats().truncated)
}

fn main() {
    // `CARGO_CRATE_NAME` (the binary's name): `tests/paper_claims.rs` compiles this file
    // as a module, where `CARGO_BIN_NAME` is not set.
    let mut fig = Figure::parse(env!("CARGO_CRATE_NAME"), defaults());
    let (duration, n_shards) = (fig.args.duration, fig.args.shard_count());
    let mut sweep = sipdp::sweep(&mut fig, &FIXTURE, &VARIANTS);
    let (garbage, _) = garbage(&mut fig, &sweep);
    let peak_masks = garbage.peak_masks();
    let malformed = garbage.samples.iter().map(|s| s.malformed_pps).sum();
    fig.row("garbage/none/peak_masks", "masks", peak_masks as f64);
    fig.row("garbage/none/malformed_frames", "frames", malformed);
    let (before, during) = sweep.windows;
    let gbps = |(from, to)| format!("{:6.2}", garbage.mean_total_between(from, to));
    let mut row = vec!["garbage".to_string(), "none".to_string()];
    row.extend([gbps(before), gbps(during), peak_masks.to_string()]);
    sweep.table.push(row);

    println!(
        "== Overlay explosion: pinned SipDp @ {ATTACK_PPS} pps from t={ATTACK_START} s as raw \
         frames, {n_shards} shards ({} executor), duration {duration} s ==\n",
        fig.args.executor_label()
    );
    println!("{sweep}");
    println!(
        "\nacceptance: plain == vlan == vxlan bit-for-bit (the tunnel carries the \
         attacker's inner key intact); garbage frames spark no masks"
    );
    fig.gbps(
        "plain/none/baseline_gbps",
        sweep.value("plain/none", TotalBefore),
    );
    fig.finish();
}
