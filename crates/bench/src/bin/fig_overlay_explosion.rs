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
//! identical timelines** (asserted) — same mask explosion, same victim collapse —
//! and the guard+rekey stack restores the victim identically. A fourth run replays
//! undecodable garbage at the same rate: it sparks nothing (decode errors are
//! counted per kind on shard 0 and surface as the malformed-frame telemetry series).
//!
//! Run with `--duration <s>` (default 70), `--shards <n>` (default 4),
//! `--parallel <threads>` and `--json <path>` (CI smoke-runs it short and gates the
//! deterministic metrics through `BENCH_wire.json`).

use tse_attack::source::TrafficMix;
use tse_attack::wire::WireSource;
use tse_bench::sipdp::{self, Ingress, ATTACK_PPS, ATTACK_START};
use tse_bench::{render_table, FigArgs, Figure};
use tse_mitigation::guard::{GuardConfig, GuardMitigation};
use tse_mitigation::RssKeyRandomizer;
use tse_packet::fields::FieldSchema;
use tse_packet::wire::{Encap, WireTrace};
use tse_simnet::runner::Timeline;
use tse_simnet::traffic::VictimSource;

/// The three wire envelopes under test.
const ENCAPS: [(&str, Encap); 3] = [
    ("plain", Encap::None),
    ("vlan", Encap::Vlan { tci: 100 }),
    (
        "vxlan",
        Encap::Vxlan {
            outer_src: 0x0a00_0001,
            outer_dst: 0x0a00_0002,
            vni: 42,
        },
    ),
];

fn main() {
    let defaults = FigArgs {
        duration: 70.0,
        shards: Some(4),
        ..FigArgs::default()
    };
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), defaults);
    let (duration, n_shards) = (fig.args.duration, fig.args.shard_count());
    let schema = FieldSchema::ovs_ipv4();
    let victim = sipdp::victim_on_shard("Victim", 0x0a00_0005, 10.0, &schema, n_shards, 0);
    let ((before_start, before_end), (during_start, during_end)) =
        sipdp::windows(ATTACK_START, duration);
    println!(
        "== Overlay explosion: pinned SipDp @ {ATTACK_PPS} pps from t={ATTACK_START} s as raw \
         frames, {n_shards} shards ({} executor), duration {duration} s ==\n",
        fig.args.executor_label()
    );

    let mut rows = Vec::new();
    let mut plain_none: Option<Timeline> = None;
    let mut plain_guarded: Option<Timeline> = None;
    for guarded in [false, true] {
        let stack = if guarded { "guard+rekey" } else { "none" };
        for (name, encap) in ENCAPS {
            let mut runner = sipdp::runner(&schema, &fig.args);
            if guarded {
                runner = runner
                    .with_mitigation(GuardMitigation::new(GuardConfig::default()))
                    .with_mitigation(RssKeyRandomizer::new(10.0, 0xC0FFEE));
            }
            let keys = sipdp::pinned_keys(&schema, n_shards);
            let victims = std::slice::from_ref(&victim);
            let (tl, stats) = sipdp::run(
                runner,
                &schema,
                victims,
                keys,
                Ingress::Wire(encap),
                duration,
            );
            fig.account(&stats);
            let before = tl.mean_total_between(before_start, before_end);
            let during = tl.mean_total_between(during_start, during_end);
            let peak_masks = tl.peak_masks();
            // The overlay changes the bytes on the wire, not the classified key: the
            // timeline must be bit-for-bit the plain-Ethernet one.
            let reference = if guarded { &plain_guarded } else { &plain_none };
            match reference {
                Some(plain) => assert_eq!(
                    plain.samples, tl.samples,
                    "{name}/{stack}: overlay must not change the timeline"
                ),
                None => {
                    if guarded {
                        plain_guarded = Some(tl.clone());
                    } else {
                        plain_none = Some(tl.clone());
                    }
                }
            }
            let tag = format!("{name}/{stack}");
            fig.gbps(&format!("{tag}/victim_during_gbps"), during);
            fig.row(&format!("{tag}/peak_masks"), "masks", peak_masks as f64);
            rows.push(vec![
                name.to_string(),
                stack.to_string(),
                format!("{before:6.2}"),
                format!("{during:6.2}"),
                format!("{peak_masks}"),
            ]);
        }
    }

    // The garbage run: same rate, but the frames are undecodable. Nothing explodes;
    // every frame is counted by kind on shard 0 and in the malformed series.
    let garbled_packets = sipdp::attack_packets(ATTACK_START, ATTACK_PPS, duration);
    let mut garbage = WireTrace::new();
    let junk = [0xDEu8; 9]; // shorter than any Ethernet header: DecodeError::Truncated
    for i in 0..garbled_packets {
        garbage.push(ATTACK_START + i as f64 / ATTACK_PPS, &junk);
    }
    let mut r = sipdp::runner(&schema, &fig.args);
    let mix = TrafficMix::new()
        .with(VictimSource::new(victim.clone(), &schema, 1.0))
        .with(WireSource::replay("Garbage", garbage, &schema));
    let tl = r.run_mix(mix, duration);
    fig.account(&r.datapath.stats());
    let before = tl.mean_total_between(before_start, before_end);
    let during = tl.mean_total_between(during_start, during_end);
    let peak_masks = tl.peak_masks();
    let malformed: f64 = tl.samples.iter().map(|s| s.malformed_pps).sum();
    assert_eq!(
        malformed.round() as usize,
        garbled_packets,
        "every garbage frame lands in the malformed series"
    );
    assert_eq!(
        r.datapath.shard(0).stats().truncated,
        garbled_packets as u64,
        "decode errors are counted by kind on shard 0"
    );
    rows.push(vec![
        "garbage".into(),
        "none".into(),
        format!("{before:6.2}"),
        format!("{during:6.2}"),
        format!("{peak_masks}"),
    ]);
    fig.row("garbage/none/peak_masks", "masks", peak_masks as f64);
    fig.row("garbage/none/malformed_frames", "frames", malformed);

    println!(
        "{}",
        render_table(
            &[
                "wire format",
                "stack",
                "victim before (Gbps)",
                "victim during (Gbps)",
                "peak masks",
            ],
            &rows
        )
    );
    println!(
        "\nacceptance: plain == vlan == vxlan bit-for-bit (the tunnel carries the \
         attacker's inner key intact); garbage frames spark no masks"
    );

    let none = plain_none.as_ref().expect("unguarded run recorded");
    let guarded_tl = plain_guarded.as_ref().expect("guarded run recorded");
    let baseline = none.mean_total_between(before_start, before_end);
    let collapsed = none.mean_total_between(during_start, during_end);
    let restored = guarded_tl.mean_total_between(during_start, during_end);
    let explosion_masks = none.peak_masks();
    assert!(
        peak_masks * 8 < explosion_masks.max(8),
        "garbage must not explode the tuple space: {peak_masks} vs {explosion_masks}"
    );
    if duration >= ATTACK_START + 12.0 {
        assert!(
            collapsed < baseline * 0.25,
            "the pinned explosion must collapse the victim: {baseline} -> {collapsed}"
        );
    } else {
        println!("(horizon too short to assert the collapse — run with --duration 70)");
    }
    if during_end - during_start >= 20.0 {
        assert!(
            restored > baseline * 0.5,
            "guard+rekey must restore the victim: {restored} vs baseline {baseline}"
        );
    } else {
        println!("(horizon too short to assert the guard+rekey recovery — run with --duration 70)");
    }
    fig.gbps("plain/none/baseline_gbps", baseline);
    fig.finish();
}
