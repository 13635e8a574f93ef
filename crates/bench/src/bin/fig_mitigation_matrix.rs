//! E-MITIGATE: the mitigation matrix — every defense stack against the pinned and
//! sprayed shard-targeted SipDp explosions.
//!
//! 16 PMD shards behind RSS steering carry two 4 Gbps victims pinned to different
//! shards. The co-located SipDp attacker either retags her free destination address so
//! the whole explosion lands on Victim A's shard (`pinned`, the PR 3 collapse shape)
//! or sprays it round-robin over all shards (`sprayed`). Against each attack the
//! experiment runs five defense stacks:
//!
//! * `none`        — the undefended datapath;
//! * `guard`       — per-shard MFCGuard;
//! * `rekey`       — RSS hash-key rotation every 10 s;
//! * `guard+rekey` — both, guard first;
//! * `full`        — guard + rekey + per-shard upcall quotas + mask ceilings.
//!
//! The headline cell is `pinned × rekey`: rotation alone restores Victim A to within
//! 2x of its baseline (the stale-pinned stream dilutes to ~1/16 per shard, under the
//! ~83-mask knee of the cost model) while the undefended pinned run collapses her to
//! ~10 % of baseline — and rotation costs nothing on the benign path, unlike the
//! guard's suppression or the cap's collateral evictions. `tests/paper_claims.rs`
//! judges both on this binary's sweeps at its defaults.
//!
//! Run with `--duration <s>` (default 70) — CI smoke-runs it short — plus the shared
//! sharded flags: `--shards <n>` (default 16) and `--parallel <threads>` to drive the
//! per-shard fan-out from a thread pool (timelines are executor-independent).

use tse_bench::sipdp::Aim::{Pinned, Sprayed};
use tse_bench::sipdp::Cell::*;
use tse_bench::sipdp::{self, Fixture, Variant, ATTACK_PPS, ATTACK_START};
use tse_bench::sipdp::{FULL, GUARD, GUARD_REKEY, REKEY, UNDEFENDED};
use tse_bench::{FigArgs, Figure};
use tse_packet::fields::FieldSchema;

pub(crate) fn defaults() -> FigArgs {
    FigArgs {
        duration: 70.0,
        shards: Some(16),
        ..FigArgs::default()
    }
}

/// Victim B lives off the attacked shard 0: shard 5 in the default 16-shard setup,
/// clamped away from 0 for shard counts that would alias it.
fn b_shard(n_shards: usize) -> usize {
    (5 % n_shards).max(1)
}

pub(crate) const FIXTURE: Fixture = Fixture {
    schema: FieldSchema::ovs_ipv4,
    pps: ATTACK_PPS,
    victims: &[
        ("Victim A", 0x0a00_0005, 4.0, |_| Some(0)),
        ("Victim B", 0x0a00_0006, 4.0, |n| Some(b_shard(n))),
    ],
    during_cap: None,
    columns: &[
        ("stack", Stack, ""),
        ("A Gbps (attack)", VictimDuring(0), "victim_a_gbps"),
        ("B Gbps (attack)", VictimDuring(1), "victim_b_gbps"),
        ("A vs baseline", VsBaseline(0), ""),
        ("peak shard masks", PeakShardMasks, "peak_shard_masks"),
        ("actions", Actions, ""),
    ],
    timelines: false,
};

pub(crate) const PINNED: [Variant; 5] = [
    Variant::new("pinned/none", Pinned, None, UNDEFENDED),
    Variant::new("pinned/guard", Pinned, None, GUARD),
    Variant::new("pinned/rekey", Pinned, None, REKEY),
    Variant::new("pinned/guard+rekey", Pinned, None, GUARD_REKEY),
    Variant::new("pinned/full", Pinned, None, FULL),
];

pub(crate) const SPRAYED: [Variant; 5] = [
    Variant::new("sprayed/none", Sprayed, None, UNDEFENDED),
    Variant::new("sprayed/guard", Sprayed, None, GUARD),
    Variant::new("sprayed/rekey", Sprayed, None, REKEY),
    Variant::new("sprayed/guard+rekey", Sprayed, None, GUARD_REKEY),
    Variant::new("sprayed/full", Sprayed, None, FULL),
];

fn main() {
    // `CARGO_CRATE_NAME` (the binary's name): `tests/paper_claims.rs` compiles this file
    // as a module, where `CARGO_BIN_NAME` is not set.
    let mut fig = Figure::parse(env!("CARGO_CRATE_NAME"), defaults());
    let (duration, n_shards) = (fig.args.duration, fig.args.shard_count());
    assert!(
        n_shards >= 2,
        "the pinned/sprayed comparison needs --shards >= 2 (victim B must live off the attacked shard)"
    );
    let pinned = sipdp::sweep(&mut fig, &FIXTURE, &PINNED);
    let sprayed = sipdp::sweep(&mut fig, &FIXTURE, &SPRAYED);
    let (_, (during_start, during_end)) = pinned.windows;
    println!(
        "== Mitigation matrix: {n_shards} PMD shards (RSS, {} executor), SipDp @ {ATTACK_PPS} pps from t={ATTACK_START} s, duration {duration} s ==",
        fig.args.executor_label()
    );
    println!(
        "Victim A on shard 0 (pinned target), Victim B on shard {}; 4 Gbps offered each.",
        b_shard(n_shards)
    );
    println!("During-attack window: t = {during_start}..{during_end} s.\n");
    println!("-- pinned attack --\n{pinned}");
    println!("-- sprayed attack --\n{sprayed}");

    let baseline_a = pinned.value("pinned/none", VictimBefore(0));
    println!(
        "acceptance: unmitigated pinned run collapses Victim A to {:.2} Gbps \
         (baseline {baseline_a:.2}); RSS rekeying alone restores her to {:.2} Gbps",
        pinned.value("pinned/none", VictimDuring(0)),
        pinned.value("pinned/rekey", VictimDuring(0)),
    );
    fig.gbps("pinned/none/baseline_a_gbps", baseline_a);
    let runs = pinned.runs.iter().chain(&sprayed.runs);
    let total_cost = runs.map(|r| r.stats.busy_seconds).sum();
    fig.row("total_cost_seconds", "cost_seconds", total_cost);
    fig.finish();
}
