//! E-SHARD: shard-local blast radius on a multi-PMD datapath — the experiment the
//! paper's single-cache model cannot express.
//!
//! Four PMD shards behind RSS steering carry two 4 Gbps victims pinned (by source
//! port) to *different* shards. A co-located SipDp attacker retags her free destination
//! address so every attack packet RSS-targets the shard of "Victim A" (the shard-pinned
//! explosion). Expected shape:
//!
//! * Victim A's timeline collapses exactly like Fig. 8a — its PMD's cache fills with
//!   attack masks and its core burns cycles on them;
//! * Victim B, one shard over, stays at baseline throughout: private cache, private
//!   CPU budget, zero blast radius;
//! * the per-shard mask columns show the explosion confined to the attacked shard.
//!
//! A second run sprays the same attack round-robin over all shards: every per-shard
//! cache fills at 1/4 rate and *both* victims degrade — the whole-switch attack.
//!
//! A third run repeats the pinned attack with a per-shard-configured MFCGuard on the
//! runner's `MitigationStack`: only the attacked shard's guard sweeps (under a
//! tightened mask threshold), and Victim A recovers while the other shards' guards
//! never touch their caches.
//!
//! Run with `--duration <s>` (default 70) — CI smoke-runs it short — plus the shared
//! sharded flags: `--shards <n>` (default 4) sets the PMD count and `--parallel
//! <threads>` drives the per-shard fan-out from a thread pool (CI exercises
//! `--parallel 4`; the timelines are bit-for-bit identical to the sequential run's).

use tse_bench::sipdp::Aim::{Pinned, Sprayed};
use tse_bench::sipdp::Cell::*;
use tse_bench::sipdp::{self, Fixture, Sweep, Variant, ATTACK_PPS, ATTACK_START};
use tse_bench::sipdp::{SHARD_GUARD, UNDEFENDED};
use tse_bench::{FigArgs, Figure};
use tse_packet::fields::FieldSchema;

pub(crate) fn defaults() -> FigArgs {
    FigArgs {
        duration: 70.0,
        shards: Some(4),
        ..FigArgs::default()
    }
}

/// Victim B sits "half a ring" away from the attacked shard 0 (shard 2 in the default
/// 4-shard setup), so its shard is never the pinned target.
fn b_shard(n_shards: usize) -> usize {
    (n_shards / 2).max(1)
}

/// 4 Gbps each, so the 10 Gbps NIC is never the bottleneck; "during" lasts at most 30 s.
pub(crate) const FIXTURE: Fixture = Fixture {
    schema: FieldSchema::ovs_ipv4,
    pps: ATTACK_PPS,
    victims: &[
        ("Victim A", 0x0a00_0005, 4.0, |_| Some(0)),
        ("Victim B", 0x0a00_0006, 4.0, |n| Some(b_shard(n))),
    ],
    during_cap: Some(30.0),
    columns: &[
        ("A before", VictimBefore(0), "victim_a_gbps_before"),
        ("A during", VictimDuring(0), "victim_a_gbps_under_attack"),
        ("B before", VictimBefore(1), "victim_b_gbps_before"),
        ("B during", VictimDuring(1), "victim_b_gbps_under_attack"),
        ("peak shard masks", PeakShardMasks, "peak_shard_masks"),
    ],
    timelines: true,
};

pub(crate) const VARIANTS: [Variant; 3] = [
    Variant {
        label: "shard-pinned attack (shard 0)",
        ..Variant::new("pinned", Pinned, None, UNDEFENDED)
    },
    Variant {
        label: "sprayed attack (all shards)",
        ..Variant::new("sprayed", Sprayed, None, UNDEFENDED)
    },
    Variant {
        label: "shard-pinned attack + per-shard guard",
        ..Variant::new("pinned+guard", Pinned, None, SHARD_GUARD)
    },
];

/// The batched datapath entry point on one pre-generated attack+victim event batch:
/// `ShardedDatapath::process_timed_batch`'s upcall count and simulated cost, both
/// deterministic. (How fast the host runs it is `benchmark/`'s question.)
fn batch_outcome(fig: &mut Figure, sweep: &Sweep) {
    let schema = FieldSchema::ovs_ipv4();
    let n_shards = fig.args.shard_count();
    let mut sharded = sipdp::runner(&schema, &fig.args).datapath;
    let victim_key = sweep.victims[0].key(&schema);
    let mut batch: Vec<(tse_packet::fields::Key, usize, f64)> = Vec::new();
    let mut attack = sipdp::sprayed_keys(&schema, n_shards);
    for i in 0..50_000usize {
        let t = i as f64 * 1e-5;
        if i % 10 == 0 {
            if let Some(key) = attack.next() {
                batch.push((key, 64, t));
            }
        } else {
            batch.push((victim_key.clone(), 1500, t));
        }
    }
    let report = sharded.process_timed_batch(&batch).aggregate();
    fig.row("batch/upcalls", "packets", report.upcalls as f64);
    fig.row("batch/cost_seconds", "cost_seconds", report.total_cost);
    fig.account(&sharded.stats());
}

fn main() {
    // `CARGO_CRATE_NAME` (the binary's name): `tests/paper_claims.rs` compiles this file
    // as a module, where `CARGO_BIN_NAME` is not set.
    let mut fig = Figure::parse(env!("CARGO_CRATE_NAME"), defaults());
    let n_shards = fig.args.shard_count();
    assert!(
        n_shards >= 2,
        "the blast-radius comparison needs --shards >= 2 (victim B must live off the attacked shard)"
    );
    let sweep = sipdp::sweep(&mut fig, &FIXTURE, &VARIANTS);
    println!(
        "== Shard blast radius: {n_shards} PMD shards (RSS, {} executor), SipDp @ {ATTACK_PPS} pps from t={ATTACK_START} s ==",
        fig.args.executor_label()
    );
    println!(
        "Victim A pinned to shard 0 (attacked); Victim B pinned to shard {}.",
        b_shard(n_shards)
    );
    print!("{sweep}");
    let total_cost = sweep.runs.iter().map(|r| r.stats.busy_seconds).sum();
    fig.row("total_cost_seconds", "cost_seconds", total_cost);
    batch_outcome(&mut fig, &sweep);
    fig.finish();
}
