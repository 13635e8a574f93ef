//! E-SHARD: shard-local blast radius on a multi-PMD datapath — the experiment the
//! paper's single-cache model cannot express.
//!
//! Four PMD shards behind RSS steering carry two 10 Gbps victims pinned (by source
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
//! A third run repeats the pinned attack with a per-shard-configured
//! [`GuardMitigation`] on the runner's `MitigationStack`: only the attacked shard's
//! guard sweeps (under a tightened mask threshold), and Victim A recovers while the
//! other shards' guards never touch their caches.
//!
//! Run with `--duration <s>` (default 70) — CI smoke-runs it short — plus the shared
//! sharded flags: `--shards <n>` (default 4) sets the PMD count and `--parallel
//! <threads>` drives the per-shard fan-out from a thread pool (CI exercises
//! `--parallel 4`; the timelines are bit-for-bit identical to the sequential run's).

use tse_bench::sipdp::{self, Ingress, ATTACK_PPS, ATTACK_START};
use tse_bench::{FigArgs, Figure};
use tse_mitigation::guard::{GuardConfig, GuardMitigation};
use tse_mitigation::stack::MitigationAction;
use tse_packet::fields::FieldSchema;
use tse_simnet::runner::Timeline;
use tse_switch::DatapathStats;

/// Per-victim (before, during) Gbps means plus the peak per-shard mask count.
fn summarize(label: &str, tl: &Timeline, duration: f64) -> (Vec<(f64, f64)>, usize) {
    let before_end = ATTACK_START - 1.0;
    let during_start = ATTACK_START + 10.0;
    let during_end = duration.min(during_start + 30.0);
    println!("\n-- {label} --");
    println!("{}", tl.render_table());
    let mut victim_means = Vec::new();
    for (i, name) in tl.victim_names.iter().enumerate() {
        let before = tl.mean_victim_between(i, 5.0, before_end);
        let during = tl.mean_victim_between(i, during_start, during_end);
        println!("{label}: {name} mean Gbps before {before:.2}, during attack {during:.2}",);
        victim_means.push((before, during));
    }
    let peak: Vec<usize> = (0..tl.shard_count)
        .map(|s| {
            tl.samples
                .iter()
                .map(|x| x.shard_masks[s])
                .max()
                .unwrap_or(0)
        })
        .collect();
    println!("{label}: peak masks per shard {peak:?}");
    let mut swept_per_shard = vec![0usize; tl.shard_count];
    for s in &tl.samples {
        for a in &s.mitigation_actions {
            if let MitigationAction::GuardSweep(r) = a {
                swept_per_shard[r.shard] += r.entries_removed;
            }
        }
    }
    if swept_per_shard.iter().any(|&n| n > 0) {
        println!("{label}: guard-swept entries per shard {swept_per_shard:?}");
    }
    (victim_means, peak.iter().copied().max().unwrap_or(0))
}

/// The batched datapath entry point on one pre-generated attack+victim event batch:
/// `ShardedDatapath::process_timed_batch`'s upcall count and simulated cost, both
/// deterministic. (How fast the host runs it is `benchmark/`'s question.)
fn batch_outcome(fig: &mut Figure, schema: &FieldSchema) {
    let n_shards = fig.args.shard_count();
    let mut sharded = sipdp::runner(schema, &fig.args).datapath;
    let victim = sipdp::victim_on_shard("bench victim", 0x0a00_0005, 4.0, schema, n_shards, 0);
    let victim_key = victim.key(schema);
    let mut batch: Vec<(tse_packet::fields::Key, usize, f64)> = Vec::new();
    let mut attack = sipdp::sprayed_keys(schema, n_shards);
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
    let defaults = FigArgs {
        duration: 70.0,
        shards: Some(4),
        ..FigArgs::default()
    };
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), defaults);
    let args = fig.args.clone();
    let (duration, n_shards) = (args.duration, args.shard_count());
    let schema = FieldSchema::ovs_ipv4();

    // Victim B sits "half a ring" away from the attacked shard 0 (shard 2 in the
    // default 4-shard setup), so its shard is never the pinned target — which needs at
    // least two shards to be possible at all.
    assert!(
        n_shards >= 2,
        "the blast-radius comparison needs --shards >= 2 (victim B must live off the attacked shard)"
    );
    let b_shard = (n_shards / 2).max(1);
    // 4 Gbps each, so the 10 Gbps NIC is never the bottleneck.
    let victims = [
        sipdp::victim_on_shard("Victim A", 0x0a00_0005, 4.0, &schema, n_shards, 0),
        sipdp::victim_on_shard("Victim B", 0x0a00_0006, 4.0, &schema, n_shards, b_shard),
    ];
    let run = |keys, guard: Option<GuardMitigation>| {
        let mut runner = sipdp::runner(&schema, &args);
        if let Some(guard) = guard {
            runner = runner.with_mitigation(guard);
        }
        sipdp::run(runner, &schema, &victims, keys, Ingress::Keys, duration)
    };
    println!(
        "== Shard blast radius: {n_shards} PMD shards (RSS, {} executor), SipDp @ {ATTACK_PPS} pps from t={ATTACK_START} s ==",
        args.executor_label()
    );
    println!("Victim A pinned to shard 0 (attacked); Victim B pinned to shard {b_shard}.");

    let mut total_cost = 0.0;
    let mut record = |tag: &str, means: &[(f64, f64)], peak_masks: usize, stats: DatapathStats| {
        total_cost += stats.busy_seconds;
        fig.account(&stats);
        for ((before, during), victim) in means.iter().zip(["victim_a", "victim_b"]) {
            fig.gbps(&format!("{tag}/{victim}_gbps_before"), *before);
            fig.gbps(&format!("{tag}/{victim}_gbps_under_attack"), *during);
        }
        fig.row(
            &format!("{tag}/peak_shard_masks"),
            "masks",
            peak_masks as f64,
        );
    };

    // Shard-pinned explosion: every attack packet retagged onto Victim A's shard.
    let (tl, stats) = run(sipdp::pinned_keys(&schema, n_shards), None);
    let (means, peak) = summarize("shard-pinned attack (shard 0)", &tl, duration);
    record("pinned", &means, peak, stats);

    // Spray: the same stream spread round-robin over every shard.
    let (tl, stats) = run(sipdp::sprayed_keys(&schema, n_shards), None);
    let (means, peak) = summarize("sprayed attack (all shards)", &tl, duration);
    record("sprayed", &means, peak, stats);

    // Pinned again, defended: a per-shard-configured guard on the mitigation stack —
    // the attacked shard sweeps under a tightened threshold, every other shard's guard
    // is left at the default (and never fires: their caches stay tiny).
    let guard = GuardMitigation::new(GuardConfig::default()).with_shard_config(
        0,
        GuardConfig {
            mask_threshold: 30,
            ..GuardConfig::default()
        },
    );
    let (tl, stats) = run(sipdp::pinned_keys(&schema, n_shards), Some(guard));
    let (means, peak) = summarize("shard-pinned attack + per-shard guard", &tl, duration);
    record("pinned+guard", &means, peak, stats);

    fig.row("total_cost_seconds", "cost_seconds", total_cost);
    batch_outcome(&mut fig, &schema);
    fig.finish();
}
