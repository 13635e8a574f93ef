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
use tse_mitigation::guard::{GuardConfig, GuardMitigation};
use tse_mitigation::stack::MitigationAction;
use tse_packet::fields::FieldSchema;
use tse_simnet::runner::Timeline;

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

/// Wall-clock microbenchmark of the batched datapath entry point: one pre-generated
/// attack+victim event batch through `ShardedDatapath::process_timed_batch`,
/// reported as packets/s and megaflow installs (upcalls)/s of real time. The batch
/// outcome itself (upcalls, simulated cost) is deterministic; only the rates are
/// machine-dependent.
fn batch_microbench(
    schema: &FieldSchema,
    args: &tse_bench::FigArgs,
) -> Vec<tse_bench::report::Metric> {
    use tse_bench::report::Metric;
    let n_shards = args.shard_count();
    let mut sharded = sipdp::datapath(schema, args);
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
    let wall = std::time::Instant::now();
    let report = sharded.process_timed_batch(&batch).aggregate();
    let wall = wall.elapsed().as_secs_f64().max(1e-9);
    println!(
        "\n-- batch microbench: {} events through process_timed_batch in {:.3} s ({:.2} Mpps, {} upcalls) --",
        report.processed,
        wall,
        report.processed as f64 / wall / 1e6,
        report.upcalls,
    );
    vec![
        Metric::deterministic("batch/upcalls", "packets", report.upcalls as f64),
        Metric::deterministic("batch/cost_seconds", "cost_seconds", report.total_cost),
        Metric::wall(
            "batch/mpps",
            "mpps_wall",
            report.processed as f64 / wall / 1e6,
        )
        .higher_is_better(),
        Metric::wall(
            "batch/installs_per_sec",
            "installs_per_sec_wall",
            report.upcalls as f64 / wall,
        )
        .higher_is_better(),
    ]
}

fn main() {
    let args = tse_bench::fig_args(70.0, 4);
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

    use tse_bench::report::Metric;
    let mut metrics = Vec::new();
    let mut total_cost = 0.0;
    let wall = std::time::Instant::now();
    let mut record = |tag: &str, means: &[(f64, f64)], peak_masks: usize, busy: f64| {
        total_cost += busy;
        for ((before, during), victim) in means.iter().zip(["victim_a", "victim_b"]) {
            metrics.push(
                Metric::deterministic(&format!("{tag}/{victim}_gbps_before"), "gbps", *before)
                    .higher_is_better(),
            );
            metrics.push(
                Metric::deterministic(
                    &format!("{tag}/{victim}_gbps_under_attack"),
                    "gbps",
                    *during,
                )
                .higher_is_better(),
            );
        }
        metrics.push(Metric::deterministic(
            &format!("{tag}/peak_shard_masks"),
            "masks",
            peak_masks as f64,
        ));
    };

    // Shard-pinned explosion: every attack packet retagged onto Victim A's shard.
    let (tl, busy) = run(sipdp::pinned_keys(&schema, n_shards), None);
    let (means, peak) = summarize("shard-pinned attack (shard 0)", &tl, duration);
    record("pinned", &means, peak, busy);

    // Spray: the same stream spread round-robin over every shard.
    let (tl, busy) = run(sipdp::sprayed_keys(&schema, n_shards), None);
    let (means, peak) = summarize("sprayed attack (all shards)", &tl, duration);
    record("sprayed", &means, peak, busy);

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
    let (tl, busy) = run(sipdp::pinned_keys(&schema, n_shards), Some(guard));
    let (means, peak) = summarize("shard-pinned attack + per-shard guard", &tl, duration);
    record("pinned+guard", &means, peak, busy);

    metrics.push(Metric::deterministic(
        "total_cost_seconds",
        "cost_seconds",
        total_cost,
    ));
    metrics.push(Metric::wall(
        "wall_seconds",
        "seconds_wall",
        wall.elapsed().as_secs_f64(),
    ));
    metrics.extend(batch_microbench(&schema, &args));
    args.emit(env!("CARGO_BIN_NAME"), metrics);
}
