//! E-TENANT: the hour-long multi-tenant gateway scenario — per-tenant SLOs under
//! mid-run Co-located TSE attacks, at a scale (1k+ tenants, hour horizons) the
//! unbounded timeline could not hold.
//!
//! A [`TenantFleet`] of `--tenants` tenants shares one sharded hypervisor switch
//! behind per-tenant RX steering. Every benign tenant runs an iperf-like flow against
//! its own service; Poisson background churn keeps the megaflow cache realistically
//! busy. Three tenants turn hostile at staggered onsets (20 % / 50 % / 80 % of the
//! horizon): a scheduled ACL update arms their SpDp attack pattern, then each replays
//! the bit-inversion outer product from a single client address — the whole mask
//! explosion pinned to its own RX queue, starving exactly the tenants steered there.
//!
//! The run is recorded through the two-tier [`TelemetryStore`] with a 120-sample hot
//! ring: whole-run per-tenant SLO trackers (violations, time-to-detect,
//! time-to-recover, delivered p50/p99) stream in O(1) memory, and the binary
//! *asserts* `footprint_units() <= footprint_ceiling(..)` — the bounded-memory claim,
//! checked on every run, at every horizon.
//!
//! Two variants: **open** (no defense) and **defended** (pressure-gated
//! [`AdaptiveRekey`] — rotates the RSS key only while the telemetry window shows a
//! shard under sustained attack — plus a per-shard [`GuardMitigation`] sweep).
//! Each records `<variant>/work/rules_walked`, the rules its upcalls' table walks
//! looked at, summed over the shards — deterministic, like every row here.
//!
//! Flags: `--duration <s>` (default 3600), `--tenants <n>` (default 1000),
//! `--slo-gbps <g>` (default 0.005 — half the 0.01 Gbps per-tenant offered load),
//! plus the shared `--shards`, `--parallel` and `--json`. CI re-runs
//! `--duration 35 --tenants 64` (also with `--parallel 4`) and the default hour-long
//! 1000-tenant run, and diffs each against `BENCH_telemetry.json`.

use tse_bench::{FigArgs, Figure};
use tse_mitigation::guard::{GuardConfig, GuardMitigation};
use tse_mitigation::AdaptiveRekey;
use tse_packet::fields::FieldSchema;
use tse_simnet::fleet::{ChurnConfig, FleetConfig, TenantFleet};
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::ExperimentRunner;
use tse_simnet::telemetry::{TelemetryConfig, TelemetryStore};
use tse_switch::datapath::Datapath;
use tse_switch::pmd::{ShardedDatapath, Steering};

const OFFERED_GBPS: f64 = 0.01;
const ATTACK_PPS: f64 = 1200.0;
const HOT_CAPACITY: usize = 120;

/// Runs one variant and records its rows; returns the fleet's total violation time and
/// its worst recovery time, seconds.
fn run_variant(
    tag: &str,
    fig: &mut Figure,
    fleet: &TenantFleet,
    slo_gbps: f64,
    defended: bool,
) -> (f64, f64) {
    let args = &fig.args;
    let sharded = ShardedDatapath::from_builder(
        Datapath::builder(fleet.table()),
        args.shard_count(),
        Steering::PerTenant,
    )
    .with_executor(args.executor());
    let mut runner = ExperimentRunner::sharded(sharded, Vec::new(), OffloadConfig::gro_off())
        .with_telemetry(TelemetryConfig::with_hot_capacity(HOT_CAPACITY).with_slo_floor(slo_gbps))
        .with_table_updates(fleet.table_updates());
    if defended {
        runner = runner
            .with_mitigation(AdaptiveRekey::new(30.0, ATTACK_PPS * 0.25, 7))
            .with_mitigation(GuardMitigation::new(GuardConfig {
                interval: 10.0,
                mask_threshold: 100,
                ..GuardConfig::default()
            }));
    }
    let sample_interval = runner.sample_interval;
    let timeline = runner.run_mix(fleet.mix(sample_interval), args.duration);
    let store = runner.take_telemetry().expect("run_mix records telemetry");

    // The bounded-memory claim, asserted on the real run: the retained footprint
    // never exceeds the config-determined ceiling, whatever the horizon. The guard
    // logs at most one sweep per shard per interval, the rekey at most one action.
    let max_actions = args.shard_count() + 1;
    assert!(
        store.footprint_units() <= store.footprint_ceiling(max_actions),
        "telemetry footprint {} exceeds ceiling {}",
        store.footprint_units(),
        store.footprint_ceiling(max_actions)
    );

    let rekeys = timeline
        .samples
        .iter()
        .flat_map(|s| s.mitigation_actions.iter())
        .filter(|a| matches!(a, tse_mitigation::MitigationAction::Rekeyed { .. }))
        .count() as u64;

    fig.account(&runner.datapath.stats());
    // The upcalls' table walks, in rules: the slow path's classification work.
    let sharded = &runner.datapath;
    let rules_walked: u64 = (0..sharded.shard_count())
        .map(|i| sharded.shard(i).slow_path().rules_walked())
        .sum();
    fig.row(
        &format!("{tag}/work/rules_walked"),
        "rules",
        rules_walked as f64,
    );
    summarize(fig, tag, fleet, &store, rekeys)
}

fn summarize(
    fig: &mut Figure,
    tag: &str,
    fleet: &TenantFleet,
    store: &TelemetryStore,
    rekeys: u64,
) -> (f64, f64) {
    let trackers = store.slo_trackers();
    let violated: Vec<_> = trackers.iter().filter(|t| t.episode_count() > 0).collect();
    let tenants_violated = violated.len() as u64;
    let violation_seconds: f64 = trackers.iter().map(|t| t.total_violation_seconds()).sum();
    let worst_recovery_seconds = trackers
        .iter()
        .map(|t| t.longest_episode_seconds())
        .fold(0.0f64, f64::max);
    // Tenant-visible time-to-detect: the first violation episode opening at or after
    // the first attack onset, across the fleet. (`first_violation` won't do here —
    // table-update revalidation storms can trip tenants before any attack starts.)
    let onset = fleet.attack_onset(0);
    let detect_seconds = trackers
        .iter()
        .flat_map(|t| t.episodes().iter())
        .filter(|(start, _)| *start >= onset)
        .map(|(start, _)| start - onset)
        .fold(f64::INFINITY, f64::min);
    let detect_seconds = if detect_seconds.is_finite() {
        detect_seconds
    } else {
        -1.0
    };
    // Delivered p50 of the worst-hit tenant vs. the best-off tenant in the fleet.
    let hit_p50_gbps = violated
        .iter()
        .max_by(|a, b| {
            a.total_violation_seconds()
                .total_cmp(&b.total_violation_seconds())
        })
        .map(|t| t.p50_gbps())
        .unwrap_or(0.0);
    let best_p50_gbps = trackers.iter().map(|t| t.p50_gbps()).fold(0.0f64, f64::max);

    println!("\n-- {tag} --");
    println!(
        "samples recorded {} (hot {}, aged out {}), telemetry footprint {} scalar slots",
        store.samples_recorded(),
        store.hot_len(),
        store.aged_out(),
        store.footprint_units()
    );
    println!(
        "tenants violating SLO: {tenants_violated}, total violation time {violation_seconds:.0} s, \
         worst recovery {worst_recovery_seconds:.0} s, first detection {detect_seconds:.0} s after onset"
    );
    println!(
        "delivered p50: worst-hit tenant {hit_p50_gbps:.4} Gbps vs best tenant {best_p50_gbps:.4} Gbps"
    );
    println!(
        "background churn mean {:.0} pps, total attack mean {:.0} pps, rekeys {rekeys}",
        store.background_series().mean(),
        store.total_attacker_series().mean()
    );
    for t in violated.iter().take(4) {
        println!(
            "  {}: {} episodes, {:.0} s below floor, p50 {:.4} / p99-low {:.4} Gbps",
            t.name(),
            t.episode_count(),
            t.total_violation_seconds(),
            t.p50_gbps(),
            t.p99_gbps()
        );
    }

    fig.row(
        &format!("{tag}/tenants_violated"),
        "tenants",
        tenants_violated as f64,
    );
    fig.row(
        &format!("{tag}/violation_seconds"),
        "seconds",
        violation_seconds,
    );
    fig.row(
        &format!("{tag}/worst_recovery_seconds"),
        "seconds",
        worst_recovery_seconds,
    );
    fig.row(&format!("{tag}/detect_seconds"), "seconds", detect_seconds);
    fig.gbps(&format!("{tag}/hit_p50_gbps"), hit_p50_gbps);
    fig.gbps(&format!("{tag}/best_p50_gbps"), best_p50_gbps);
    fig.row(
        &format!("{tag}/background_pps"),
        "pps",
        store.background_series().mean(),
    );
    fig.row(
        &format!("{tag}/telemetry_footprint_units"),
        "scalar_slots",
        store.footprint_units() as f64,
    );
    fig.row(&format!("{tag}/rekeys"), "rotations", rekeys as f64);
    (violation_seconds, worst_recovery_seconds)
}

fn main() {
    let defaults = FigArgs {
        duration: 3600.0,
        shards: Some(4),
        tenants: Some(1000),
        slo_gbps: Some(0.005),
        ..FigArgs::default()
    };
    let mut fig = Figure::parse(env!("CARGO_BIN_NAME"), defaults);
    let args = &fig.args;
    let tenants = args.tenants.expect("fleet binary always has --tenants");
    let slo_gbps = args.slo_gbps.expect("fleet binary always has --slo-gbps");
    let schema = FieldSchema::ovs_ipv4();
    let attackers = 3.min(tenants - 1);
    let fleet = TenantFleet::new(
        &schema,
        FleetConfig {
            tenants,
            attackers,
            offered_gbps: OFFERED_GBPS,
            attack_rate_pps: ATTACK_PPS,
            duration: args.duration,
            churn: Some(ChurnConfig::default()),
            seed: 2026,
        },
    );
    println!(
        "== Tenant gateway: {tenants} tenants ({attackers} hostile), {} shards \
         (per-tenant steering, {} executor), {} s horizon, SLO floor {slo_gbps} Gbps ==",
        args.shard_count(),
        args.executor_label(),
        args.duration
    );
    for j in 0..attackers {
        println!(
            "  attacker {j} armed at {:.0} s (ACL update at {:.0} s), {ATTACK_PPS} pps SpDp",
            fleet.attack_onset(j),
            (fleet.attack_onset(j) - 2.0).max(0.0)
        );
    }

    let open = run_variant("open", &mut fig, &fleet, slo_gbps, false);
    let defended = run_variant("defended", &mut fig, &fleet, slo_gbps, true);

    println!(
        "\n== defense effect: violation time {:.0} s -> {:.0} s, worst recovery {:.0} s -> {:.0} s ==",
        open.0, defended.0, open.1, defended.1
    );
    fig.finish();
}
