//! Tenant-scale telemetry: a multi-tenant gateway under a mid-run TSE attack,
//! recorded through the two-tier hot/cold store with per-tenant SLO tracking.
//!
//! A [`TenantFleet`] of 600 tenants (2 turning hostile mid-run) shares a 4-shard
//! switch behind per-tenant steering. The runner records into a bounded
//! [`TelemetryStore`]: only the last 10 s stay in full detail, yet whole-run
//! per-tenant SLO violations, recovery times and delivered-throughput percentiles
//! come out of the streaming per-tenant SLO trackers — in memory that would be the
//! same for an hour-long run.
//!
//! Run with: `cargo run --release --example tenant_gateway`

use tse::prelude::*;

fn main() {
    let schema = FieldSchema::ovs_ipv4();
    let fleet = TenantFleet::new(
        &schema,
        FleetConfig {
            tenants: 600,
            attackers: 2,
            offered_gbps: 0.01,
            attack_rate_pps: 1200.0,
            duration: 60.0,
            churn: Some(ChurnConfig::default()),
            seed: 42,
        },
    );
    let sharded =
        ShardedDatapath::from_builder(Datapath::builder(fleet.table()), 4, Steering::PerTenant);
    let mut runner = ExperimentRunner::sharded(sharded, Vec::new(), OffloadConfig::gro_off())
        .with_telemetry(TelemetryConfig::with_hot_capacity(10).with_slo_floor(0.005))
        .with_table_updates(fleet.table_updates());
    runner.run_mix(fleet.mix(1.0), 60.0);
    let store = runner.take_telemetry().expect("telemetry was configured");

    println!(
        "recorded {} intervals; {} kept hot, {} aged into the cold tier",
        store.samples_recorded(),
        store.hot_len(),
        store.aged_out()
    );
    println!(
        "telemetry footprint: {} scalar slots (ceiling {}) — horizon-independent\n",
        store.footprint_units(),
        store.footprint_ceiling(0)
    );

    println!(
        "{:<14} {:>9} {:>12} {:>11} {:>11}",
        "tenant", "episodes", "below-floor", "p50 Gbps", "worst rec."
    );
    let mut shown = 0;
    for slo in store.slo_trackers() {
        if slo.episode_count() == 0 || shown >= 8 {
            continue;
        }
        shown += 1;
        println!(
            "{:<14} {:>9} {:>10.0} s {:>11.4} {:>9.0} s",
            slo.name(),
            slo.episode_count(),
            slo.total_violation_seconds(),
            slo.p50_gbps(),
            slo.longest_episode_seconds()
        );
    }
    let violated = store
        .slo_trackers()
        .iter()
        .filter(|t| t.episode_count() > 0)
        .count();
    println!(
        "\n{} of {} tenants broke the 0.005 Gbps SLO floor at least once",
        violated,
        store.slo_trackers().len()
    );
}
