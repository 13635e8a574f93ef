//! The two-tier telemetry store, property-tested: the cold tier's streaming
//! aggregates match an exact in-order fold bit-for-bit however much of the run ages
//! out of the hot ring; the log-bucket histogram's quantile estimate stays inside its
//! documented error bound (the true value is under-estimated by strictly less than
//! 12.5 %, i.e. `est <= v < est * 9/8`); and a fleet run records a bit-identical
//! store whichever shard executor drives it.

use proptest::prelude::*;
use tse::prelude::*;

/// A hand-built single-victim, single-attacker, single-shard sample.
fn sample(time: f64, pps: f64, background_pps: f64) -> TimelineSample {
    TimelineSample {
        time,
        victim_gbps: vec![1.0],
        attacker_pps: pps,
        attacker_pps_by_source: vec![pps],
        background_pps,
        malformed_pps: 0.0,
        mask_count: 3,
        entry_count: 5,
        victim_masks_scanned: 1,
        shard_masks: vec![3],
        shard_entries: vec![5],
        shard_attacker_pps: vec![pps],
        mitigation_actions: Vec::new(),
    }
}

/// Map integer draws onto a positive float spanning ~14 decades, well inside the
/// histogram's tracked range `[2^-32, 2^32)`.
fn to_value((mantissa, exponent): (u32, u32)) -> f64 {
    (mantissa as f64 + 1.0) * ((exponent as f64) - 16.0).exp2()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever ages out of the hot ring, the cold tier's count/sum/min/max equal the
    /// exact in-order fold over the *whole* stream — bit-for-bit, not approximately —
    /// for both the total attack rate and the background rate.
    #[test]
    fn cold_fold_matches_the_exact_stream_bit_for_bit(
        draws in proptest::collection::vec((0u32..4096, 0u32..33), 1..120),
        hot in 1usize..6,
    ) {
        let values: Vec<f64> = draws.into_iter().map(to_value).collect();
        let mut store = TelemetryStore::new(
            TelemetryConfig::with_hot_capacity(hot),
            1.0,
            vec!["v".into()],
            vec!["a".into()],
            1,
        );
        for (i, &v) in values.iter().enumerate() {
            store.record(sample(i as f64, v, 2.0 * v), &[]);
        }
        store.finish();

        let atk = store.total_attacker_series();
        prop_assert_eq!(atk.count(), values.len() as u64);
        let exact_sum: f64 = values.iter().sum();
        prop_assert_eq!(atk.sum().to_bits(), exact_sum.to_bits());
        let exact_min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let exact_max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(atk.min().to_bits(), exact_min.to_bits());
        prop_assert_eq!(atk.max().to_bits(), exact_max.to_bits());

        // The background series folds its own stream the same way.
        let bg = store.background_series();
        prop_assert_eq!(bg.count(), values.len() as u64);
        let exact_bg: f64 = values.iter().map(|v| 2.0 * v).sum();
        prop_assert_eq!(bg.sum().to_bits(), exact_bg.to_bits());

        // And the ring/ledger arithmetic is consistent with the stream length.
        prop_assert_eq!(store.hot_len(), hot.min(values.len()));
        prop_assert_eq!(store.aged_out() as usize, values.len().saturating_sub(hot));
        prop_assert_eq!(store.samples_recorded() as usize, values.len());
    }

    /// The histogram's quantile estimate is the lower bound of the bucket holding the
    /// exact rank statistic: `est <= exact < est * 9/8` for every in-range input.
    #[test]
    fn histogram_quantile_stays_inside_the_documented_bound(
        draws in proptest::collection::vec((0u32..4096, 0u32..33), 1..200),
        q_pct in 1u32..100,
    ) {
        let values: Vec<f64> = draws.into_iter().map(to_value).collect();
        let mut agg = SeriesAgg::new();
        for &v in &values {
            agg.observe(v);
        }
        let q = q_pct as f64 / 100.0;
        let mut sorted = values;
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let est = agg.quantile(q);
        prop_assert!(
            est <= exact && exact < est * 9.0 / 8.0,
            "q={}: estimate {} vs exact {}",
            q, est, exact
        );
    }
}

/// Run the same small tenant fleet through the runner and return its telemetry store.
fn fleet_store(fleet: &TenantFleet, executor: Box<dyn ShardExecutor>) -> TelemetryStore {
    let sharded =
        ShardedDatapath::from_builder(Datapath::builder(fleet.table()), 4, Steering::PerTenant)
            .with_executor(executor);
    let mut runner = ExperimentRunner::sharded(sharded, Vec::new(), OffloadConfig::gro_off())
        .with_telemetry(TelemetryConfig::with_hot_capacity(6).with_slo_floor(0.005))
        .with_table_updates(fleet.table_updates());
    runner.run_mix(fleet.mix(1.0), fleet.config().duration);
    runner.take_telemetry().expect("run_mix records telemetry")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The executor is a wall-clock choice only: a churning, attacked fleet run
    /// records a bit-identical store under the sequential and persistent-pool
    /// executors — hot ring, both cold aggregates, every SLO tracker and the
    /// footprint.
    #[test]
    fn store_is_bit_identical_across_executors(
        seed in 0u64..1024,
        tenants in 8usize..20,
    ) {
        let schema = FieldSchema::ovs_ipv4();
        let fleet = TenantFleet::new(&schema, FleetConfig {
            tenants,
            attackers: 2,
            offered_gbps: 0.01,
            attack_rate_pps: 400.0,
            duration: 25.0,
            churn: Some(ChurnConfig::default()),
            seed,
        });
        let seq = fleet_store(&fleet, Box::new(SequentialExecutor));
        let par = fleet_store(&fleet, Box::new(PersistentPoolExecutor::new(4)));

        let (a, b) = (seq.recent_timeline(), par.recent_timeline());
        prop_assert_eq!(a.victim_names, b.victim_names);
        prop_assert_eq!(a.attacker_names, b.attacker_names);
        prop_assert_eq!(a.samples, b.samples);
        prop_assert_eq!(seq.total_attacker_series(), par.total_attacker_series());
        prop_assert_eq!(seq.background_series(), par.background_series());
        prop_assert_eq!(seq.slo_trackers(), par.slo_trackers());
        prop_assert_eq!(seq.samples_recorded(), par.samples_recorded());
        prop_assert_eq!(seq.aged_out(), par.aged_out());
        prop_assert_eq!(seq.footprint_units(), par.footprint_units());
    }
}
