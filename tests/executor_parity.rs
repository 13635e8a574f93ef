//! Executor parity: thread-parallel shard execution must be bit-for-bit identical to
//! the sequential walk — same `Timeline`s (f64-bit compares), same `DatapathStats`,
//! same `ShardedBatchReport`s, same mitigation action logs — for every scenario,
//! shard count and defense stack. The executor may only change wall-clock time.
//!
//! The same file pins the run-aware dispatch (`ShardedDatapath::process_timed_runs`,
//! what `run_mix` crosses the executor with once per interval) to the loop of per-run
//! `process_timed_batch` calls it replaced, and counts `run_mix`'s executor round trips.
//!
//! Every experiment here runs under a recording `RunObserver`: its log of stage hooks
//! is pinned in shape and accounting, must match across executors like the timeline,
//! and must not change the run it watches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;
use tse::simnet::runner::{RunObserver, Stage};
use tse::switch::stats::DatapathStats;

/// `run_mix`'s stages in run order: every interval brackets each of them once.
const STAGES: [Stage; 8] = [
    Stage::Drain,
    Stage::InstallTables,
    Stage::Replay,
    Stage::FaultsAndExpiry,
    Stage::Probes,
    Stage::Allocate,
    Stage::Mitigations,
    Stage::Record,
];

/// Every observer hook call of one run as `(interval, stage, items)`, in call order:
/// `None` for an `enter`, the stage's count for an `exit`.
#[derive(Debug, Default, PartialEq)]
struct StageLog(Vec<(usize, Stage, Option<usize>)>);

impl RunObserver for StageLog {
    fn enter(&mut self, interval: usize, stage: Stage) {
        self.0.push((interval, stage, None));
    }

    fn exit(&mut self, interval: usize, stage: Stage, items: usize) {
        self.0.push((interval, stage, Some(items)));
    }
}

impl StageLog {
    /// The `items` of every `stage` exit, one per interval in interval order.
    fn items(&self, stage: Stage) -> Vec<usize> {
        let exits = self.0.iter().filter(|(_, s, _)| *s == stage);
        exits.filter_map(|&(_, _, items)| items).collect()
    }
}

/// The log's shape and accounting against the run it watched: sixteen calls per
/// interval, each stage entered then exited in run order; the replayed packets, probes
/// and charged frames are every packet the datapath counted; per interval the replayed
/// packets, the mitigation actions and the recorded sample agree with the timeline.
fn assert_stage_log_accounts_for_the_run(log: &StageLog, timeline: &Timeline, packets: u64) {
    let intervals = timeline.samples.len();
    assert_eq!(log.0.len(), 16 * intervals, "16 hook calls per interval");
    for (i, calls) in log.0.chunks(16).enumerate() {
        for (stage, pair) in STAGES.iter().zip(calls.chunks(2)) {
            assert_eq!(pair[0], (i, *stage, None));
            assert!(matches!(pair[1], (j, s, Some(_)) if j == i && s == *stage));
        }
    }
    let total = |stage| log.items(stage).iter().sum::<usize>() as u64;
    assert_eq!(
        total(Stage::Replay) + total(Stage::Probes) + total(Stage::FaultsAndExpiry),
        packets
    );
    assert_eq!(total(Stage::Record), intervals as u64);
    let (replayed, actions) = (log.items(Stage::Replay), log.items(Stage::Mitigations));
    for (i, s) in timeline.samples.iter().enumerate() {
        // The runner samples once a second, so a rate is a per-interval count.
        assert_eq!(
            replayed[i] as f64,
            s.attacker_pps + s.background_pps,
            "t={}",
            s.time
        );
        assert_eq!(actions[i], s.mitigation_actions.len(), "t={}", s.time);
    }
}

/// Run one full experiment — two victims, a lazy scenario attacker, the full
/// mitigation stack (guard + rekey + upcall quota + mask cap) — on `n_shards` shards
/// under the given executor, observed by a [`StageLog`]. A twin runner on the same
/// executor runs the same experiment through plain `run_mix`: its timeline and stats
/// must be bit-identical, so observing changes nothing.
fn run_experiment(
    scenario: Scenario,
    n_shards: usize,
    executor: impl ShardExecutor + 'static,
) -> (Timeline, StageLog) {
    let schema = FieldSchema::ovs_ipv4();
    let twin_executor = executor.clone_box();
    let runner = |executor: Box<dyn ShardExecutor>| {
        let table = scenario.flow_table(&schema);
        let sharded =
            ShardedDatapath::from_builder(Datapath::builder(table), n_shards, Steering::Rss)
                .with_executor(executor);
        ExperimentRunner::sharded(sharded, Vec::new(), OffloadConfig::gro_off())
            .with_mitigation(GuardMitigation::new(GuardConfig {
                mask_threshold: 30,
                ..GuardConfig::default()
            }))
            .with_mitigation(RssKeyRandomizer::new(15.0, 0xC0FFEE))
            .with_mitigation(UpcallLimiter::new(200))
            .with_mitigation(MaskCap::new(400))
    };
    let (mut observed, mut twin) = (runner(Box::new(executor)), runner(twin_executor));
    let mut log = StageLog::default();
    let timeline = observed.run_mix_observed(experiment_mix(&schema, scenario), 40.0, &mut log);
    let unobserved = twin.run_mix(experiment_mix(&schema, scenario), 40.0);
    assert_timelines_identical(&unobserved, &timeline);
    let stats = observed.datapath.stats();
    assert_eq!(stats, twin.datapath.stats());
    assert_eq!(
        stats.busy_seconds.to_bits(),
        twin.datapath.stats().busy_seconds.to_bits()
    );
    assert_stage_log_accounts_for_the_run(&log, &timeline, stats.packets());
    (timeline, log)
}

/// [`run_experiment`]'s traffic: two victims and a lazy `scenario` attacker.
fn experiment_mix(schema: &FieldSchema, scenario: Scenario) -> TrafficMix<'_> {
    let mut mix = TrafficMix::new()
        .with(VictimSource::new(
            VictimFlow::iperf_tcp("Victim 1", 0x0a00_0005, 0x0a00_0063, 10.0),
            schema,
            1.0,
        ))
        .with(VictimSource::new(
            VictimFlow::iperf_tcp("Victim 2", 0x0a00_0007, 0x0a00_0064, 4.0),
            schema,
            1.0,
        ));
    mix.push(Box::new(
        AttackGenerator::new(
            "Attacker",
            schema,
            scenario.key_iter(schema, &schema.zero_value()).cycle(),
            StdRng::seed_from_u64(42),
            100.0,
            10.0,
        )
        .with_limit(2500),
    ));
    mix
}

/// Bitwise f64 slice equality (stricter than `==`: distinguishes -0.0 and would catch
/// a NaN, which `PartialEq` lets slip).
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str, t: f64) {
    assert_eq!(a.len(), b.len(), "{what} arity at t={t}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}] diverged at t={t}: {x} vs {y}"
        );
    }
}

fn assert_timelines_identical(seq: &Timeline, par: &Timeline) {
    assert_eq!(seq.victim_names, par.victim_names);
    assert_eq!(seq.attacker_names, par.attacker_names);
    assert_eq!(seq.shard_count, par.shard_count);
    assert_eq!(seq.samples.len(), par.samples.len());
    for (a, b) in seq.samples.iter().zip(&par.samples) {
        // Structural equality first (covers counts and the mitigation action log)...
        assert_eq!(a, b, "samples diverged at t={}", a.time);
        // ...then the f64 series to the bit.
        assert_bits_eq(&a.victim_gbps, &b.victim_gbps, "victim_gbps", a.time);
        assert_bits_eq(
            &a.attacker_pps_by_source,
            &b.attacker_pps_by_source,
            "attacker_pps_by_source",
            a.time,
        );
        assert_bits_eq(
            &a.shard_attacker_pps,
            &b.shard_attacker_pps,
            "shard_attacker_pps",
            a.time,
        );
        assert_eq!(a.attacker_pps.to_bits(), b.attacker_pps.to_bits());
    }
}

/// Two observed runs agree: the same timeline to the bit and the same stage log.
fn assert_runs_identical(a: &(Timeline, StageLog), b: &(Timeline, StageLog)) {
    assert_timelines_identical(&a.0, &b.0);
    assert_eq!(a.1, b.1, "the stage logs diverged");
}

#[test]
fn persistent_pool_timelines_match_sequential_on_every_scenario_and_shard_count() {
    // Same exhaustive sweep for the long-lived worker pool: the shard jobs really run
    // on other threads here, in whatever order the workers claim them.
    for scenario in Scenario::ALL {
        for n_shards in [1usize, 4, 16] {
            let seq = run_experiment(scenario, n_shards, SequentialExecutor);
            let par = run_experiment(scenario, n_shards, PersistentPoolExecutor::new(4));
            assert_runs_identical(&seq, &par);
        }
    }
}

#[test]
fn chaos_timelines_match_sequential_across_seeds() {
    // The adversarial executor runs the shards in a seeded permutation with injected
    // yields — if any cross-shard state or order-dependent merge existed, some seed
    // would surface it. Sweep seeds on one scenario and scenarios on one seed.
    let seq = run_experiment(Scenario::SipDp, 8, SequentialExecutor);
    for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
        let chaos = run_experiment(Scenario::SipDp, 8, ChaosExecutor::new(4, seed));
        assert_runs_identical(&seq, &chaos);
    }
    for scenario in Scenario::ALL {
        for n_shards in [1usize, 4, 16] {
            let seq = run_experiment(scenario, n_shards, SequentialExecutor);
            let chaos = run_experiment(scenario, n_shards, ChaosExecutor::new(4, 7));
            assert_runs_identical(&seq, &chaos);
        }
    }
}

#[test]
fn one_persistent_pool_is_reusable_across_runs() {
    // A single pool (cloned handles share the workers) driving several full
    // experiments back to back must keep producing the sequential timelines — the
    // long-lived workers carry no state between runs.
    let pool = PersistentPoolExecutor::new(3);
    for scenario in [Scenario::SipDp, Scenario::SpDp, Scenario::SipDp] {
        let seq = run_experiment(scenario, 8, SequentialExecutor);
        let par = run_experiment(scenario, 8, pool.clone());
        assert_runs_identical(&seq, &par);
    }
}

#[test]
fn threaded_runs_are_reproducible() {
    // Two identical threaded runs agree with each other (no hidden scheduling
    // dependence), not just with the sequential reference.
    let a = run_experiment(Scenario::SipDp, 8, PersistentPoolExecutor::new(3));
    let b = run_experiment(Scenario::SipDp, 8, PersistentPoolExecutor::new(5));
    assert_runs_identical(&a, &b);
}

/// The raw sharded batch entry points agree across executors, report for report.
#[test]
fn batch_reports_and_stats_match_across_executors() {
    let schema = FieldSchema::ovs_ipv4();
    let events: Vec<(Key, usize, f64)> = Scenario::SipDp
        .key_iter(&schema, &schema.zero_value())
        .take(2000)
        .enumerate()
        .map(|(i, k)| (k, 64usize, 0.01 + i as f64 * 1e-3))
        .collect();
    let table = Scenario::SipDp.flow_table(&schema);
    let mut seq = ShardedDatapath::new(table.clone(), 6, Steering::Rss);
    let mut par =
        ShardedDatapath::new(table, 6, Steering::Rss).with_executor(PersistentPoolExecutor::new(4));
    assert_eq!(par.executor().name(), "persistent-pool");

    let r_seq = seq.process_timed_batch(&events);
    let r_par = par.process_timed_batch(&events);
    assert_eq!(r_seq, r_par);
    assert_eq!(seq.stats(), par.stats());
    assert_eq!(
        seq.stats().busy_seconds.to_bits(),
        par.stats().busy_seconds.to_bits()
    );
    assert_eq!(seq.shard_mask_counts(), par.shard_mask_counts());
    assert_eq!(seq.shard_entry_counts(), par.shard_entry_counts());

    // The expiry sweep too.
    seq.maybe_expire(60.0);
    par.maybe_expire(60.0);
    assert_eq!(seq.mask_count(), par.mask_count());
    assert_eq!(seq.entry_count(), par.entry_count());
}

/// Satellite: the per-shard reports the executor returns must agree with what the
/// shards themselves recorded — `per_shard[i]` against `shard(i).stats()` and the
/// aggregate against the merged stats, counter for counter and cost bit for bit.
#[test]
fn sharded_batch_report_is_consistent_with_shard_stats() {
    let schema = FieldSchema::ovs_ipv4();
    let events: Vec<(Key, usize, f64)> = Scenario::SpDp
        .key_iter(&schema, &schema.zero_value())
        .take(1500)
        .enumerate()
        .map(|(i, k)| (k, 64usize, 0.01 + i as f64 * 1e-3))
        .collect();
    for executor in [
        Box::new(SequentialExecutor) as Box<dyn ShardExecutor>,
        Box::new(PersistentPoolExecutor::new(4)),
        Box::new(ChaosExecutor::new(4, 0xC0FFEE)),
    ] {
        let mut dp = ShardedDatapath::new(Scenario::SpDp.flow_table(&schema), 4, Steering::Rss)
            .with_executor(executor);
        let report = dp.process_timed_batch(&events);
        assert_eq!(report.per_shard.len(), 4);
        for (i, r) in report.per_shard.iter().enumerate() {
            let stats = dp.shard(i).stats();
            assert_eq!(r.processed as u64, stats.packets(), "shard {i} processed");
            assert_eq!(r.allowed, stats.allowed, "shard {i} allowed");
            assert_eq!(r.denied, stats.denied, "shard {i} denied");
            assert_eq!(r.upcalls, stats.upcalls, "shard {i} upcalls");
            assert_eq!(
                r.fastpath_hits, stats.megaflow_hits,
                "shard {i} fastpath hits"
            );
            assert_eq!(
                r.total_cost.to_bits(),
                stats.busy_seconds.to_bits(),
                "shard {i} cost"
            );
        }
        let agg = report.aggregate();
        let stats = dp.stats();
        assert_eq!(agg.processed as u64, stats.packets());
        assert_eq!(agg.allowed, stats.allowed);
        assert_eq!(agg.denied, stats.denied);
        assert_eq!(agg.upcalls, stats.upcalls);
        assert_eq!(agg.total_cost.to_bits(), stats.busy_seconds.to_bits());
        assert_eq!(agg.processed, events.len());
    }
}

/// Counts [`ShardExecutor::run`] calls on their way to a real worker pool.
#[derive(Debug, Clone)]
struct CountingExecutor {
    pool: PersistentPoolExecutor,
    runs: Arc<AtomicUsize>,
}

impl ShardExecutor for CountingExecutor {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn run(&self, n_shards: usize, job: &(dyn Fn(usize) + Sync)) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.pool.run(n_shards, job);
    }

    fn clone_box(&self) -> Box<dyn ShardExecutor> {
        Box::new(self.clone())
    }
}

/// The work counter a 1-core box can gate on: `run_mix` crosses the executor a fixed
/// number of times per sample interval — once for the interval's packets, once for the
/// idle-expiry sweep, once for its probes — however many events, per-source runs or
/// probes the interval holds. A `run_mix` that dispatched per run would cross it some
/// 10 000 times per interval on the larger mix below.
#[test]
fn run_mix_crosses_the_executor_a_fixed_number_of_times_per_interval() {
    const INTERVALS: usize = 4;
    let executor_runs = |events_per_interval: usize| {
        let schema = FieldSchema::ovs_ipv4();
        let runs = Arc::new(AtomicUsize::new(0));
        let sharded = ShardedDatapath::new(Scenario::SpDp.flow_table(&schema), 4, Steering::Rss)
            .with_executor(CountingExecutor {
                pool: PersistentPoolExecutor::new(2),
                runs: Arc::clone(&runs),
            });
        let mut runner = ExperimentRunner::sharded(sharded, Vec::new(), OffloadConfig::gro_off());
        let mut mix = TrafficMix::new().with(VictimSource::new(
            VictimFlow::iperf_tcp("Victim", 0x0a00_0005, 0x0a00_0063, 10.0),
            &schema,
            1.0,
        ));
        // Three constant-rate sources a third of a packet gap apart: a, b, c, a, b, c, …
        // — every run the interval is cut into holds one event.
        let rate = events_per_interval as f64 / 3.0;
        for (i, label) in ["a", "b", "c"].into_iter().enumerate() {
            mix.push(Box::new(AttackGenerator::new(
                label,
                &schema,
                Scenario::SpDp
                    .key_iter(&schema, &schema.zero_value())
                    .cycle(),
                StdRng::seed_from_u64(i as u64),
                rate,
                i as f64 / (3.0 * rate),
            )));
        }
        let timeline = runner.run_mix(mix, INTERVALS as f64);
        let delivered: f64 = timeline.samples.iter().map(|s| s.attacker_pps).sum();
        assert!(
            delivered >= (events_per_interval * (INTERVALS - 1)) as f64,
            "the mix delivered only {delivered} packets"
        );
        runs.load(Ordering::Relaxed)
    };
    assert_eq!(executor_runs(10), 3 * INTERVALS);
    assert_eq!(executor_runs(10_000), 3 * INTERVALS);
}

/// Per-shard `(run, report)` lists: what a `process_timed_runs` fold collects, and what
/// a loop of `process_timed_batch` per run returns for the shards each run reached.
type RunReports = Vec<Vec<(usize, BatchReport)>>;

/// The run-aware dispatch of `events` cut at `ends`, on `executor`, against the loop it
/// replaces — one `process_timed_batch` per run on the sequential walk: the same
/// per-(shard, run) reports, per-shard statistics (costs to the f64 bit), mask and
/// entry counts and per-mask hit counters.
fn assert_runs_dispatch_matches_the_per_run_loop(
    n_shards: usize,
    executor: impl ShardExecutor + 'static,
    events: &[(Key, usize, f64)],
    ends: &[usize],
) {
    let schema = FieldSchema::ovs_ipv4();
    let build =
        || ShardedDatapath::new(Scenario::SpDp.flow_table(&schema), n_shards, Steering::Rss);
    let mut looped = build();
    let mut expect: RunReports = vec![Vec::new(); n_shards];
    let mut start = 0;
    for (run, &end) in ends.iter().enumerate() {
        let report = looped.process_timed_batch(&events[start..end]);
        for (shard, r) in report.per_shard.iter().enumerate() {
            if r.processed > 0 {
                expect[shard].push((run, *r));
            }
        }
        start = end;
    }

    let mut fused = build().with_executor(executor);
    let runs: Vec<(usize, usize)> = ends.iter().copied().enumerate().collect();
    let mut got: RunReports = vec![Vec::new(); n_shards];
    fused.process_timed_runs(events, &runs, &mut got, |reports, run, r| {
        reports.push((run, *r))
    });

    let context = format!("{n_shards} shards, {}", fused.executor().name());
    assert_eq!(got, expect, "{context}");
    for shard in 0..n_shards {
        for ((_, g), (_, e)) in got[shard].iter().zip(&expect[shard]) {
            assert_eq!(g.total_cost.to_bits(), e.total_cost.to_bits(), "{context}");
        }
        let (f, l) = (fused.shard(shard).stats(), looped.shard(shard).stats());
        assert_eq!(f, l, "{context}, shard {shard}");
        assert_eq!(
            f.busy_seconds.to_bits(),
            l.busy_seconds.to_bits(),
            "{context}"
        );
        assert_eq!(
            fused.shard(shard).megaflow().mask_usage(),
            looped.shard(shard).megaflow().mask_usage(),
            "{context}, shard {shard}"
        );
    }
    assert_eq!(
        fused.shard_mask_counts(),
        looped.shard_mask_counts(),
        "{context}"
    );
    assert_eq!(
        fused.shard_entry_counts(),
        looped.shard_entry_counts(),
        "{context}"
    );
}

#[test]
fn an_empty_run_list_dispatches_an_empty_batch() {
    for n_shards in [1, 4] {
        let pool = PersistentPoolExecutor::new(2);
        assert_runs_dispatch_matches_the_per_run_loop(n_shards, pool, &[], &[]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Executor choice never changes `DatapathStats`: arbitrary key batches over
    /// arbitrary shard/thread counts produce identical per-shard and aggregate
    /// counters (costs compared to the f64 bit), and identical host-side work counts
    /// of every shard's megaflow cache (`TssWork`: its lookups', runs' and installs'
    /// walks of the lane).
    #[test]
    fn executor_choice_never_changes_datapath_stats(
        values in proptest::collection::vec((0u128..1u128 << 32, 0u128..=u16::MAX as u128), 40..60),
        n_shards in 1usize..9,
        threads in 2usize..6,
    ) {
        let schema = FieldSchema::ovs_ipv4();
        let ip_src = schema.field_index("ip_src").unwrap();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let batch: Vec<(Key, usize, f64)> = values
            .iter()
            .enumerate()
            .map(|(i, (src, port))| {
                let mut k = schema.zero_value();
                k.set(ip_src, *src);
                k.set(tp_dst, *port);
                (k, 64usize, i as f64 * 0.05)
            })
            .collect();
        let table = Scenario::SpDp.flow_table(&schema);
        let mut seq = ShardedDatapath::new(table.clone(), n_shards, Steering::Rss);
        let mut pool = ShardedDatapath::new(table.clone(), n_shards, Steering::Rss)
            .with_executor(PersistentPoolExecutor::new(threads));
        let mut chaos = ShardedDatapath::new(table, n_shards, Steering::Rss)
            .with_executor(ChaosExecutor::new(threads, values.len() as u64));
        let r_seq = seq.process_timed_batch(&batch);
        let r_pool = pool.process_timed_batch(&batch);
        let r_chaos = chaos.process_timed_batch(&batch);
        prop_assert_eq!(&r_seq, &r_pool);
        prop_assert_eq!(&r_seq, &r_chaos);
        let (a, c): (DatapathStats, DatapathStats) = (seq.stats(), pool.stats());
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(a.busy_seconds.to_bits(), c.busy_seconds.to_bits());
        for i in 0..n_shards {
            prop_assert_eq!(seq.shard(i).stats(), pool.shard(i).stats(), "shard {}", i);
            let work = seq.shard(i).megaflow().work();
            prop_assert_eq!(work, pool.shard(i).megaflow().work(), "shard {}", i);
            prop_assert_eq!(work, chaos.shard(i).megaflow().work(), "shard {}", i);
        }
    }

    /// The run-aware dispatch is the per-run loop, shard for shard: random batches of a
    /// few recurring keys (so hit counters matter) whose timestamps span many
    /// revalidation intervals and idle timeouts (entries expire mid-batch, mid-run), cut
    /// into runs of 0–3 events (most runs miss most shards), on 1/2/4 shards × every
    /// executor.
    #[test]
    fn run_aware_dispatch_matches_a_loop_of_per_run_batches(
        packets in proptest::collection::vec((0u128..24, 0u128..6, 0u128..6, 0usize..4), 0..120),
        run_lens in proptest::collection::vec(0usize..4, 0..150),
    ) {
        let schema = FieldSchema::ovs_ipv4();
        let field = |name: &str| schema.field_index(name).unwrap();
        let (ip_src, tp_src, tp_dst) = (field("ip_src"), field("tp_src"), field("tp_dst"));
        let mut now = 0.0;
        let events: Vec<(Key, usize, f64)> = packets
            .iter()
            .map(|&(src, sport, dport, gap)| {
                let mut k = schema.zero_value();
                k.set(ip_src, 0x0a00_0000 + src);
                k.set(tp_src, sport);
                k.set(tp_dst, 78 + dport);
                now += [0.0, 0.003, 0.4, 4.0][gap];
                (k, 64usize, now)
            })
            .collect();
        let mut ends = Vec::new();
        for len in run_lens {
            let end = ends.last().map_or(0, |&e: &usize| e + len);
            ends.push(end.min(events.len()));
        }
        if ends.last().copied().unwrap_or(0) < events.len() {
            ends.push(events.len());
        }
        let pool = PersistentPoolExecutor::new(3);
        for n_shards in [1usize, 2, 4] {
            for executor in [
                Box::new(SequentialExecutor) as Box<dyn ShardExecutor>,
                Box::new(pool.clone()),
                Box::new(ChaosExecutor::new(3, events.len() as u64)),
            ] {
                assert_runs_dispatch_matches_the_per_run_loop(n_shards, executor, &events, &ends);
            }
        }
    }
}
