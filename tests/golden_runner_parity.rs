//! Golden parity: the event-driven `ExperimentRunner` must reproduce the
//! pre-streaming-redesign runner's `Timeline` **bit-for-bit** for single-source runs.
//!
//! `reference_run` below is a frozen copy of the old `ExperimentRunner::run` loop (pre
//! `TrafficSource` redesign), expressed against the public datapath API. It is the
//! ground truth the redesigned runner (attacker + victims wrapped in a `TrafficMix`,
//! drained through the sharded batch dispatch) is compared against: every sample of every
//! scenario must match exactly, down to the f64 bits. The old loop replayed concrete
//! packets; this copy replays the attack generator's events through `process_key`,
//! which `tests/sharded_datapath.rs` holds equal to `process_packet` on the packet.
//!
//! `reference_guarded_run` is a second frozen copy: the pre-mitigation-stack runner's
//! `run_mix` loop with its hard-wired guard hook after throughput accounting — one
//! `MfcGuard` per shard, all under one config and one clock, so every gate fires at the
//! same times. It is the ground truth a uniform `GuardMitigation` stage on the
//! composable `MitigationStack` is compared against, on every scenario, single- and
//! multi-shard, down to the f64 bits.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;
use tse::switch::stats::PathTaken;

/// One sample of the frozen reference runner (the old `TimelineSample` fields).
struct RefSample {
    time: f64,
    victim_gbps: Vec<f64>,
    attacker_pps: f64,
    mask_count: usize,
    entry_count: usize,
    victim_masks_scanned: usize,
}

/// Frozen copy of the pre-redesign `ExperimentRunner::run` (TSS backend, no guard).
fn reference_run(
    datapath: &mut Datapath,
    victims: &[VictimFlow],
    offload: &OffloadConfig,
    mut attack: impl TrafficSource,
    duration: f64,
) -> Vec<RefSample> {
    let dt = 1.0; // the old default sample interval
    let mut samples = Vec::new();
    let mut attack_iter = std::iter::from_fn(|| attack.next_event()).peekable();
    let steps = (duration / dt).ceil() as usize;
    for step in 0..steps {
        let t = step as f64 * dt;
        let t_end = t + dt;

        // 1. Replay the attack packets that fall into this interval.
        let mut attack_packets = 0u64;
        let mut attack_busy = 0.0f64;
        while let Some(ev) = attack_iter.peek() {
            if ev.time >= t_end {
                break;
            }
            let ev = attack_iter.next().expect("peeked");
            if ev.time >= t {
                let outcome = datapath.process_key(&ev.key, ev.bytes, ev.time);
                attack_packets += 1;
                attack_busy += outcome.cost;
            }
        }
        datapath.maybe_expire(t_end);

        // 2. Probe each active victim flow once.
        let mut victim_costs = Vec::with_capacity(victims.len());
        let mut victim_masks_scanned = 0;
        for flow in victims {
            if !flow.is_active(t) {
                victim_costs.push(None);
                continue;
            }
            let probe = flow.representative_packet();
            let outcome = datapath.process_packet(&probe, t + dt * 0.5);
            victim_masks_scanned = victim_masks_scanned.max(outcome.masks_scanned);
            let units = outcome.masks_scanned;
            let cost = match outcome.path {
                PathTaken::SlowPath => offload.cost.slow_path(units),
                _ => offload.cost.fast_path(units),
            };
            victim_costs.push(Some(cost));
        }

        // 3. Convert the CPU left after attack processing into victim throughput.
        let available_cpu = (dt - attack_busy).max(0.0);
        let active: Vec<usize> = victim_costs
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|_| i))
            .collect();
        let mut victim_gbps = vec![0.0; victims.len()];
        if !active.is_empty() {
            let share = available_cpu / active.len() as f64;
            let mut leftover = 0.0;
            for &i in &active {
                let cost = victim_costs[i].expect("active flow has a cost");
                let offered_pps =
                    victims[i].offered_gbps * 1e9 / 8.0 / offload.bytes_per_invocation as f64;
                let achievable_pps = share / cost / dt;
                let pps = achievable_pps.min(offered_pps);
                leftover += (achievable_pps - pps).max(0.0) * cost * dt;
                victim_gbps[i] = pps * offload.bytes_per_invocation as f64 * 8.0 / 1e9;
            }
            if leftover > 1e-12 {
                let limited: Vec<usize> = active
                    .iter()
                    .copied()
                    .filter(|&i| {
                        victim_gbps[i] + 1e-9 < victims[i].offered_gbps.min(offload.line_rate_gbps)
                    })
                    .collect();
                if !limited.is_empty() {
                    let extra = leftover / limited.len() as f64;
                    for &i in &limited {
                        let cost = victim_costs[i].expect("active");
                        let extra_gbps =
                            extra / cost / dt * offload.bytes_per_invocation as f64 * 8.0 / 1e9;
                        victim_gbps[i] = (victim_gbps[i] + extra_gbps).min(victims[i].offered_gbps);
                    }
                }
            }
            let total: f64 = victim_gbps.iter().sum();
            if total > offload.line_rate_gbps {
                let scale = offload.line_rate_gbps / total;
                for v in &mut victim_gbps {
                    *v *= scale;
                }
            }
        }

        samples.push(RefSample {
            time: t,
            victim_gbps,
            attacker_pps: attack_packets as f64 / dt,
            mask_count: datapath.mask_count(),
            entry_count: datapath.entry_count(),
            victim_masks_scanned,
        });
    }
    samples
}

fn assert_bit_for_bit(reference: &[RefSample], timeline: &Timeline, context: &str) {
    assert_eq!(reference.len(), timeline.samples.len(), "{context}: length");
    for (r, s) in reference.iter().zip(&timeline.samples) {
        let ctx = format!("{context} @ t={}", r.time);
        assert_eq!(r.time.to_bits(), s.time.to_bits(), "{ctx}: time");
        assert_eq!(
            r.victim_gbps.len(),
            s.victim_gbps.len(),
            "{ctx}: victim arity"
        );
        for (i, (a, b)) in r.victim_gbps.iter().zip(&s.victim_gbps).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: victim {i} gbps {a} vs {b}"
            );
        }
        assert_eq!(
            r.attacker_pps.to_bits(),
            s.attacker_pps.to_bits(),
            "{ctx}: attacker pps"
        );
        assert_eq!(r.mask_count, s.mask_count, "{ctx}: masks");
        assert_eq!(r.entry_count, s.entry_count, "{ctx}: entries");
        assert_eq!(
            r.victim_masks_scanned, s.victim_masks_scanned,
            "{ctx}: victim masks scanned"
        );
    }
}

/// The canonical Fig. 8a-style setup, per scenario: three victims with staggered
/// activity windows. The attack is [`attack`].
fn scenario_fixture(scenario: Scenario) -> (FlowTable, Vec<VictimFlow>) {
    let schema = FieldSchema::ovs_ipv4();
    let table = scenario.flow_table(&schema);
    let victims = vec![
        VictimFlow::iperf_tcp("Victim 1", 0x0a000005, 0x0a000063, 10.0).with_src_port(40001),
        VictimFlow::iperf_tcp("Victim 2", 0x0a000006, 0x0a000063, 6.0).with_src_port(40002),
        VictimFlow::iperf_udp("Victim 3", 0x0a000007, 0x0a000063, 3.0).active_between(20.0, 70.0),
    ];
    (table, victims)
}

/// The scenario's cyclic co-located attack: 3000 packets at 100 pps from t=30 s (none
/// for Baseline). Every call is the same stream from its start.
fn attack(scenario: Scenario) -> impl TrafficSource {
    let schema = FieldSchema::ovs_ipv4();
    let keys = scenario.key_iter(&schema, &schema.zero_value()).cycle();
    let rng = StdRng::seed_from_u64(99);
    AttackGenerator::new("Attacker", &schema, keys, rng, 100.0, 30.0).with_limit(3000)
}

#[test]
fn event_driven_runner_matches_frozen_reference_for_every_scenario() {
    for scenario in Scenario::ALL {
        let (table, victims) = scenario_fixture(scenario);
        let offload = OffloadConfig::gro_off();

        let mut ref_dp = Datapath::new(table.clone());
        let reference = reference_run(&mut ref_dp, &victims, &offload, attack(scenario), 90.0);

        let mut runner = ExperimentRunner::new(Datapath::new(table), victims.clone(), offload);
        let timeline = runner.run(attack(scenario), 90.0);

        assert_eq!(
            timeline.victim_names,
            victims.iter().map(|v| v.name.clone()).collect::<Vec<_>>()
        );
        assert_bit_for_bit(&reference, &timeline, scenario.name());
    }
}

#[test]
fn one_shard_sharded_runner_matches_frozen_reference_for_every_scenario() {
    // The multi-PMD refactor must be invisible at one shard: an ExperimentRunner over
    // a 1-shard ShardedDatapath (any steering policy — with one shard they are all the
    // same total partition) reproduces the frozen pre-sharding runner bit-for-bit.
    for scenario in Scenario::ALL {
        let (table, victims) = scenario_fixture(scenario);
        let offload = OffloadConfig::gro_off();

        let mut ref_dp = Datapath::new(table.clone());
        let reference = reference_run(&mut ref_dp, &victims, &offload, attack(scenario), 90.0);

        let sharded = ShardedDatapath::from_builder(Datapath::builder(table), 1, Steering::Rss);
        let mut runner = ExperimentRunner::sharded(sharded, victims.clone(), offload);
        let timeline = runner.run(attack(scenario), 90.0);

        assert_eq!(timeline.shard_count, 1);
        for s in &timeline.samples {
            assert_eq!(
                s.shard_masks,
                vec![s.mask_count],
                "per-shard masks aggregate"
            );
            assert_eq!(s.shard_entries, vec![s.entry_count]);
            assert_eq!(s.shard_attacker_pps, vec![s.attacker_pps]);
        }
        assert_bit_for_bit(&reference, &timeline, &format!("sharded(1)/{}", scenario));
    }
}

/// One sample of the frozen pre-mitigation-stack guarded runner (the PR 3
/// `TimelineSample` fields, before `mitigation_actions` existed).
struct RefGuardedSample {
    time: f64,
    victim_gbps: Vec<f64>,
    attacker_pps: f64,
    mask_count: usize,
    entry_count: usize,
    victim_masks_scanned: usize,
    shard_masks: Vec<usize>,
    shard_entries: Vec<usize>,
    shard_attacker_pps: Vec<f64>,
}

/// Frozen copy of the pre-mitigation-stack `ExperimentRunner::run` path: the event
/// loop over a `TrafficMix` of victims plus one attacker, with the hard-wired guard
/// swept after throughput accounting — one copy of `guard` per shard, each gated on the
/// same clock — exactly the runner the mitigation stack replaced.
fn reference_guarded_run(
    datapath: &mut ShardedDatapath,
    victims: &[VictimFlow],
    offload: &OffloadConfig,
    attack: impl TrafficSource,
    guard: Option<MfcGuard>,
    duration: f64,
) -> Vec<RefGuardedSample> {
    let dt = 1.0;
    let schema = datapath.table().schema().clone();
    let mut mix = TrafficMix::new();
    for flow in victims {
        mix.push(Box::new(VictimSource::new(flow.clone(), &schema, dt)));
    }
    mix.push(Box::new(attack));

    let roles = mix.roles();
    let mut victim_slot = vec![usize::MAX; roles.len()];
    let mut attacker_slot = vec![usize::MAX; roles.len()];
    let mut n_victims = 0;
    let mut n_attackers = 0;
    for (i, role) in roles.iter().enumerate() {
        match role {
            SourceRole::Victim => {
                victim_slot[i] = n_victims;
                n_victims += 1;
            }
            SourceRole::Attacker => {
                attacker_slot[i] = n_attackers;
                n_attackers += 1;
            }
            SourceRole::Background => {
                unreachable!("the frozen reference mixes have no background sources")
            }
        }
    }
    let n_shards = datapath.shard_count();
    let mut guards: Vec<MfcGuard> = guard.into_iter().flat_map(|g| vec![g; n_shards]).collect();
    let mut samples = Vec::new();
    let steps = (duration / dt).ceil() as usize;
    let mut chunk: Vec<(Key, usize, f64)> = Vec::new();
    let mut probes: Vec<(usize, TrafficEvent)> = Vec::new();
    for step in 0..steps {
        let t = step as f64 * dt;
        let t_end = t + dt;

        let mut attack_packets = 0u64;
        let mut shard_busy = vec![0.0f64; n_shards];
        let mut shard_packets = vec![0u64; n_shards];
        let mut per_attacker = vec![0u64; n_attackers];
        let mut chunk_src = usize::MAX;
        chunk.clear();
        probes.clear();
        let flush = |datapath: &mut ShardedDatapath,
                     chunk: &mut Vec<(Key, usize, f64)>,
                     src: usize,
                     shard_busy: &mut [f64],
                     shard_packets: &mut [u64],
                     per_attacker: &mut [u64]| {
            if chunk.is_empty() {
                return 0u64;
            }
            let report = datapath.process_timed_batch(chunk);
            for (s, r) in report.per_shard.iter().enumerate() {
                shard_busy[s] += r.total_cost;
                shard_packets[s] += r.processed as u64;
            }
            let n = chunk.len() as u64;
            if attacker_slot[src] != usize::MAX {
                per_attacker[attacker_slot[src]] += n;
            }
            chunk.clear();
            n
        };
        while let Some((src, ev)) = mix.next_before(t_end) {
            match ev.payload {
                EventPayload::Packet => {
                    if ev.time < t {
                        continue;
                    }
                    if src != chunk_src {
                        attack_packets += flush(
                            datapath,
                            &mut chunk,
                            chunk_src,
                            &mut shard_busy,
                            &mut shard_packets,
                            &mut per_attacker,
                        );
                        chunk_src = src;
                    }
                    chunk.push((ev.key, ev.bytes, ev.time));
                }
                EventPayload::Probe { .. } => probes.push((src, ev)),
                EventPayload::Malformed { .. } => {
                    unreachable!("the frozen reference mixes are key-level only")
                }
            }
        }
        attack_packets += flush(
            datapath,
            &mut chunk,
            chunk_src,
            &mut shard_busy,
            &mut shard_packets,
            &mut per_attacker,
        );
        datapath.maybe_expire(t_end);

        let mut victim_costs: Vec<Option<f64>> = vec![None; n_victims];
        let mut victim_offered = vec![0.0f64; n_victims];
        let mut victim_shard = vec![0usize; n_victims];
        let mut victim_masks_scanned = 0;
        for (src, ev) in &probes {
            let EventPayload::Probe { offered_gbps } = ev.payload else {
                continue;
            };
            if victim_slot[*src] == usize::MAX {
                continue;
            }
            let slot = victim_slot[*src];
            let shard = datapath.shard_of_key(&ev.key);
            let outcome = datapath
                .shard_mut(shard)
                .process_key(&ev.key, ev.bytes, ev.time);
            victim_masks_scanned = victim_masks_scanned.max(outcome.masks_scanned);
            let units = outcome.masks_scanned;
            let cost = match outcome.path {
                PathTaken::SlowPath => offload.cost.slow_path(units),
                _ => offload.cost.fast_path(units),
            };
            victim_costs[slot] = Some(cost);
            victim_offered[slot] = offered_gbps;
            victim_shard[slot] = shard;
        }

        let mut victim_gbps = vec![0.0; n_victims];
        for (shard, busy) in shard_busy.iter().enumerate() {
            let available_cpu = (dt - busy).max(0.0);
            let active: Vec<usize> = victim_costs
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.map(|_| i))
                .filter(|&i| victim_shard[i] == shard)
                .collect();
            if active.is_empty() {
                continue;
            }
            let share = available_cpu / active.len() as f64;
            let mut leftover = 0.0;
            for &i in &active {
                let cost = victim_costs[i].expect("active flow has a cost");
                let offered_pps =
                    victim_offered[i] * 1e9 / 8.0 / offload.bytes_per_invocation as f64;
                let achievable_pps = share / cost / dt;
                let pps = achievable_pps.min(offered_pps);
                leftover += (achievable_pps - pps).max(0.0) * cost * dt;
                victim_gbps[i] = pps * offload.bytes_per_invocation as f64 * 8.0 / 1e9;
            }
            if leftover > 1e-12 {
                let limited: Vec<usize> = active
                    .iter()
                    .copied()
                    .filter(|&i| {
                        victim_gbps[i] + 1e-9 < victim_offered[i].min(offload.line_rate_gbps)
                    })
                    .collect();
                if !limited.is_empty() {
                    let extra = leftover / limited.len() as f64;
                    for &i in &limited {
                        let cost = victim_costs[i].expect("active");
                        let extra_gbps =
                            extra / cost / dt * offload.bytes_per_invocation as f64 * 8.0 / 1e9;
                        victim_gbps[i] = (victim_gbps[i] + extra_gbps).min(victim_offered[i]);
                    }
                }
            }
        }
        let total: f64 = victim_gbps.iter().sum();
        if total > offload.line_rate_gbps {
            let scale = offload.line_rate_gbps / total;
            for v in &mut victim_gbps {
                *v *= scale;
            }
        }

        // The pre-redesign guard hook: one shared-config sweep per shard whenever the
        // interval elapses, each on its own shard's packet rate.
        for (s, guard) in guards.iter_mut().enumerate() {
            let pps = shard_packets[s] as f64 / dt;
            guard.maybe_run_on_shard(datapath.shard_mut(s), t_end, pps, s);
        }

        samples.push(RefGuardedSample {
            time: t,
            victim_gbps,
            attacker_pps: attack_packets as f64 / dt,
            mask_count: datapath.mask_count(),
            entry_count: datapath.entry_count(),
            victim_masks_scanned,
            shard_masks: datapath.shard_mask_counts(),
            shard_entries: datapath.shard_entry_counts(),
            shard_attacker_pps: shard_packets.iter().map(|&c| c as f64 / dt).collect(),
        });
    }
    samples
}

fn assert_guarded_bit_for_bit(reference: &[RefGuardedSample], timeline: &Timeline, context: &str) {
    assert_eq!(reference.len(), timeline.samples.len(), "{context}: length");
    for (r, s) in reference.iter().zip(&timeline.samples) {
        let ctx = format!("{context} @ t={}", r.time);
        assert_eq!(r.time.to_bits(), s.time.to_bits(), "{ctx}: time");
        assert_eq!(r.victim_gbps.len(), s.victim_gbps.len(), "{ctx}: arity");
        for (i, (a, b)) in r.victim_gbps.iter().zip(&s.victim_gbps).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: victim {i} gbps {a} vs {b}"
            );
        }
        assert_eq!(
            r.attacker_pps.to_bits(),
            s.attacker_pps.to_bits(),
            "{ctx}: attacker pps"
        );
        assert_eq!(r.mask_count, s.mask_count, "{ctx}: masks");
        assert_eq!(r.entry_count, s.entry_count, "{ctx}: entries");
        assert_eq!(
            r.victim_masks_scanned, s.victim_masks_scanned,
            "{ctx}: victim masks scanned"
        );
        assert_eq!(r.shard_masks, s.shard_masks, "{ctx}: shard masks");
        assert_eq!(r.shard_entries, s.shard_entries, "{ctx}: shard entries");
        for (i, (a, b)) in r
            .shard_attacker_pps
            .iter()
            .zip(&s.shard_attacker_pps)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: shard {i} attacker pps");
        }
    }
}

/// The guard configuration used for the guarded parity runs: thresholds low enough that
/// the guard actually fires and evicts during every scenario's attack phase.
fn parity_guard_config() -> GuardConfig {
    GuardConfig {
        interval: 10.0,
        mask_threshold: 30,
        ..GuardConfig::default()
    }
}

#[test]
fn guard_stage_matches_frozen_guarded_reference_for_every_scenario() {
    for scenario in Scenario::ALL {
        let (table, victims) = scenario_fixture(scenario);
        let offload = OffloadConfig::gro_off();

        let mut ref_dp = ShardedDatapath::single(Datapath::new(table.clone()));
        let reference = reference_guarded_run(
            &mut ref_dp,
            &victims,
            &offload,
            attack(scenario),
            Some(MfcGuard::new(parity_guard_config())),
            90.0,
        );

        let mut runner = ExperimentRunner::new(Datapath::new(table), victims, offload)
            .with_mitigation(GuardMitigation::new(parity_guard_config()));
        let timeline = runner.run(attack(scenario), 90.0);
        assert_guarded_bit_for_bit(&reference, &timeline, &format!("guarded/{scenario}"));
    }
}

#[test]
fn guard_stage_matches_frozen_guarded_reference_on_a_sharded_datapath() {
    // The same parity on a real multi-PMD datapath: 4 RSS-steered shards, every
    // scenario. The stage's per-shard guards must fire at exactly the times the
    // old shared gate did and sweep the shards in the same order.
    for scenario in Scenario::ALL {
        let (table, victims) = scenario_fixture(scenario);
        let offload = OffloadConfig::gro_off();

        let mut ref_dp =
            ShardedDatapath::from_builder(Datapath::builder(table.clone()), 4, Steering::Rss);
        let reference = reference_guarded_run(
            &mut ref_dp,
            &victims,
            &offload,
            attack(scenario),
            Some(MfcGuard::new(parity_guard_config())),
            90.0,
        );

        let sharded = ShardedDatapath::from_builder(Datapath::builder(table), 4, Steering::Rss);
        let mut runner = ExperimentRunner::sharded(sharded, victims, offload)
            .with_mitigation(GuardMitigation::new(parity_guard_config()));
        let timeline = runner.run(attack(scenario), 90.0);
        assert_eq!(timeline.shard_count, 4);
        assert_guarded_bit_for_bit(
            &reference,
            &timeline,
            &format!("guarded-sharded(4)/{scenario}"),
        );
    }
}

#[test]
fn unguarded_reference_agrees_with_guardless_frozen_reference() {
    // Internal consistency of the two frozen references: with no guard attached the
    // guarded copy reduces to the original single-shard reference.
    let (table, victims) = scenario_fixture(Scenario::SipDp);
    let offload = OffloadConfig::gro_off();
    let mut a_dp = Datapath::new(table.clone());
    let a = reference_run(&mut a_dp, &victims, &offload, attack(Scenario::SipDp), 60.0);
    let mut b_dp = ShardedDatapath::single(Datapath::new(table));
    let b = reference_guarded_run(
        &mut b_dp,
        &victims,
        &offload,
        attack(Scenario::SipDp),
        None,
        60.0,
    );
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.time.to_bits(), y.time.to_bits());
        for (u, v) in x.victim_gbps.iter().zip(&y.victim_gbps) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert_eq!(x.mask_count, y.mask_count);
        assert_eq!(x.entry_count, y.entry_count);
    }
}

#[test]
fn parity_holds_for_udp_offload_and_partial_duration() {
    // A second configuration axis: UDP offload model, shorter horizon, Dp scenario.
    let (table, victims) = scenario_fixture(Scenario::Dp);
    let offload = OffloadConfig::udp();
    let mut ref_dp = Datapath::new(table.clone());
    let reference = reference_run(&mut ref_dp, &victims, &offload, attack(Scenario::Dp), 47.0);
    let mut runner = ExperimentRunner::new(Datapath::new(table), victims, offload);
    let timeline = runner.run(attack(Scenario::Dp), 47.0);
    assert_bit_for_bit(&reference, &timeline, "Dp/udp/47s");
}
