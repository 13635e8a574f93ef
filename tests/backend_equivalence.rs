//! Backend equivalence: every fast-path backend, run through the full datapath, must
//! classify every scenario's traffic exactly like the default TSS backend — same
//! verdict per packet, whatever cache level produced it. This is the correctness half
//! of the §7 claim; the performance half (baselines stay flat under attack) is asserted
//! alongside.

use tse::prelude::*;

/// The per-packet workload of one scenario: a victim probe, the whole co-located attack
/// trace, then the victim again.
fn workload(schema: &FieldSchema, scenario: Scenario) -> Vec<Key> {
    let mut victim = schema.zero_value();
    victim.set(schema.field_index("tp_dst").unwrap(), 80);
    let mut keys = vec![victim.clone()];
    keys.extend(scenario.key_iter(schema, &schema.zero_value()));
    keys.push(victim);
    keys
}

fn verdicts<B: FastPathBackend>(mut dp: Datapath<B>, keys: &[Key]) -> Vec<Action> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| dp.process_key(k, 64, i as f64 * 1e-4).action)
        .collect()
}

#[test]
fn all_backends_classify_every_scenario_identically() {
    let schema = FieldSchema::ovs_ipv4();
    for scenario in Scenario::ALL {
        let keys = workload(&schema, scenario);
        let table = scenario.flow_table(&schema);
        let reference = verdicts(Datapath::builder(table.clone()).build(), &keys);
        let linear = verdicts(
            Datapath::builder(table.clone())
                .backend_fresh::<LinearSearchBackend>()
                .build(),
            &keys,
        );
        let trie = verdicts(
            Datapath::builder(table.clone())
                .backend_fresh::<TrieBackend>()
                .build(),
            &keys,
        );
        let hypercuts = verdicts(
            Datapath::builder(table)
                .backend_fresh::<HyperCutsBackend>()
                .build(),
            &keys,
        );
        assert_eq!(
            reference,
            linear,
            "{}: linear search diverges from TSS",
            scenario.name()
        );
        assert_eq!(
            reference,
            trie,
            "{}: hierarchical trie diverges from TSS",
            scenario.name()
        );
        assert_eq!(
            reference,
            hypercuts,
            "{}: hypercuts diverges from TSS",
            scenario.name()
        );
    }
}

#[test]
fn baseline_backends_never_grow_under_attack() {
    let schema = FieldSchema::ovs_ipv4();
    let scenario = Scenario::SipSpDp; // the worst-case explosion (8k+ masks on TSS)
    let keys = workload(&schema, scenario);
    let table = scenario.flow_table(&schema);

    let mut tss = Datapath::builder(table.clone()).build();
    let mut trie = Datapath::builder(table)
        .backend_fresh::<TrieBackend>()
        .build();
    let mut trie_work = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        tss.process_key(k, 64, i as f64 * 1e-4);
        trie_work.push(trie.process_key(k, 64, i as f64 * 1e-4).masks_scanned);
    }
    assert!(
        tss.mask_count() > 1000,
        "TSS should have exploded: {}",
        tss.mask_count()
    );
    assert_eq!(trie.mask_count(), 0);
    assert_eq!(trie.entry_count(), 0);
    // The trie's per-lookup work is bounded by the rule set, not the traffic.
    let max_work = trie_work.iter().max().unwrap();
    assert!(
        *max_work < 200,
        "trie work must stay rule-set-bounded: {max_work}"
    );
}

#[test]
fn process_batch_agrees_with_per_key_loop_on_every_backend() {
    let schema = FieldSchema::ovs_ipv4();
    let scenario = Scenario::SipDp;
    let table = scenario.flow_table(&schema);
    let batch: Vec<(Key, usize, f64)> = workload(&schema, scenario)
        .into_iter()
        .map(|k| (k, 64, 0.25))
        .collect();

    fn check<B: FastPathBackend>(
        mut looped: Datapath<B>,
        mut batched: Datapath<B>,
        batch: &[(Key, usize, f64)],
        name: &str,
    ) {
        for (k, b, t) in batch {
            looped.process_key(k, *b, *t);
        }
        let report = batched.process_timed_batch(batch);
        assert_eq!(report.processed, batch.len());
        assert_eq!(
            batched.stats().allowed,
            looped.stats().allowed,
            "{name}: allowed"
        );
        assert_eq!(
            batched.stats().denied,
            looped.stats().denied,
            "{name}: denied"
        );
        assert_eq!(
            batched.stats().upcalls,
            looped.stats().upcalls,
            "{name}: upcalls"
        );
        assert_eq!(batched.mask_count(), looped.mask_count(), "{name}: masks");
        assert_eq!(
            batched.entry_count(),
            looped.entry_count(),
            "{name}: entries"
        );
    }

    check(
        Datapath::builder(table.clone()).build(),
        Datapath::builder(table.clone()).build(),
        &batch,
        "tss",
    );
    check(
        Datapath::builder(table.clone())
            .backend_fresh::<LinearSearchBackend>()
            .build(),
        Datapath::builder(table.clone())
            .backend_fresh::<LinearSearchBackend>()
            .build(),
        &batch,
        "linear",
    );
    check(
        Datapath::builder(table.clone())
            .backend_fresh::<TrieBackend>()
            .build(),
        Datapath::builder(table.clone())
            .backend_fresh::<TrieBackend>()
            .build(),
        &batch,
        "trie",
    );
    check(
        Datapath::builder(table.clone())
            .backend_fresh::<HyperCutsBackend>()
            .build(),
        Datapath::builder(table)
            .backend_fresh::<HyperCutsBackend>()
            .build(),
        &batch,
        "hypercuts",
    );
}

#[test]
fn experiment_runner_produces_timelines_for_non_tss_backends() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let schema = FieldSchema::ovs_ipv4();
    let scenario = Scenario::SipDp;
    // The same attack for every backend: 2000 packets at 100 pps from t = 10 s.
    let attack = || {
        let keys = scenario.key_iter(&schema, &schema.zero_value()).cycle();
        let rng = StdRng::seed_from_u64(7);
        AttackGenerator::new("Attacker", &schema, keys, rng, 100.0, 10.0).with_limit(2000)
    };
    let victims = vec![VictimFlow::iperf_tcp(
        "victim",
        0x0a000005,
        0x0a00_0063,
        10.0,
    )];

    // TSS reference: the attack visibly degrades the victim.
    let table = scenario.flow_table(&schema);
    let mut tss_runner = ExperimentRunner::new(
        Datapath::builder(table).build(),
        victims.clone(),
        OffloadConfig::default(),
    );
    let tss_tl = tss_runner.run(attack(), 50.0);

    // Fig. 8-style timelines over two attack-immune backends: flat throughput.
    let table = scenario.flow_table(&schema);
    let mut trie_runner = ExperimentRunner::new(
        Datapath::builder(table)
            .backend_fresh::<TrieBackend>()
            .build(),
        victims.clone(),
        OffloadConfig::default(),
    );
    let trie_tl = trie_runner.run(attack(), 50.0);

    let table = scenario.flow_table(&schema);
    let mut hc_runner = ExperimentRunner::new(
        Datapath::builder(table)
            .backend_fresh::<HyperCutsBackend>()
            .build(),
        victims,
        OffloadConfig::default(),
    );
    let hc_tl = hc_runner.run(attack(), 50.0);

    for tl in [&tss_tl, &trie_tl, &hc_tl] {
        assert_eq!(tl.samples.len(), 50);
        assert!(tl.render_table().starts_with("time_s"));
    }
    let tss_drop = tss_tl.mean_total_between(20.0, 39.0) / tss_tl.mean_total_between(2.0, 9.0);
    assert!(
        tss_drop < 0.5,
        "TSS victim should lose >50% during the attack: {tss_drop:.2}"
    );
    for (name, tl) in [("trie", &trie_tl), ("hypercuts", &hc_tl)] {
        let before = tl.mean_total_between(2.0, 9.0);
        let during = tl.mean_total_between(20.0, 39.0);
        assert!(
            during > 0.95 * before,
            "{name} victim must be unaffected by the attack: {before:.2} -> {during:.2} Gbps"
        );
        assert!(tl.samples.iter().all(|s| s.mask_count == 0));
    }
}
