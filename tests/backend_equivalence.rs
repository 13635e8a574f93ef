//! Backend equivalence: a datapath of every [`FastPathKind`], run through the full
//! pipeline, must classify every scenario's traffic exactly like the default TSS
//! datapath — same verdict per packet, whatever level produced it. This is the
//! correctness half of the §7 claim; the performance half (the §7 classifiers stay flat
//! under attack) is asserted alongside. The property at the end pins the invariant the
//! design rests on: a §7 classifier classifies exactly as the table does, so the
//! megaflow cache behind it stays empty.

use proptest::prelude::*;
use tse::prelude::*;

/// Every fast path, TSS first.
const KINDS: [FastPathKind; 4] = [
    FastPathKind::Tss,
    FastPathKind::LinearSearch,
    FastPathKind::Trie,
    FastPathKind::HyperCuts,
];

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

fn datapath(table: &FlowTable, kind: FastPathKind) -> Datapath {
    Datapath::builder(table.clone()).fast_path(kind).build()
}

fn verdicts(mut dp: Datapath, keys: &[Key]) -> Vec<Action> {
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
        let reference = verdicts(datapath(&table, FastPathKind::Tss), &keys);
        for kind in &KINDS[1..] {
            assert_eq!(
                reference,
                verdicts(datapath(&table, *kind), &keys),
                "{}: {} diverges from TSS",
                scenario.name(),
                kind.name()
            );
        }
    }
}

#[test]
fn baseline_backends_never_grow_under_attack() {
    let schema = FieldSchema::ovs_ipv4();
    let scenario = Scenario::SipSpDp; // the worst-case explosion (8k+ masks on TSS)
    let keys = workload(&schema, scenario);
    let table = scenario.flow_table(&schema);

    let mut tss = Datapath::builder(table.clone()).build();
    let mut trie = datapath(&table, FastPathKind::Trie);
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

    for kind in KINDS {
        let (mut looped, mut batched) = (datapath(&table, kind), datapath(&table, kind));
        for (k, b, t) in &batch {
            looped.process_key(k, *b, *t);
        }
        let report = batched.process_timed_batch(&batch);
        let name = kind.name();
        assert_eq!(report.processed, batch.len());
        assert_eq!(batched.stats(), looped.stats(), "{name}: stats");
        assert_eq!(batched.mask_count(), looped.mask_count(), "{name}: masks");
        assert_eq!(
            batched.entry_count(),
            looped.entry_count(),
            "{name}: entries"
        );
    }
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
        datapath(&table, FastPathKind::Trie),
        victims.clone(),
        OffloadConfig::default(),
    );
    let trie_tl = trie_runner.run(attack(), 50.0);

    let table = scenario.flow_table(&schema);
    let mut hc_runner = ExperimentRunner::new(
        datapath(&table, FastPathKind::HyperCuts),
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

/// A prioritised table over a 12-bit schema (two 6-bit fields): each rule a key, a mask
/// per field — any bits, or with `prefix` a prefix of the given length, the only shape
/// the hierarchical trie accepts — a priority and an action. No default rule, so some
/// headers match nothing.
fn random_table(rules: &[(u128, u128, u32, u32)], prefix: bool) -> FlowTable {
    let schema = FieldSchema::new(vec![FieldDef::new("a", 6), FieldDef::new("b", 6)]);
    let split = |v: u128| Key::from_values(&schema, &[v >> 6 & 63, v & 63]);
    let prefix_mask = |len: u128| (63u128 << (6 - len.min(6))) & 63;
    let mut table = FlowTable::new(schema.clone());
    for &(key, bits, priority, action) in rules {
        let mask = if prefix {
            Key::from_values(
                &schema,
                &[prefix_mask(bits >> 6 & 7), prefix_mask(bits & 7)],
            )
        } else {
            split(bits)
        };
        let action = if action == 0 {
            Action::Deny
        } else {
            Action::Allow
        };
        table.push(Rule::new(
            split(key).apply_mask(&mask),
            mask,
            priority,
            action,
        ));
    }
    table
}

proptest! {
    /// On random prioritised tables of the shapes each classifier accepts, every fast
    /// path gives each header the table's verdict (`Deny` where no rule matches), per key
    /// and through the batch core alike. Behind a §7 classifier nothing ever reaches the
    /// megaflow cache: it holds no mask and no entry, and the only upcalls are the
    /// headers no rule matches.
    #[test]
    fn every_fast_path_classifies_like_the_table(
        rules in proptest::collection::vec((0u128..4096, 0u128..4096, 0u32..6, 0u32..2), 1..12),
        headers in proptest::collection::vec(0u128..4096, 1..40),
    ) {
        for prefix in [false, true] {
            let table = random_table(&rules, prefix);
            let schema = table.schema().clone();
            let batch: Vec<(Key, usize, f64)> = headers
                .iter()
                .enumerate()
                .map(|(i, &h)| (Key::from_values(&schema, &[h >> 6, h & 63]), 64, i as f64 * 0.1))
                .collect();
            let unmatched = batch.iter().filter(|(h, ..)| table.lookup(h).is_none()).count();
            for kind in KINDS {
                if kind == FastPathKind::Trie && !prefix {
                    continue;
                }
                let (mut looped, mut batched) = (datapath(&table, kind), datapath(&table, kind));
                for (h, bytes, now) in &batch {
                    let want = table.lookup(h).map_or(Action::Deny, |m| m.action);
                    let got = looped.process_key(h, *bytes, *now).action;
                    prop_assert_eq!(got, want, "{} on {}", kind.name(), h);
                }
                batched.process_timed_batch(&batch);
                prop_assert_eq!(batched.stats(), looped.stats(), "{}", kind.name());
                if kind != FastPathKind::Tss {
                    prop_assert_eq!((looped.mask_count(), looped.entry_count()), (0, 0));
                    prop_assert_eq!(looped.stats().upcalls, unmatched as u64, "{}", kind.name());
                }
            }
        }
    }
}
