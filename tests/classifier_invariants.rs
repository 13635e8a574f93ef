//! Cross-crate integration tests: classifier invariants exercised through the full
//! datapath (packet -> flow key -> caches -> verdict).

use proptest::prelude::*;
use tse::packet::IpProto;
use tse::prelude::*;

/// Every packet gets the same verdict from the datapath (whatever cache level answers)
/// as from a direct slow-path lookup of the flow table.
#[test]
fn datapath_never_misclassifies() {
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipSpDp.flow_table(&schema);
    let reference = table.clone();
    let mut dp = Datapath::new(table);
    let mut rng_state = 0x12345678u64;
    for i in 0..2000u32 {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let src = (rng_state >> 32) as u32;
        let sport = (rng_state >> 16) as u16;
        let dport = rng_state as u16;
        let pkt = PacketBuilder::tcp_v4(src.to_be_bytes(), [10, 0, 0, 99], sport, dport).build();
        let key = FlowKey::from_packet(&pkt).to_key(&schema);
        let expected = reference.lookup(&key).unwrap().action;
        let got = dp.process_packet(&pkt, i as f64 * 1e-3).action;
        assert_eq!(got, expected, "packet {i} misclassified");
    }
    assert!(dp.megaflow().check_independence());
}

// The megaflow cache stays independent (Inv 2) under arbitrary traffic mixes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn independence_invariant_holds(headers in proptest::collection::vec((0u32..4096, 0u16..512, 0u16..512), 1..80)) {
        let schema = FieldSchema::ovs_ipv4();
        let table = Scenario::SpDp.flow_table(&schema);
        let mut dp = Datapath::new(table);
        for (i, (src, sport, dport)) in headers.iter().enumerate() {
            let pkt = PacketBuilder::from_numeric_v4(*src, 0x0a00_0063, IpProto::Udp, *sport, *dport).build();
            dp.process_packet(&pkt, i as f64 * 1e-3);
        }
        prop_assert!(dp.megaflow().check_independence());
        prop_assert!(dp.mask_count() <= dp.entry_count());
    }
}

/// Baseline classifiers agree with TSS on the verdict for every packet of a random mix,
/// while their lookup work stays bounded by the rule set.
#[test]
fn baselines_agree_with_tss_and_stay_flat() {
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipDp.flow_table(&schema);
    let linear = LinearSearch::build(&table);
    let trie = HierarchicalTrie::build(&table);
    let hc = HyperCuts::build(&table);
    let mut dp = Datapath::new(table);

    let mut max_work = 0;
    let mut state = 99u64;
    for i in 0..1500u32 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let src = (state >> 32) as u32;
        let dport = state as u16;
        let pkt = PacketBuilder::tcp_v4(src.to_be_bytes(), [10, 0, 0, 99], 4000, dport).build();
        let key = FlowKey::from_packet(&pkt).to_key(&schema);
        let tss_verdict = dp.process_packet(&pkt, i as f64 * 1e-3).action;
        for c in [&linear as &dyn Classifier, &trie, &hc] {
            let r = c.classify(&key);
            assert_eq!(r.action, Some(tss_verdict), "{} disagrees", c.name());
            max_work = max_work.max(r.work);
        }
    }
    // The attack exploded the TSS mask count, but the baselines' work is unchanged by
    // traffic — it only depends on the 3-rule table.
    assert!(
        dp.mask_count() > 50,
        "TSS should have exploded: {}",
        dp.mask_count()
    );
    assert!(
        max_work < 200,
        "baseline lookup work must stay small: {max_work}"
    );
}

/// Alg. 1 by hand over `entries()`, which runs tuple by tuple in probe order: one probe
/// per run of equal masks, stopping at the first entry the header matches.
fn linear_scan(cache: &TupleSpace, header: &Key) -> (Option<Action>, usize) {
    let mut scanned = 0;
    let mut probing: Option<&Mask> = None;
    for e in cache.entries() {
        if probing != Some(&e.mask) {
            probing = Some(&e.mask);
            scanned += 1;
        }
        if tse::packet::fields::matches(header, &e.key, &e.mask) {
            return (Some(e.action), scanned);
        }
    }
    (None, scanned)
}

/// The 513-mask SipDp explosion under `NewestFirst` — the table the deep scan is
/// measured on, one entry per mask nearly everywhere, so almost every probe is decided
/// by a tuple's miss filter alone. Every resident key and twelve thousand arbitrary
/// headers must get the action *and* the `masks_scanned` a linear scan of `entries()`
/// gives them, before and after an expiry that drops half the tuples.
#[test]
fn exploded_cache_answers_like_a_linear_scan_of_its_entries() {
    let schema = FieldSchema::ovs_ipv4();
    let src = schema.field_index("ip_src").unwrap();
    let tp_dst = schema.field_index("tp_dst").unwrap();
    let allows = [(tp_dst, 80), (src, 0x0a00_0001)];
    let mut dp = Datapath::builder(FlowTable::whitelist_default_deny(&schema, &allows)).build();
    // Every other key arrives late enough to outlive the expiry below.
    for (i, key) in bit_inversion_keys(&schema, &allows, &schema.zero_value()).enumerate() {
        dp.process_key(&key, 64, (i % 2) as f64 * 100.0);
    }
    let mut cache = dp.megaflow().clone();
    assert_eq!(cache.ordering(), MaskOrdering::NewestFirst);
    assert_eq!(cache.mask_count(), 513);

    let mut state = 0x5eed_u64;
    let mut arbitrary = || {
        let mut header = schema.zero_value();
        for f in 0..schema.field_count() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            header.set(f, u128::from(state >> 16) & ((1 << schema.width(f)) - 1));
        }
        header
    };
    let (mut hits, mut misses) = (0, 0);
    for phase in ["exploded", "half expired"] {
        // Lookups refresh `last_used`; keep them off the cache the expiry is for.
        let mut probed = cache.clone();
        let resident: Vec<Key> = cache.entries().map(|e| e.key.clone()).collect();
        let headers = resident.into_iter().chain((0..12_000).map(|_| arbitrary()));
        for header in headers {
            let expected = linear_scan(&cache, &header);
            let got = probed.lookup(&header, 0.0);
            assert_eq!(
                (got.action, got.masks_scanned),
                expected,
                "{phase}: {header}"
            );
            assert_eq!(cache.peek(&header).map(|e| e.action), expected.0);
            match expected.0 {
                Some(_) => hits += 1,
                None => misses += 1,
            }
        }
        if phase == "exploded" {
            let expired = cache.expire_idle(105.0, 10.0);
            assert!(expired > 200, "about half the entries idle out: {expired}");
            assert!(
                (200..320).contains(&cache.mask_count()),
                "and about half the tuples with them: {}",
                cache.mask_count()
            );
        }
    }
    assert!(hits > 1000 && misses > 1000, "{hits} hits, {misses} misses");
}
