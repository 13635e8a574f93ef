//! # tse-classifier
//!
//! The packet-classification substrate of the Tuple Space Explosion reproduction:
//!
//! * [`rule`] / [`flowtable`] — OVS-style wildcard rules, actions and the ordered,
//!   priority-based flow table that the slow path consults (§2.1);
//! * [`tss`] — the Tuple Space Search megaflow cache: distinct masks, one hash per mask,
//!   and the Alg. 1 lookup whose cost grows linearly with the number of masks
//!   (Observation 1) — the data structure the TSE attack explodes;
//! * [`strategy`] — slow-path megaflow generation: the bits the table walk examined,
//!   widened by the exact-match / wildcarding / chunked / per-field strategies that
//!   realise the Theorem 4.1–4.2 space–time trade-offs; Cover holds by construction, and
//!   so does Independence among one table's megaflows, which are equal or disjoint;
//! * [`microflow`] — a small exact-match cache, wired into no datapath (the kernel
//!   datapath the paper measures has none); kept for a `benchmark/` drill until the
//!   `[benchmark]` re-anchor retires it;
//! * [`baseline`] — attack-immune alternatives (linear search, hierarchical tries,
//!   HyperCuts) recommended by §7 as long-term mitigations.
//!
//! The crate is deterministic and allocation-friendly: no traffic I/O happens here, only
//! pure classification logic, which is what makes the higher-level switch simulation and
//! the benchmark harness reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod flowtable;
pub mod microflow;
pub mod rule;
pub mod strategy;
pub mod tss;

pub use baseline::{Classification, Classifier, HierarchicalTrie, HyperCuts, LinearSearch};
pub use flowtable::{FlowTable, TableMatch};
pub use microflow::MicroflowCache;
pub use rule::{Action, Rule};
pub use strategy::{examined_megaflow, FieldStrategy, MegaflowStrategy};
pub use tss::{InsertError, LookupOutcome, MaskOrdering, MegaflowEntry, TssWork, TupleSpace};

use tse_packet::fields::Key;

/// A key (or mask) as sixteen 64-bit words: field `f` in words `2f` (low half) and
/// `2f + 1` (high half), the slots past the schema's fields zero. The form the TSS probe
/// plan and the flow table's walk lane read a header in; sixteen slots, so a word number
/// masked to four bits indexes without a bounds check.
#[inline]
pub(crate) fn key_words(key: &Key) -> [u64; 16] {
    let mut words = [0; 16];
    for (pair, &v) in words.chunks_exact_mut(2).zip(key.values()) {
        pair[0] = v as u64;
        pair[1] = (v >> 64) as u64;
    }
    words
}

#[cfg(test)]
mod proptests {
    //! Property-based tests over the classifier invariants.

    use proptest::prelude::*;
    use tse_packet::fields::{FieldDef, FieldSchema, Key};

    use crate::flowtable::FlowTable;
    use crate::strategy::{examined_megaflow, MegaflowStrategy};
    use crate::tss::TupleSpace;

    fn small_schema() -> FieldSchema {
        FieldSchema::new(vec![FieldDef::new("a", 5), FieldDef::new("b", 4)])
    }

    fn arb_header() -> impl Strategy<Value = (u128, u128)> {
        (0u128..32, 0u128..16)
    }

    proptest! {
        /// Populating the cache from any packet sequence keeps the Independence
        /// invariant and never mis-classifies relative to the flow table.
        #[test]
        fn cache_always_agrees_with_table(headers in proptest::collection::vec(arb_header(), 1..60),
                                          allow_a in 0u128..32, allow_b in 0u128..16) {
            let schema = small_schema();
            let table = FlowTable::whitelist_default_deny(&schema, &[(0, allow_a), (1, allow_b)]);
            let strategy = MegaflowStrategy::wildcarding(&schema);
            let mut cache = TupleSpace::new(schema.clone());
            for &(a, b) in &headers {
                let h = Key::from_values(&schema, &[a, b]);
                if cache.lookup(&h, 0.0).action.is_some() {
                    continue;
                }
                let (verdict, mask) = examined_megaflow(&table, &h, &strategy).unwrap();
                cache.insert(h.clone(), mask, verdict.action, 0.0).unwrap();
            }
            prop_assert!(cache.check_independence());
            for &(a, b) in &headers {
                let h = Key::from_values(&schema, &[a, b]);
                let expect = table.lookup(&h).unwrap().action;
                let got = cache.lookup(&h, 0.0).action;
                prop_assert_eq!(got, Some(expect));
            }
        }

        /// The mask count is bounded by the product of the field widths plus the allow
        /// tuples (Theorem 4.2 with k_i = w_i), no matter what traffic arrives.
        #[test]
        fn mask_count_bounded_by_width_product(headers in proptest::collection::vec(arb_header(), 1..200)) {
            let schema = small_schema();
            let table = FlowTable::whitelist_default_deny(&schema, &[(0, 7), (1, 3)]);
            let strategy = MegaflowStrategy::wildcarding(&schema);
            let mut cache = TupleSpace::new(schema.clone());
            for &(a, b) in &headers {
                let h = Key::from_values(&schema, &[a, b]);
                if cache.lookup(&h, 0.0).action.is_some() {
                    continue;
                }
                let (verdict, mask) = examined_megaflow(&table, &h, &strategy).unwrap();
                cache.insert(h.clone(), mask, verdict.action, 0.0).unwrap();
            }
            let bound = (5 * 4 + 1 + 1) as usize; // prod(w_i) + allow tuples
            prop_assert!(cache.mask_count() <= bound,
                         "mask count {} exceeds bound {}", cache.mask_count(), bound);
        }

        /// Baseline classifiers always agree with the flow table on arbitrary headers.
        #[test]
        fn baselines_agree_with_table(queries in proptest::collection::vec(arb_header(), 1..50),
                                      allow_a in 0u128..32, allow_b in 0u128..16) {
            use crate::baseline::{Classifier, HierarchicalTrie, HyperCuts, LinearSearch};
            let schema = small_schema();
            let table = FlowTable::whitelist_default_deny(&schema, &[(0, allow_a), (1, allow_b)]);
            let linear = LinearSearch::build(&table);
            let trie = HierarchicalTrie::build(&table);
            let hc = HyperCuts::build(&table);
            for &(a, b) in &queries {
                let h = Key::from_values(&schema, &[a, b]);
                let expect = table.lookup(&h).map(|m| m.action);
                prop_assert_eq!(linear.classify(&h).action, expect);
                prop_assert_eq!(trie.classify(&h).action, expect);
                prop_assert_eq!(hc.classify(&h).action, expect);
            }
        }
    }
}
