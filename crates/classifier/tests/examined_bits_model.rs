//! `examined_megaflow` against the construction it replaced (`per_bit_reference`). The
//! megaflow mask is the record of the bits examined on the way to the verdict, so the
//! one-walk, word-arithmetic generation must produce the same mask bit for bit — on
//! tables with priority ties, partial masks and a 128-bit field, under every strategy.
//!
//! And the lemma Inv(2) rests on: every header inside a header's megaflow walks to the
//! same rule and the same mask, so two megaflows of one table are equal or disjoint.

use proptest::prelude::*;
use tse_classifier::flowtable::FlowTable;
use tse_classifier::rule::{Action, Rule};
use tse_classifier::strategy::{examined_megaflow, FieldStrategy, MegaflowStrategy};
use tse_packet::fields::{FieldDef, FieldSchema, Key};

mod per_bit_reference;
use per_bit_reference::{linear_scan, reference_generate};

fn schema() -> FieldSchema {
    FieldSchema::new(vec![
        FieldDef::new("a", 5),
        FieldDef::new("wide", 128),
        FieldDef::new("b", 4),
    ])
}

/// Spread a nibble over both ends and the middle of the 128-bit field, so keys, masks
/// and headers collide often enough to match and differ at bits 127, 63 and 0 alike.
fn wide(nibble: u128) -> u128 {
    nibble << 124 | nibble << 60 | nibble
}

fn key(schema: &FieldSchema, (a, w, b): (u128, u128, u128)) -> Key {
    Key::from_values(schema, &[a, wide(w), b])
}

fn strategies(schema: &FieldSchema) -> Vec<MegaflowStrategy> {
    let mut all = vec![
        MegaflowStrategy::wildcarding(schema),
        MegaflowStrategy::exact_match(schema),
        MegaflowStrategy::ovs_ipv6_anomaly(schema),
    ];
    all.extend([1, 3, 5, 8, 128].map(|c| MegaflowStrategy::chunked(schema, c)));
    all
}

type Triple = (u128, u128, u128);

fn arb_triple() -> impl Strategy<Value = Triple> {
    (0u128..32, 0u128..16, 0u128..16)
}

proptest! {
    #[test]
    fn one_walk_generation_equals_the_per_bit_construction(
        rules in proptest::collection::vec((arb_triple(), arb_triple(), 0u32..4), 0..12),
        headers in proptest::collection::vec(arb_triple(), 1..40),
    ) {
        let schema = schema();
        let mut table = FlowTable::new(schema.clone());
        for &(k, m, priority) in &rules {
            let action = if priority % 2 == 0 { Action::Allow } else { Action::Deny };
            table.push(Rule::new(key(&schema, k), key(&schema, m), priority, action));
        }
        table.push(Rule::match_all(&schema, 0, Action::Deny));

        for strategy in strategies(&schema) {
            for &h in &headers {
                let h = key(&schema, h);
                prop_assert_eq!(table.lookup(&h), linear_scan(&table, &h));
                prop_assert_eq!(examined_megaflow(&table, &h, &strategy),
                                reference_generate(&table, &h, &strategy),
                                "header {} under {:?}", h, strategy);
            }
        }
    }
}

/// A merged tenant table in small: every clause is exact on the destination plus one
/// more field, so the walk lane is one long run on `dst` — cut where a port-only clause,
/// a /24 clause or a match-all lands between pushes out of priority order.
fn tenant_schema() -> FieldSchema {
    FieldSchema::new(vec![
        FieldDef::new("dst", 32),
        FieldDef::new("port", 16),
        FieldDef::new("wide", 128),
    ])
}

/// Eight destinations, so clauses repeat one and the walk stops on a key whose rule's
/// other words then fail.
fn dst(i: u32) -> u32 {
    0x0a00_0000 | ((i % 8) * 0x0101_0111)
}

/// `(destination, shape, other value, priority)`; shapes 0–3 are `dst` plus `port`
/// (0, 1) or `wide` (2, 3), 4 is `port` alone, 5 a /24 on `dst`, 6 a match-all.
type Clause = (u32, u8, u128, u32);

fn tenant_rule(schema: &FieldSchema, &(d, shape, other, priority): &Clause) -> Rule {
    let action = if priority % 2 == 0 {
        Action::Allow
    } else {
        Action::Deny
    };
    // `(field, value, mask)` per matched field.
    let dst = (0, u128::from(dst(d)), 0xffff_ffff);
    let fields = match shape {
        0 | 1 => vec![dst, (1, other, 0xffff)],
        2 | 3 => vec![dst, (2, wide(other), u128::MAX)],
        4 => vec![(1, other, 0xffff)],
        5 => vec![(dst.0, dst.1, 0xffff_ff00)],
        _ => vec![],
    };
    let mut rule = Rule::match_all(schema, priority, action);
    for (field, value, mask) in fields {
        rule.key.set(field, value & mask);
        rule.mask.set(field, mask);
    }
    rule
}

proptest! {
    #[test]
    fn run_walk_generation_equals_the_per_bit_construction(
        clauses in proptest::collection::vec((0u32..8, 0u8..7, 0u128..4, 0u32..6), 1..65),
        headers in proptest::collection::vec(
            (0usize..64, (0u32..32, 0u32..32, 0usize..3), 0u128..4, 0u128..4), 1..40),
    ) {
        let schema = tenant_schema();
        let mut table = FlowTable::new(schema.clone());
        for clause in &clauses {
            table.push(tenant_rule(&schema, clause));
        }
        table.push(Rule::match_all(&schema, 0, Action::Deny));

        for strategy in strategies(&schema) {
            for &(at, (bit, other_bit, flips), port, w) in &headers {
                // A clause's own destination, 0–2 bits flipped.
                let mut d = dst(clauses[at % clauses.len()].0);
                for b in [bit, other_bit].into_iter().take(flips) {
                    d ^= 1 << b;
                }
                let h = Key::from_values(&schema, &[u128::from(d), port, wide(w)]);
                prop_assert_eq!(table.lookup(&h), linear_scan(&table, &h));
                prop_assert_eq!(examined_megaflow(&table, &h, &strategy),
                                reference_generate(&table, &h, &strategy),
                                "header {} under {:?}", h, strategy);
            }
        }
    }
}

proptest! {
    /// The lemma on every header of two 4-bit fields: random tables of rules with
    /// arbitrary masks and priorities, a DefaultDeny in two cases of three, under
    /// bit-level, exact, chunked and per-field strategies. Each header's megaflow is
    /// computed once; every header inside it must have the same one.
    #[test]
    fn every_header_inside_a_megaflow_walks_to_its_rule_and_mask(
        rules in proptest::collection::vec((0u128..256, 0u128..256, 0u32..4), 0..10),
        open in 0u32..3,
    ) {
        let schema = FieldSchema::new(vec![FieldDef::new("a", 4), FieldDef::new("b", 4)]);
        let key = |v: u128| Key::from_values(&schema, &[v >> 4, v & 15]);
        let bits = |k: &Key| k.get(0) << 4 | k.get(1);
        let mut table = FlowTable::new(schema.clone());
        for &(k, m, priority) in &rules {
            let action = if priority % 2 == 0 { Action::Allow } else { Action::Deny };
            table.push(Rule::new(key(k & m), key(m), priority, action));
        }
        if open != 0 {
            table.push(Rule::match_all(&schema, 0, Action::Deny));
        }
        let strategies = [
            MegaflowStrategy::wildcarding(&schema),
            MegaflowStrategy::exact_match(&schema),
            MegaflowStrategy::chunked(&schema, 3),
            MegaflowStrategy::per_field(vec![FieldStrategy::Exact, FieldStrategy::BitLevel]),
        ];
        for strategy in &strategies {
            let megaflows: Vec<_> = (0..256)
                .map(|h| examined_megaflow(&table, &key(h), strategy))
                .collect();
            for (h, megaflow) in megaflows.iter().enumerate() {
                let Some((_, mask)) = megaflow else { continue };
                let mask = bits(mask) as usize;
                for inside in (0..256).filter(|g| g & mask == h & mask) {
                    prop_assert_eq!(&megaflows[inside], megaflow,
                                    "{:08b} inside {:08b}/{:08b} under {:?}",
                                    inside, h, mask, strategy);
                }
            }
        }
    }
}
