//! Megaflow generation as it was before the one-walk rewrite, kept as the reference the
//! rewrite is tested against: classify with a plain linear scan, enumerate the
//! higher-priority rules by definition, then test their mask bits one by one. Shared by
//! `examined_bits_model.rs` here and the workspace's `tests/oracle_switch.rs`, which
//! builds its model switch from these two functions.

use std::cmp::Reverse;

use tse_classifier::flowtable::{FlowTable, TableMatch};
use tse_classifier::strategy::{FieldStrategy, MegaflowStrategy};
use tse_packet::fields::{FieldSchema, Key, Mask};

/// The slow path's verdict by a plain scan: stable sort by decreasing priority, first
/// match wins, every rule looked at is counted.
pub fn linear_scan(table: &FlowTable, header: &Key) -> Option<TableMatch> {
    let mut order: Vec<usize> = (0..table.len()).collect();
    order.sort_by_key(|&i| Reverse(table.rules()[i].priority));
    let at = order.iter().position(|&i| {
        let rule = &table.rules()[i];
        (0..header.len()).all(|f| header.get(f) & rule.mask.get(f) == rule.key.get(f))
    })?;
    Some(TableMatch {
        rule_index: order[at],
        action: table.rules()[order[at]].action,
        rules_inspected: at + 1,
    })
}

fn expand_bit(strategy: &MegaflowStrategy, schema: &FieldSchema, field: usize, bit: u32) -> u128 {
    let width = schema.width(field);
    match strategy.field(field) {
        FieldStrategy::BitLevel => 1u128 << bit,
        FieldStrategy::Exact => schema.fields()[field].full_mask(),
        FieldStrategy::Chunked(c) => {
            let chunk_index = bit / c;
            let lo = chunk_index * c;
            let hi = ((chunk_index + 1) * c).min(width);
            let ones = if hi - lo == 128 {
                u128::MAX
            } else {
                (1u128 << (hi - lo)) - 1
            };
            ones << lo
        }
    }
}

fn expand_mask_field(
    strategy: &MegaflowStrategy,
    schema: &FieldSchema,
    field: usize,
    mask_bits: u128,
) -> u128 {
    if mask_bits == 0 {
        return 0;
    }
    match strategy.field(field) {
        FieldStrategy::BitLevel => mask_bits,
        FieldStrategy::Exact => schema.fields()[field].full_mask(),
        FieldStrategy::Chunked(_) => {
            let mut out = 0u128;
            for bit in 0..schema.width(field) {
                if mask_bits >> bit & 1 == 1 {
                    out |= expand_bit(strategy, schema, field, bit);
                }
            }
            out
        }
    }
}

/// The verdict and the megaflow's mask: the matched rule's mask, then per-bit narrowing
/// against every higher-priority rule. `None` if no rule matches.
pub fn reference_generate(
    table: &FlowTable,
    header: &Key,
    strategy: &MegaflowStrategy,
) -> Option<(TableMatch, Mask)> {
    let schema = table.schema();
    let matched = linear_scan(table, header)?;
    let rule = &table.rules()[matched.rule_index];

    let mut mask = schema.empty_mask();
    for f in 0..schema.field_count() {
        mask.set(f, expand_mask_field(strategy, schema, f, rule.mask.get(f)));
    }

    let higher_priority = (0..table.len()).filter(|&i| {
        let q = table.rules()[i].priority;
        q > rule.priority || (q == rule.priority && i < matched.rule_index)
    });
    for hp_index in higher_priority {
        let hp = &table.rules()[hp_index];
        assert!(!hp.matches(header), "higher-priority rule matched first");
        'fields: for f in 0..schema.field_count() {
            let rule_mask = hp.mask.get(f);
            if rule_mask == 0 {
                continue;
            }
            let width = schema.width(f);
            for bit in (0..width).rev() {
                if rule_mask >> bit & 1 == 0 {
                    continue;
                }
                let add = expand_bit(strategy, schema, f, bit);
                mask.set(f, mask.get(f) | add);
                let differs = (header.get(f) ^ hp.key.get(f)) >> bit & 1 == 1;
                if differs {
                    break 'fields;
                }
            }
        }
    }

    Some((matched, mask))
}
