//! Detection of TSE-patterned megaflow entries (Alg. 2's `lookPatternInMFC`).
//!
//! A TSE-generated entry is a *drop* megaflow whose mask un-wildcards (a prefix of) a
//! header field that one of the installed allow rules exact-matches — the "test the bits
//! of the whitelisted field one by one" signature of §4. Entries that cover permitted
//! traffic are never flagged (MFCGuard requirement (i)).

use tse_classifier::flowtable::FlowTable;
use tse_classifier::rule::Action;
use tse_classifier::tss::MegaflowEntry;

/// Does this megaflow entry look like it was spawned by a TSE attack against the table
/// whose [`allow_exact_fields`] are `target_fields` (computed once per sweep)?
///
/// Heuristic from §8: the entry drops traffic, and its mask examines bits of at least
/// one field that an allow rule of the table exact-matches — i.e. it is one of the
/// deny-side decomposition entries the attack multiplies.
pub(crate) fn examines_target_field(entry: &MegaflowEntry, target_fields: &[usize]) -> bool {
    entry.action == Action::Deny && target_fields.iter().any(|&f| entry.mask.get(f) != 0)
}

/// Fields that some allow rule of the table exact-matches (the TSE target fields).
pub fn allow_exact_fields(table: &FlowTable) -> Vec<usize> {
    let schema = table.schema();
    let mut fields = Vec::new();
    for rule in table.rules() {
        if rule.action != Action::Allow {
            continue;
        }
        for f in 0..schema.field_count() {
            if rule.mask.get(f) == schema.fields()[f].full_mask() && !fields.contains(&f) {
                fields.push(f);
            }
        }
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_classifier::flowtable::FlowTable;
    use tse_classifier::strategy::{examined_megaflow, MegaflowStrategy};
    use tse_classifier::tss::TupleSpace;
    use tse_packet::fields::{FieldSchema, Key};

    fn populated_fig1_cache() -> (FlowTable, TupleSpace) {
        let table = FlowTable::fig1_hyp();
        let schema = table.schema().clone();
        let strategy = MegaflowStrategy::wildcarding(&schema);
        let mut cache = TupleSpace::new(schema.clone());
        for v in [0b001u128, 0b101, 0b011, 0b000] {
            let h = Key::from_values(&schema, &[v]);
            if cache.lookup(&h, 0.0).action.is_some() {
                continue;
            }
            let (verdict, mask) = examined_megaflow(&table, &h, &strategy).unwrap();
            cache.insert(h.clone(), mask, verdict.action, 0.0).unwrap();
        }
        (table, cache)
    }

    #[test]
    fn allow_fields_detected() {
        let table = FlowTable::fig1_hyp();
        assert_eq!(allow_exact_fields(&table), vec![0]);
        let table4 = FlowTable::fig4_hyp2();
        assert_eq!(allow_exact_fields(&table4), vec![0, 1]);
    }

    #[test]
    fn deny_entries_flagged_allow_entries_not() {
        let (table, cache) = populated_fig1_cache();
        let mut flagged = 0;
        let mut spared = 0;
        let targets = allow_exact_fields(&table);
        for entry in cache.entries() {
            if examines_target_field(entry, &targets) {
                assert_eq!(entry.action, Action::Deny);
                flagged += 1;
            } else {
                assert_eq!(entry.action, Action::Allow);
                spared += 1;
            }
        }
        assert_eq!(flagged, 3);
        assert_eq!(spared, 1);
    }

    #[test]
    fn no_allow_rules_means_no_pattern() {
        let schema = FieldSchema::hyp();
        let mut table = FlowTable::new(schema.clone());
        table.push(tse_classifier::rule::Rule::match_all(
            &schema,
            0,
            Action::Deny,
        ));
        let (_, cache) = populated_fig1_cache();
        let targets = allow_exact_fields(&table);
        assert!(targets.is_empty());
        for entry in cache.entries() {
            assert!(!examines_target_field(entry, &targets));
        }
    }
}
