//! Priority-ordered linear search — the trivial, attack-immune baseline.

use tse_packet::fields::Key;

use crate::flowtable::FlowTable;
use crate::rule::Rule;

use super::{Classification, Classifier};

/// A classifier that scans rules in decreasing priority and returns the first match.
/// Lookup cost is `O(#rules)` — independent of any traffic history.
#[derive(Debug, Clone)]
pub struct LinearSearch {
    /// Rules sorted by decreasing priority (stable).
    rules: Vec<(usize, Rule)>,
}

impl Classifier for LinearSearch {
    fn build(table: &FlowTable) -> Self {
        let mut rules: Vec<(usize, Rule)> = table.rules().iter().cloned().enumerate().collect();
        rules.sort_by_key(|(i, r)| (std::cmp::Reverse(r.priority), *i));
        LinearSearch { rules }
    }

    fn classify(&self, header: &Key) -> Classification {
        let mut work = 0;
        for (index, rule) in &self.rules {
            work += 1;
            if rule.matches(header) {
                return Classification {
                    action: Some(rule.action),
                    rule_index: Some(*index),
                    work,
                };
            }
        }
        Classification {
            action: None,
            rule_index: None,
            work,
        }
    }

    fn name(&self) -> &'static str {
        "linear-search"
    }

    fn size_units(&self) -> usize {
        self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::test_support;
    use crate::flowtable::FlowTable;
    use crate::rule::Action;
    use tse_packet::fields::{FieldSchema, Key};

    #[test]
    fn agrees_with_reference_on_fig1() {
        let table = FlowTable::fig1_hyp();
        test_support::agrees_with_table_exhaustively(&LinearSearch::build(&table), &table);
    }

    #[test]
    fn agrees_with_reference_on_fig4() {
        let table = FlowTable::fig4_hyp2();
        test_support::agrees_with_table_exhaustively(&LinearSearch::build(&table), &table);
    }

    #[test]
    fn agrees_on_multi_field_whitelist() {
        let table = test_support::small_multi_field_table();
        test_support::agrees_with_table_exhaustively(&LinearSearch::build(&table), &table);
    }

    #[test]
    fn work_bounded_by_rule_count() {
        let table = FlowTable::fig4_hyp2();
        let c = LinearSearch::build(&table);
        let schema = FieldSchema::hyp2();
        for hyp in 0..8u128 {
            for hyp2 in 0..16u128 {
                let w = c.classify(&Key::from_values(&schema, &[hyp, hyp2])).work;
                assert!(w <= table.len());
            }
        }
        assert_eq!(c.size_units(), 3);
    }

    #[test]
    fn priority_respected() {
        let table = FlowTable::fig4_hyp2();
        let c = LinearSearch::build(&table);
        let schema = FieldSchema::hyp2();
        // 001/1111 matches both allow rules; rule 0 (higher priority) must win.
        let r = c.classify(&Key::from_values(&schema, &[0b001, 0b1111]));
        assert_eq!(r.rule_index, Some(0));
        assert_eq!(r.action, Some(Action::Allow));
    }
}
