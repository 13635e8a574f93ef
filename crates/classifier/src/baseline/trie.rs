//! Hierarchical tries (Gupta & McKeown, "Algorithms for packet classification").
//!
//! One binary trie per field; a rule's per-field prefix is inserted into the field-`i`
//! trie, and the node where the prefix ends points to a field-`i+1` trie holding the
//! rules that share that prefix. Lookup walks the field-0 trie along the header bits and,
//! at *every* node on the path, recursively searches the next-field trie (the classic
//! backtracking search). The cost is bounded by the rule set's structure — `O(W^d)` in
//! the worst case for `d` fields of width `W` — and is completely unaffected by traffic.
//!
//! Restriction: per-field masks must be *prefix* masks (contiguous ones from the MSB).
//! Every ACL in the paper satisfies this (fields are either exact-matched or fully
//! wildcarded).

use tse_packet::fields::{FieldSchema, Key};

use crate::flowtable::FlowTable;
use crate::rule::Action;

use super::{Classification, Classifier};

#[derive(Debug, Clone, Copy)]
struct StoredRule {
    index: usize,
    priority: u32,
    action: Action,
}

#[derive(Debug, Clone, Default)]
struct Node {
    zero: Option<Box<Node>>,
    one: Option<Box<Node>>,
    /// Rules whose last-field prefix ends at this node.
    rules_here: Vec<StoredRule>,
    /// Trie over the next field for rules whose prefix of the current field ends here.
    next_field: Option<Box<FieldTrie>>,
}

#[derive(Debug, Clone)]
struct FieldTrie {
    field: usize,
    root: Node,
}

/// A hierarchical (multi-field) trie classifier.
#[derive(Debug, Clone)]
pub struct HierarchicalTrie {
    schema: FieldSchema,
    root: FieldTrie,
    node_count: usize,
}

/// Length of the prefix encoded by a mask, or `None` if the mask is not a prefix mask.
fn prefix_len(mask: u128, width: u32) -> Option<u32> {
    let len = mask.count_ones();
    let expect = if len == 0 {
        0
    } else if len >= width {
        if width == 128 {
            u128::MAX
        } else {
            ((1u128 << len) - 1) << (width - len)
        }
    } else {
        ((1u128 << len) - 1) << (width - len)
    };
    if len == 0 {
        return Some(0);
    }
    if mask == expect {
        Some(len)
    } else {
        None
    }
}

impl HierarchicalTrie {
    /// Total number of trie nodes (memory proxy).
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

fn insert(
    trie: &mut FieldTrie,
    schema: &FieldSchema,
    prefixes: &[(u128, u32)],
    field_count: usize,
    stored: StoredRule,
    node_count: &mut usize,
) {
    let field = trie.field;
    let width = schema.width(field);
    let (value, plen) = prefixes[field];
    let mut node = &mut trie.root;
    for i in 0..plen {
        let bit = (value >> (width - 1 - i)) & 1;
        let child = if bit == 0 {
            &mut node.zero
        } else {
            &mut node.one
        };
        if child.is_none() {
            *child = Some(Box::new(Node::default()));
            *node_count += 1;
        }
        node = child.as_mut().expect("child just ensured");
    }
    if field + 1 == field_count {
        node.rules_here.push(stored);
    } else {
        if node.next_field.is_none() {
            node.next_field = Some(Box::new(FieldTrie {
                field: field + 1,
                root: Node::default(),
            }));
            *node_count += 1;
        }
        insert(
            node.next_field
                .as_mut()
                .expect("next field trie just ensured"),
            schema,
            prefixes,
            field_count,
            stored,
            node_count,
        );
    }
}

fn search(
    trie: &FieldTrie,
    schema: &FieldSchema,
    header: &Key,
    best: &mut Option<StoredRule>,
    work: &mut usize,
) {
    let field = trie.field;
    let width = schema.width(field);
    let value = header.get(field);
    let mut node = Some(&trie.root);
    let mut depth = 0u32;
    while let Some(n) = node {
        *work += 1;
        // Rules whose prefix for this (last) field ends here match the header.
        for r in &n.rules_here {
            *work += 1;
            if best
                .map(|b| {
                    (r.priority, std::cmp::Reverse(r.index))
                        > (b.priority, std::cmp::Reverse(b.index))
                })
                .unwrap_or(true)
            {
                *best = Some(*r);
            }
        }
        if let Some(next) = &n.next_field {
            search(next, schema, header, best, work);
        }
        if depth >= width {
            break;
        }
        let bit = (value >> (width - 1 - depth)) & 1;
        node = if bit == 0 {
            n.zero.as_deref()
        } else {
            n.one.as_deref()
        };
        depth += 1;
    }
}

impl Classifier for HierarchicalTrie {
    /// # Panics
    /// Panics if any rule uses a non-prefix per-field mask (not the case for the paper's
    /// ACLs; a production implementation would split such rules into prefix rules).
    fn build(table: &FlowTable) -> Self {
        let schema = table.schema().clone();
        let mut trie = HierarchicalTrie {
            root: FieldTrie {
                field: 0,
                root: Node::default(),
            },
            node_count: 1,
            schema,
        };
        for (index, rule) in table.rules().iter().enumerate() {
            let stored = StoredRule {
                index,
                priority: rule.priority,
                action: rule.action,
            };
            // Pre-compute prefix lengths per field, panicking on non-prefix masks.
            let prefixes: Vec<(u128, u32)> = (0..trie.schema.field_count())
                .map(|f| {
                    let width = trie.schema.width(f);
                    let mask = rule.mask.get(f);
                    let len = prefix_len(mask, width).unwrap_or_else(|| {
                        panic!("hierarchical trie requires prefix masks (rule {index}, field {f})")
                    });
                    (rule.key.get(f), len)
                })
                .collect();
            let field_count = trie.schema.field_count();
            let schema = trie.schema.clone();
            insert(
                &mut trie.root,
                &schema,
                &prefixes,
                field_count,
                stored,
                &mut trie.node_count,
            );
        }
        trie
    }

    fn classify(&self, header: &Key) -> Classification {
        let mut best: Option<StoredRule> = None;
        let mut work = 0;
        search(&self.root, &self.schema, header, &mut best, &mut work);
        match best {
            Some(r) => Classification {
                action: Some(r.action),
                rule_index: Some(r.index),
                work,
            },
            None => Classification {
                action: None,
                rule_index: None,
                work,
            },
        }
    }

    fn name(&self) -> &'static str {
        "hierarchical-trie"
    }

    fn size_units(&self) -> usize {
        self.node_count
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
    fn prefix_len_detection() {
        assert_eq!(prefix_len(0, 8), Some(0));
        assert_eq!(prefix_len(0b1111_1111, 8), Some(8));
        assert_eq!(prefix_len(0b1110_0000, 8), Some(3));
        assert_eq!(prefix_len(0b0110_0000, 8), None);
        assert_eq!(prefix_len(u128::MAX, 128), Some(128));
    }

    #[test]
    fn agrees_with_reference_on_fig1() {
        let table = FlowTable::fig1_hyp();
        test_support::agrees_with_table_exhaustively(&HierarchicalTrie::build(&table), &table);
    }

    #[test]
    fn agrees_with_reference_on_fig4() {
        let table = FlowTable::fig4_hyp2();
        test_support::agrees_with_table_exhaustively(&HierarchicalTrie::build(&table), &table);
    }

    #[test]
    fn agrees_on_multi_field_whitelist() {
        let table = test_support::small_multi_field_table();
        test_support::agrees_with_table_exhaustively(&HierarchicalTrie::build(&table), &table);
    }

    #[test]
    fn priority_tie_breaking_prefers_earlier_rule() {
        // Two identical match-all rules with equal priority: the earlier one must win.
        let schema = FieldSchema::hyp();
        let mut t = FlowTable::new(schema.clone());
        t.push(crate::rule::Rule::match_all(&schema, 5, Action::Allow));
        t.push(crate::rule::Rule::match_all(&schema, 5, Action::Deny));
        let c = HierarchicalTrie::build(&t);
        let r = c.classify(&Key::from_values(&schema, &[0]));
        assert_eq!(r.rule_index, Some(0));
        assert_eq!(r.action, Some(Action::Allow));
    }

    #[test]
    fn work_is_traffic_independent() {
        // The same header classified twice costs exactly the same; there is no
        // traffic-driven state to inflate.
        let table = test_support::small_multi_field_table();
        let c = HierarchicalTrie::build(&table);
        let schema = table.schema();
        let h = Key::from_values(schema, &[3, 9, 17]);
        let w1 = c.classify(&h).work;
        let w2 = c.classify(&h).work;
        assert_eq!(w1, w2);
        assert!(c.node_count() > 0);
        assert_eq!(c.size_units(), c.node_count());
    }

    #[test]
    #[should_panic]
    fn non_prefix_mask_rejected() {
        let schema = FieldSchema::hyp();
        let mut t = FlowTable::new(schema.clone());
        t.push(crate::rule::Rule::new(
            Key::from_values(&schema, &[0b001]),
            Key::from_values(&schema, &[0b101]), // non-contiguous mask
            1,
            Action::Allow,
        ));
        let _ = HierarchicalTrie::build(&t);
    }
}
