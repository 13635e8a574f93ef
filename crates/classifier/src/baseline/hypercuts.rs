//! A simplified HyperCuts decision-tree classifier (Singh et al.).
//!
//! The header space is recursively cut along the most discriminating field: an internal
//! node consumes the next `CUT_BITS` most-significant not-yet-consumed bits of the chosen
//! field and fans out into `2^CUT_BITS` children; rules are replicated into every child
//! whose sub-space they overlap. Recursion stops when a node holds at most `binth` rules
//! (or no further cut makes progress), leaving a small linear scan at the leaves.
//!
//! Like the other baselines, the structure is built solely from the rule set, so an
//! attacker cannot inflate lookup cost with crafted traffic — the property §7 relies on
//! when recommending HyperCuts as a TSE-resistant replacement for TSS.

use tse_packet::fields::{FieldSchema, Key};

use crate::flowtable::FlowTable;
use crate::rule::{Action, Rule};

use super::{Classification, Classifier};

/// Number of bits consumed per cut (each internal node has `2^CUT_BITS` children).
const CUT_BITS: u32 = 2;

#[derive(Debug, Clone)]
struct StoredRule {
    index: usize,
    priority: u32,
    action: Action,
    rule: Rule,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<StoredRule>),
    Internal {
        field: usize,
        /// Right-shift applied to the header field before taking `CUT_BITS` bits.
        shift: u32,
        children: Vec<Node>,
    },
}

/// The HyperCuts classifier.
#[derive(Debug, Clone)]
pub struct HyperCuts {
    root: Node,
    node_count: usize,
    stored_rules: usize,
}

/// Maximum number of rules kept in a leaf before the builder tries to cut further.
const DEFAULT_BINTH: usize = 4;

impl HyperCuts {
    /// Build with an explicit leaf threshold (`binth`).
    pub fn build_with_binth(table: &FlowTable, binth: usize) -> Self {
        let schema = table.schema().clone();
        let rules: Vec<StoredRule> = table
            .rules()
            .iter()
            .enumerate()
            .map(|(index, rule)| StoredRule {
                index,
                priority: rule.priority,
                action: rule.action,
                rule: rule.clone(),
            })
            .collect();
        let mut node_count = 0;
        let mut stored_rules = 0;
        let consumed = vec![0u32; schema.field_count()];
        let root = build_node(
            &schema,
            rules,
            binth.max(1),
            &consumed,
            0,
            &mut node_count,
            &mut stored_rules,
        );
        let _ = schema;
        HyperCuts {
            root,
            node_count,
            stored_rules,
        }
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

/// Does `rule` overlap the sub-space where field `field`'s bits `[shift, shift+CUT_BITS)`
/// equal `slice`?
fn rule_overlaps_slice(rule: &Rule, field: usize, shift: u32, width: u32, slice: u128) -> bool {
    let take = CUT_BITS.min(width - shift);
    let slice_mask_bits = ((1u128 << take) - 1) << shift;
    let rule_mask = rule.mask.get(field) & slice_mask_bits;
    // Bits the rule examines inside the slice must agree with the slice value.
    (rule.key.get(field) & rule_mask) == ((slice << shift) & rule_mask)
}

fn build_node(
    schema: &FieldSchema,
    rules: Vec<StoredRule>,
    binth: usize,
    consumed: &[u32],
    depth: u32,
    node_count: &mut usize,
    stored_rules: &mut usize,
) -> Node {
    *node_count += 1;
    if rules.len() <= binth || depth > 24 {
        *stored_rules += rules.len();
        return Node::Leaf(rules);
    }
    // Choose the field whose next slice of bits discriminates best: maximise the number
    // of rules that actually examine those bits, then the number of distinct values.
    let mut best: Option<((usize, usize), usize)> = None; // ((examining, distinct), field)
    for (f, &used) in consumed.iter().enumerate() {
        let width = schema.width(f);
        if used >= width {
            continue;
        }
        let take = CUT_BITS.min(width - used);
        let shift = width - used - take;
        let mut values: Vec<u128> = rules
            .iter()
            .filter(|r| r.rule.mask.get(f) >> shift & ((1 << take) - 1) != 0)
            .map(|r| r.rule.key.get(f) >> shift & ((1 << take) - 1))
            .collect();
        let examining = values.len();
        values.sort_unstable();
        values.dedup();
        let distinct = values.len();
        if examining >= 1
            && best
                .map(|(score, _)| (examining, distinct) > score)
                .unwrap_or(true)
        {
            best = Some(((examining, distinct), f));
        }
    }
    let Some((_, field)) = best else {
        // No remaining bit discriminates the rules; stop here.
        *stored_rules += rules.len();
        return Node::Leaf(rules);
    };
    let width = schema.width(field);
    let take = CUT_BITS.min(width - consumed[field]);
    let shift = width - consumed[field] - take;
    let mut new_consumed = consumed.to_vec();
    new_consumed[field] += take;

    let fanout = 1u128 << take;
    let subsets: Vec<Vec<StoredRule>> = (0..fanout)
        .map(|slice| {
            rules
                .iter()
                .filter(|r| rule_overlaps_slice(&r.rule, field, shift, width, slice))
                .cloned()
                .collect()
        })
        .collect();
    // Progress guard: if every child would hold every rule, the cut separates nothing;
    // stop with a leaf rather than recursing uselessly.
    if subsets.iter().all(|s| s.len() == rules.len()) {
        *stored_rules += rules.len();
        return Node::Leaf(rules);
    }
    let children = subsets
        .into_iter()
        .map(|subset| {
            build_node(
                schema,
                subset,
                binth,
                &new_consumed,
                depth + 1,
                node_count,
                stored_rules,
            )
        })
        .collect();
    Node::Internal {
        field,
        shift,
        children,
    }
}

impl Classifier for HyperCuts {
    /// Build with the default leaf threshold.
    fn build(table: &FlowTable) -> Self {
        Self::build_with_binth(table, DEFAULT_BINTH)
    }

    fn classify(&self, header: &Key) -> Classification {
        let mut node = &self.root;
        let mut work = 0;
        loop {
            work += 1;
            match node {
                Node::Internal {
                    field,
                    shift,
                    children,
                } => {
                    let take_mask = (children.len() as u128) - 1;
                    let slice = (header.get(*field) >> shift) & take_mask;
                    node = &children[slice as usize];
                }
                Node::Leaf(rules) => {
                    let mut best: Option<&StoredRule> = None;
                    for r in rules {
                        work += 1;
                        if r.rule.matches(header)
                            && best
                                .map(|b| {
                                    (r.priority, std::cmp::Reverse(r.index))
                                        > (b.priority, std::cmp::Reverse(b.index))
                                })
                                .unwrap_or(true)
                        {
                            best = Some(r);
                        }
                    }
                    return match best {
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
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "hypercuts"
    }

    fn size_units(&self) -> usize {
        self.node_count + self.stored_rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::test_support;
    use crate::flowtable::FlowTable;

    #[test]
    fn agrees_with_reference_on_fig1() {
        let table = FlowTable::fig1_hyp();
        test_support::agrees_with_table_exhaustively(&HyperCuts::build(&table), &table);
    }

    #[test]
    fn agrees_with_reference_on_fig4() {
        let table = FlowTable::fig4_hyp2();
        test_support::agrees_with_table_exhaustively(&HyperCuts::build(&table), &table);
    }

    #[test]
    fn agrees_on_multi_field_whitelist() {
        let table = test_support::small_multi_field_table();
        test_support::agrees_with_table_exhaustively(&HyperCuts::build(&table), &table);
    }

    #[test]
    fn agrees_with_binth_one() {
        let table = test_support::small_multi_field_table();
        let c = HyperCuts::build_with_binth(&table, 1);
        test_support::agrees_with_table_exhaustively(&c, &table);
        assert!(c.node_count() > 1, "binth=1 must actually build a tree");
    }

    #[test]
    fn tree_smaller_threshold_builds_more_nodes() {
        let table = test_support::small_multi_field_table();
        let coarse = HyperCuts::build_with_binth(&table, 16);
        let fine = HyperCuts::build_with_binth(&table, 1);
        assert!(fine.node_count() >= coarse.node_count());
        assert!(fine.size_units() >= coarse.size_units());
    }

    #[test]
    fn work_is_traffic_independent() {
        use tse_packet::fields::Key;
        let table = test_support::small_multi_field_table();
        let c = HyperCuts::build(&table);
        let h = Key::from_values(table.schema(), &[1, 2, 3]);
        assert_eq!(c.classify(&h).work, c.classify(&h).work);
    }
}
