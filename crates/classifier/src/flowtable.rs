//! The ordered, priority-based flow table — the slow-path's authoritative representation
//! of the ACL (§2.1, §2.2).

use tse_packet::fields::{FieldSchema, Key};

use crate::rule::{Action, Rule};

/// An ordered set of wildcard rules. Lookup returns the highest-priority matching rule;
/// ties are broken by insertion order (earlier wins), matching OVS/OpenFlow semantics.
#[derive(Debug, Clone)]
pub struct FlowTable {
    schema: FieldSchema,
    rules: Vec<Rule>,
    /// Indices into `rules` in decreasing priority, equal priorities in insertion
    /// order — the order `lookup` walks. Maintained by `push`.
    order: Vec<usize>,
}

/// Result of a slow-path lookup: the matched rule index and its action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableMatch {
    /// Index into [`FlowTable::rules`] of the matched rule.
    pub rule_index: usize,
    /// The matched rule's action.
    pub action: Action,
    /// Number of rules inspected before the match was found (the slow-path's linear
    /// cost; feeds the CPU model).
    pub rules_inspected: usize,
}

impl FlowTable {
    /// Create an empty table over the given schema.
    pub fn new(schema: FieldSchema) -> Self {
        FlowTable {
            schema,
            rules: Vec::new(),
            order: Vec::new(),
        }
    }

    /// The schema rules in this table match on.
    pub fn schema(&self) -> &FieldSchema {
        &self.schema
    }

    /// Append a rule.
    pub fn push(&mut self, rule: Rule) {
        assert_eq!(
            rule.key.len(),
            self.schema.field_count(),
            "rule key arity must match the table schema"
        );
        // After every rule of equal or higher priority: earlier insertion wins ties.
        let at = self
            .order
            .partition_point(|&i| self.rules[i].priority >= rule.priority);
        self.order.insert(at, self.rules.len());
        self.rules.push(rule);
    }

    /// All rules in insertion order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the table holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Highest-priority match for `header`, if any. Walks rules in decreasing priority
    /// (stable for equal priorities).
    pub fn lookup(&self, header: &Key) -> Option<TableMatch> {
        self.walk(header, |_| {})
    }

    /// The priority walk behind [`FlowTable::lookup`], reporting to `rejected` every rule
    /// the header failed to match on the way to the verdict — the rules a megaflow for
    /// `header` must be told apart from. The only loop over the rules an upcall runs.
    pub(crate) fn walk(&self, header: &Key, mut rejected: impl FnMut(&Rule)) -> Option<TableMatch> {
        for (inspected, &i) in self.order.iter().enumerate() {
            let rule = &self.rules[i];
            if rule.matches(header) {
                return Some(TableMatch {
                    rule_index: i,
                    action: rule.action,
                    rules_inspected: inspected + 1,
                });
            }
            rejected(rule);
        }
        None
    }

    /// Render the table in the style of Fig. 1 / Fig. 4 / Fig. 6.
    pub fn render(&self) -> String {
        self.order
            .iter()
            .map(|&i| format!("#{i} {}", self.rules[i].render(&self.schema)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Convenience constructors for the ACLs used throughout the paper.
impl FlowTable {
    /// The Fig. 1 flow table: `001 -> allow`, `*** -> deny` over the 3-bit HYP protocol.
    pub fn fig1_hyp() -> Self {
        let schema = FieldSchema::hyp();
        let mut t = FlowTable::new(schema.clone());
        t.push(Rule::exact_on_field(&schema, 0, 0b001, 10, Action::Allow));
        t.push(Rule::match_all(&schema, 0, Action::Deny));
        t
    }

    /// The Fig. 4 two-field ACL: `HYP=001 -> allow`, `HYP2=1111 -> allow`, `* -> deny`.
    pub fn fig4_hyp2() -> Self {
        let schema = FieldSchema::hyp2();
        let mut t = FlowTable::new(schema.clone());
        t.push(Rule::exact_on_field(&schema, 0, 0b001, 20, Action::Allow));
        t.push(Rule::exact_on_field(&schema, 1, 0b1111, 10, Action::Allow));
        t.push(Rule::match_all(&schema, 0, Action::Deny));
        t
    }

    /// A generic WhiteList+DefaultDeny ACL: one exact-match allow rule per listed
    /// `(field, value)` pair (priorities decreasing in list order) plus a DefaultDeny.
    pub fn whitelist_default_deny(schema: &FieldSchema, allows: &[(usize, u128)]) -> Self {
        let mut t = FlowTable::new(schema.clone());
        let n = allows.len() as u32;
        for (i, (field, value)) in allows.iter().enumerate() {
            t.push(Rule::exact_on_field(
                schema,
                *field,
                *value,
                10 * (n - i as u32),
                Action::Allow,
            ));
        }
        t.push(Rule::match_all(schema, 0, Action::Deny));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_packet::fields::Key;

    fn hyp_key(v: u128) -> Key {
        Key::from_values(&FieldSchema::hyp(), &[v])
    }

    #[test]
    fn fig1_lookup_allow_and_deny() {
        let t = FlowTable::fig1_hyp();
        let allow = t.lookup(&hyp_key(0b001)).unwrap();
        assert_eq!(allow.action, Action::Allow);
        let deny = t.lookup(&hyp_key(0b111)).unwrap();
        assert_eq!(deny.action, Action::Deny);
        assert!(deny.rules_inspected >= 2);
    }

    #[test]
    fn fig1_is_order_dependent() {
        // Fig. 1's rules overlap (001 matches both), so priorities matter (§2.1).
        let t = FlowTable::fig1_hyp();
        assert!(t.rules()[0].overlaps(&t.rules()[1]));
    }

    #[test]
    fn fig4_priorities() {
        let t = FlowTable::fig4_hyp2();
        let schema = FieldSchema::hyp2();
        // HYP=001, HYP2=0000 -> first allow rule.
        let m = t
            .lookup(&Key::from_values(&schema, &[0b001, 0b0000]))
            .unwrap();
        assert_eq!((m.rule_index, m.action), (0, Action::Allow));
        // HYP=111, HYP2=1111 -> second allow rule.
        let m = t
            .lookup(&Key::from_values(&schema, &[0b111, 0b1111]))
            .unwrap();
        assert_eq!((m.rule_index, m.action), (1, Action::Allow));
        // HYP=111, HYP2=0000 -> deny.
        let m = t
            .lookup(&Key::from_values(&schema, &[0b111, 0b0000]))
            .unwrap();
        assert_eq!(m.action, Action::Deny);
    }

    #[test]
    fn paper_overlap_example_from_section_2_1() {
        // "a packet with source IP 10.0.0.1, ports 34521/443 matches both the second and
        // the last flow entries" of Fig. 6 — higher priority wins.
        let schema = FieldSchema::ovs_ipv4();
        let ip_src = schema.field_index("ip_src").unwrap();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let tp_src = schema.field_index("tp_src").unwrap();
        let t = FlowTable::whitelist_default_deny(
            &schema,
            &[(tp_dst, 80), (ip_src, 0x0a000001), (tp_src, 12345)],
        );
        let mut header = schema.zero_value();
        header.set(ip_src, 0x0a000001);
        header.set(tp_src, 34521);
        header.set(tp_dst, 443);
        let m = t.lookup(&header).unwrap();
        assert_eq!(m.action, Action::Allow);
        assert_eq!(m.rule_index, 1); // the ip_src rule, not the DefaultDeny
    }

    #[test]
    fn priority_order_is_a_stable_sort_of_insertion_order() {
        // Non-monotone priorities with ties; every rule matches every header, so the
        // lookup winner is the head of the order and `rules_inspected` its position.
        let schema = FieldSchema::hyp();
        let priorities = [5u32, 9, 5, 0, 9, 7, 0, 5, 9, 1];
        let mut t = FlowTable::new(schema.clone());
        for (n, &p) in priorities.iter().enumerate() {
            t.push(Rule::match_all(&schema, p, Action::Allow));
            let mut reference: Vec<usize> = (0..=n).collect();
            reference.sort_by_key(|&i| std::cmp::Reverse(priorities[i]));
            assert_eq!(t.order, reference, "after {} pushes", n + 1);
            let m = t.lookup(&hyp_key(0b101)).unwrap();
            assert_eq!((m.rule_index, m.rules_inspected), (reference[0], 1));
            let rendered: Vec<String> = reference
                .iter()
                .map(|&i| format!("#{i} {}", t.rules()[i].render(&schema)))
                .collect();
            assert_eq!(t.render(), rendered.join("\n"));
        }
        // Two tied lowest-priority rules match: the earlier one wins, after 3 misses.
        let mut t = FlowTable::new(schema.clone());
        for &(v, p) in &[
            (0b001, 3u32),
            (0b111, 1),
            (0b010, 3),
            (0b111, 1),
            (0b100, 2),
        ] {
            t.push(Rule::exact_on_field(&schema, 0, v, p, Action::Deny));
        }
        let m = t.lookup(&hyp_key(0b111)).unwrap();
        assert_eq!((m.rule_index, m.rules_inspected), (1, 4));
    }

    #[test]
    fn empty_table_returns_none() {
        let t = FlowTable::new(FieldSchema::hyp());
        assert!(t.lookup(&hyp_key(0)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn render_fig1() {
        let r = FlowTable::fig1_hyp().render();
        assert!(r.contains("001 -> allow"));
        assert!(r.contains("*** -> deny"));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = FlowTable::new(FieldSchema::hyp());
        t.push(Rule::match_all(&FieldSchema::hyp2(), 0, Action::Deny));
    }
}
