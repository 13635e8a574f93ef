//! The ordered, priority-based flow table — the slow-path's authoritative representation
//! of the ACL (§2.1, §2.2).

use tse_packet::fields::{FieldSchema, Key};

use crate::key_words;
use crate::rule::{Action, Rule};

/// One non-zero 64-bit word of a rule's mask, with the rule's key bits under it.
#[derive(Debug, Clone, Copy)]
struct RuleWord {
    /// The mask's bits in that word.
    bits: u64,
    /// The rule's key bits in that word (`key AND mask`).
    key: u64,
    /// Which header word, as [`key_words`] lays a header out.
    word: u8,
}

impl RuleWord {
    /// Test this word of the rule against `header`, OR-ing into `examined` the bits the
    /// test reaches: all of them where the header agrees, else those from the first —
    /// most significant — differing bit up. True if the header agrees.
    #[inline(always)]
    fn test(&self, header: &[u64; 16], examined: &mut [u64; 16]) -> bool {
        let at = usize::from(self.word & 15);
        let diff = (header[at] & self.bits) ^ self.key;
        examined[at] |= match diff.checked_ilog2() {
            Some(first_differing) => self.bits & (!0 << first_differing),
            None => self.bits,
        };
        diff == 0
    }
}

/// One rule of the walk lane: where its first mask word sits, and what the walk reads
/// only once the header agrees with that word. The first word's key bits are not here
/// but in [`FlowTable::keys`], beside the keys of the rest of its run.
#[derive(Debug, Clone)]
struct WalkRecord {
    /// The rule's first non-zero mask word (all zero for a match-all rule, which every
    /// header agrees with), and which header word it tests.
    bits: u64,
    word: u8,
    /// How many more words the rule has, from `rest_start` in [`FlowTable::slab`].
    rest_len: u8,
    rest_start: u32,
    /// Index into [`FlowTable::rules`].
    rule: u32,
}

impl WalkRecord {
    fn rest(&self) -> std::ops::Range<usize> {
        let start = self.rest_start as usize;
        start..start + usize::from(self.rest_len)
    }
}

/// A maximal stretch of the walk lane whose records' first mask words test the same
/// header word under the same bits: the lane from the previous run's `end` to this one's.
#[derive(Debug, Clone, Copy)]
struct Run {
    bits: u64,
    word: u8,
    end: u32,
}

/// An ordered set of wildcard rules. Lookup returns the highest-priority matching rule;
/// ties are broken by insertion order (earlier wins), matching OVS/OpenFlow semantics.
///
/// Each rule is compiled as it is pushed into a **walk lane**: one record per rule, held
/// in the order a lookup walks (decreasing priority, ties in insertion order), carrying
/// the rule's index and its first non-zero 64-bit mask word; the rule's remaining words
/// sit in one table-wide slab. A rule's words run in field order, high half first, so
/// the first word the header differs in holds §3.2's first differing bit, most
/// significant first — and the walk that classifies a header is the record of the bits
/// it examined (see [`crate::strategy`]). The lane is cut into maximal **runs** of
/// records whose first words test the same header word under the same bits — a merged
/// tenant table is one long run on the destination address — and the first words' key
/// bits form one dense column, so the walk passes a run's rejected rules at one 8-byte
/// key each. `rules` keeps the rules as pushed.
#[derive(Debug, Clone)]
pub struct FlowTable {
    schema: FieldSchema,
    rules: Vec<Rule>,
    /// One record per rule, in walk order. Maintained by `push`.
    lane: Vec<WalkRecord>,
    /// Each record's first-word key bits, at the record's place in the lane.
    keys: Vec<u64>,
    /// The lane's runs, in walk order; they tile it.
    runs: Vec<Run>,
    /// Every rule's mask words after its first, each rule's together, in push order.
    slab: Vec<RuleWord>,
}

/// Result of a slow-path lookup: the matched rule index and its action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableMatch {
    /// Index into [`FlowTable::rules`] of the matched rule.
    pub rule_index: usize,
    /// The matched rule's action.
    pub action: Action,
    /// How many rules the priority walk looked at, the matched one included: its place
    /// in walk order, counted from 1. The slow path sums it over its upcalls as
    /// `SlowPath::rules_walked` (in `tse-switch`).
    pub rules_inspected: usize,
}

impl FlowTable {
    /// Create an empty table over the given schema.
    pub fn new(schema: FieldSchema) -> Self {
        FlowTable {
            schema,
            rules: Vec::new(),
            lane: Vec::new(),
            keys: Vec::new(),
            runs: Vec::new(),
            slab: Vec::new(),
        }
    }

    /// The schema rules in this table match on.
    pub fn schema(&self) -> &FieldSchema {
        &self.schema
    }

    /// Append a rule. A rule that walks after every rule already pushed (a merged
    /// tenant table's priorities strictly decrease) extends the last run; one that lands
    /// mid-lane re-cuts the runs.
    pub fn push(&mut self, rule: Rule) {
        assert_eq!(
            rule.key.len(),
            self.schema.field_count(),
            "rule key arity must match the table schema"
        );
        let (mask, key) = (key_words(&rule.mask), key_words(&rule.key));
        let mut words = (0..rule.mask.len())
            .flat_map(|f| [2 * f + 1, 2 * f])
            .filter(|&w| mask[w] != 0)
            .map(|w| RuleWord {
                bits: mask[w],
                key: key[w] & mask[w],
                word: w as u8,
            });
        let first = words.next().unwrap_or(RuleWord {
            bits: 0,
            key: 0,
            word: 0,
        });
        let rest_start = self.slab.len();
        self.slab.extend(words);
        let record = WalkRecord {
            bits: first.bits,
            word: first.word,
            rest_len: (self.slab.len() - rest_start) as u8,
            rest_start: rest_start as u32,
            rule: self.rules.len() as u32,
        };
        // After every rule of equal or higher priority: earlier insertion wins ties.
        let at = self
            .lane
            .partition_point(|r| self.rules[r.rule as usize].priority >= rule.priority);
        self.lane.insert(at, record);
        self.keys.insert(at, first.key);
        self.rules.push(rule);
        if at + 1 == self.lane.len() {
            self.extend_runs(at);
        } else {
            self.runs.clear();
            (0..self.lane.len()).for_each(|i| self.extend_runs(i));
        }
    }

    /// Close the runs over lane record `i`, the one after the last run's end: the last
    /// run takes it if its first word is that run's, else it starts a run of its own.
    fn extend_runs(&mut self, i: usize) {
        let (bits, word) = (self.lane[i].bits, self.lane[i].word);
        match self.runs.last_mut() {
            Some(run) if (run.bits, run.word) == (bits, word) => run.end += 1,
            _ => self.runs.push(Run {
                bits,
                word,
                end: i as u32 + 1,
            }),
        }
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
        self.walk(header, &mut [0; 16])
    }

    /// The priority walk behind [`FlowTable::lookup`] and the only loop over the rules an
    /// upcall runs. On the way to the verdict it ORs into `examined` (laid out as
    /// [`key_words`] lays out a header) every bit it tested: each rejected rule's mask
    /// words up to and including the first differing one — of that one, the bits from
    /// the first differing bit up — and the matched rule's whole mask.
    ///
    /// It walks a run at a time. A rule the header differs from in the run's first word,
    /// by `d = (header & bits) ^ key`, reaches `bits & (!0 << d.ilog2())`, which only
    /// shrinks as `d` grows, so the run's rejected rules together reach exactly the term
    /// of their least `d`: the walk keeps that minimum over the key column and ORs it in
    /// once, where the run ends. It stops only at a key the header agrees with, to test
    /// that rule's other words; there it examines the whole first word, which already
    /// covers every rejected rule's part of it, so a match returns at once.
    pub(crate) fn walk(&self, header: &Key, examined: &mut [u64; 16]) -> Option<TableMatch> {
        let words = key_words(header);
        let mut start = 0;
        for run in &self.runs {
            let end = run.end as usize;
            let at = usize::from(run.word & 15);
            let masked = words[at] & run.bits;
            // The least `d` of a rejected rule, less one: an agreeing key, `d == 0`, wraps
            // to `u64::MAX` and leaves it as it was.
            let mut least = u64::MAX;
            for (i, &key) in (start..end).zip(&self.keys[start..end]) {
                let diff = masked ^ key;
                least = least.min(diff.wrapping_sub(1));
                if diff == 0 {
                    // The whole first word, which covers every rejected rule's part of it.
                    examined[at] |= run.bits;
                    let record = &self.lane[i];
                    if self.slab[record.rest()]
                        .iter()
                        .all(|w| w.test(&words, examined))
                    {
                        let rule_index = record.rule as usize;
                        return Some(TableMatch {
                            rule_index,
                            action: self.rules[rule_index].action,
                            rules_inspected: i + 1,
                        });
                    }
                }
            }
            if let Some(first_differing) = least.wrapping_add(1).checked_ilog2() {
                examined[at] |= run.bits & (!0 << first_differing);
            }
            start = end;
        }
        None
    }

    /// Render the table in the style of Fig. 1 / Fig. 4 / Fig. 6.
    pub fn render(&self) -> String {
        self.lane
            .iter()
            .map(|r| {
                let i = r.rule as usize;
                format!("#{i} {}", self.rules[i].render(&self.schema))
            })
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
    use tse_packet::fields::{FieldDef, Key};

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
            let order: Vec<usize> = t.lane.iter().map(|r| r.rule as usize).collect();
            assert_eq!(order, reference, "after {} pushes", n + 1);
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
    fn walk_tests_words_in_field_order_high_half_first() {
        let schema = FieldSchema::new(vec![FieldDef::new("a", 8), FieldDef::new("wide", 128)]);
        let mut t = FlowTable::new(schema.clone());
        let mut mask = schema.empty_mask();
        mask.set(1, u128::MAX);
        let mut key = schema.zero_value();
        key.set(1, 1 << 64 | 0b1010);
        t.push(Rule::new(key, mask, 1, Action::Allow));
        t.push(Rule::match_all(&schema, 0, Action::Deny));
        // The wide field's high half is the inline word, its low half the one slab word.
        assert_eq!((t.lane[0].word, t.lane[0].rest_len), (3, 1));
        assert_eq!(t.slab[0].word, 2);

        // Agreeing on the high half, differing first at bit 3 of the low half: the walk
        // examined the whole high half and the low half's bits 63..=3, and nothing else.
        let mut header = schema.zero_value();
        header.set(0, 0xff);
        header.set(1, 1 << 64 | 0b0010);
        let mut examined = [0; 16];
        let m = t.walk(&header, &mut examined).unwrap();
        assert_eq!((m.rule_index, m.rules_inspected), (1, 2));
        let mut expected = [0; 16];
        (expected[3], expected[2]) = (u64::MAX, !0 << 3);
        assert_eq!(examined, expected);
    }

    /// The runs tile the lane from 0 to its end with no empty run, neighbours differ in
    /// their first word, and every record tests its run's first word under the key bits
    /// its rule has there.
    fn assert_runs_cut_the_lane(t: &FlowTable) {
        let mut start = 0;
        for (n, run) in t.runs.iter().enumerate() {
            let end = run.end as usize;
            assert!(
                start < end && end <= t.lane.len(),
                "run {n} spans {start}..{end}"
            );
            if let Some(next) = t.runs.get(n + 1) {
                assert_ne!(
                    (run.bits, run.word),
                    (next.bits, next.word),
                    "runs {n}, {}",
                    n + 1
                );
            }
            for i in start..end {
                let record = &t.lane[i];
                assert_eq!(
                    (record.bits, record.word),
                    (run.bits, run.word),
                    "record {i}"
                );
                let key = key_words(&t.rules[record.rule as usize].key);
                assert_eq!(t.keys[i], key[usize::from(run.word)] & run.bits, "key {i}");
            }
            start = end;
        }
        assert_eq!((start, t.keys.len()), (t.lane.len(), t.lane.len()));
    }

    #[test]
    fn runs_stay_maximal_through_appends_and_mid_lane_inserts() {
        let schema = FieldSchema::new(vec![
            FieldDef::new("a", 8),
            FieldDef::new("b", 8),
            FieldDef::new("wide", 128),
        ]);
        let exact =
            |f: usize, v: u128, p: u32| Rule::exact_on_field(&schema, f, v, p, Action::Allow);
        let mut a_and_b = exact(0, 7, 40);
        a_and_b.key.set(1, 9);
        a_and_b.mask.set(1, 0xff);
        let mut a_high_nibble = exact(0, 0x30, 60);
        a_high_nibble.mask.set(0, 0xf0);
        let pushes = [
            exact(0, 1, 50),
            a_and_b,
            exact(1, 2, 30),
            Rule::match_all(&schema, 0, Action::Deny),
            // Mid-lane, between the `a` rules and the `b` rule: the `a` run takes it.
            exact(0, 3, 35),
            // Mid-lane inside the `a` run: splits it.
            exact(1, 4, 45),
            // Ties the `b` rule above, after it: the wide field's high half, a run alone.
            exact(2, 5 << 64 | 5, 45),
            // At the head: a partial mask on `a` is a word of its own.
            a_high_nibble,
            Rule::match_all(&schema, 60, Action::Deny),
            exact(0, 6, 10),
            exact(0, 1, 0),
        ];
        let mut t = FlowTable::new(schema.clone());
        for rule in pushes {
            t.push(rule);
            assert_runs_cut_the_lane(&t);
        }
        let firsts: Vec<(u64, u8)> = t.runs.iter().map(|r| (r.bits, r.word)).collect();
        let (a, b, wide_high) = ((0xff, 0), (0xff, 2), (u64::MAX, 5));
        let expected = [(0xf0, 0), (0, 0), a, b, wide_high, a, b, a, (0, 0), a];
        assert_eq!(firsts, expected);
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
