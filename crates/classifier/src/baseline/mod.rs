//! Baseline packet-classification algorithms that are *not* traffic-driven caches.
//!
//! §7 / §10 of the paper recommend, as the long-term mitigation, replacing TSS with
//! classifiers whose lookup cost depends only on the installed rule set — hierarchical
//! tries, HaRP, HyperCuts. Because they keep no per-traffic state, an attacker cannot
//! inflate their lookup cost by sending packets; this module implements three such
//! baselines so the claim can be measured (figure binary `fig9_backend_matrix`):
//!
//! * [`linear::LinearSearch`] — priority-ordered linear scan of the rules (the trivial
//!   baseline; cost `O(#rules)`),
//! * [`trie::HierarchicalTrie`] — per-field binary tries chained field by field
//!   (Gupta & McKeown's hierarchical tries),
//! * [`hypercuts::HyperCuts`] — a decision-tree classifier cutting the header space on
//!   the most discriminating fields (Singh et al.'s HyperCuts, simplified).

pub mod hypercuts;
pub mod linear;
pub mod trie;

use tse_packet::fields::Key;

use crate::flowtable::FlowTable;
use crate::rule::Action;

/// Result of a baseline classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// Action of the highest-priority matching rule, or `None` if nothing matched.
    pub action: Option<Action>,
    /// Index of the matched rule in the source flow table.
    pub rule_index: Option<usize>,
    /// Abstract work units consumed by the lookup (nodes visited + rules compared).
    /// This is the quantity that stays flat under a TSE attack.
    pub work: usize,
}

/// A packet classifier built once from a flow table and queried per packet.
///
/// Implementors must be *stateless with respect to traffic*: `classify` takes `&self`,
/// so an attacker cannot grow the structure by sending packets — the property that makes
/// these algorithms immune to tuple-space explosion.
pub trait Classifier {
    /// Build the classifier from a flow table (the table is copied; later table edits
    /// are not seen).
    fn build(table: &FlowTable) -> Self
    where
        Self: Sized;

    /// Classify one header.
    fn classify(&self, header: &Key) -> Classification;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Approximate memory footprint in "units" (nodes + stored rules), for the
    /// space/time comparison tables.
    fn size_units(&self) -> usize;
}

pub use hypercuts::HyperCuts;
pub use linear::LinearSearch;
pub use trie::HierarchicalTrie;

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::flowtable::FlowTable;
    use tse_packet::fields::FieldSchema;

    /// Exhaustively compare a classifier against the reference flow-table lookup on every
    /// header of a (small) schema.
    pub fn agrees_with_table_exhaustively<C: Classifier>(classifier: &C, table: &FlowTable) {
        let schema = table.schema();
        assert!(
            schema.total_width() <= 16,
            "exhaustive check limited to small schemas"
        );
        let widths: Vec<u32> = schema.fields().iter().map(|f| f.width).collect();
        let mut header = vec![0u128; widths.len()];
        enumerate(&widths, 0, &mut header, &mut |values| {
            let key = Key::from_values(schema, values);
            let expect = table.lookup(&key).map(|m| m.action);
            let got = classifier.classify(&key).action;
            assert_eq!(
                got,
                expect,
                "{} disagrees on {:?}",
                classifier.name(),
                values
            );
        });
    }

    fn enumerate(widths: &[u32], idx: usize, current: &mut Vec<u128>, f: &mut impl FnMut(&[u128])) {
        if idx == widths.len() {
            f(current);
            return;
        }
        for v in 0..(1u128 << widths[idx]) {
            current[idx] = v;
            enumerate(widths, idx + 1, current, f);
        }
    }

    /// The Fig. 6 style ACL on a shrunken schema so exhaustive checks stay cheap.
    pub fn small_multi_field_table() -> FlowTable {
        let schema = FieldSchema::new(vec![
            tse_packet::fields::FieldDef::new("src", 6),
            tse_packet::fields::FieldDef::new("sport", 5),
            tse_packet::fields::FieldDef::new("dport", 5),
        ]);
        FlowTable::whitelist_default_deny(&schema, &[(2, 17), (0, 42), (1, 9)])
    }
}
