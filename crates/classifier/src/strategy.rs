//! Slow-path megaflow generation: turning a flow-table decision for one packet into a
//! megaflow cache entry.
//!
//! §3.2 explains that when the slow path installs a new MFC entry `C` for a packet with
//! header `h` it maintains two invariants — *Cover* (`h` matches `C`) and *Independence*
//! (`C` is disjoint from every existing entry) — and that within those constraints there
//! are multiple valid choices, "each striking a different balance between space- and
//! time-complexity":
//!
//! * the **exact-match** strategy (Fig. 2): one mask, exponentially many entries
//!   (optimal time, `O(2^w)` space — the `k = 1` end of Theorem 4.1);
//! * the **wildcarding** strategy (Fig. 3): wildcard as many bits as possible, giving the
//!   smallest cache but one mask per tested bit (`k = w`, the strategy OVS leans toward);
//! * intermediate, **chunked** constructions that un-wildcard `c` bits at a time
//!   (`k = ⌈w/c⌉`, the general Theorem 4.1 trade-off).
//!
//! OVS additionally mixes strategies per field — e.g. it exact-matches IPv6 source
//! addresses while bit-level wildcarding TCP ports, producing the §5.4 memory-explosion
//! anomaly — which is modelled by per-field strategies.
//!
//! Whatever the strategy, the invariant is §3.2's: **the megaflow mask is the record of
//! the header bits the slow path examined on the way to its verdict** (Figs. 3 and 5;
//! OVS's `classifier_lookup()` takes the `flow_wildcards` and un-wildcards as it goes).
//! So generation is not a pass of its own: the flow table's one priority walk records,
//! in sixteen 64-bit words, the bits it tests — for each rule it rejects, that rule's
//! mask in field order, most-significant bit first, down to and including the first bit
//! on which the header differs; for the rule it matches, the whole mask — and generation
//! widens that record to the strategy's granularity. The walk reads each rule as
//! compiled into the table's walk lane (see [`FlowTable`]), a word at a time; the
//! rules of a run, whose first words test the same bits, it passes at one key each and
//! folds their rejections into one term.
//!
//! Independence then holds by construction. A header inside the megaflow agrees with `h`
//! on every bit the walk examined, so it walks the same way to the same rule and the
//! same mask: two megaflows of one table are equal or disjoint. The slow path installs
//! the examined megaflow as it is, and [`TupleSpace::insert`], which checks Inv(2),
//! refuses it only where an entry already covers `h` or came from another table.
//!
//! [`TupleSpace::insert`]: crate::tss::TupleSpace::insert

use tse_packet::fields::{FieldSchema, Key, Mask};

use crate::flowtable::{FlowTable, TableMatch};

/// How un-wildcarding is performed within one header field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldStrategy {
    /// Un-wildcard individual bits, most-significant first (OVS's usual behaviour;
    /// `k_i = w_i`).
    BitLevel,
    /// Any touch of the field un-wildcards the whole field (`k_i = 1`); this is what OVS
    /// does to IPv6 addresses in the §5.4 anomaly.
    Exact,
    /// Un-wildcard whole chunks of the given number of bits (`k_i = ⌈w_i / c⌉`), the
    /// intermediate points of Theorem 4.1.
    Chunked(u32),
}

/// The megaflow-generation strategy: one [`FieldStrategy`] per schema field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MegaflowStrategy {
    per_field: Vec<FieldStrategy>,
}

impl MegaflowStrategy {
    /// The OVS default: bit-level wildcarding on every field.
    pub fn wildcarding(schema: &FieldSchema) -> Self {
        Self::uniform(schema, FieldStrategy::BitLevel)
    }

    /// Exact-match on every field (the Fig. 2 construction).
    pub fn exact_match(schema: &FieldSchema) -> Self {
        Self::uniform(schema, FieldStrategy::Exact)
    }

    /// Chunked un-wildcarding with the same chunk size on every field.
    pub fn chunked(schema: &FieldSchema, chunk_bits: u32) -> Self {
        assert!(chunk_bits >= 1);
        Self::uniform(schema, FieldStrategy::Chunked(chunk_bits))
    }

    /// The same strategy for every field.
    fn uniform(schema: &FieldSchema, strategy: FieldStrategy) -> Self {
        MegaflowStrategy {
            per_field: vec![strategy; schema.field_count()],
        }
    }

    /// Explicit per-field strategies (must match the schema's field count).
    pub fn per_field(strategies: Vec<FieldStrategy>) -> Self {
        MegaflowStrategy {
            per_field: strategies,
        }
    }

    /// The OVS IPv6 behaviour observed in §5.4: exact-match the 128-bit address fields,
    /// bit-level wildcard everything else.
    pub fn ovs_ipv6_anomaly(schema: &FieldSchema) -> Self {
        let per_field = schema
            .fields()
            .iter()
            .map(|f| {
                if f.width >= 64 {
                    FieldStrategy::Exact
                } else {
                    FieldStrategy::BitLevel
                }
            })
            .collect();
        MegaflowStrategy { per_field }
    }

    /// Strategy for field `idx`.
    pub fn field(&self, idx: usize) -> FieldStrategy {
        self.per_field[idx]
    }

    /// Widen the examined `bits` of `field` to the strategy's granularity: the bits
    /// themselves (BitLevel), the whole field if any bit was examined (Exact), or every
    /// chunk the bits touch (Chunked). Distributes over OR.
    fn widen(&self, schema: &FieldSchema, field: usize, mut bits: u128) -> u128 {
        match self.per_field[field] {
            FieldStrategy::BitLevel => bits,
            FieldStrategy::Exact if bits == 0 => 0,
            FieldStrategy::Exact => schema.fields()[field].full_mask(),
            FieldStrategy::Chunked(c) => {
                // `c` low ones: one chunk, before it is shifted into place.
                let ones = 1u128.checked_shl(c).map_or(u128::MAX, |end| end - 1);
                let mut out = 0;
                while bits != 0 {
                    let chunk = ones << (bits.trailing_zeros() / c * c);
                    out |= chunk;
                    bits &= !chunk;
                }
                out & schema.fields()[field].full_mask()
            }
        }
    }
}

/// The megaflow the slow path generates for `header` against `table` under `strategy`:
/// the table's verdict and the mask, `None` if no rule matches. The construction is the
/// OVS heuristic the paper describes, in one priority walk of the table's walk lane:
///
/// 1. for every higher-priority rule the header *fails* to match, un-wildcard the bits
///    of that rule's mask scanned (field order, most-significant bit first) up to and
///    including the first bit on which the header differs — the "test the bits one by
///    one" decomposition that yields Fig. 3 and Fig. 5, done a 64-bit word at a time: a
///    word the header agrees with is examined whole, the first one it differs in from
///    its first differing bit up;
/// 2. add the matched rule's own mask, which the same walk tested whole (so every packet
///    covered by the new entry also matches that rule — Cover plus action-correctness).
pub fn examined_megaflow(
    table: &FlowTable,
    header: &Key,
    strategy: &MegaflowStrategy,
) -> Option<(TableMatch, Mask)> {
    let schema = table.schema();
    // The one walk records the bits it tested to reject each rule and the matched rule's
    // own mask; widened once, since widening distributes over OR.
    let mut examined = [0; 16];
    let matched = table.walk(header, &mut examined)?;
    let mut mask = schema.empty_mask();
    for f in 0..schema.field_count() {
        let bits = u128::from(examined[2 * f + 1]) << 64 | u128::from(examined[2 * f]);
        mask.set(f, strategy.widen(schema, f, bits));
    }
    Some((matched, mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtable::FlowTable;
    use crate::tss::{InsertError, TupleSpace};

    fn hyp_key(v: u128) -> Key {
        Key::from_values(&FieldSchema::hyp(), &[v])
    }

    /// Drive the slow path for a sequence of headers and return the resulting cache.
    fn populate(table: &FlowTable, strategy: &MegaflowStrategy, headers: &[Key]) -> TupleSpace {
        let mut cache = TupleSpace::new(table.schema().clone());
        for h in headers {
            if cache.lookup(h, 0.0).action.is_some() {
                continue;
            }
            let (verdict, mask) = examined_megaflow(table, h, strategy).unwrap();
            cache.insert(h.clone(), mask, verdict.action, 0.0).unwrap();
        }
        cache
    }

    #[test]
    fn wildcarding_reproduces_fig3() {
        // §5.1 single-header adversarial trace: { 001, 101, 011, 000 }.
        let table = FlowTable::fig1_hyp();
        let strategy = MegaflowStrategy::wildcarding(table.schema());
        let trace: Vec<Key> = [0b001u128, 0b101, 0b011, 0b000]
            .iter()
            .map(|&v| hyp_key(v))
            .collect();
        let cache = populate(&table, &strategy, &trace);
        assert_eq!(cache.entry_count(), 4, "Fig. 3 has 4 entries");
        assert_eq!(cache.mask_count(), 3, "Fig. 3 has 3 masks");
        assert!(cache.check_independence());
        // The exact entries of Fig. 3.
        let rendered = cache.render();
        assert!(rendered.contains("key=001 mask=111 -> allow"));
        assert!(rendered.contains("key=100 mask=100 -> deny"));
        assert!(rendered.contains("key=010 mask=110 -> deny"));
        assert!(rendered.contains("key=000 mask=111 -> deny"));
    }

    #[test]
    fn exact_match_reproduces_fig2() {
        let table = FlowTable::fig1_hyp();
        let strategy = MegaflowStrategy::exact_match(table.schema());
        let trace: Vec<Key> = (0..8u128).map(hyp_key).collect();
        let cache = populate(&table, &strategy, &trace);
        assert_eq!(cache.mask_count(), 1, "Fig. 2 uses a single exact mask");
        assert_eq!(cache.entry_count(), 8, "Fig. 2 has all 2^3 keys");
    }

    #[test]
    fn generated_cache_agrees_with_flow_table() {
        // Semantic equivalence: after populating with every possible header, the cache
        // gives the same verdict as the slow path for every header.
        let table = FlowTable::fig4_hyp2();
        let schema = table.schema().clone();
        let strategy = MegaflowStrategy::wildcarding(&schema);
        let all: Vec<Key> = (0..8u128)
            .flat_map(|a| (0..16u128).map(move |b| (a, b)))
            .map(|(a, b)| Key::from_values(&schema, &[a, b]))
            .collect();
        let mut cache = populate(&table, &strategy, &all);
        for h in &all {
            let expect = table.lookup(h).unwrap().action;
            let got = cache.lookup(h, 0.0).action.unwrap();
            assert_eq!(got, expect, "header {}", h.to_binary_string(&schema));
        }
        assert!(cache.check_independence());
    }

    #[test]
    fn two_field_acl_yields_13_masks() {
        // §4.2: the Fig. 4 ACL yields 3*4 + 1 = 13 masks under the wildcarding strategy
        // when the whole header space is exercised.
        let table = FlowTable::fig4_hyp2();
        let schema = table.schema().clone();
        let strategy = MegaflowStrategy::wildcarding(&schema);
        let all: Vec<Key> = (0..8u128)
            .flat_map(|a| (0..16u128).map(move |b| (a, b)))
            .map(|(a, b)| Key::from_values(&schema, &[a, b]))
            .collect();
        let cache = populate(&table, &strategy, &all);
        assert_eq!(cache.mask_count(), 13);
    }

    #[test]
    fn chunked_strategy_trades_masks_for_entries() {
        // Theorem 4.1 in executable form on an 8-bit field: k = w/c masks, ~k * 2^c
        // entries when the whole space is exercised.
        let schema = FieldSchema::new(vec![tse_packet::fields::FieldDef::new("f", 8)]);
        let table = FlowTable::whitelist_default_deny(&schema, &[(0, 0x55)]);
        let all: Vec<Key> = (0..256u128)
            .map(|v| Key::from_values(&schema, &[v]))
            .collect();

        let wild = populate(&table, &MegaflowStrategy::wildcarding(&schema), &all);
        let chunk4 = populate(&table, &MegaflowStrategy::chunked(&schema, 4), &all);
        let exact = populate(&table, &MegaflowStrategy::exact_match(&schema), &all);

        // Masks: 8 (+1 for the allow tuple shared) >= 2 >= 1.
        assert!(wild.mask_count() > chunk4.mask_count());
        assert!(chunk4.mask_count() > exact.mask_count());
        // Entries go the other way.
        assert!(wild.entry_count() < chunk4.entry_count());
        assert!(chunk4.entry_count() < exact.entry_count());
        assert_eq!(exact.entry_count(), 256);
    }

    #[test]
    fn per_field_exact_explodes_entries_not_masks() {
        // The IPv6 anomaly in miniature: exact-match the first field, wildcard the second.
        let schema = FieldSchema::new(vec![
            tse_packet::fields::FieldDef::new("addr", 8),
            tse_packet::fields::FieldDef::new("port", 4),
        ]);
        let table = FlowTable::whitelist_default_deny(&schema, &[(0, 1), (1, 2)]);
        let strategy =
            MegaflowStrategy::per_field(vec![FieldStrategy::Exact, FieldStrategy::BitLevel]);
        let all: Vec<Key> = (0..256u128)
            .flat_map(|a| (0..16u128).map(move |b| (a, b)))
            .map(|(a, b)| Key::from_values(&schema, &[a, b]))
            .collect();
        let cache = populate(&table, &strategy, &all);
        let wild = populate(&table, &MegaflowStrategy::wildcarding(&schema), &all);
        assert!(cache.mask_count() < wild.mask_count());
        assert!(cache.entry_count() > 10 * wild.entry_count());
    }

    #[test]
    fn already_covered_reported() {
        let table = FlowTable::fig1_hyp();
        let strategy = MegaflowStrategy::wildcarding(table.schema());
        let mut cache = populate(&table, &strategy, &[hyp_key(0b111)]);
        // 101 is covered by the (1**, deny) entry, which is its own megaflow: the cache
        // refuses it, naming that entry.
        let (verdict, mask) = examined_megaflow(&table, &hyp_key(0b101), &strategy).unwrap();
        assert_eq!(verdict, table.lookup(&hyp_key(0b101)).unwrap());
        let refused = cache.insert(hyp_key(0b101), mask.clone(), verdict.action, 0.0);
        let existing = Box::new((hyp_key(0b100), mask));
        assert_eq!(refused, Err(InsertError::Overlap { existing }));
    }

    #[test]
    fn empty_table_is_an_error() {
        let schema = FieldSchema::hyp();
        let table = FlowTable::new(schema.clone());
        let strategy = MegaflowStrategy::wildcarding(&schema);
        assert_eq!(examined_megaflow(&table, &hyp_key(0), &strategy), None);
    }

    #[test]
    fn ovs_ipv6_anomaly_strategy_selects_exact_for_wide_fields() {
        let schema = FieldSchema::ovs_ipv6();
        let s = MegaflowStrategy::ovs_ipv6_anomaly(&schema);
        assert_eq!(s.field(0), FieldStrategy::Exact); // ip6_src
        assert_eq!(s.field(5), FieldStrategy::BitLevel); // tp_dst
    }
}
