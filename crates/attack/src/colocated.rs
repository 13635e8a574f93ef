//! The Co-located TSE adversarial trace generator (§5.1).
//!
//! The attacker knows the installed ACL (it is her own, injected through the CMS API).
//! The trace that maximises the number of MFC masks is:
//!
//! * **single header**: one packet matching the allow rule, then one packet per relevant
//!   bit with that bit inverted — `{001, 101, 011, 000}` for the Fig. 1 ACL, which spawns
//!   exactly the Fig. 3 cache;
//! * **multiple headers**: the outer product of the per-field inversion lists, which
//!   spawns one mask per combination of tested bit positions (Fig. 5, §4.2).

use tse_packet::fields::{FieldSchema, Key};

/// The bit-inversion list for a single field: the allowed value first, then the value
/// with each bit inverted, most-significant bit first (the order used in §5.1).
pub(crate) fn bit_inversion_list(width: u32, allow_value: u128) -> Vec<u128> {
    let mut out = Vec::with_capacity(width as usize + 1);
    let full = if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    };
    let allow = allow_value & full;
    out.push(allow);
    for bit in (0..width).rev() {
        out.push(allow ^ (1u128 << bit));
    }
    out
}

/// The Co-located TSE header trace for an arbitrary WhiteList+DefaultDeny ACL described
/// as `(field index, allowed value)` pairs in priority order: an iterator walking the
/// outer product of the per-field bit-inversion lists without materialising the key
/// vector. Untargeted fields keep the value given in `base`, so the caller can pin e.g.
/// the destination IP to the attacker's own service. It is `Clone`, so
/// `bit_inversion_keys(..).cycle()` gives the looping-replay attacker as an unbounded
/// stream — the generator form consumed by
/// [`AttackGenerator`](crate::source::AttackGenerator).
pub fn bit_inversion_keys(
    schema: &FieldSchema,
    allows: &[(usize, u128)],
    base: &Key,
) -> BitInversionKeys {
    let lists: Vec<(usize, Vec<u128>)> = allows
        .iter()
        .map(|&(field, value)| (field, bit_inversion_list(schema.width(field), value)))
        .collect();
    BitInversionKeys {
        indices: vec![0usize; lists.len()],
        lists,
        base: base.clone(),
        done: false,
    }
}

/// Iterator over the Co-located outer-product key trace (see [`bit_inversion_keys`]).
#[derive(Debug, Clone)]
pub struct BitInversionKeys {
    lists: Vec<(usize, Vec<u128>)>,
    indices: Vec<usize>,
    base: Key,
    /// Set once the odometer wraps — or from the start, for a scenario that sends no
    /// attack traffic ([`Scenario::key_iter`](crate::scenarios::Scenario::key_iter)).
    pub(crate) done: bool,
}

impl Iterator for BitInversionKeys {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        if self.done {
            return None;
        }
        let mut key = self.base.clone();
        for (slot, (field, list)) in self.lists.iter().enumerate() {
            key.set(*field, list[self.indices[slot]]);
        }
        // Advance the odometer; a full wrap ends the iteration.
        let mut pos = self.lists.len();
        loop {
            if pos == 0 {
                self.done = true;
                break;
            }
            pos -= 1;
            self.indices[pos] += 1;
            if self.indices[pos] < self.lists[pos].1.len() {
                break;
            }
            self.indices[pos] = 0;
        }
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;
    use tse_classifier::strategy::{examined_megaflow, MegaflowStrategy};
    use tse_classifier::tss::TupleSpace;

    #[test]
    fn single_field_list_matches_paper_example() {
        // Fig. 1 ACL, 3-bit HYP, allow 001 → { 001, 101, 011, 000 }.
        assert_eq!(
            bit_inversion_list(3, 0b001),
            vec![0b001, 0b101, 0b011, 0b000]
        );
    }

    #[test]
    fn list_length_is_width_plus_one() {
        assert_eq!(bit_inversion_list(16, 80).len(), 17);
        assert_eq!(bit_inversion_list(32, 0x0a000001).len(), 33);
    }

    #[test]
    fn hyp_trace_spawns_fig3_cache() {
        let schema = FieldSchema::hyp();
        let table = tse_classifier::flowtable::FlowTable::fig1_hyp();
        let strategy = MegaflowStrategy::wildcarding(&schema);
        let base = schema.zero_value();
        let trace: Vec<Key> = bit_inversion_keys(&schema, &[(0, 0b001)], &base).collect();
        assert_eq!(trace.len(), 4);
        let mut cache = TupleSpace::new(schema.clone());
        for h in &trace {
            if cache.lookup(h, 0.0).action.is_some() {
                continue;
            }
            let (verdict, mask) = examined_megaflow(&table, h, &strategy).unwrap();
            cache.insert(h.clone(), mask, verdict.action, 0.0).unwrap();
        }
        assert_eq!(cache.mask_count(), 3);
        assert_eq!(cache.entry_count(), 4);
    }

    #[test]
    fn two_field_trace_spawns_13_masks() {
        // §4.2 / §5.1: the Fig. 4 ACL and the outer-product trace give 13 masks.
        let schema = FieldSchema::hyp2();
        let table = tse_classifier::flowtable::FlowTable::fig4_hyp2();
        let strategy = MegaflowStrategy::wildcarding(&schema);
        let base = schema.zero_value();
        let allows = [(0, 0b001), (1, 0b1111)];
        let trace: Vec<Key> = bit_inversion_keys(&schema, &allows, &base).collect();
        assert_eq!(trace.len(), 4 * 5);
        let mut cache = TupleSpace::new(schema.clone());
        for h in &trace {
            if cache.lookup(h, 0.0).action.is_some() {
                continue;
            }
            let (verdict, mask) = examined_megaflow(&table, h, &strategy).unwrap();
            cache.insert(h.clone(), mask, verdict.action, 0.0).unwrap();
        }
        assert_eq!(cache.mask_count(), 13, "3*4 + 1 masks as computed in §4.2");
    }

    #[test]
    fn scenario_trace_lengths() {
        let schema = FieldSchema::ovs_ipv4();
        // Π (w_i + 1) packets over the scenario's target fields.
        let base = schema.zero_value();
        let len = |scenario: Scenario| scenario.key_iter(&schema, &base).count();
        assert_eq!(len(Scenario::Baseline), 0);
        assert_eq!(len(Scenario::Dp), 17);
        assert_eq!(len(Scenario::SpDp), 17 * 17);
        assert_eq!(len(Scenario::SipDp), 17 * 33);
        assert_eq!(len(Scenario::SipSpDp), 17 * 33 * 17);
    }

    #[test]
    fn lazy_iterator_matches_materialised_trace() {
        // Cycling the cloneable iterator is the looping-replay attacker: pass k of the
        // cycle is the one-pass sequence again, for every scenario (Baseline stays empty).
        let schema = FieldSchema::ovs_ipv4();
        let base = schema.zero_value();
        for scenario in Scenario::ALL {
            let one_pass: Vec<Key> = scenario.key_iter(&schema, &base).collect();
            let cycled: Vec<Key> = scenario
                .key_iter(&schema, &base)
                .cycle()
                .take(3 * one_pass.len())
                .collect();
            assert_eq!(cycled, [&one_pass[..]; 3].concat(), "{scenario}");
        }
    }

    #[test]
    fn base_fields_preserved() {
        let schema = FieldSchema::ovs_ipv4();
        let ip_dst = schema.field_index("ip_dst").unwrap();
        let mut base = schema.zero_value();
        base.set(ip_dst, 0x0a0000c8);
        let mut keys = Scenario::Dp.key_iter(&schema, &base);
        assert!(keys.all(|k| k.get(ip_dst) == 0x0a0000c8));
    }
}
