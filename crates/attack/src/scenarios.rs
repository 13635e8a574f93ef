//! The attack scenarios of §5.2: Baseline, Dp, SpDp, SipDp and SipSpDp.
//!
//! Each scenario selects which header fields of the Fig. 6 ACL are targeted and carries
//! the paper's expected maximum number of MFC masks for the Co-located attack.

use tse_classifier::flowtable::FlowTable;
use tse_packet::fields::{FieldSchema, Key};

use crate::colocated::{bit_inversion_keys, BitInversionKeys};

/// The allowed values of the Fig. 6 ACL.
pub mod fig6 {
    /// Rule #1: allow TCP destination port 80.
    pub const ALLOW_DST_PORT: u128 = 80;
    /// Rule #2: allow source IP 10.0.0.1.
    pub const ALLOW_SRC_IP: u128 = 0x0a00_0001;
    /// Rule #3: allow TCP source port 12345.
    pub const ALLOW_SRC_PORT: u128 = 12345;
}

/// A targeted header field together with its allowed (whitelisted) value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetField {
    /// Name of the field in the OVS schema (`"ip_src"`, `"tp_src"`, `"tp_dst"`).
    pub name: &'static str,
    /// The exact value the corresponding allow rule whitelists.
    pub allow_value: u128,
}

/// The §5.2 use cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Only the destination-port allow rule, no attack traffic: the switch's full
    /// capacity (1 MFC mask).
    Baseline,
    /// Attack on the 16-bit destination port only (rules #1 + #4 of Fig. 6).
    Dp,
    /// Attack on source and destination ports (~16² = 256 masks).
    SpDp,
    /// Attack on source IP and destination port (~32·16 = 512 masks).
    SipDp,
    /// The full-blown attack on all three fields (~8200 masks).
    SipSpDp,
}

impl Scenario {
    /// All scenarios, in increasing order of attack surface.
    pub const ALL: [Scenario; 5] = [
        Scenario::Baseline,
        Scenario::Dp,
        Scenario::SpDp,
        Scenario::SipDp,
        Scenario::SipSpDp,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Baseline => "Baseline",
            Scenario::Dp => "Dp",
            Scenario::SpDp => "SpDp",
            Scenario::SipDp => "SipDp",
            Scenario::SipSpDp => "SipSpDp",
        }
    }

    /// The header fields this scenario's ACL matches on (in rule-priority order), i.e.
    /// the fields the adversarial trace varies.
    pub fn target_fields(&self) -> Vec<TargetField> {
        let dp = TargetField {
            name: "tp_dst",
            allow_value: fig6::ALLOW_DST_PORT,
        };
        let sip = TargetField {
            name: "ip_src",
            allow_value: fig6::ALLOW_SRC_IP,
        };
        let sp = TargetField {
            name: "tp_src",
            allow_value: fig6::ALLOW_SRC_PORT,
        };
        match self {
            Scenario::Baseline => vec![dp],
            Scenario::Dp => vec![dp],
            Scenario::SpDp => vec![dp, sp],
            Scenario::SipDp => vec![dp, sip],
            Scenario::SipSpDp => vec![dp, sip, sp],
        }
    }

    /// Whether adversarial traffic is sent at all (everything except Baseline).
    pub fn has_attack_traffic(&self) -> bool {
        !matches!(self, Scenario::Baseline)
    }

    /// The ACL for this scenario over the given OVS schema: one exact-match allow rule
    /// per targeted field plus DefaultDeny — the subset of Fig. 6 the use case installs.
    pub fn flow_table(&self, schema: &FieldSchema) -> FlowTable {
        FlowTable::whitelist_default_deny(schema, &self.allows(schema))
    }

    /// The `(field index, allowed value)` pairs of the targeted fields under `schema`.
    ///
    /// # Panics
    /// Panics if `schema` lacks a targeted field.
    pub(crate) fn allows(&self, schema: &FieldSchema) -> Vec<(usize, u128)> {
        self.target_fields()
            .iter()
            .map(|t| {
                (
                    schema
                        .field_index(t.name)
                        .unwrap_or_else(|| panic!("schema lacks field {}", t.name)),
                    t.allow_value,
                )
            })
            .collect()
    }

    /// The paper's quoted number of MFC masks attainable by the Co-located attack
    /// (§5.2): 1, 16, ~256, ~512, ~8200.
    pub fn expected_max_masks(&self, schema: &FieldSchema) -> usize {
        if !self.has_attack_traffic() {
            return 1;
        }
        self.target_fields()
            .iter()
            .map(|t| schema.width(schema.field_index(t.name).expect("field")) as usize)
            .product::<usize>()
    }

    /// The Co-located key sequence for this scenario over an OVS schema: the outer
    /// product of the targeted fields' bit-inversion lists ([`bit_inversion_keys`]) as a
    /// lazy, cloneable iterator — empty for [`Scenario::Baseline`], which sends no attack
    /// traffic. `base` pins the untargeted fields (destination IP of the attacker's
    /// service, IP protocol, etc.). `.cycle()` it for the looping-replay attacker; collect
    /// `.take(n)` of it where a `Vec` is wanted.
    pub fn key_iter(&self, schema: &FieldSchema, base: &Key) -> BitInversionKeys {
        let mut keys = bit_inversion_keys(schema, &self.allows(schema), base);
        keys.done = !self.has_attack_traffic();
        keys
    }

    /// Total targeted header bits (the `h` of Eq. 1).
    pub fn targeted_bits(&self, schema: &FieldSchema) -> u32 {
        self.target_fields()
            .iter()
            .map(|t| schema.width(schema.field_index(t.name).expect("field")))
            .sum()
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_classifier::rule::Action;
    use tse_packet::fields::Key;

    #[test]
    fn expected_mask_counts_match_paper() {
        let schema = FieldSchema::ovs_ipv4();
        assert_eq!(Scenario::Baseline.expected_max_masks(&schema), 1);
        assert_eq!(Scenario::Dp.expected_max_masks(&schema), 16);
        assert_eq!(Scenario::SpDp.expected_max_masks(&schema), 256);
        assert_eq!(Scenario::SipDp.expected_max_masks(&schema), 512);
        assert_eq!(Scenario::SipSpDp.expected_max_masks(&schema), 8192);
    }

    #[test]
    fn flow_table_sizes() {
        let schema = FieldSchema::ovs_ipv4();
        assert_eq!(Scenario::Dp.flow_table(&schema).len(), 2);
        assert_eq!(Scenario::SipSpDp.flow_table(&schema).len(), 4);
    }

    #[test]
    fn fig6_semantics() {
        let schema = FieldSchema::ovs_ipv4();
        let table = Scenario::SipSpDp.flow_table(&schema);
        let ip_src = schema.field_index("ip_src").unwrap();
        let tp_src = schema.field_index("tp_src").unwrap();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        // Port 80 traffic allowed.
        let mut h = schema.zero_value();
        h.set(tp_dst, 80);
        assert_eq!(table.lookup(&h).unwrap().action, Action::Allow);
        // 10.0.0.1 allowed regardless of ports.
        let mut h = schema.zero_value();
        h.set(ip_src, 0x0a000001);
        h.set(tp_dst, 443);
        assert_eq!(table.lookup(&h).unwrap().action, Action::Allow);
        // Source port 12345 allowed.
        let mut h = schema.zero_value();
        h.set(tp_src, 12345);
        assert_eq!(table.lookup(&h).unwrap().action, Action::Allow);
        // Anything else denied.
        let h = Key::from_values(&schema, &[1, 2, 6, 64, 1000, 9999]);
        assert_eq!(table.lookup(&h).unwrap().action, Action::Deny);
    }

    #[test]
    fn targeted_bits() {
        let schema = FieldSchema::ovs_ipv4();
        assert_eq!(Scenario::Dp.targeted_bits(&schema), 16);
        assert_eq!(Scenario::SipDp.targeted_bits(&schema), 48);
        assert_eq!(Scenario::SipSpDp.targeted_bits(&schema), 64);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Scenario::SipSpDp.name(), "SipSpDp");
        assert_eq!(Scenario::Baseline.to_string(), "Baseline");
        assert_eq!(Scenario::ALL.len(), 5);
        assert!(!Scenario::Baseline.has_attack_traffic());
        assert!(Scenario::Dp.has_attack_traffic());
    }
}
