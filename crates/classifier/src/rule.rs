//! Wildcard rules and actions — the elements of an OVS-style flow table (§2.1).

use std::fmt;

use tse_packet::fields::{self, FieldSchema, Key, Mask};

/// The action a rule or cache entry applies to matching packets.
///
/// The reproduction needs only the actions the paper's ACLs use: *allow* (forward to the
/// tenant's port), *deny* (drop) and an explicit *forward to port* used by the switch
/// examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Accept / forward the packet to its destination tenant.
    Allow,
    /// Drop the packet.
    Deny,
    /// Forward to an explicit output port.
    Forward(u16),
}

impl Action {
    /// True for any action that lets the packet through ([`Action::Allow`] or
    /// [`Action::Forward`]).
    pub fn permits(self) -> bool {
        !matches!(self, Action::Deny)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Allow => write!(f, "allow"),
            Action::Deny => write!(f, "deny"),
            Action::Forward(p) => write!(f, "output:{p}"),
        }
    }
}

/// A single wildcard flow rule: a key/mask match over the schema's fields, a priority
/// and an action. Two rules *overlap* if some packet matches both; the higher priority
/// wins (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Values of the matched bits.
    pub key: Key,
    /// Which header bits the rule examines (all-zero = match-all).
    pub mask: Mask,
    /// Priority; larger values win. The DefaultDeny rule uses priority 0.
    pub priority: u32,
    /// Action applied to matching packets.
    pub action: Action,
}

impl Rule {
    /// Create a rule. The key is canonicalised (`key & mask`) so that bits outside the
    /// mask can never influence equality or matching.
    pub fn new(key: Key, mask: Mask, priority: u32, action: Action) -> Self {
        let key = key.apply_mask(&mask);
        Rule {
            key,
            mask,
            priority,
            action,
        }
    }

    /// A match-everything rule (used for DefaultDeny).
    pub fn match_all(schema: &FieldSchema, priority: u32, action: Action) -> Self {
        Rule::new(schema.zero_value(), schema.empty_mask(), priority, action)
    }

    /// A rule that exact-matches a single field and wildcards everything else — the shape
    /// of every allow rule in the paper's ACLs ("each exact-matching on a single header
    /// field", Theorem 4.2).
    pub fn exact_on_field(
        schema: &FieldSchema,
        field: usize,
        value: u128,
        priority: u32,
        action: Action,
    ) -> Self {
        let mut key = schema.zero_value();
        let mut mask = schema.empty_mask();
        key.set(field, value);
        mask.set(field, schema.fields()[field].full_mask());
        Rule::new(key, mask, priority, action)
    }

    /// Does `header` match this rule?
    pub fn matches(&self, header: &Key) -> bool {
        fields::matches(header, &self.key, &self.mask)
    }

    /// Do this rule and `other` overlap (some packet matches both)?
    pub fn overlaps(&self, other: &Rule) -> bool {
        !fields::disjoint(&self.key, &self.mask, &other.key, &other.mask)
    }

    /// Render in the style of the paper's figures (binary per field, `*` for fully
    /// wildcarded fields).
    pub fn render(&self, schema: &FieldSchema) -> String {
        let mut parts = Vec::new();
        for (i, f) in schema.fields().iter().enumerate() {
            let m = self.mask.get(i);
            if m == 0 {
                parts.push("*".repeat(f.width.min(8) as usize));
            } else {
                let width = f.width as usize;
                let key_bits = format!("{:0width$b}", self.key.get(i));
                let mask_bits = format!("{:0width$b}", m);
                let rendered: String = key_bits
                    .chars()
                    .zip(mask_bits.chars())
                    .map(|(k, m)| if m == '1' { k } else { '*' })
                    .collect();
                parts.push(rendered);
            }
        }
        format!("{} -> {}", parts.join(" "), self.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_permits() {
        assert!(Action::Allow.permits());
        assert!(Action::Forward(3).permits());
        assert!(!Action::Deny.permits());
    }

    #[test]
    fn exact_on_field_builds_fig1_allow_rule() {
        let s = FieldSchema::hyp();
        let r = Rule::exact_on_field(&s, 0, 0b001, 10, Action::Allow);
        assert!(r.matches(&Key::from_values(&s, &[0b001])));
        assert!(!r.matches(&Key::from_values(&s, &[0b101])));
        assert_eq!(r.mask.popcount(), 3);
    }

    #[test]
    fn match_all_matches_everything() {
        let s = FieldSchema::hyp2();
        let r = Rule::match_all(&s, 0, Action::Deny);
        for hyp in 0..8u128 {
            for hyp2 in 0..16u128 {
                assert!(r.matches(&Key::from_values(&s, &[hyp, hyp2])));
            }
        }
    }

    #[test]
    fn overlap_between_allow_and_default_deny() {
        let s = FieldSchema::hyp();
        let allow = Rule::exact_on_field(&s, 0, 0b001, 10, Action::Allow);
        let deny = Rule::match_all(&s, 0, Action::Deny);
        assert!(allow.overlaps(&deny));
        assert!(deny.overlaps(&allow));
    }

    #[test]
    fn key_canonicalised_to_mask() {
        let s = FieldSchema::hyp();
        let key = Key::from_values(&s, &[0b111]);
        let mask = Mask::from_values(&s, &[0b100]);
        let r = Rule::new(key, mask, 1, Action::Deny);
        assert_eq!(r.key.get(0), 0b100);
    }

    #[test]
    fn render_matches_paper_style() {
        let s = FieldSchema::hyp2();
        let r = Rule::exact_on_field(&s, 0, 0b001, 10, Action::Allow);
        assert_eq!(r.render(&s), "001 **** -> allow");
        let d = Rule::match_all(&s, 0, Action::Deny);
        assert_eq!(d.render(&s), "*** **** -> deny");
    }

    #[test]
    fn render_partial_mask() {
        let s = FieldSchema::hyp();
        let r = Rule::new(
            Key::from_values(&s, &[0b100]),
            Mask::from_values(&s, &[0b100]),
            1,
            Action::Deny,
        );
        assert_eq!(r.render(&s), "1** -> deny");
    }
}
