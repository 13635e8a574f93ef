//! Multi-tenant ACL composition.
//!
//! In the cloud model of §3.3, every tenant configures a *virtual* switch with its own
//! ACL, but all tenants scheduled onto the same hypervisor share one physical software
//! switch — and therefore one megaflow cache. This module turns a set of per-tenant ACLs
//! into the single merged flow table the shared datapath actually runs, which is exactly
//! the abstraction the Co-located TSE attack exploits: the attacker's own ACL (for its
//! own service) creates the adversarial rule pattern inside the shared cache.

use tse_packet::fields::{FieldSchema, Mask};

use tse_classifier::flowtable::FlowTable;
use tse_classifier::rule::{Action, Rule};

/// A header field a tenant ACL may filter on. Cloud management systems restrict which of
/// these a tenant can use (§7): OpenStack/Kubernetes ingress policies allow only
/// [`AclField::SrcIp`] and [`AclField::DstPort`]; Calico adds [`AclField::SrcPort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AclField {
    /// IPv4/IPv6 source address.
    SrcIp,
    /// Transport source port.
    SrcPort,
    /// Transport destination port.
    DstPort,
}

impl AclField {
    /// Index of this field in the canonical OVS schema.
    pub fn schema_index(self, schema: &FieldSchema) -> usize {
        let name = match self {
            AclField::SrcIp => {
                if schema.field_index("ip_src").is_some() {
                    "ip_src"
                } else {
                    "ip6_src"
                }
            }
            AclField::SrcPort => "tp_src",
            AclField::DstPort => "tp_dst",
        };
        schema.field_index(name).expect("OVS schema field")
    }
}

/// One allow clause of a tenant ACL: exact match on a single field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllowClause {
    /// The matched field.
    pub field: AclField,
    /// The exact value allowed.
    pub value: u128,
}

/// A tenant's ingress ACL: an ordered list of allow clauses for traffic destined to the
/// tenant's service address, with an implicit DefaultDeny underneath (the
/// WhiteList+DefaultDeny pattern of §1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAcl {
    /// Human-readable tenant name (used in reports).
    pub name: String,
    /// The tenant's service address (destination IP the ACL protects).
    pub service_ip: u128,
    /// Allow clauses in decreasing priority.
    pub allows: Vec<AllowClause>,
}

impl TenantAcl {
    /// Build a tenant ACL.
    pub fn new(name: impl Into<String>, service_ip: u128, allows: Vec<AllowClause>) -> Self {
        TenantAcl {
            name: name.into(),
            service_ip,
            allows,
        }
    }

    /// The victim ACL used throughout §5: "allow destination port 80 to my service".
    pub fn web_service(name: impl Into<String>, service_ip: u128) -> Self {
        TenantAcl::new(
            name,
            service_ip,
            vec![AllowClause {
                field: AclField::DstPort,
                value: 80,
            }],
        )
    }

    /// The attacker ACL of Fig. 6: allow dst port 80, src IP 10.0.0.1 and src port 12345
    /// to the attacker's own service — the full-blown TSE pattern (SipSpDp).
    pub fn full_blown_attack(name: impl Into<String>, service_ip: u128) -> Self {
        TenantAcl::new(
            name,
            service_ip,
            vec![
                AllowClause {
                    field: AclField::DstPort,
                    value: 80,
                },
                AllowClause {
                    field: AclField::SrcIp,
                    value: 0x0a000001,
                },
                AllowClause {
                    field: AclField::SrcPort,
                    value: 12345,
                },
            ],
        )
    }

    /// The shard-pinned attack ACL used by tenant-fleet experiments: allow dst port 80
    /// and src port 12345 to the attacker's own service (the SpDp pattern). Unlike
    /// [`TenantAcl::full_blown_attack`] it does not test the source address, so an
    /// attacker replaying the bit-inversion outer product from a single client IP
    /// keeps every packet on one RX queue under per-tenant steering — the worst case
    /// for the tenants sharing that queue, and blast-radius-free for the others.
    pub fn sp_dp_attack(name: impl Into<String>, service_ip: u128) -> Self {
        TenantAcl::new(
            name,
            service_ip,
            vec![
                AllowClause {
                    field: AclField::DstPort,
                    value: 80,
                },
                AllowClause {
                    field: AclField::SrcPort,
                    value: 12345,
                },
            ],
        )
    }

    /// Number of allow clauses.
    pub fn len(&self) -> usize {
        self.allows.len()
    }

    /// True if the ACL has no allow clauses (everything to this service is denied).
    pub fn is_empty(&self) -> bool {
        self.allows.is_empty()
    }
}

/// Merge the ACLs of all tenants sharing a hypervisor into the single flow table the
/// shared datapath runs.
///
/// Each tenant's allow clause becomes a rule matching `ip_dst == tenant.service_ip AND
/// field == value`; a global DefaultDeny (priority 0) sits underneath. Priorities are
/// assigned so that each tenant's clauses keep their relative order and different
/// tenants' rules never interleave in a way that changes semantics (they are disjoint on
/// `ip_dst` anyway).
pub fn merge_tenant_acls(schema: &FieldSchema, tenants: &[TenantAcl]) -> FlowTable {
    let ip_dst = schema
        .field_index("ip_dst")
        .or_else(|| schema.field_index("ip6_dst"))
        .expect("OVS schema must have a destination address field");
    let mut table = FlowTable::new(schema.clone());
    // Start high enough that even a 10k-tenant fleet's clauses all stay above the
    // DefaultDeny's priority 0 (the classic small merges keep their historic 10_000).
    let clause_count: usize = tenants.iter().map(|t| t.allows.len()).sum();
    let mut priority = (clause_count as u32 + 1).max(10_000);
    for tenant in tenants {
        for clause in &tenant.allows {
            let field = clause.field.schema_index(schema);
            let mut key = schema.zero_value();
            let mut mask: Mask = schema.empty_mask();
            key.set(ip_dst, tenant.service_ip);
            mask.set(ip_dst, schema.fields()[ip_dst].full_mask());
            key.set(field, clause.value);
            mask.set(field, schema.fields()[field].full_mask());
            table.push(Rule::new(key, mask, priority, Action::Allow));
            priority -= 1;
        }
    }
    table.push(Rule::match_all(schema, 0, Action::Deny));
    table
}

/// Convenience: the merged table for the canonical §5 topology — a victim web service
/// plus a co-located attacker with the Fig. 6 full-blown ACL.
pub fn victim_and_attacker_table(
    schema: &FieldSchema,
    victim_ip: u128,
    attacker_ip: u128,
) -> FlowTable {
    merge_tenant_acls(
        schema,
        &[
            TenantAcl::web_service("victim", victim_ip),
            TenantAcl::full_blown_attack("attacker", attacker_ip),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_packet::builder::PacketBuilder;
    use tse_packet::flowkey::FlowKey;

    const VICTIM_IP: u128 = 0x0a00_0063; // 10.0.0.99
    const ATTACKER_IP: u128 = 0x0a00_00c8; // 10.0.0.200

    #[test]
    fn merged_table_has_one_rule_per_clause_plus_deny() {
        let schema = FieldSchema::ovs_ipv4();
        let table = victim_and_attacker_table(&schema, VICTIM_IP, ATTACKER_IP);
        // victim: 1 clause, attacker: 3 clauses, + DefaultDeny.
        assert_eq!(table.len(), 5);
    }

    #[test]
    fn victim_traffic_allowed_attack_traffic_denied() {
        let schema = FieldSchema::ovs_ipv4();
        let table = victim_and_attacker_table(&schema, VICTIM_IP, ATTACKER_IP);
        // Victim client -> victim web service on port 80: allowed.
        let ok = FlowKey::from_packet(
            &PacketBuilder::tcp_v4([192, 168, 1, 4], [10, 0, 0, 99], 40000, 80).build(),
        )
        .checked_key(&schema)
        .unwrap();
        assert_eq!(table.lookup(&ok).unwrap().action, Action::Allow);
        // Random traffic to the victim on another port: denied.
        let bad = FlowKey::from_packet(
            &PacketBuilder::tcp_v4([192, 168, 1, 4], [10, 0, 0, 99], 40000, 8080).build(),
        )
        .checked_key(&schema)
        .unwrap();
        assert_eq!(table.lookup(&bad).unwrap().action, Action::Deny);
        // Attacker's own service, matching its src-port clause: allowed.
        let atk_ok = FlowKey::from_packet(
            &PacketBuilder::tcp_v4([172, 16, 0, 1], [10, 0, 0, 200], 12345, 9999).build(),
        )
        .checked_key(&schema)
        .unwrap();
        assert_eq!(table.lookup(&atk_ok).unwrap().action, Action::Allow);
    }

    #[test]
    fn tenants_are_isolated_by_destination() {
        let schema = FieldSchema::ovs_ipv4();
        let victim = TenantAcl::web_service("victim", VICTIM_IP);
        let attacker = TenantAcl::full_blown_attack("attacker", ATTACKER_IP);
        let header = FlowKey::from_packet(
            &PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 99], 12345, 443).build(),
        )
        .checked_key(&schema)
        .unwrap();
        let ip_dst = schema.field_index("ip_dst").unwrap();
        assert_eq!(header.get(ip_dst), victim.service_ip);
        assert_ne!(header.get(ip_dst), attacker.service_ip);
        // Traffic matching the *attacker's* allow clauses but destined to the victim is
        // still denied: the src-ip clause only applies to the attacker's service.
        let table = merge_tenant_acls(&schema, &[victim, attacker]);
        assert_eq!(table.lookup(&header).unwrap().action, Action::Deny);
    }

    #[test]
    fn openstack_restriction_shapes() {
        // §7: OpenStack/Kubernetes allow filtering only on src IP and dst port.
        let acl = TenantAcl::new(
            "openstack-tenant",
            VICTIM_IP,
            vec![
                AllowClause {
                    field: AclField::DstPort,
                    value: 80,
                },
                AllowClause {
                    field: AclField::SrcIp,
                    value: 0x0a000001,
                },
            ],
        );
        assert_eq!(acl.len(), 2);
        assert!(!acl.is_empty());
        let schema = FieldSchema::ovs_ipv4();
        let table = merge_tenant_acls(&schema, &[acl]);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn empty_acl_denies_everything_to_the_service() {
        let schema = FieldSchema::ovs_ipv4();
        let acl = TenantAcl::new("locked-down", VICTIM_IP, vec![]);
        assert!(acl.is_empty());
        let table = merge_tenant_acls(&schema, &[acl]);
        let header = FlowKey::from_packet(
            &PacketBuilder::tcp_v4([1, 2, 3, 4], [10, 0, 0, 99], 1, 80).build(),
        )
        .checked_key(&schema)
        .unwrap();
        assert_eq!(table.lookup(&header).unwrap().action, Action::Deny);
    }

    #[test]
    fn ipv6_schema_supported() {
        let schema = FieldSchema::ovs_ipv6();
        let acl = TenantAcl::web_service("v6-victim", 0xfd00_0000_0000_0000_0000_0000_0000_0001);
        let table = merge_tenant_acls(&schema, &[acl]);
        assert_eq!(table.len(), 2);
    }
}
