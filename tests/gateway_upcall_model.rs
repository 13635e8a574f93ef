//! The slow path on the table it was never sized for: `TenantFleet`'s 1000-tenant merged
//! ACL (1001 rules), with the first scheduled attacker ACL installed mid-sequence. Every
//! `handle_upcall` must install exactly the `(key, mask, action)` the per-bit reference
//! construction generates against the same cache.

use tse::classifier::strategy::GenerationError;
use tse::prelude::*;
use tse::switch::slowpath::SlowPath;

#[path = "../crates/classifier/tests/per_bit_reference/mod.rs"]
mod per_bit_reference;
use per_bit_reference::reference_generate;

#[test]
fn gateway_upcalls_install_the_reference_megaflows() {
    let schema = FieldSchema::ovs_ipv4();
    let fleet = TenantFleet::new(&schema, FleetConfig::default());
    let field = |name| schema.field_index(name).unwrap();
    let (ip_src, ip_dst) = (field("ip_src"), field("ip_dst"));
    let (tp_src, tp_dst) = (field("tp_src"), field("tp_dst"));

    // Allowed and denied traffic to tenants spread over the priority order, then the
    // first attacker's bit-inversion keys against its own service.
    let attacker = fleet.config().tenants - fleet.config().attackers;
    let mut headers = Vec::new();
    for i in (0..fleet.config().tenants).step_by(37) {
        for port in [80, 443, 8080 + i as u128] {
            let mut h = schema.zero_value();
            h.set(ip_src, fleet.client_ip(i) as u128);
            h.set(ip_dst, fleet.service_ip(i) as u128);
            h.set(tp_src, 40_000 + 7 * i as u128);
            h.set(tp_dst, port);
            headers.push(h);
        }
    }
    let mut base = schema.zero_value();
    base.set(ip_src, fleet.client_ip(attacker) as u128);
    base.set(ip_dst, fleet.service_ip(attacker) as u128);
    headers.extend(bit_inversion_keys(&schema, &[(tp_dst, 80), (tp_src, 12345)], &base).take(120));

    let strategy = MegaflowStrategy::wildcarding(&schema);
    let mut slow_path = SlowPath::new(strategy.clone());
    let mut table = fleet.table();
    let mut cache = TupleSpace::new(schema.clone());
    let (mut installs, mut live) = (0, 0);
    for (n, h) in headers.iter().enumerate() {
        if n == headers.len() / 2 {
            // The CMS arms the first attacker; OVS revalidates by flushing the cache.
            table = fleet.table_updates().remove(0).1;
            cache.clear();
            live = 0;
        }
        let want = reference_generate(&table, &cache, h, &strategy);
        let out = slow_path
            .handle_upcall(&table, &mut cache, h, n as f64)
            .unwrap();
        match want {
            Ok(want) => {
                assert!(out.installed, "header {n}");
                assert_eq!((out.action, out.rule_index), (want.action, want.rule_index));
                let e = cache.peek(h).unwrap();
                assert_eq!(
                    (&e.key, &e.mask, e.action, e.installed_at),
                    (&want.key, &want.mask, want.action, n as f64),
                    "header {n}"
                );
                installs += 1;
                live += 1;
            }
            Err(e) => {
                let covered = table.lookup(h).unwrap();
                assert_eq!(e, GenerationError::AlreadyCovered(covered));
                assert_eq!(
                    (out.installed, out.action, out.rule_index),
                    (false, covered.action, covered.rule_index)
                );
            }
        }
        assert_eq!(cache.entry_count(), live, "exactly one entry per install");
    }
    assert!(installs > 100, "only {installs} installs exercised");
    assert!(cache.check_independence());
}
