//! The General TSE trace generator (§6): no co-location, no knowledge of the ACL.
//!
//! The attacker simply randomises the header fields an ingress ACL *could* match on
//! (source IP, source port, destination port) and relies on the fact that random headers
//! still spark megaflow entries with probability given by Eq. 1. The only structure in
//! the trace is which fields are randomised; the values, order and timing are arbitrary
//! — which is exactly why the paper argues the attack has no signature.

use rand::Rng;

use tse_packet::fields::{FieldSchema, Key};

use crate::scenarios::Scenario;

/// The General TSE's header stream: an infinite iterator of random attack headers, one
/// draw per pull — the targeted fields uniformly random, every other field copied from
/// `base`. Feed it to an [`AttackGenerator`](crate::source::AttackGenerator), or
/// `.take(n).collect()` it where a fixed set of `n` headers is wanted.
#[derive(Debug, Clone)]
pub struct RandomKeys<R> {
    widths: Vec<(usize, u32)>,
    base: Key,
    rng: R,
}

impl<R: Rng> RandomKeys<R> {
    /// Random headers for a scenario's targeted fields; untargeted fields keep `base`.
    pub fn new(rng: R, schema: &FieldSchema, scenario: Scenario, base: &Key) -> Self {
        let fields: Vec<usize> = scenario.allows(schema).iter().map(|&(f, _)| f).collect();
        Self::on_fields(rng, schema, &fields, base)
    }

    /// Random headers over an explicit field set.
    pub fn on_fields(rng: R, schema: &FieldSchema, fields: &[usize], base: &Key) -> Self {
        RandomKeys {
            widths: fields.iter().map(|&f| (f, schema.width(f))).collect(),
            base: base.clone(),
            rng,
        }
    }
}

impl<R: Rng> Iterator for RandomKeys<R> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        let mut key = self.base.clone();
        for &(f, width) in &self.widths {
            key.set(f, random_field_value(&mut self.rng, width));
        }
        Some(key)
    }
}

/// Draw a uniform random value of the given bit width.
pub fn random_field_value<R: Rng + ?Sized>(rng: &mut R, width: u32) -> u128 {
    let raw: u128 = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
    if width == 128 {
        raw
    } else {
        raw & ((1u128 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys(seed: u64, scenario: Scenario, base: &Key, n: usize) -> Vec<Key> {
        let schema = FieldSchema::ovs_ipv4();
        RandomKeys::new(StdRng::seed_from_u64(seed), &schema, scenario, base)
            .take(n)
            .collect()
    }

    #[test]
    fn randomises_only_targeted_fields() {
        let schema = FieldSchema::ovs_ipv4();
        let ip_dst = schema.field_index("ip_dst").unwrap();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let ip_src = schema.field_index("ip_src").unwrap();
        let mut base = schema.zero_value();
        base.set(ip_dst, 0xdead_beef);
        let trace = keys(7, Scenario::Dp, &base, 200);
        // Destination IP untouched, source IP untouched (Dp only randomises tp_dst).
        assert!(trace.iter().all(|k| k.get(ip_dst) == 0xdead_beef));
        assert!(trace.iter().all(|k| k.get(ip_src) == 0));
        // Destination port actually varies.
        let distinct: std::collections::HashSet<u128> =
            trace.iter().map(|k| k.get(tp_dst)).collect();
        assert!(
            distinct.len() > 100,
            "random ports should mostly be distinct"
        );
    }

    #[test]
    fn values_respect_field_width() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(random_field_value(&mut rng, 16) < (1 << 16));
            assert!(random_field_value(&mut rng, 3) < 8);
        }
        // Width-128 values exercise the full range without panicking.
        let _ = random_field_value(&mut rng, 128);
    }

    #[test]
    fn deterministic_with_seed() {
        let base = FieldSchema::ovs_ipv4().zero_value();
        let a = keys(3, Scenario::SipSpDp, &base, 50);
        assert_eq!(a, keys(3, Scenario::SipSpDp, &base, 50));
        assert_ne!(a, keys(4, Scenario::SipSpDp, &base, 50));
    }

    #[test]
    fn sipspdp_randomises_three_fields() {
        let schema = FieldSchema::ovs_ipv4();
        let trace = keys(11, Scenario::SipSpDp, &schema.zero_value(), 64);
        let ip_src = schema.field_index("ip_src").unwrap();
        let tp_src = schema.field_index("tp_src").unwrap();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        for f in [ip_src, tp_src, tp_dst] {
            let distinct: std::collections::HashSet<u128> =
                trace.iter().map(|k| k.get(f)).collect();
            assert!(distinct.len() > 10, "field {f} should vary");
        }
    }
}
