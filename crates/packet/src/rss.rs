//! Receive-Side Scaling (RSS) hashing: the NIC-side primitive that decides which PMD
//! thread — and therefore which *private* megaflow cache — a packet lands on.
//!
//! In the paper's OVS-DPDK testbed every PMD thread polls its own RX queue and owns its
//! own megaflow cache; the NIC spreads flows across queues by hashing the 5-tuple.
//! Both sides of the reproduction need the exact same hash: the sharded datapath
//! (`tse-switch`) to steer packets, and the attack generators (`tse-attack`) to craft
//! keys that *land on a chosen shard* (the shard-pinned explosion) or that spray all
//! shards evenly. Keeping the function here, below both crates, keeps them in
//! agreement by construction.
//!
//! The hash is FNV-1a over the selected field values — deterministic across processes
//! (no per-process `RandomState`), cheap, and well-spread for the low shard counts
//! (2–16 PMDs) the experiments model. Real NICs use Toeplitz; any fixed hash of the
//! same tuple reproduces the behaviour that matters here: a *stable, total* partition
//! of the flow space that an attacker who knows the hash can aim.

use crate::fields::{FieldSchema, Key};

/// The canonical 5-tuple field names RSS hashes over, in schema order.
const RSS_FIELD_NAMES: [&str; 5] = ["ip_src", "ip_dst", "ip_proto", "tp_src", "tp_dst"];
/// IPv6 variants of the address fields.
const RSS_FIELD_NAMES_V6: [&str; 2] = ["ip6_src", "ip6_dst"];

/// The indices of the fields RSS hashes for `schema`: the 5-tuple (addresses, protocol,
/// ports) for the OVS IPv4/IPv6 schemas — noise fields such as TTL are *not* part of
/// the hash, exactly like hardware RSS — or every field for schemas without 5-tuple
/// names (the HYP teaching protocols), so steering is still a total partition there.
pub fn rss_fields(schema: &FieldSchema) -> Vec<usize> {
    let mut out: Vec<usize> = RSS_FIELD_NAMES
        .iter()
        .chain(RSS_FIELD_NAMES_V6.iter())
        .filter_map(|name| schema.field_index(name))
        .collect();
    if out.is_empty() {
        out = (0..schema.field_count()).collect();
    }
    out.sort_unstable();
    out
}

/// The default (unrandomised) hash key: [`rss_hash_keyed`] under this key is plain
/// FNV-1a over the field values, so everything built before key rotation existed keeps
/// hashing identically.
pub const DEFAULT_HASH_KEY: u64 = 0;

/// Keyed FNV-1a over the values of `fields` (indices into `key`), in the given order,
/// with the `hash_key` folded into the hash state before any field value — the model of
/// the NIC's (Toeplitz) RSS *key*, the secret an operator can rotate so an attacker who
/// solved the placement function yesterday can no longer aim at a chosen queue today.
///
/// Deterministic: the same key, field list and hash key always hash identically, across
/// calls and across processes.
///
/// `hash_key == `[`DEFAULT_HASH_KEY`] contributes nothing, so the unkeyed hash is the
/// `0` point of the keyed family; any other key permutes placements pseudo-randomly
/// while remaining a stable, total partition of the flow space.
///
/// Under any non-default key, the FNV accumulator is additionally passed through a
/// xorshift-multiply finalizer. This matters for the rotation defense: raw FNV-1a
/// taken modulo a power-of-two shard count is *affine over the low bits* (each byte
/// step is XOR-then-multiply-by-an-odd-prime, and multiplication mod 2^k is linear
/// over GF(2)^k for k ≤ 2), so a key prefix alone would shift **every** flow's
/// placement by the same XOR constant — victim and shard-pinned attacker would move
/// *together* and the "rotation" would be cosmetic. The finalizer folds the high bits
/// into the low ones, making each flow's displacement under a new key independent.
/// The default key skips both the prefix and the finalizer, so unkeyed placements are
/// bit-identical to plain FNV-1a.
pub fn rss_hash_keyed(key: &Key, fields: &[usize], hash_key: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let keyed = hash_key != DEFAULT_HASH_KEY;
    if keyed {
        for byte in hash_key.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    for &f in fields {
        let v = key.get(f);
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    if keyed {
        // See the doc comment for why the finalizer is load-bearing.
        h = splitmix64_mix(h);
    }
    h
}

/// The SplitMix64 output-mixing function: a bijective xorshift-multiply avalanche over
/// all 64 bits. Used as the keyed-hash finalizer above (so placement mod a small shard
/// count depends on the whole state, not just the affine low bits of raw FNV) and as
/// the step function of deterministic key-rotation schedules.
pub fn splitmix64_mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shard (RX queue / PMD thread) a key is steered to among `n_shards`, under the
/// default hash key.
///
/// # Panics
/// Panics if `n_shards` is zero.
pub fn shard_of(key: &Key, fields: &[usize], n_shards: usize) -> usize {
    shard_of_keyed(key, fields, n_shards, DEFAULT_HASH_KEY)
}

/// The shard a key is steered to among `n_shards` under an explicit `hash_key` (see
/// [`rss_hash_keyed`]).
///
/// # Panics
/// Panics if `n_shards` is zero.
pub fn shard_of_keyed(key: &Key, fields: &[usize], n_shards: usize, hash_key: u64) -> usize {
    assert!(n_shards > 0, "shard count must be positive");
    (rss_hash_keyed(key, fields, hash_key) % n_shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::FieldSchema;

    #[test]
    fn ipv4_schema_hashes_the_5_tuple_only() {
        let schema = FieldSchema::ovs_ipv4();
        let fields = rss_fields(&schema);
        assert_eq!(fields.len(), 5);
        assert!(!fields.contains(&schema.field_index("ttl").unwrap()));
        // TTL (noise) must not influence steering.
        let mut a = schema.zero_value();
        a.set(schema.field_index("tp_dst").unwrap(), 80);
        let mut b = a.clone();
        b.set(schema.field_index("ttl").unwrap(), 97);
        assert_eq!(
            rss_hash_keyed(&a, &fields, DEFAULT_HASH_KEY),
            rss_hash_keyed(&b, &fields, DEFAULT_HASH_KEY)
        );
    }

    #[test]
    fn hyp_schema_falls_back_to_all_fields() {
        let schema = FieldSchema::hyp();
        assert_eq!(rss_fields(&schema), vec![0]);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let schema = FieldSchema::ovs_ipv4();
        let fields = rss_fields(&schema);
        for n in 1..=8usize {
            for v in 0..64u128 {
                let mut k = schema.zero_value();
                k.set(0, v * 0x0101);
                k.set(5, v);
                let s = shard_of(&k, &fields, n);
                assert!(s < n);
                assert_eq!(s, shard_of(&k, &fields, n), "stable across calls");
            }
        }
    }

    #[test]
    fn default_hash_key_is_the_unkeyed_hash() {
        let schema = FieldSchema::ovs_ipv4();
        let fields = rss_fields(&schema);
        // Plain FNV-1a, written out: no key prefix, no finalizer.
        let fnv1a = |k: &Key| {
            let bytes = fields.iter().flat_map(|&f| k.get(f).to_le_bytes());
            bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        for v in 0..32u128 {
            let mut k = schema.zero_value();
            k.set(0, v * 0x1_0001);
            k.set(4, v);
            assert_eq!(fnv1a(&k), rss_hash_keyed(&k, &fields, DEFAULT_HASH_KEY));
        }
    }

    #[test]
    fn rotated_hash_key_permutes_placements_but_stays_a_partition() {
        let schema = FieldSchema::ovs_ipv4();
        let fields = rss_fields(&schema);
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let keys: Vec<Key> = (0..256u128)
            .map(|p| {
                let mut k = schema.zero_value();
                k.set(tp_dst, p);
                k
            })
            .collect();
        let mut moved = 0;
        for k in &keys {
            let before = shard_of_keyed(k, &fields, 4, DEFAULT_HASH_KEY);
            let after = shard_of_keyed(k, &fields, 4, 0x5eed_cafe_f00d_beef);
            assert!(after < 4);
            // Stable under the new key across calls.
            assert_eq!(after, shard_of_keyed(k, &fields, 4, 0x5eed_cafe_f00d_beef));
            if before != after {
                moved += 1;
            }
        }
        // A rotation must actually move a large fraction of the flow space
        // (~3/4 in expectation for 4 shards).
        assert!(moved > 128, "rotation moved only {moved}/256 keys");
    }

    #[test]
    fn hash_spreads_distinct_ports_across_shards() {
        // Sanity: 256 distinct destination ports should not all collapse onto one of
        // 4 shards (an attacker must *work* to pin a shard).
        let schema = FieldSchema::ovs_ipv4();
        let fields = rss_fields(&schema);
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let mut seen = [0usize; 4];
        for p in 0..256u128 {
            let mut k = schema.zero_value();
            k.set(tp_dst, p);
            seen[shard_of(&k, &fields, 4)] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 16, "shard {i} starved: {seen:?}");
        }
    }
}
