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
//!
//! The steering function is a value, [`RssHasher`], compiled once per (re)key and held
//! by both sides. Its kernel is exact, not approximate: a field value enters the hash as
//! its 16 little-endian bytes, and an FNV-1a step over a zero byte is `h ^ 0` then
//! `h · P`, so the `k` zero bytes a value ends in (its leading zeros, read
//! little-endian) take the state from `h` to `h · P^k` — one multiply by a constant from
//! a 17-entry table instead of `k` dependent ones. An IPv4 5-tuple has 13 significant
//! bytes out of 80, so the kernel runs 18 multiplies, not 80, and every placement is
//! bit-identical to plain byte-at-a-time FNV-1a (the test module keeps that form as the
//! oracle).

use crate::fields::{FieldSchema, Key, MAX_FIELDS};

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

/// The default (unrandomised) hash key: an [`RssHasher`] under this key is plain FNV-1a
/// over the field values, so everything built before key rotation existed keeps hashing
/// identically.
pub const DEFAULT_HASH_KEY: u64 = 0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POW[k]` is `FNV_PRIME^k` (wrapping): what `k` FNV-1a steps over zero bytes
/// multiply the state by.
const PRIME_POW: [u64; 17] = {
    let mut pow = [1u64; 17];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// One FNV-1a step.
#[inline(always)]
fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over the 16 little-endian bytes of `v`, skipping the multiplies its leading
/// zero bytes would cost (see the module doc). The count of significant bytes comes from
/// the value, never from a schema width: `Key::set` does not mask, so a field may hold
/// more than its width.
#[inline(always)]
fn fnv_value(mut h: u64, v: u128) -> u64 {
    let significant = 16 - (v.leading_zeros() / 8) as usize;
    let mut rest = v;
    for _ in 0..significant {
        h = fnv_step(h, rest as u8);
        rest >>= 8;
    }
    h.wrapping_mul(PRIME_POW[16 - significant])
}

/// The steering function as a value compiled once per (re)key: keyed FNV-1a over the
/// values of a fixed field list, reduced to a shard index — the model of the NIC's RSS
/// hash under its (Toeplitz) *key*, the secret an operator can rotate so an attacker who
/// solved the placement function yesterday can no longer aim at a chosen queue today.
///
/// Deterministic: the same key, field list, hash key and shard count always steer
/// identically, across calls and across processes.
///
/// `hash_key == `[`DEFAULT_HASH_KEY`] contributes nothing, so the unkeyed hash is the
/// `0` point of the keyed family; any other key permutes placements pseudo-randomly
/// while remaining a stable, total partition of the flow space.
///
/// Under any non-default key, the hash key's 8 bytes are folded into the FNV state
/// before any field value (once, at construction) and the accumulator is additionally
/// passed through a xorshift-multiply finalizer. This matters for the rotation defense:
/// raw FNV-1a taken modulo a power-of-two shard count is *affine over the low bits*
/// (each byte step is XOR-then-multiply-by-an-odd-prime, and multiplication mod 2^k is
/// linear over GF(2)^k for k ≤ 2), so a key prefix alone would shift **every** flow's
/// placement by the same XOR constant — victim and shard-pinned attacker would move
/// *together* and the "rotation" would be cosmetic. The finalizer folds the high bits
/// into the low ones, making each flow's displacement under a new key independent.
/// The default key skips both the prefix and the finalizer, so unkeyed placements are
/// bit-identical to plain FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssHasher {
    /// The hashed field indices, in hash order (the first `n_fields` slots).
    fields: [u8; MAX_FIELDS],
    n_fields: u8,
    /// The FNV state every key starts from: the offset basis, already folded over the
    /// hash key's 8 bytes when the hasher is keyed.
    seed: u64,
    /// Whether the finalizer runs (any non-default hash key).
    keyed: bool,
    n_shards: u64,
    /// `n_shards − 1` when the shard count is a power of two (`h & mask ≡ h % n`).
    pow2_mask: Option<u64>,
}

impl RssHasher {
    /// Compile the steering function over `fields` (indices into the keys it will hash,
    /// in hash order) for `n_shards` shards under `hash_key`.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero, or if `fields` names more than [`MAX_FIELDS`]
    /// fields or an index no key can have.
    pub fn new(fields: &[usize], n_shards: usize, hash_key: u64) -> Self {
        assert!(n_shards > 0, "shard count must be positive");
        assert!(
            fields.len() <= MAX_FIELDS && fields.iter().all(|&f| f < MAX_FIELDS),
            "hashed fields {fields:?} exceed the {MAX_FIELDS}-field key"
        );
        let mut inline = [0u8; MAX_FIELDS];
        for (slot, &f) in inline.iter_mut().zip(fields) {
            *slot = f as u8;
        }
        let keyed = hash_key != DEFAULT_HASH_KEY;
        let seed = if keyed {
            hash_key
                .to_le_bytes()
                .into_iter()
                .fold(FNV_OFFSET, fnv_step)
        } else {
            FNV_OFFSET
        };
        let n_shards = n_shards as u64;
        RssHasher {
            fields: inline,
            n_fields: fields.len() as u8,
            seed,
            keyed,
            n_shards,
            pow2_mask: n_shards.is_power_of_two().then(|| n_shards - 1),
        }
    }

    /// The 64-bit steering hash of `key`.
    #[inline]
    fn hash(&self, key: &Key) -> u64 {
        let values = key.values();
        let mut h = self.seed;
        for &f in &self.fields[..usize::from(self.n_fields)] {
            h = fnv_value(h, values[usize::from(f)]);
        }
        if self.keyed {
            // See the type's doc comment for why the finalizer is load-bearing.
            h = splitmix64_mix(h);
        }
        h
    }

    /// The shard (RX queue / PMD thread) `key` is steered to.
    ///
    /// # Panics
    /// Panics if `key` has fewer fields than the hasher was compiled over.
    #[inline]
    pub fn shard_of(&self, key: &Key) -> usize {
        let h = self.hash(key);
        let shard = match self.pow2_mask {
            Some(mask) => h & mask,
            None => h % self.n_shards,
        };
        shard as usize
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::FieldSchema;
    use proptest::prelude::*;

    /// The oracle: byte-at-a-time keyed FNV-1a over all 16 little-endian bytes of every
    /// hashed field — the form the compiled kernel replaced, kept to pin it.
    fn reference_hash(key: &Key, fields: &[usize], hash_key: u64) -> u64 {
        let mut h = FNV_OFFSET;
        let keyed = hash_key != DEFAULT_HASH_KEY;
        if keyed {
            for byte in hash_key.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        for &f in fields {
            for byte in key.get(f).to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        if keyed {
            h = splitmix64_mix(h);
        }
        h
    }

    fn unkeyed(fields: &[usize], n_shards: usize) -> RssHasher {
        RssHasher::new(fields, n_shards, DEFAULT_HASH_KEY)
    }

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
        let hasher = unkeyed(&fields, 4);
        assert_eq!(hasher.hash(&a), hasher.hash(&b));
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
            let hasher = unkeyed(&fields, n);
            for v in 0..64u128 {
                let mut k = schema.zero_value();
                k.set(0, v * 0x0101);
                k.set(5, v);
                let s = hasher.shard_of(&k);
                assert!(s < n);
                assert_eq!(s, hasher.shard_of(&k), "stable across calls");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_are_rejected_at_construction() {
        let _ = unkeyed(&[0], 0);
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
        let hasher = unkeyed(&fields, 4);
        for v in 0..32u128 {
            let mut k = schema.zero_value();
            k.set(0, v * 0x1_0001);
            k.set(4, v);
            assert_eq!(fnv1a(&k), hasher.hash(&k));
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
        let old = unkeyed(&fields, 4);
        let new = RssHasher::new(&fields, 4, 0x5eed_cafe_f00d_beef);
        let mut moved = 0;
        for k in &keys {
            let before = old.shard_of(k);
            let after = new.shard_of(k);
            assert!(after < 4);
            // Stable under the new key across calls.
            assert_eq!(after, new.shard_of(k));
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
        let hasher = unkeyed(&fields, 4);
        let mut seen = [0usize; 4];
        for p in 0..256u128 {
            let mut k = schema.zero_value();
            k.set(tp_dst, p);
            seen[hasher.shard_of(&k)] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 16, "shard {i} starved: {seen:?}");
        }
    }

    #[test]
    fn prime_powers_are_repeated_zero_byte_steps() {
        for (k, &pow) in PRIME_POW.iter().enumerate() {
            let stepped = (0..k).fold(0x1234_5678_9abc_def1u64, |h, _| fnv_step(h, 0));
            assert_eq!(
                stepped,
                0x1234_5678_9abc_def1u64.wrapping_mul(pow),
                "k = {k}"
            );
        }
    }

    /// Values recorded from the byte-at-a-time implementation before the kernel was
    /// compiled: the kernel and the oracle above cannot drift together past these.
    #[test]
    fn golden_hashes_are_pinned() {
        let v4 = FieldSchema::ovs_ipv4();
        let v6 = FieldSchema::ovs_ipv6();
        let hyp = FieldSchema::hyp();
        let tcp = Key::from_values(&v4, &[0x0a00_0001, 0x0a00_00c8, 6, 64, 34521, 80]);
        let udp6 = Key::from_values(
            &v6,
            &[(0xfd00 << 112) | 1, (0xfd00 << 112) | 2, 17, 64, 53, 4444],
        );
        // Out of width on purpose: `Key::set` stores what it is given.
        let mut wide = v4.zero_value();
        wide.set(5, u128::MAX);
        let cases: [(&FieldSchema, &Key, u64, u64); 6] = [
            (&v4, &tcp, DEFAULT_HASH_KEY, 0x6722_6ed1_1d3e_b995),
            (&v4, &tcp, 0x5eed_cafe_f00d_beef, 0xbe96_4d4f_97a2_b750),
            (&v6, &udp6, DEFAULT_HASH_KEY, 0xa646_8ea2_9ee1_b395),
            (&v6, &udp6, 0xdead_beef_0bad_cafe, 0xea97_14a6_9dc8_6af7),
            (
                &hyp,
                &Key::from_values(&hyp, &[5]),
                DEFAULT_HASH_KEY,
                0xfd29_b2d1_0195_eb20,
            ),
            (&v4, &wide, 1, 0x7b58_c4e6_a128_482f),
        ];
        for (i, (schema, key, hash_key, want)) in cases.into_iter().enumerate() {
            let fields = rss_fields(schema);
            let got = RssHasher::new(&fields, 4, hash_key).hash(key);
            assert_eq!(got, want, "case {i}: kernel");
            assert_eq!(
                reference_hash(key, &fields, hash_key),
                want,
                "case {i}: oracle"
            );
        }
    }

    /// One drawn field value: zero, all-ones, a single high byte, a value inside the
    /// field's width, or raw bits out of width (written with `Key::set`, which does not
    /// mask).
    fn shaped(kind: u8, raw: u128, width: u32) -> u128 {
        match kind % 5 {
            0 => 0,
            1 => u128::MAX,
            2 => (raw & 0xff).max(1) << 120,
            3 => raw >> (128 - width),
            _ => raw,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The compiled kernel is the byte-wise reference, bit for bit: every schema,
        /// any subset (and order) of hashed fields, every value shape, keyed and not;
        /// and `shard_of` is `reference % n` for every shard count, before and after a
        /// rekey.
        #[test]
        fn compiled_hasher_matches_the_bytewise_reference(
            pick in (0u8..3, 0u8..2, 0u64..=u64::MAX),
            subset in proptest::collection::vec(0usize..MAX_FIELDS, 0..MAX_FIELDS + 1),
            values in proptest::collection::vec(
                (0u8..5, 0u64..=u64::MAX, 0u64..=u64::MAX),
                MAX_FIELDS..MAX_FIELDS + 1,
            ),
        ) {
            let (which, keyed, raw_hash_key) = pick;
            let schema = match which {
                0 => FieldSchema::hyp(),
                1 => FieldSchema::ovs_ipv4(),
                _ => FieldSchema::ovs_ipv6(),
            };
            let mut key = schema.zero_value();
            for (f, &(kind, hi, lo)) in values.iter().enumerate().take(schema.field_count()) {
                let raw = u128::from(hi) << 64 | u128::from(lo);
                key.set(f, shaped(kind, raw, schema.width(f)));
            }
            let fields: Vec<usize> = subset.iter().map(|f| f % schema.field_count()).collect();
            let rotated = if keyed == 1 { raw_hash_key | 1 } else { DEFAULT_HASH_KEY };
            for hash_key in [DEFAULT_HASH_KEY, rotated] {
                let want = reference_hash(&key, &fields, hash_key);
                prop_assert_eq!(RssHasher::new(&fields, 1, hash_key).hash(&key), want);
                for n in 1..=17usize {
                    let hasher = RssHasher::new(&fields, n, hash_key);
                    prop_assert_eq!(hasher.shard_of(&key), (want % n as u64) as usize);
                }
            }
        }
    }
}
