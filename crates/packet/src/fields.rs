//! Generic header-field abstraction: schemas, keys and masks.
//!
//! The paper formalises a packet classifier as operating on `n` header fields of bit
//! widths `w_1, ..., w_n` (§4). The megaflow cache stores *key/mask pairs* `C = (K, M)`
//! where the mask selects header bits and the key gives their required values.
//!
//! Everything in the classifier crate is expressed against this module so that the same
//! code handles the paper's 3-bit hypothetical "HYP" protocol (Figs. 1–5), the canonical
//! OVS IPv4 flow key, and IPv6 keys with 128-bit fields.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The most fields a [`FieldSchema`] may have, and so the inline capacity of every
/// [`FieldVec`]. A constant sized to the shipped schemas (both OVS flow keys have six
/// fields), not an option: keys and masks live inline in every entry, event and rule, so
/// raising it grows all of them.
pub const MAX_FIELDS: usize = 6;

/// Definition of a single header field: a human-readable name and a bit width (≤ 128).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldDef {
    /// Field name (e.g. `"ip_src"`, `"tcp_dst"`, `"hyp"`).
    pub name: &'static str,
    /// Field width in bits; must be between 1 and 128.
    pub width: u32,
}

impl FieldDef {
    /// Create a new field definition.
    ///
    /// # Panics
    /// Panics if `width` is zero or greater than 128.
    pub const fn new(name: &'static str, width: u32) -> Self {
        assert!(width >= 1 && width <= 128, "field width must be in 1..=128");
        FieldDef { name, width }
    }

    /// All-ones mask value for this field.
    #[inline]
    pub fn full_mask(&self) -> u128 {
        if self.width == 128 {
            u128::MAX
        } else {
            (1u128 << self.width) - 1
        }
    }
}

/// An ordered collection of header fields a classifier matches on.
///
/// Field order matters: it defines rule priority semantics in the paper's examples
/// (the first allow rule matches on the first field, etc.) and the layout of
/// [`FieldVec`] values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldSchema {
    fields: Vec<FieldDef>,
    /// `Some(is_v6)` when the fields are the six-field OVS flow key of that IP family
    /// (the layout `FlowKey::to_key` writes), `None` for every other schema. Resolved
    /// from the field names once, here, so no per-packet path compares strings.
    ip_family: Option<bool>,
}

impl FieldSchema {
    /// Build a schema from an explicit field list.
    ///
    /// # Panics
    /// Panics if the list is empty or holds more than [`MAX_FIELDS`] fields.
    pub fn new(fields: Vec<FieldDef>) -> Self {
        assert!(!fields.is_empty(), "schema must have at least one field");
        assert!(
            fields.len() <= MAX_FIELDS,
            "schema must have at most {MAX_FIELDS} fields"
        );
        let ip_family = match (fields.len(), fields[0].name) {
            (6, "ip_src") => Some(false),
            (6, "ip6_src") => Some(true),
            _ => None,
        };
        FieldSchema { fields, ip_family }
    }

    /// The 3-bit single-field hypothetical protocol of §3.2 / Fig. 1.
    pub fn hyp() -> Self {
        Self::new(vec![FieldDef::new("hyp", 3)])
    }

    /// The two-field HYP (3 bits) + HYP2 (4 bits) protocol of §4.2 / Fig. 4.
    pub fn hyp2() -> Self {
        Self::new(vec![FieldDef::new("hyp", 3), FieldDef::new("hyp2", 4)])
    }

    /// The canonical OVS-style IPv4 flow key used throughout §5:
    /// `ip_src/32, ip_dst/32, ip_proto/8, ttl/8, tp_src/16, tp_dst/16`.
    pub fn ovs_ipv4() -> Self {
        Self::new(vec![
            FieldDef::new("ip_src", 32),
            FieldDef::new("ip_dst", 32),
            FieldDef::new("ip_proto", 8),
            FieldDef::new("ttl", 8),
            FieldDef::new("tp_src", 16),
            FieldDef::new("tp_dst", 16),
        ])
    }

    /// IPv6 variant of the OVS flow key (128-bit addresses), used for the §5.4 IPv6
    /// entry-explosion anomaly experiment.
    pub fn ovs_ipv6() -> Self {
        Self::new(vec![
            FieldDef::new("ip6_src", 128),
            FieldDef::new("ip6_dst", 128),
            FieldDef::new("ip_proto", 8),
            FieldDef::new("ttl", 8),
            FieldDef::new("tp_src", 16),
            FieldDef::new("tp_dst", 16),
        ])
    }

    /// Can a key of this schema express packets of the IPv6 (`is_v6`) or IPv4
    /// (`!is_v6`) family? True only for the OVS flow key of that family; a packet of a
    /// family the schema cannot express never reaches the ACL (§5.2 footnote). This is
    /// the one place the question is answered — `FlowKey::checked_key` asks it per
    /// packet and pays one compare.
    #[inline]
    pub fn expresses(&self, is_v6: bool) -> bool {
        self.ip_family == Some(is_v6)
    }

    /// Number of fields in the schema.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Field definitions in order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Bit width of field `idx`.
    pub fn width(&self, idx: usize) -> u32 {
        self.fields[idx].width
    }

    /// Sum of all field widths (the `w` in Theorem 4.1 when there is a single field).
    pub fn total_width(&self) -> u32 {
        self.fields.iter().map(|f| f.width).sum()
    }

    /// Index of the field with the given name, if any.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// An all-zero value vector for this schema.
    #[inline]
    pub fn zero_value(&self) -> FieldVec {
        FieldVec {
            values: [0; MAX_FIELDS],
            len: self.fields.len(),
        }
    }

    /// A fully wildcarded mask (no bits examined).
    pub fn empty_mask(&self) -> Mask {
        self.zero_value()
    }

    /// A fully exact mask (all bits of all fields examined).
    pub fn full_mask(&self) -> Mask {
        let mut mask = self.zero_value();
        for (m, f) in mask.values.iter_mut().zip(&self.fields) {
            *m = f.full_mask();
        }
        mask
    }
}

/// A per-field vector of bit values. Used both as a *key* (header values) and as a
/// *mask* (which bits are significant), matching the paper's `(K, M)` notation.
///
/// Storage is inline — [`MAX_FIELDS`] slots and a length, no heap — so a key is copied
/// with a `memcpy` and read without chasing a pointer. Equality, ordering and hashing
/// are those of the slice [`FieldVec::values`] returns. Deliberately not `Copy`: a
/// 112-byte copy should stay visible as a `.clone()`.
#[derive(Clone)]
pub struct FieldVec {
    /// The first `len` slots are the fields; the rest stay zero.
    values: [u128; MAX_FIELDS],
    len: usize,
}

/// A key: per-field header bit values. Alias of [`FieldVec`].
pub type Key = FieldVec;
/// A mask: per-field significant-bit bitmaps. Alias of [`FieldVec`].
pub type Mask = FieldVec;

impl FieldVec {
    /// Build from raw per-field values. Values are masked to the schema widths.
    #[inline]
    pub fn from_values(schema: &FieldSchema, values: &[u128]) -> Self {
        assert_eq!(
            values.len(),
            schema.field_count(),
            "value count must match schema field count"
        );
        let mut out = schema.zero_value();
        for ((o, v), f) in out.values.iter_mut().zip(values).zip(schema.fields()) {
            *o = v & f.full_mask();
        }
        out
    }

    /// Number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no fields (never the case for schema-derived vectors).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of field `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is not below [`FieldVec::len`].
    #[inline]
    pub fn get(&self, idx: usize) -> u128 {
        self.values()[idx]
    }

    /// Set the value of field `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is not below [`FieldVec::len`].
    #[inline]
    pub fn set(&mut self, idx: usize, value: u128) {
        self.values[..self.len][idx] = value;
    }

    /// Raw per-field values.
    #[inline]
    pub fn values(&self) -> &[u128] {
        &self.values[..self.len]
    }

    /// Bitwise AND with a mask, per field: `h AND M` in Alg. 1.
    #[inline]
    pub fn apply_mask(&self, mask: &Mask) -> FieldVec {
        debug_assert_eq!(self.len(), mask.len());
        let mut out = FieldVec {
            values: [0; MAX_FIELDS],
            len: self.len.min(mask.len),
        };
        for ((o, &v), &m) in out.values.iter_mut().zip(self.values()).zip(mask.values()) {
            *o = v & m;
        }
        out
    }

    /// Total number of set bits across all fields. For a mask this is the number of
    /// examined (non-wildcarded) bits.
    pub fn popcount(&self) -> u32 {
        self.values().iter().map(|v| v.count_ones()).sum()
    }

    /// Number of wildcarded (unexamined) bits of a mask under `schema`.
    pub fn wildcarded_bits(&self, schema: &FieldSchema) -> u32 {
        schema.total_width() - self.popcount()
    }

    /// Render as a binary string per field (LSB right), padded to the schema widths —
    /// mirrors the presentation of Figs. 1–5.
    pub fn to_binary_string(&self, schema: &FieldSchema) -> String {
        self.values()
            .iter()
            .zip(schema.fields())
            .map(|(v, f)| format!("{v:0width$b}", width = f.width as usize))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl PartialEq for FieldVec {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for FieldVec {}

impl PartialOrd for FieldVec {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FieldVec {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for FieldVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for FieldVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FieldVec")
            .field("values", &self.values())
            .finish()
    }
}

impl fmt::Display for FieldVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}]",
            self.values()
                .iter()
                .map(|v| format!("{v:x}"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Check whether a header `h` matches a key/mask pair: `(h AND M) == K`.
#[inline]
pub fn matches(header: &Key, key: &Key, mask: &Mask) -> bool {
    debug_assert_eq!(header.len(), mask.len());
    header.len() == key.len()
        && header
            .values()
            .iter()
            .zip(mask.values())
            .zip(key.values())
            .all(|((h, m), k)| h & m == *k)
}

/// Check whether two key/mask pairs are *disjoint* (the Independence invariant Inv(2)
/// of §3.2): they are disjoint iff there exists a bit position examined by both masks
/// on which their keys differ. If no such bit exists, some packet matches both.
#[inline]
pub fn disjoint(key_a: &Key, mask_a: &Mask, key_b: &Key, mask_b: &Mask) -> bool {
    debug_assert_eq!(mask_a.len(), mask_b.len());
    key_a
        .values()
        .iter()
        .zip(key_b.values())
        .zip(mask_a.values().iter().zip(mask_b.values()))
        .any(|((a, b), (ma, mb))| (a ^ b) & ma & mb != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hyp_key(schema: &FieldSchema, v: u128) -> Key {
        Key::from_values(schema, &[v])
    }

    #[test]
    fn schema_widths() {
        let s = FieldSchema::ovs_ipv4();
        assert_eq!(s.field_count(), 6);
        assert_eq!(s.total_width(), 32 + 32 + 8 + 8 + 16 + 16);
        assert_eq!(s.field_index("tp_dst"), Some(5));
        assert_eq!(s.field_index("nope"), None);
    }

    #[test]
    fn full_and_empty_masks() {
        let s = FieldSchema::hyp();
        assert_eq!(s.full_mask().get(0), 0b111);
        assert_eq!(s.empty_mask().get(0), 0);
        let s6 = FieldSchema::ovs_ipv6();
        assert_eq!(s6.full_mask().get(0), u128::MAX);
    }

    #[test]
    fn matches_masked_bits_only() {
        let s = FieldSchema::hyp();
        // Entry #2 of Fig. 3: key=100, mask=100 — matches any header with MSB set.
        let key = hyp_key(&s, 0b100);
        let mask = hyp_key(&s, 0b100);
        assert!(matches(&hyp_key(&s, 0b100), &key, &mask));
        assert!(matches(&hyp_key(&s, 0b111), &key, &mask));
        assert!(matches(&hyp_key(&s, 0b101), &key, &mask));
        assert!(!matches(&hyp_key(&s, 0b011), &key, &mask));
    }

    #[test]
    fn disjointness_of_fig3_entries() {
        let s = FieldSchema::hyp();
        // Fig. 3 MFC: (001,111) allow, (100,100), (010,110), (000,111) — all disjoint.
        let entries = [
            (0b001u128, 0b111u128),
            (0b100, 0b100),
            (0b010, 0b110),
            (0b000, 0b111),
        ];
        for (i, (ka, ma)) in entries.iter().enumerate() {
            for (j, (kb, mb)) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert!(
                    disjoint(
                        &hyp_key(&s, *ka),
                        &hyp_key(&s, *ma),
                        &hyp_key(&s, *kb),
                        &hyp_key(&s, *mb)
                    ),
                    "entries {i} and {j} must be disjoint"
                );
            }
        }
    }

    #[test]
    fn overlap_detected() {
        let s = FieldSchema::hyp();
        // The "invalid strategy" of §4.1: installing (001,111) and (000,000) overlaps.
        assert!(!disjoint(
            &hyp_key(&s, 0b001),
            &hyp_key(&s, 0b111),
            &hyp_key(&s, 0b000),
            &hyp_key(&s, 0b000)
        ));
    }

    #[test]
    fn flip_bit_and_popcount() {
        let s = FieldSchema::hyp2();
        let mut k = Key::from_values(&s, &[0b001, 0b1111]);
        assert_eq!(k.popcount(), 5);
        k.set(1, k.get(1) ^ (1 << 3));
        assert_eq!(k.get(1), 0b0111);
        assert_eq!(k.wildcarded_bits(&s), 7 - 4);
    }

    #[test]
    fn binary_string_rendering() {
        let s = FieldSchema::hyp2();
        let k = Key::from_values(&s, &[0b001, 0b1010]);
        assert_eq!(k.to_binary_string(&s), "001 1010");
    }

    #[test]
    fn values_truncated_to_width() {
        let s = FieldSchema::hyp();
        let k = Key::from_values(&s, &[0xff]);
        assert_eq!(k.get(0), 0b111);
    }

    #[test]
    #[should_panic]
    fn wrong_value_count_panics() {
        let s = FieldSchema::hyp2();
        let _ = Key::from_values(&s, &[1]);
    }

    #[test]
    #[should_panic(expected = "at most 6 fields")]
    fn schema_wider_than_the_inline_capacity_panics() {
        let _ = FieldSchema::new(vec![FieldDef::new("f", 8); MAX_FIELDS + 1]);
    }

    #[test]
    #[should_panic]
    fn index_past_the_length_panics_though_the_storage_is_wider() {
        let _ = FieldSchema::hyp().zero_value().get(1);
    }

    #[test]
    fn eq_ord_and_hash_are_those_of_the_value_slice() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of(v: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        let raw: [&[u128]; 6] = [&[0], &[1], &[1, 0], &[1, 5], &[2], &[0, u128::MAX]];
        for a in raw {
            for b in raw {
                let schema = |n| FieldSchema::new(vec![FieldDef::new("f", 128); n]);
                let fa = Key::from_values(&schema(a.len()), a);
                let fb = Key::from_values(&schema(b.len()), b);
                assert_eq!(fa == fb, a.to_vec() == b.to_vec(), "{a:?} == {b:?}");
                assert_eq!(fa.cmp(&fb), a.to_vec().cmp(&b.to_vec()), "{a:?} cmp {b:?}");
                assert_eq!(hash_of(&fa), hash_of(&a.to_vec()), "hash {a:?}");
            }
        }
    }
}
