//! Analytic model of General TSE: the expected number of MFC masks sparked by `n`
//! random packets (§6.1, Eq. 1–2 and Appendix 11.3).
//!
//! The model enumerates the megaflow entries the OVS wildcarding strategy can ever
//! create for a WhiteList+DefaultDeny ACL whose `m` allow rules each exact-match one
//! field (Theorem 4.2's shape):
//!
//! * the entry covering rule `i` constrains a prefix of every higher-priority rule's
//!   field (to witness the mismatch), exact-matches field `i` and wildcards the rest;
//! * a deny entry constrains one prefix per targeted field.
//!
//! Each concrete entry covers `2^k` of the `2^H` possible targeted-header values (its
//! `k` wildcarded bits), so a single random packet sparks it with probability
//! `p_k = 2^k / 2^H` (Eq. 1) and `n` packets spark it with probability
//! `1 − (1 − p_k)^n`. Summing per *distinct mask* (entries that share a mask pool their
//! coverage) gives the expected mask count the paper plots as the "E" curves of Fig. 9b.

use std::collections::BTreeMap;

use tse_packet::fields::FieldSchema;

use crate::scenarios::Scenario;

/// Probability that one uniformly random header matches a specific megaflow entry with
/// `k` wildcarded bits out of `h` targeted bits — Eq. 1's `p_k(MFC)`.
pub fn spark_probability(wildcarded_bits: u32, targeted_bits: u32) -> f64 {
    2f64.powi(wildcarded_bits as i32) / 2f64.powi(targeted_bits as i32)
}

/// Probability that at least one of `n` random packets sparks an entry of coverage
/// probability `p` — Eq. 1's `p(k,n)(MFC)`.
pub fn spark_probability_n(p: f64, n: u64) -> f64 {
    1.0 - (1.0 - p).powf(n as f64)
}

/// The analytic model for one ACL shape: targeted field widths in rule-priority order.
#[derive(Debug, Clone)]
pub struct ExpectationModel {
    /// Widths of the targeted fields, in the priority order of their allow rules.
    widths: Vec<u32>,
    /// Distinct masks of the construction: per-field prefix lengths → total coverage
    /// probability of the entries sharing that mask. A `BTreeMap` keyed by the prefix
    /// vector keeps [`ExpectationModel::expected_masks`]'s floating-point sum in a
    /// deterministic order — hash order would vary per process and perturb the low
    /// bits of the "E" curves.
    masks: BTreeMap<Vec<u32>, f64>,
}

impl ExpectationModel {
    /// Build the model for explicit field widths (rule-priority order).
    pub fn new(widths: Vec<u32>) -> Self {
        assert!(!widths.is_empty());
        let total_bits: u32 = widths.iter().sum();
        let mut masks: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        let m = widths.len();

        // Entries covering allow rule i (0-based): prefixes on fields < i, exact on i,
        // wildcard on fields > i.
        for i in 0..m {
            let prefix_widths: Vec<u32> = widths[..i].to_vec();
            enumerate_prefixes(&prefix_widths, &mut |prefix| {
                let mut mask_key: Vec<u32> = Vec::with_capacity(m);
                mask_key.extend_from_slice(prefix);
                mask_key.push(widths[i]);
                mask_key.extend(std::iter::repeat_n(0, m - i - 1));
                let constrained: u32 = prefix.iter().sum::<u32>() + widths[i];
                let coverage = spark_probability(total_bits - constrained, total_bits);
                *masks.entry(mask_key).or_insert(0.0) += coverage;
            });
        }
        // Deny entries: prefixes on every field.
        enumerate_prefixes(&widths, &mut |prefix| {
            let constrained: u32 = prefix.iter().sum();
            let coverage = spark_probability(total_bits - constrained, total_bits);
            *masks.entry(prefix.to_vec()).or_insert(0.0) += coverage;
        });

        ExpectationModel { widths, masks }
    }

    /// Build the model for one of the paper's scenarios over the given schema.
    pub fn for_scenario(schema: &FieldSchema, scenario: Scenario) -> Self {
        let widths: Vec<u32> = scenario
            .target_fields()
            .iter()
            .map(|t| schema.width(schema.field_index(t.name).expect("field")))
            .collect();
        Self::new(widths)
    }

    /// The targeted field widths.
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Maximum number of distinct masks the construction can ever contain — the
    /// Co-located attack's ceiling for this ACL.
    pub fn max_masks(&self) -> usize {
        self.masks.len()
    }

    /// Expected number of distinct MFC masks after `n` independent uniformly random
    /// packets — Eq. 2 generalised to exact per-mask coverage.
    pub fn expected_masks(&self, n: u64) -> f64 {
        self.masks
            .values()
            .map(|&p| spark_probability_n(p, n))
            .sum()
    }
}

/// Enumerate every combination of per-field prefix lengths `l_j ∈ 1..=w_j` and call `f`
/// with each combination. An empty width list calls `f` once with the empty prefix.
fn enumerate_prefixes(widths: &[u32], f: &mut impl FnMut(&[u32])) {
    fn rec(widths: &[u32], idx: usize, current: &mut Vec<u32>, f: &mut impl FnMut(&[u32])) {
        if idx == widths.len() {
            f(current);
            return;
        }
        for l in 1..=widths[idx] {
            current.push(l);
            rec(widths, idx + 1, current, f);
            current.pop();
        }
    }
    let mut current = Vec::with_capacity(widths.len());
    rec(widths, 0, &mut current, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_packet::fields::FieldSchema;

    #[test]
    fn spark_probability_matches_paper_example() {
        // §6.1: entry #2 of Fig. 3 has 2 wildcarded bits of 3 → p = 2²/2³ = 0.5.
        assert!((spark_probability(2, 3) - 0.5).abs() < 1e-12);
        assert!((spark_probability_n(0.5, 1) - 0.5).abs() < 1e-12);
        assert!((spark_probability_n(0.5, 2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn max_masks_match_colocated_ceilings() {
        let schema = FieldSchema::ovs_ipv4();
        // Dp: 16 deny prefixes; the rule-1 exact mask coincides with the full-length
        // prefix (just as the first and last entries of Fig. 3 share mask 111).
        assert_eq!(
            ExpectationModel::for_scenario(&schema, Scenario::Dp).max_masks(),
            16
        );
        // SipDp: 16*32 deny + 16 rule-2 (shared with deny when l2=32 -> 16 shared) + 1.
        let sipdp = ExpectationModel::for_scenario(&schema, Scenario::SipDp).max_masks();
        assert_eq!(sipdp, 16 * 32 + 1);
        // SipSpDp is in the ~8200 range quoted by §5.2.
        let full = ExpectationModel::for_scenario(&schema, Scenario::SipSpDp).max_masks();
        assert!((8192..=8800).contains(&full), "SipSpDp max masks = {full}");
    }

    #[test]
    fn expected_masks_monotone_in_n() {
        let schema = FieldSchema::ovs_ipv4();
        let m = ExpectationModel::for_scenario(&schema, Scenario::SipDp);
        let mut prev = 0.0;
        for n in [10u64, 100, 1000, 10_000, 50_000] {
            let e = m.expected_masks(n);
            assert!(e >= prev);
            prev = e;
        }
        assert!(prev <= m.max_masks() as f64 + 1e-9);
    }

    #[test]
    fn fig9b_anchor_points() {
        // §6.2: with 50 000 random packets the measured/expected masks are ≈16 (Dp),
        // ≈122 (SipDp) and ≈581 (SipSpDp). Allow generous tolerance: we reproduce the
        // shape, not the exact decimals.
        let schema = FieldSchema::ovs_ipv4();
        let dp = ExpectationModel::for_scenario(&schema, Scenario::Dp).expected_masks(50_000);
        let sipdp = ExpectationModel::for_scenario(&schema, Scenario::SipDp).expected_masks(50_000);
        let full =
            ExpectationModel::for_scenario(&schema, Scenario::SipSpDp).expected_masks(50_000);
        assert!((12.0..=17.0).contains(&dp), "Dp expected ≈16, got {dp}");
        assert!(
            (100.0..=140.0).contains(&sipdp),
            "SipDp expected ≈122, got {sipdp}"
        );
        assert!(
            (450.0..=700.0).contains(&full),
            "SipSpDp expected ≈581, got {full}"
        );
    }

    #[test]
    fn dp_and_spdp_expectations_nearly_identical() {
        // §6.2 notes the SpDp and SipDp expectations are dominated by the width of the
        // field the first rule matches on; SpDp (16+16 bits) trails SipDp (16+32 bits)
        // but both are far above Dp.
        let schema = FieldSchema::ovs_ipv4();
        let dp = ExpectationModel::for_scenario(&schema, Scenario::Dp).expected_masks(10_000);
        let spdp = ExpectationModel::for_scenario(&schema, Scenario::SpDp).expected_masks(10_000);
        let sipdp = ExpectationModel::for_scenario(&schema, Scenario::SipDp).expected_masks(10_000);
        assert!(spdp > 3.0 * dp);
        assert!(sipdp > 3.0 * dp);
        assert!((spdp - sipdp).abs() / sipdp < 0.25);
    }

    #[test]
    fn single_small_field_exact() {
        // 3-bit HYP: masks = 3 deny prefixes, the allow mask shared with the longest one
        // (exactly Fig. 3's 3 masks); with huge n all are present.
        let m = ExpectationModel::new(vec![3]);
        assert_eq!(m.max_masks(), 3);
        assert!((m.expected_masks(1_000_000) - 3.0).abs() < 1e-3);
    }
}
