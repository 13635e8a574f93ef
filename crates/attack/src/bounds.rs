//! Theorem 4.1 / 4.2: the attainable space–time trade-offs of any TSS construction.
//!
//! For a single `w`-bit field with one exact-match allow rule and DefaultDeny, any TSS
//! construction with `k` masks needs at least `k·(2^(w/k) − 1)` entries; the two
//! extremes are exact-match (`k = 1`, `O(2^w)` entries) and full wildcarding (`k = w`,
//! `w` entries). The multi-field bound is the product of the per-field terms
//! (Theorem 4.2). These functions compute the bound curves that the `theorem_bounds`
//! binary prints and that the chunked generation strategy is checked against.

/// One point of the Theorem 4.1 trade-off curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Number of masks (the lookup-time term, `O(k)`).
    pub masks: u64,
    /// Lower bound on the number of entries (the space term, `O(k·2^(w/k))`).
    pub entries: f64,
}

/// Theorem 4.1: minimal entry count for a `w`-bit field covered with exactly `k` masks.
///
/// The bound is `k · (2^(w/k) − 1)`; for the integral decomposition actually realisable
/// (split `w` bits into `k` chunks as evenly as possible) the entry count is
/// `Σ_i (2^{b_i} − 1)` with `Σ b_i = w`, which this function returns (it matches the
/// closed form when `k | w`).
pub fn single_field_entries(width: u32, k: u32) -> f64 {
    assert!(k >= 1 && k <= width, "k must be in 1..=w");
    let base = width / k;
    let remainder = width % k;
    let mut total = 0f64;
    for i in 0..k {
        let bits = base + if i < remainder { 1 } else { 0 };
        total += 2f64.powi(bits as i32) - 1.0;
    }
    total
}

/// The full Theorem 4.1 curve for a `w`-bit field: one point per `k ∈ 1..=w`.
pub fn single_field_curve(width: u32) -> Vec<TradeoffPoint> {
    (1..=width)
        .map(|k| TradeoffPoint {
            masks: u64::from(k),
            entries: single_field_entries(width, k),
        })
        .collect()
}

/// Theorem 4.2: time and space lower bounds for `n` fields of the given widths with the
/// given per-field mask counts `k_i`. Returns `(time = Π k_i, entries = Π k_i·(2^(w_i/k_i)−1))`.
pub fn multi_field_bound(widths: &[u32], ks: &[u32]) -> (f64, f64) {
    assert_eq!(widths.len(), ks.len());
    let mut time = 1f64;
    let mut space = 1f64;
    for (&w, &k) in widths.iter().zip(ks) {
        time *= f64::from(k);
        space *= single_field_entries(w, k);
    }
    (time, space)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extremes_of_the_3bit_example() {
        // §4.1: exact-match = 1 mask / 8 entries (7 deny + 1 allow ≈ 2^3), wildcarding =
        // 3 masks / 3 deny entries (+1 allow sharing a mask).
        assert_eq!(single_field_entries(3, 1), 7.0);
        assert_eq!(single_field_entries(3, 3), 3.0);
    }

    #[test]
    fn curve_is_monotone() {
        // More masks → fewer entries, for every width.
        for w in [8u32, 16, 32] {
            let curve = single_field_curve(w);
            assert_eq!(curve.len(), w as usize);
            for pair in curve.windows(2) {
                assert!(pair[0].entries >= pair[1].entries);
                assert!(pair[0].masks < pair[1].masks);
            }
        }
    }

    #[test]
    fn exact_match_is_exponential() {
        assert_eq!(single_field_entries(16, 1), 65535.0);
        assert_eq!(single_field_entries(32, 1), 4294967295.0);
    }

    #[test]
    fn multi_field_extremes_match_theorem() {
        // The Fig. 6 fields: 32-bit source IP, two 16-bit ports.
        let widths = [32u32, 16, 16];
        // The two extreme points of Theorem 4.2: optimal time (`k_i = 1`, 1 mask,
        // `Π (2^{w_i} − 1)` entries) and optimal space (`k_i = w_i`, `Π w_i` of both).
        let (t_time, s_time) = multi_field_bound(&widths, &[1, 1, 1]);
        let (t_space, s_space) = multi_field_bound(&widths, &widths);
        // k_i = 1: one "time unit", ~2^64 entries.
        assert_eq!(t_time, 1.0);
        assert!(s_time > 1e18);
        // k_i = w_i: 32*16*16 = 8192 lookups, 32*16*16 entries.
        assert_eq!(t_space, 8192.0);
        assert_eq!(s_space, 8192.0);
    }

    #[test]
    fn intermediate_points_interpolate() {
        let (time, space) = multi_field_bound(&[16, 16], &[4, 4]);
        assert_eq!(time, 16.0);
        // 4 chunks of 4 bits each → 4·15 = 60 per field → 3600 total.
        assert_eq!(space, 3600.0);
    }

    #[test]
    fn uneven_split_handled() {
        // 5 bits in 2 chunks → 3+2 bits → 7 + 3 = 10 entries.
        assert_eq!(single_field_entries(5, 2), 10.0);
    }

    #[test]
    #[should_panic]
    fn k_larger_than_width_panics() {
        single_field_entries(4, 5);
    }
}
