//! Order statistics over a handful of repeats.

/// Median and quartiles of a sample, as the benchmark reports them.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The values, in the order they were measured.
    pub values: Vec<f64>,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarise `values` (at least one).
    pub fn of(values: Vec<f64>) -> Summary {
        let [q1, median, q3] = quartiles(&values);
        Summary {
            values,
            q1,
            median,
            q3,
        }
    }

    /// Distance between the quartiles as a share of the median — the run-to-run
    /// spread a bound is judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

/// The three quartile cut points of `values`, by the exclusive method — the same
/// numbers Python's `statistics.quantiles(values, n=4)` gives. A single value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let rank = i * (n + 1);
        let j = (rank / 4).clamp(1, n - 1);
        let delta = rank as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
