//! Order statistics over repeated measurements.

/// Median, quartiles, maximum and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none. Quartiles follow
    /// Python's `statistics.quantiles(values, n=4)` (the default
    /// "exclusive" method), so spreads computed here and by that call
    /// agree; a single sample is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let max = *v.last()?;
        let mid = n / 2;
        let median = if n % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (median, median)
        } else {
            (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
        };
        Some(Summary {
            median,
            q1,
            q3,
            max,
            n,
        })
    }

    /// The interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three quartile cut points of sorted `v` (`v.len()
/// >= 2`), by the exclusive method.
fn exclusive_quartile(v: &[f64], i: usize) -> f64 {
    let len = v.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    // `delta` may fall outside 0..=4 after clamping; the formula then
    // extrapolates, exactly as Python does.
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median of `values`, or 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(..., n=4) on the same inputs.
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!(
            (s.q1, s.median, s.q3, s.max, s.n),
            (1.75, 4.5, 7.25, 9.0, 10)
        );
    }

    #[test]
    fn single_and_empty_samples() {
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }
}
