//! Order statistics over a handful of repetitions.

/// Minimum, quartiles, median and faster-half mean of one metric's
/// repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Mean of the faster half of the repetitions (the middle one included
    /// when their number is odd): the value a metric is quoted at. Noise on
    /// a shared machine only ever adds time, so the slower half is dropped;
    /// averaging what is left keeps the value from hanging on one lucky
    /// repetition, as a minimum does.
    pub faster_half_mean: f64,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the exclusive method), so the spread computed here is the one the
    /// acceptance check computes. One value is its own quartiles.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no repetitions to summarise");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let half = &v[..n.div_ceil(2)];
        Summary {
            faster_half_mean: half.iter().sum::<f64>() / half.len() as f64,
            min: v[0],
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
        let s = Summary::of(&[22.0, 1.0, 16.0, 2.0, 11.0, 4.0, 7.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (1.0, 2.0, 7.0, 16.0));
        assert_eq!(s.faster_half_mean, (1.0 + 2.0 + 4.0 + 7.0) / 4.0);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = Summary::of(&[5.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
        assert_eq!(s.faster_half_mean, 3.0);
        assert_eq!(Summary::of(&[9.0]).faster_half_mean, 9.0);
    }
}
