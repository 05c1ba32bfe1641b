//! Low-overhead hot-path metrics: power-of-two histograms. [`Histogram`] is
//! plain data meant to live behind whatever cell its owner already has
//! (`ThreadComm` keeps its statistics in a `RefCell`).

use crate::event::Value;

/// A histogram over `u64` samples with power-of-two buckets: bucket `i`
/// holds samples whose value needs `i` significant bits (`0 → [0,0]`,
/// `1 → [1,1]`, `2 → [2,3]`, `3 → [4,7]`, …). Recording is two instructions
/// (leading-zeros + bump), which is cheap enough for per-message accounting.
///
/// **Bucket-edge rule (pinned):** a value exactly at a power of two, `2^k`,
/// is the inclusive *lower* edge of bucket `k+1` = `[2^k, 2^(k+1) − 1]` —
/// it never lands in the bucket below. Consequently every quantile estimate
/// reports the inclusive upper bound `2^(k+1) − 1` of the bucket it falls
/// in, clamped to the observed maximum.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Upper bound of bucket `i` (inclusive).
    fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << (i - 1)).saturating_mul(2) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile (`0.0..=100.0`): `percentile(95.0)` is the
    /// p95 upper bound. Sugar over [`Histogram::quantile`] — same bucket
    /// resolution (exact to within a factor of two).
    pub fn percentile(&self, p: f64) -> u64 {
        self.quantile(p / 100.0)
    }

    /// Approximate quantile (`0.0..=1.0`): the inclusive upper bound of the
    /// bucket containing the `q`-th sample. Exact to within a factor of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Flattens the histogram into event fields: `count`, `sum`, `min`,
    /// `max`, plus one `b<i>` entry per non-empty bucket.
    pub fn to_fields(&self) -> Vec<(String, Value)> {
        let mut fields = vec![
            ("count".to_string(), Value::U64(self.count)),
            ("sum".to_string(), Value::U64(self.sum)),
            ("min".to_string(), Value::U64(self.min())),
            ("max".to_string(), Value::U64(self.max)),
        ];
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                fields.push((format!("b{i}"), Value::U64(n)));
            }
        }
        fields
    }

    /// Rebuilds a histogram from fields produced by [`Histogram::to_fields`].
    /// Returns `None` if the summary keys are missing.
    pub fn from_fields(fields: &[(String, Value)]) -> Option<Histogram> {
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_u64())
        };
        let mut h = Histogram::new();
        h.count = get("count")?;
        h.sum = get("sum")?;
        h.max = get("max")?;
        h.min = if h.count == 0 { u64::MAX } else { get("min")? };
        for (k, v) in fields {
            if let Some(rest) = k.strip_prefix('b') {
                if let (Ok(i), Some(n)) = (rest.parse::<usize>(), v.as_u64()) {
                    if i < h.buckets.len() {
                        h.buckets[i] = n;
                    }
                }
            }
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_is_power_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_hi(0), 0);
        assert_eq!(Histogram::bucket_hi(2), 3);
        assert_eq!(Histogram::bucket_hi(3), 7);
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 221.2).abs() < 1e-12);
        // Median lands in bucket of 3 → upper bound 3.
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 1000);
    }

    /// Pins the documented bucket-edge rule: `2^k` is the inclusive lower
    /// edge of bucket `k+1`, for every representable power of two.
    #[test]
    fn power_of_two_values_open_the_upper_bucket() {
        for k in 0..63u32 {
            let v = 1u64 << k;
            let b = Histogram::bucket_of(v);
            assert_eq!(b, k as usize + 1, "2^{k} must land in bucket {}", k + 1);
            // ... and it is that bucket's lower edge: one less lands below.
            assert_eq!(Histogram::bucket_of(v - 1), k as usize, "2^{k}-1");
            // The bucket's inclusive bounds are [2^k, 2^(k+1)-1].
            assert_eq!(Histogram::bucket_hi(b), (v - 1).wrapping_add(v));
        }
    }

    /// A histogram holding only `2^k` reports quantiles from bucket `k+1`,
    /// clamped to the observed max — so exact powers of two round-trip.
    #[test]
    fn power_of_two_quantiles_clamp_to_observed_max() {
        for k in [0u32, 3, 10, 20] {
            let v = 1u64 << k;
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.quantile(0.5), v);
            assert_eq!(h.percentile(99.0), v);
        }
    }

    #[test]
    fn percentile_is_quantile_in_percent() {
        let mut h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        for (p, q) in [(0.0, 0.0), (50.0, 0.5), (95.0, 0.95), (99.0, 0.99)] {
            assert_eq!(h.percentile(p), h.quantile(q));
        }
        // p95/p99 of 0..100 sit in bucket 7 = [64,127], clamped to max 99.
        assert_eq!(h.percentile(95.0), 99);
        assert_eq!(h.percentile(99.0), 99);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn fields_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 5, 64, 64, 9999] {
            h.record(v);
        }
        let back = Histogram::from_fields(&h.to_fields()).unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.min(), h.min());
        assert_eq!(back.max(), h.max());
        assert_eq!(back.quantile(0.5), h.quantile(0.5));
    }
}
