//! Log-bucketed latency histogram (HdrHistogram-style).

/// A latency histogram over simulated nanoseconds with ~3% relative
/// resolution, O(1) record, and percentile / CDF queries.
///
/// Buckets are arranged as 32 powers-of-two octaves, each split into 32
/// linear sub-buckets. Used by every harness to reproduce the paper's
/// latency CDFs (Figs. 11/13) and tail tables (Tables 2/3).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
    sum: u64,
}

const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5;
const OCTAVES: u32 = 32;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; (OCTAVES as usize) * SUB_BUCKETS as usize],
            total: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        let v = value.max(1);
        let msb = 63 - v.leading_zeros();
        if msb < SUB_BITS {
            // Values below 32 map to the first linear region directly.
            return v as usize;
        }
        let octave = msb - SUB_BITS + 1;
        if octave > OCTAVES - 1 {
            // Beyond the representable range: clamp into the last bucket.
            return (OCTAVES as usize) * SUB_BUCKETS as usize - 1;
        }
        let sub = (v >> (octave - 1)) - SUB_BUCKETS;
        (octave as usize) * SUB_BUCKETS as usize + sub as usize
    }

    #[inline]
    fn bucket_upper_bound(idx: usize) -> u64 {
        let octave = (idx as u64) / SUB_BUCKETS;
        let sub = (idx as u64) % SUB_BUCKETS;
        if octave == 0 {
            return sub;
        }
        ((SUB_BUCKETS + sub + 1) << (octave - 1)) - 1
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_of(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
        if value < self.min {
            self.min = value;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper bound, ~3% error).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper_bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Merges another histogram into this one. Count, sum, min, max, and
    /// every bucket accumulate, so quantiles of the merged histogram
    /// equal quantiles of the concatenated sample streams (used for
    /// per-lane → store-level latency rollups). `sum` saturates, same
    /// as [`Histogram::record`].
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        if other.total > 0 {
            self.min = self.min.min(other.min);
        }
    }

    /// Returns the histogram of samples recorded since `prev` was
    /// captured, where `prev` is an earlier clone of `self`. Bucket
    /// counts, total, and sum subtract exactly, so quantiles of the
    /// delta describe only the new samples — this is what feeds the
    /// per-window latency series. Exact min/max are not recoverable
    /// from a subtraction, so they are approximated by the bounds of
    /// the lowest/highest non-empty delta bucket.
    pub fn delta(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        let mut lo = None;
        let mut hi = None;
        for (idx, (a, b)) in self.counts.iter().zip(&prev.counts).enumerate() {
            let d = a.saturating_sub(*b);
            out.counts[idx] = d;
            if d > 0 {
                if lo.is_none() {
                    lo = Some(idx);
                }
                hi = Some(idx);
            }
        }
        out.total = self.total.saturating_sub(prev.total);
        out.sum = self.sum.saturating_sub(prev.sum);
        if out.total > 0 {
            // Bucketed approximations; quantile() clamps to max, so
            // keep max consistent with the occupied buckets.
            out.min = lo
                .map(|i| Self::bucket_upper_bound(i.saturating_sub(1)).saturating_add(1))
                .unwrap_or(0)
                .min(self.max);
            out.max = hi.map(Self::bucket_upper_bound).unwrap_or(0).min(self.max);
        }
        out
    }

    /// Dumps the CDF as `(value, cumulative_fraction)` points, one per
    /// non-empty bucket — the series plotted in Figs. 11/13.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                Self::bucket_upper_bound(idx).min(self.max),
                seen as f64 / self.total as f64,
            ));
        }
        out
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.max = 0;
        self.min = u64::MAX;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn quantiles_are_within_resolution() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!(
            (p50 as f64 - 5000.0).abs() / 5000.0 < 0.05,
            "p50 {p50} too far from 5000"
        );
        let p99 = h.quantile(0.99);
        assert!(
            (p99 as f64 - 9900.0).abs() / 9900.0 < 0.05,
            "p99 {p99} too far from 9900"
        );
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert!((h.mean() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.min(), 100);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new();
        for v in [5u64, 50, 500, 5000, 50_000] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn huge_values_do_not_overflow_buckets() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_preserves_min_max_sum_and_quantiles() {
        // The merged histogram must be indistinguishable from one that
        // recorded both sample streams directly — this is what makes the
        // per-lane → store-level latency rollup sound.
        let mut merged = Histogram::new();
        let mut direct = Histogram::new();
        let mut parts = Vec::new();
        for shard in 0..4u64 {
            let mut h = Histogram::new();
            for i in 0..1000u64 {
                // Different latency regimes per shard.
                let v = (shard + 1) * 100 + i * (shard + 1);
                h.record(v);
                direct.record(v);
            }
            parts.push(h);
        }
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), direct.count());
        assert_eq!(merged.min(), direct.min());
        assert_eq!(merged.max(), direct.max());
        assert!((merged.mean() - direct.mean()).abs() < 1e-9);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                merged.quantile(q),
                direct.quantile(q),
                "quantile {q} diverged after merge"
            );
        }
    }

    #[test]
    fn merge_of_empty_histograms_is_identity() {
        let mut a = Histogram::new();
        a.record(7);
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), 7);
        assert_eq!(a.max(), 7);
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.min(), 7);
        assert_eq!(empty.count(), 1);
    }

    #[test]
    fn merge_saturates_sum_like_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(u64::MAX);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.mean() > 0.0); // saturated, not wrapped to ~0
    }

    #[test]
    fn delta_describes_only_new_samples() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let prev = h.clone();
        for v in [10_000u64, 20_000, 30_000, 40_000] {
            h.record(v);
        }
        let d = h.delta(&prev);
        assert_eq!(d.count(), 4);
        // All delta samples live in the 10k..40k region.
        assert!(d.quantile(0.0) >= 9_000, "min-ish {}", d.quantile(0.0));
        let p50 = d.quantile(0.5);
        assert!((19_000..=21_000).contains(&p50), "p50 {p50}");
        assert!(d.max() >= 40_000 && d.max() <= 41_500, "max {}", d.max());
        assert!((d.mean() - 25_000.0).abs() / 25_000.0 < 0.01);
    }

    #[test]
    fn delta_of_identical_histograms_is_empty() {
        let mut h = Histogram::new();
        h.record(42);
        let d = h.delta(&h.clone());
        assert_eq!(d.count(), 0);
        assert_eq!(d.quantile(0.99), 0);
        assert_eq!(d.max(), 0);
        assert_eq!(d.min(), 0);
    }

    #[test]
    fn delta_from_empty_equals_original_counts() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 7);
        }
        let d = h.delta(&Histogram::new());
        assert_eq!(d.count(), h.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(d.quantile(q), h.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn reset_then_reuse_matches_fresh() {
        let mut reused = Histogram::new();
        for v in 0..5000u64 {
            reused.record(v * 3);
        }
        reused.reset();
        let mut fresh = Histogram::new();
        for v in [10u64, 200, 3000] {
            reused.record(v);
            fresh.record(v);
        }
        assert_eq!(reused.count(), fresh.count());
        assert_eq!(reused.min(), fresh.min());
        assert_eq!(reused.max(), fresh.max());
        assert_eq!(reused.quantile(0.5), fresh.quantile(0.5));
        assert_eq!(reused.quantile(0.99), fresh.quantile(0.99));
    }
}
