//! Order statistics over the samples a run collects.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median: the spread of a metric over runs, computed the way the driver
/// does (Python's `statistics.quantiles(v, n=4)`, exclusive method).
pub fn iqr_share(v: &[f64]) -> f64 {
    assert!(v.len() >= 2, "quartiles need two samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let pos = i * (s.len() + 1);
        let j = (pos / 4).clamp(1, s.len() - 1);
        let delta = pos as f64 - 4.0 * j as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(v)
}

/// `q`-quantile of integer samples; reorders `v`.
///
/// The nearest-rank sample `x` stands for a duration somewhere in
/// `[x, x + 1)` (both clocks tick in whole nanoseconds), so the rank's
/// position among the samples tied at `x` is added as the fraction. On the
/// simulated clock, where thousands of calls cost exactly the same, this
/// lets the percentile move before a whole nanosecond's worth of calls
/// has changed sides.
pub fn quantile(v: &mut [u32], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let target = v.len() as f64 * q;
    let rank = (target.ceil() as usize).clamp(1, v.len()) - 1;
    let x = *v.select_nth_unstable(rank).1;
    let below = v.iter().filter(|&&s| s < x).count() as f64;
    let tied = v.iter().filter(|&&s| s == x).count() as f64;
    x as f64 + ((target - below) / tied).clamp(0.0, 1.0)
}

pub fn mean(v: &[u32]) -> f64 {
    v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64
}

/// What is reported for one metric: the median of its per-repeat values,
/// with the extremes and the count, so a reader sees the spread the
/// median came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(v: &[f64]) -> Self {
        Self {
            median: median(v),
            min: v.iter().copied().fold(f64::INFINITY, f64::min),
            max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 51.0);
        assert_eq!(quantile(&mut v, 0.99), 100.0);
        // Ties: the median of 90 x 7 and 10 x 9 sits 50/90 into 7's bin.
        let mut v: Vec<u32> = [vec![7; 90], vec![9; 10]].concat();
        assert!((quantile(&mut v, 0.5) - (7.0 + 50.0 / 90.0)).abs() < 1e-12);
        assert!((quantile(&mut v, 0.95) - 9.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(iqr_share(&[16.0, 1.0, 4.0, 2.0, 8.0]), (12.0 - 1.5) / 4.0);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(iqr_share(&[10.0, 20.0]), 1.0);
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
    }
}
