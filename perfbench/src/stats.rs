//! Quantiles, spreads and the read-latency histogram.

/// The `q`-quantile of ascending `sorted` values, linearly interpolated
/// between order statistics, so a median of measured times keeps all its
/// digits. Returns 0 on empty input.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `values` ascending (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Slices of `slice` consecutive values. A last slice less than half full is
/// left out; fewer values than one slice are taken as one.
fn slices(values: &[f64], slice: usize) -> impl Iterator<Item = &[f64]> {
    let slice = slice.clamp(1, values.len().max(1));
    values.chunks(slice).filter(move |c| c.len() * 2 > slice)
}

/// A tail that one hiccup of the host cannot move: the `q`-quantile of each
/// slice of `slice` consecutive values, then the median over the slices. A
/// stall of half a second lifts the plain p95 of a ten-second run by a third;
/// it lifts one slice in ten here, while a tail that grows in every slice
/// (the regression to catch) shows in full.
pub fn sliced_tail(values: &[f64], slice: usize, q: f64) -> f64 {
    let tails: Vec<f64> = slices(values, slice)
        .map(|c| quantile(&sorted(c), q))
        .collect();
    median(&tails)
}

/// Operations per second of back-to-back operations that took `ms`
/// milliseconds each: the rate of each slice of `slice` consecutive
/// operations, then the median over the slices, for the same reason as
/// [`sliced_tail`]. Returns 0 on empty input.
pub fn sliced_rate(ms: &[f64], slice: usize) -> f64 {
    let rates: Vec<f64> = slices(ms, slice)
        .map(|c| c.len() as f64 * 1e3 / c.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them: the rule the driver uses
/// for run-to-run spread, repeated here so `compare` agrees with it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the spread a metric's
/// bound is compared with.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// log2 of the sub-buckets per octave: 32, so a bucket is at most 3.1 % wide
/// (the 8-sub-bucket histogram of the serve bench quantizes at 12.5 %, too
/// coarse for a tail that must repeat within a tenth).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Log-bucketed nanosecond histogram with O(1) record and a fixed footprint.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; ((64 - SUB_BITS + 1) as u64 * SUB) as usize],
            count: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let sub = (ns >> (msb - SUB_BITS)) & (SUB - 1);
        ((msb - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Smallest value a bucket holds.
    fn floor(idx: usize) -> u64 {
        let (octave, sub) = (idx as u64 / SUB, idx as u64 % SUB);
        if octave == 0 {
            sub
        } else {
            (SUB + sub) << (octave - 1)
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile in nanoseconds, interpolated inside the bucket that
    /// holds the rank so the value is not pinned to a bucket edge.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let lo = Self::floor(idx) as f64;
                let hi = (Self::floor(idx + 1) as f64).min(self.max_ns as f64 + 1.0);
                let inside = (rank - seen as f64) / c as f64;
                return lo + (hi - lo).max(0.0) * inside;
            }
            seen += c;
        }
        self.max_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn sliced_tail_ignores_one_bad_slice_and_sees_a_tail_in_all() {
        // 10 slices of 20 values 1..=20; p95 of a slice is 19.05.
        let mut v: Vec<f64> = (0..200).map(|i| (i % 20 + 1) as f64).collect();
        let calm = sliced_tail(&v, 20, 0.95);
        assert!((calm - 19.05).abs() < 1e-9);
        // A hiccup over one slice moves the plain p95, not the sliced one.
        for x in &mut v[40..60] {
            *x += 100.0;
        }
        assert_eq!(sliced_tail(&v, 20, 0.95), calm);
        assert!(quantile(&sorted(&v), 0.95) > 100.0);
        // A tail present in every slice shows.
        for x in v.iter_mut().skip(19).step_by(20) {
            *x = 500.0;
        }
        assert!(sliced_tail(&v, 20, 0.95) > 20.0);
        // Fewer values than a slice: one slice. A stub of a last slice: dropped.
        assert_eq!(sliced_tail(&[1.0, 2.0, 3.0], 20, 0.5), 2.0);
        assert_eq!(sliced_tail(&[1.0, 1.0, 1.0, 1.0, 9.0], 4, 1.0), 1.0);
        assert_eq!(sliced_tail(&[], 4, 0.5), 0.0);
    }

    #[test]
    fn sliced_rate_is_the_median_slice_rate() {
        // Ten slices of four 250 ms operations: 4 a second each.
        let mut ms = vec![250.0; 40];
        assert_eq!(sliced_rate(&ms, 4), 4.0);
        // A stall in one slice moves the mean rate, not this one.
        ms[9] = 5_000.0;
        assert_eq!(sliced_rate(&ms, 4), 4.0);
        assert!(40.0 * 1e3 / ms.iter().sum::<f64>() < 3.0);
        // Every operation slower: it shows in full.
        assert_eq!(sliced_rate(&[500.0; 40], 4), 2.0);
        assert_eq!(sliced_rate(&[], 4), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket_of_the_truth() {
        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max_ns(), 100_000);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = q * 100_000.0;
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() <= want / 32.0,
                "q{q}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_ordered() {
        let mut last = 0;
        for ns in (0..20_000u64).chain([1 << 40, u64::MAX]) {
            let idx = Histogram::index(ns);
            assert!(idx >= last, "index must not decrease at {ns}");
            assert!(Histogram::floor(idx) <= ns);
            last = idx;
        }
        assert_eq!(Histogram::default().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn histogram_merge_is_addition() {
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for ns in 1..=1000u64 {
            if ns % 3 == 0 { &mut a } else { &mut b }.record(ns * 7);
            both.record(ns * 7);
        }
        a.merge(&b);
        assert_eq!((a.count(), a.max_ns()), (both.count(), both.max_ns()));
        assert_eq!(a.quantile_ns(0.9), both.quantile_ns(0.9));
    }
}
