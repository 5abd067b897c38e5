//! Order statistics over latency samples.

use std::collections::BTreeMap;

/// The `p`-th percentile (0 ≤ p ≤ 100) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p`% of samples at or below it.
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps float error (0.999 · 10,000 = 9,990.000…2) from
    // pushing an exact rank up by one.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` ascending (NaN-free input assumed, `total_cmp` order).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples beyond it, with its value: a tail read off fewer samples than
/// that is one or two outliers, not a percentile. `None` when even p75
/// lacks ten samples beyond it (fewer than 40 samples).
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len() as f64;
    TAIL_LADDER
        .iter()
        .find(|&&p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// The median of unsorted `values`; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0).unwrap_or(0.0)
}

/// Mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Exact counts of integer samples, for medians over millions of page
/// accesses without keeping each one.
#[derive(Debug, Default)]
pub struct Tally {
    counts: BTreeMap<u64, u64>,
    n: u64,
}

impl Tally {
    pub fn add(&mut self, v: u64) {
        *self.counts.entry(v).or_default() += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The nearest-rank median, as [`percentile`] gives it; `0.0` when
    /// empty.
    pub fn median(&self) -> f64 {
        let rank = self.n.div_ceil(2).max(1);
        let mut seen = 0;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return v as f64;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tally_median_matches_percentile() {
        let mut t = Tally::default();
        assert_eq!(t.median(), 0.0);
        let vals = [5u64, 1, 9, 5, 7, 3, 5, 2];
        for v in vals {
            t.add(v);
        }
        let as_f64 = sorted(vals.iter().map(|&v| v as f64).collect());
        assert_eq!(Some(t.median()), percentile(&as_f64, 50.0));
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn tail_has_at_least_ten_samples_beyond_it() {
        // 10,000 samples: p99.9 leaves exactly 10 beyond it.
        assert_eq!(supported_tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        // 9,999 samples: p99.9 leaves 9.999, so p99 (99.99 beyond) wins.
        assert_eq!(supported_tail(&ramp(9_999)).map(|t| t.0), Some(99.0));
        // 1,000 samples: p99 leaves exactly 10.
        assert_eq!(supported_tail(&ramp(1_000)), Some((99.0, 990.0)));
        // 760 samples (the update budget): p98 leaves 15.2, p99 only 7.6.
        assert_eq!(supported_tail(&ramp(760)).map(|t| t.0), Some(98.0));
        // 200 samples: p95 leaves 10.
        assert_eq!(supported_tail(&ramp(200)).map(|t| t.0), Some(95.0));
        assert_eq!(supported_tail(&ramp(39)), None);
        // Every reported tail really has ten or more samples above it.
        for n in [40, 99, 100, 101, 399, 1_001, 5_000, 10_000] {
            let s = ramp(n);
            let (_, v) = supported_tail(&s).expect("n >= 40");
            assert!(s.iter().filter(|&&x| x > v).count() >= 10, "n = {n}");
        }
    }
}
