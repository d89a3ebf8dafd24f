//! Order statistics for the reported metrics.

/// The percentiles a tail is looked for in, lowest first.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: u64 = 10;

/// Latency samples of completed operations plus a count of failed ones.
/// A failed operation missed every latency limit, so it ranks above every
/// sample.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    sorted: Vec<f64>,
    failed: u64,
}

impl Latencies {
    /// Samples in any order plus `failed` operations without a latency.
    pub fn new(mut samples: Vec<f64>, failed: u64) -> Latencies {
        samples.sort_by(f64::total_cmp);
        Latencies {
            sorted: samples,
            failed,
        }
    }

    /// Operations counted: samples and failures.
    pub fn count(&self) -> u64 {
        self.sorted.len() as u64 + self.failed
    }

    /// Nearest-rank percentile `q` in (0, 1]. A rank that falls among the
    /// failed operations reads as `f64::MAX`; `None` when the percentile
    /// has fewer than [`MIN_BEYOND`] operations beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        // The epsilon keeps float error in q × n from adding a rank.
        let rank = ((q * n as f64 - 1e-9).ceil() as u64).max(1);
        if n < rank + MIN_BEYOND {
            return None;
        }
        Some(match self.sorted.get(rank as usize - 1) {
            Some(v) => *v,
            None => f64::MAX,
        })
    }

    /// The highest percentile of the ladder that has at least
    /// [`MIN_BEYOND`] operations beyond it, with its value.
    pub fn highest(&self) -> Option<(f64, f64)> {
        LADDER
            .iter()
            .rev()
            .find_map(|&q| self.percentile(q).map(|v| (q, v)))
    }

    /// Median and the highest supported percentile, e.g.
    /// `p50 123.4 / p99.9 456.7 (n=20000)`.
    pub fn describe(&self) -> String {
        match (self.percentile(0.5), self.highest()) {
            (Some(p50), Some((q, v))) => {
                format!("p50 {p50:.1} / p{} {v:.1} (n={})", q * 100.0, self.count())
            }
            _ => format!("too few samples (n={})", self.count()),
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Mean of `values`, 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond it.
        let l = Latencies::new(one_to(1000), 0);
        assert_eq!(l.percentile(0.99), Some(990.0));
        assert_eq!(l.percentile(0.999), None);
        assert_eq!(l.highest(), Some((0.99, 990.0)));
        // 999 samples: p99 has only 9 beyond it, p90 is the highest.
        let l = Latencies::new(one_to(999), 0);
        assert_eq!(l.percentile(0.99), None);
        assert_eq!(l.highest().map(|(q, _)| q), Some(0.9));
        assert_eq!(l.count(), 999);
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut v = one_to(200);
        v.reverse();
        let l = Latencies::new(v, 0);
        assert_eq!(l.percentile(0.5), Some(100.0));
        assert_eq!(l.highest(), Some((0.9, 180.0)));
    }

    #[test]
    fn failures_rank_above_every_sample() {
        // 980 samples + 20 failures: p99 (rank 990) lands on a failure.
        let l = Latencies::new(one_to(980), 20);
        assert_eq!(l.count(), 1000);
        assert_eq!(l.percentile(0.99), Some(f64::MAX));
        assert_eq!(l.percentile(0.5), Some(500.0));
        // Failures still count toward the ten beyond a percentile.
        let l = Latencies::new(one_to(990), 10);
        assert_eq!(l.percentile(0.99), Some(990.0));
    }

    #[test]
    fn too_few_samples_report_nothing() {
        let l = Latencies::new(one_to(10), 0);
        assert_eq!(l.percentile(0.5), None);
        assert_eq!(l.highest(), None);
        assert!(l.describe().contains("n=10"));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }
}
