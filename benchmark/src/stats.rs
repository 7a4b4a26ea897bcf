//! Order statistics: percentiles of one slice's samples and the
//! median-of-slices summary every end-to-end metric is reported as.

/// Nearest-rank percentile of `samples` (`q` in 0..=1). Reorders the
/// slice; returns 0 for an empty one.
pub fn percentile<T: Copy + Ord + Into<u64>>(samples: &mut [T], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    (*v).into() as f64
}

/// Median and quartiles of a set of per-slice (or per-run) values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
    /// them (the exclusive method), so the spread printed by `--aa` is the
    /// spread the contract's driver computes. Fewer than two values have
    /// no spread: all three quartiles are the value itself.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Summary {
                median: x,
                q1: x,
                q3: x,
                n,
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50.0);
        assert_eq!(percentile(&mut v, 0.90), 90.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        let mut one = [7u32];
        assert_eq!(percentile(&mut one, 0.9), 7.0);
        let mut none: [u32; 0] = [];
        assert_eq!(percentile(&mut none, 0.5), 0.0);
    }

    #[test]
    fn summary_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8], n=4) == [2.25, 4.5, 6.75]
        let s = Summary::of(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.25, 4.5, 6.75, 8));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn summary_of_one_value_has_no_spread() {
        let s = Summary::of(&[3.5]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (3.5, 3.5, 3.5, 0.0));
    }
}
