//! Sample summaries: median, quartiles, extremes.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same samples by any script using that function.

/// Summary of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or a NaN sample.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let [q1, _, q3] = quartiles(&sorted);
        Self {
            n: sorted.len(),
            median: median(&sorted),
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Python's exclusive-method quartiles of sorted data (one sample gives
/// that sample three times).
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    if ld == 1 {
        return [sorted[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // `delta` may be negative or exceed 4 for tiny samples: Python
        // extrapolates there, and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // Expected values from `statistics.quantiles(d, n=4)` and
        // `statistics.median(d)`.
        let cases: [(&[f64], f64, [f64; 3]); 4] = [
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                5.5,
                [2.75, 5.5, 8.25],
            ),
            (&[1.0, 2.0], 1.5, [0.75, 1.5, 2.25]),
            (&[3.0, 1.0, 2.0], 2.0, [1.0, 2.0, 3.0]),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], 3.0, [1.5, 3.0, 4.5]),
        ];
        for (data, med, q) in cases {
            let s = Summary::of(data);
            assert!(close(s.median, med), "{data:?}: median {}", s.median);
            assert!(close(s.q1, q[0]) && close(s.q3, q[2]), "{data:?}: {s:?}");
            assert_eq!(s.n, data.len());
        }
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Summary::of(&[4.0]);
        assert_eq!(
            (s.median, s.q1, s.q3, s.min, s.max),
            (4.0, 4.0, 4.0, 4.0, 4.0)
        );
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!(close(s.spread(), (8.25 - 2.75) / 5.5));
        assert_eq!((s.min, s.max), (1.0, 10.0));
    }
}
