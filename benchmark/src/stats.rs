//! Order statistics over samples.

/// Median; the mean of the two middle samples when the count is even.
/// 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100). 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64)
        .ceil()
        .clamp(1.0, s.len() as f64) as usize;
    s[rank - 1]
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// The highest nearest-rank percentile, capped at p99, that leaves at
/// least [`TAIL_MARGIN`] samples beyond it, as `(percentile, value)`.
/// Below `2 * TAIL_MARGIN` samples no such percentile reaches the median,
/// so the median is reported. `(0, 0)` for no samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let s = sorted(xs);
    let p99_rank = (n * 99).div_ceil(100);
    if n < 2 * TAIL_MARGIN {
        let rank = n.div_ceil(2);
        (100.0 * rank as f64 / n as f64, s[rank - 1])
    } else if p99_rank <= n - TAIL_MARGIN {
        (99.0, s[p99_rank - 1])
    } else {
        let rank = n - TAIL_MARGIN;
        (100.0 * rank as f64 / n as f64, s[rank - 1])
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<f64> {
        // Reverse order, so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_and_no_fewer() {
        for n in [20, 21, 57, 100, 560, 999, 1000, 1001, 5000] {
            let xs = samples(n);
            let (p, v) = tail(&xs);
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_MARGIN, "n={n}: {beyond} beyond p{p}");
            assert!(p <= 99.0, "n={n}: p{p} above the cap");
            // Highest such percentile: one rank further leaves fewer than
            // ten beyond, unless the p99 cap stopped it first.
            if p < 99.0 {
                assert_eq!(beyond, TAIL_MARGIN, "n={n}: a higher rank still qualifies");
            }
        }
    }

    #[test]
    fn tail_is_p99_once_the_sample_supports_it() {
        let (p, v) = tail(&samples(1000));
        assert_eq!((p, v), (99.0, 990.0));
        let (p, v) = tail(&samples(100));
        assert_eq!((p, v), (90.0, 90.0));
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        assert_eq!(tail(&samples(5)), (60.0, 3.0));
        assert_eq!(tail(&[]), (0.0, 0.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&samples(10), 50.0), 5.0);
        assert_eq!(percentile(&samples(10), 90.0), 9.0);
    }
}
