//! Order statistics used by every workload.

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples strictly beyond the tail percentile that the rule demands.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted`, which must be sorted
/// ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps `99.9% of 10 000` at rank 9990 despite binary rounding.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A copy of `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail latency and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The tail rule: the highest percentile on the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its rank. A sample too small for
/// any of them reports the median with however many samples lie beyond.
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    let beyond = |p: f64| n - rank(p, n);
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile: p,
        value: percentile(&s, p),
        beyond: beyond(p),
        samples: n,
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
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
        // 10 000 samples reach p99.9.
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.beyond, t.samples), (99.9, 10, 10_000));
        // 199 samples: p95 leaves 9 beyond, so p90 it is.
        assert_eq!(tail(&ramp(199)).percentile, 90.0);
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_median() {
        let t = tail(&ramp(12));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 6.0, 6));
        assert_eq!(tail(&ramp(20)).beyond, 10);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(500)));
    }
}
