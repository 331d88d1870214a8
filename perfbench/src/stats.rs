//! Order statistics over timing samples.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, one outlier moves the figure and it says little about the tail.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the middle pair for an even count); `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The mean of the middle half of the samples (the interquartile mean): as
/// robust to outliers as the median, but not stuck to the coarse steps of
/// quantized samples such as CPU ticks.  `None` when there are no samples.
pub fn midmean(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let middle = &sorted[n / 4..n - n / 4];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`), reported only when
/// at least [`MIN_BEYOND`] samples rank beyond it: above it for a
/// percentile over the median, below it for one under the median.  Ties
/// count by rank, so a run of equal values still leaves the samples ranked
/// beyond the percentile's own.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let sorted = sorted(samples);
    let n = sorted.len();
    // Nearest rank, 1-based: the smallest rank k with k / n >= p / 100.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = if p >= 50.0 {
        n - rank
    } else {
        rank.saturating_sub(1)
    };
    if rank == 0 || beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// A timing distribution as reported: the sample count, the median, and
/// the highest of a few standard percentiles that has enough samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// How many samples the figures rest on.
    pub samples: usize,
    /// The median, if there was any sample.
    pub median: Option<f64>,
    /// `(p, value)` of the highest reportable percentile above the median.
    pub tail: Option<(f64, f64)>,
}

/// Summarize `samples` (see [`Summary`]).
pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        samples: samples.len(),
        median: median(samples),
        tail: [99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find_map(|p| percentile(samples, p).map(|v| (p, v))),
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must not assume sorted input.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn midmean_drops_the_outer_quarters() {
        assert_eq!(midmean(&[]), None);
        assert_eq!(midmean(&[3.0]), Some(3.0));
        assert_eq!(midmean(&[100.0, 2.0, 3.0, -50.0]), Some(2.5));
        // Quantized samples: the midmean moves with their mix, the median
        // would sit on one step.
        assert_eq!(
            midmean(&[0.15, 0.16, 0.16, 0.15, 0.16, 0.16, 0.15, 0.16]),
            Some(0.1575)
        );
    }

    #[test]
    fn small_samples_report_no_tail() {
        // 19 samples: p50 has rank 10 and only 9 above it.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        let s = summarize(&ramp(12));
        assert_eq!(s.samples, 12);
        assert_eq!(s.median, Some(6.5));
        assert_eq!(s.tail, None);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        let s = summarize(&ramp(200));
        assert_eq!(s.tail, Some((95.0, 190.0)));
        assert_eq!(summarize(&ramp(1000)).tail, Some((99.0, 990.0)));
        assert_eq!(summarize(&ramp(40)).tail, Some((75.0, 30.0)));
    }

    #[test]
    fn ties_count_by_rank() {
        let flat = vec![5.0; 30];
        assert_eq!(percentile(&flat, 50.0), Some(5.0));
        assert_eq!(percentile(&flat, 95.0), None);
        // Ten equal maxima above a tied body still support the p75.
        let mut tied: Vec<f64> = vec![1.0; 30];
        tied.extend([9.0; 10]);
        assert_eq!(percentile(&tied, 75.0), Some(1.0));
        assert_eq!(summarize(&tied).tail, Some((75.0, 1.0)));
    }
}
