//! Order statistics: nearest-rank percentiles inside a slice, medians and
//! quartiles across slices and across runs.

/// Nearest-rank percentile of an ascending slice: the value at 1-based rank
/// `ceil(q/100 · n)`. `q` is in `(0, 100]`; an empty slice has none.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle values when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median, quartiles and count of a sample set — what every reported value
/// carries beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Inter-quartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarises `values`. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) so spreads
/// computed here equal the ones the benchmark's driver computes; with fewer
/// than two values both quartiles equal the median.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let med = median(&v);
    if n < 2 {
        return Summary {
            median: med,
            q1: med,
            q3: med,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: med,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// One value per slice of a run (slices without samples are left out).
#[derive(Clone, Debug, PartialEq)]
pub struct PerSlice(pub Vec<f64>);

impl PerSlice {
    /// Median, quartiles (Python's method) and count across slices.
    pub fn summary(&self) -> Summary {
        summarize(&self.0)
    }

    /// The quiet quartile of a lower-is-better quantity (a latency): the
    /// nearest-rank lower quartile across slices, i.e. the value a quarter
    /// of the slices stayed at or below.
    ///
    /// Why not the median slice: on a shared host interference only ever
    /// makes a slice *worse*, and a noisy spell lasts many seconds, so the
    /// median slice moves with the host. The quarter of slices the host
    /// disturbed least is the better estimate of the program itself, and a
    /// slowdown of the program moves every slice, those included.
    pub fn quiet_low(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        Self::quartile_from_bottom(&v)
    }

    /// The quiet quartile of a higher-is-better quantity (a throughput):
    /// the nearest-rank upper quartile across slices.
    pub fn quiet_high(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(|a, b| b.total_cmp(a));
        Self::quartile_from_bottom(&v)
    }

    /// Rank `ceil(n/4)` of `ordered`; 0 when empty.
    fn quartile_from_bottom(ordered: &[f64]) -> f64 {
        ordered
            .get(ordered.len().div_ceil(4).saturating_sub(1))
            .copied()
            .unwrap_or(0.0)
    }
}

/// Nearest-rank percentile `q` of each slice's latencies (ns in, µs out):
/// one stalled slice spoils one value, not the metric.
pub fn slice_percentiles_us(slices: &mut [Vec<u64>], q: f64) -> PerSlice {
    PerSlice(
        slices
            .iter_mut()
            .filter_map(|s| {
                s.sort_unstable();
                percentile(s, q).map(|ns| ns as f64 / 1e3)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_data() {
        let data: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&data, 50.0), Some(50));
        assert_eq!(percentile(&data, 99.0), Some(99));
        assert_eq!(percentile(&data, 100.0), Some(100));
        assert_eq!(percentile(&data, 0.5), Some(1));
        // Five samples: p50 is rank ceil(2.5) = 3, p99 is the maximum.
        let five = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&five, 50.0), Some(30));
        assert_eq!(percentile(&five, 99.0), Some(50));
        assert_eq!(percentile(&five, 20.0), Some(10));
        assert_eq!(percentile(&five, 21.0), Some(20));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert!((s.spread() - 10.5 / 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn slice_statistics_ignore_stalled_slices() {
        // Three quiet slices and one with a stall: the p99 of the stalled
        // slice is 5 µs, the median of the per-slice p99s stays at 0.099 µs.
        let quiet: Vec<u64> = (1..=100).collect();
        let mut stalled = quiet.clone();
        stalled[98] = 5000;
        stalled[99] = 9000;
        let mut slices = vec![quiet.clone(), stalled, quiet.clone(), quiet, Vec::new()];
        let p99 = slice_percentiles_us(&mut slices, 99.0);
        assert_eq!(
            p99.0,
            [0.099, 5.0, 0.099, 0.099],
            "the empty slice is skipped"
        );
        assert_eq!(p99.summary().median, 0.099);
        assert_eq!(
            slice_percentiles_us(&mut slices, 50.0).summary().median,
            0.05
        );
    }

    #[test]
    fn quiet_quartiles_are_nearest_rank_and_never_extrapolate() {
        let low = |v: &[f64]| PerSlice(v.to_vec()).quiet_low();
        let high = |v: &[f64]| PerSlice(v.to_vec()).quiet_high();
        // Nine slices: rank ceil(9/4) = 3 from the quiet end.
        let nine = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!((low(&nine), high(&nine)), (3.0, 7.0));
        // Most slices disturbed: the quiet quartile still reads the quiet ones.
        assert_eq!(
            low(&[60.0, 61.0, 62.0, 300.0, 300.0, 300.0, 300.0, 300.0, 300.0]),
            62.0
        );
        assert_eq!(
            high(&[800.0, 790.0, 780.0, 500.0, 500.0, 500.0, 500.0, 500.0, 500.0]),
            780.0
        );
        // Two or four slices give the extreme, five the second.
        assert_eq!((low(&[2.0, 1.0]), high(&[2.0, 1.0])), (1.0, 2.0));
        assert_eq!(
            (low(&[4.0, 3.0, 2.0, 1.0]), high(&[4.0, 3.0, 2.0, 1.0])),
            (1.0, 4.0)
        );
        assert_eq!(
            (
                low(&[5.0, 4.0, 3.0, 2.0, 1.0]),
                high(&[5.0, 4.0, 3.0, 2.0, 1.0])
            ),
            (2.0, 4.0)
        );
        assert_eq!((low(&[7.0]), high(&[7.0])), (7.0, 7.0));
        assert_eq!((low(&[]), high(&[])), (0.0, 0.0));
    }
}
