//! Order statistics: medians, percentiles, and the rule for which tail
//! percentile a sample is large enough to support.

/// Percentile `p` in `[0, 100]` of an ascending slice, by nearest rank.
/// Empty input gives 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns them as the ascending slice the
/// percentile functions take.
pub fn sort(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    let v = sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail percentiles a report may quote, ascending, each with the share of
/// the samples that lies beyond it, in parts per thousand (exact, where
/// `100 - 99.9` in floating point is not).
const TAILS: [(f64, usize); 5] = [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest of [`TAILS`] that still has at least ten of `n` samples beyond
/// it, and no higher than `wanted`. A percentile with fewer samples beyond it
/// is decided by a handful of outliers and does not repeat.
pub fn supported_tail(n: usize, wanted: f64) -> f64 {
    TAILS
        .iter()
        .filter(|&&(p, beyond)| p <= wanted && n * beyond >= 10 * 1000)
        .fold(50.0, |best, &(p, _)| p.max(best))
}

/// Percentile `wanted` of values observed over time, steadied: the samples
/// are cut, in time order, into up to `max_slices` runs of equal count, each
/// large enough to support the percentile by [`supported_tail`]; the result is
/// the median of the runs' percentiles. A disturbance that lasts a fraction
/// of the phase moves one run, not the result. `samples` are `(time, value)`.
pub fn sliced_percentile(samples: &[(f64, f64)], wanted: f64, max_slices: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let p = supported_tail(samples.len(), wanted);
    // Samples a run needs for ten of them to lie beyond `p`.
    let needed = (10.0 / (1.0 - p / 100.0)).round() as usize;
    let slices = (samples.len() / needed).clamp(1, max_slices.max(1));
    let mut by_time = samples.to_vec();
    by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
    let per_slice: Vec<f64> = (0..slices)
        .map(|s| {
            let run = &by_time[s * by_time.len() / slices..(s + 1) * by_time.len() / slices];
            let mut values: Vec<f64> = run.iter().map(|&(_, v)| v).collect();
            percentile_sorted(sort(&mut values), p)
        })
        .collect();
    median(&per_slice)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method), so
/// that `--repeat` flags the same spreads the contract's check does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    let v = sort(&mut v);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Signed: at the clamped ends Python extrapolates.
        let delta = (pos as f64 - (j * 4) as f64) / 4.0;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the contract
/// compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Completions per second in each of `windows` equal slices of
/// `[0, span_s)`, given each completion's offset in seconds and what each
/// counts for. A slice's rate is taken between its first and last completion,
/// so it is not quantised by the slice width; slices with fewer than two
/// completions are left out. A throughput reported as the median of these is
/// not moved by one stalled slice.
pub fn window_rates(end_offsets_s: &[f64], weight: f64, span_s: f64, windows: usize) -> Vec<f64> {
    let width = span_s / windows as f64;
    // Per slice: completions, first and last completion time.
    let mut slices = vec![(0usize, f64::INFINITY, f64::NEG_INFINITY); windows];
    for &t in end_offsets_s {
        if t >= 0.0 && t < span_s {
            let s = &mut slices[((t / width) as usize).min(windows - 1)];
            *s = (s.0 + 1, s.1.min(t), s.2.max(t));
        }
    }
    slices
        .into_iter()
        .filter(|&(n, first, last)| n >= 2 && last > first)
        .map(|(n, first, last)| (n - 1) as f64 * weight / (last - first))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 95.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 199 samples leave 9.95 beyond p95: not enough; 200 leave exactly 10.
        assert_eq!(supported_tail(199, 95.0), 90.0);
        assert_eq!(supported_tail(200, 95.0), 95.0);
        assert_eq!(supported_tail(999, 99.0), 95.0);
        assert_eq!(supported_tail(1000, 99.0), 99.0);
        assert_eq!(supported_tail(10_000, 99.9), 99.9);
        // Never above what was asked for, never below the median.
        assert_eq!(supported_tail(1_000_000, 95.0), 95.0);
        assert_eq!(supported_tail(3, 99.0), 50.0);
    }

    #[test]
    fn sliced_percentile_ignores_a_disturbance_confined_to_one_slice() {
        // 1000 samples of 1.0 over time; the 200 in the middle are 50.0.
        let samples: Vec<(f64, f64)> = (0..1000)
            .map(|i| (i as f64, if (400..600).contains(&i) { 50.0 } else { 1.0 }))
            .collect();
        // One percentile over everything sees the disturbance at p95 …
        assert_eq!(sliced_percentile(&samples, 95.0, 1), 50.0);
        // … the median of five slices does not.
        assert_eq!(sliced_percentile(&samples, 95.0, 5), 1.0);
        // Too few samples for five slices of 200: fewer slices, never none.
        assert_eq!(sliced_percentile(&samples[..300], 95.0, 5), 1.0);
        // Too few to support p95 at all: falls back to a supported tail.
        assert_eq!(
            sliced_percentile(&[(0.0, 1.0), (1.0, 9.0), (2.0, 5.0)], 95.0, 5),
            5.0
        );
        assert_eq!(sliced_percentile(&[], 95.0, 5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), [3.0, 4.0, 7.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_rates_are_taken_between_first_and_last_completion_of_a_slice() {
        // Slice [0, 1): completions at 0.1, 0.3, 0.5 — two gaps in 0.4 s.
        // Slice [1, 2): at 1.0 and 1.8 — one gap in 0.8 s. 2.5 is outside.
        let ends = [0.1, 0.3, 0.5, 1.0, 1.8, 2.5];
        let rates = window_rates(&ends, 1.0, 2.0, 2);
        assert!(
            (rates[0] - 5.0).abs() < 1e-9 && (rates[1] - 1.25).abs() < 1e-9,
            "{rates:?}"
        );
        // Each completion may count for a batch of queries.
        assert!((window_rates(&ends, 32.0, 2.0, 2)[0] - 160.0).abs() < 1e-9);
        // A slice with a single completion gives no rate.
        assert_eq!(window_rates(&[0.1, 0.3, 1.5], 1.0, 2.0, 2).len(), 1);
    }
}
