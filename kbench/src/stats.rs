//! Order statistics over latency samples.

/// Sorts `xs` ascending (all values are finite timings).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank quantile `q ∈ [0, 1]` of ascending `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs.to_vec()), 0.5)
}

/// The highest of p99, p90 and p50 that has at least `TAIL_BEYOND`
/// samples beyond it (the median when none has), with its label.
///
/// On a shared 2-core host a 100 ms scheduling stall delays 25 requests of
/// a 250/s open loop; a percentile with fewer samples beyond it than that
/// reads the host's stalls, not the program.
pub fn tail(xs: &[f64]) -> (f64, &'static str) {
    let s = sorted(xs.to_vec());
    let (q, label) = match s.len() {
        n if n >= 100 * TAIL_BEYOND => (0.99, "p99"),
        n if n >= 10 * TAIL_BEYOND => (0.90, "p90"),
        _ => (0.50, "p50"),
    };
    (quantile(&s, q), label)
}

/// Samples a tail percentile must have beyond it.
const TAIL_BEYOND: usize = 250;

/// Median over consecutive `width`-second windows of `stat` over each
/// window's values; `samples` are `(seconds since start, value)`. A host
/// stall then spoils the windows it falls in, not the whole run's
/// statistic. Windows with fewer than `min` samples are skipped.
pub fn windowed(samples: &[(f64, f64)], width: f64, min: usize, stat: fn(&[f64]) -> f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at, v) in samples {
        let w = (at / width) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(v);
    }
    let stats: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= min)
        .map(|w| stat(w))
        .collect();
    median(&stats)
}

/// Nearest-rank p90 of unsorted samples.
pub fn p90(xs: &[f64]) -> f64 {
    quantile(&sorted(xs.to_vec()), 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_enough_samples_beyond() {
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&few), (25.0, "p50"));
        let some: Vec<f64> = (1..=2500).map(f64::from).collect();
        assert_eq!(tail(&some), (2250.0, "p90"));
        let many: Vec<f64> = (1..=25_000).map(f64::from).collect();
        assert_eq!(tail(&many), (24_750.0, "p99"));
    }

    #[test]
    fn windowed_median_skips_sparse_windows() {
        // Window 0 reads 1, window 1 reads 5, window 2 reads 3; the lone
        // sample in window 3 is skipped.
        let mut xs = Vec::new();
        for (w, v) in [(0.0, 1.0), (1.0, 5.0), (2.0, 3.0)] {
            xs.extend((0..4).map(|i| (w + 0.1 * f64::from(i), v)));
        }
        xs.push((3.5, 100.0));
        assert_eq!(windowed(&xs, 1.0, 2, median), 3.0);
    }
}
