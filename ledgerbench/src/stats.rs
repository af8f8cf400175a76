//! Named metrics and the order statistics behind them.

/// One reported number: name, value, unit and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`ms`, `us`, `s`, `1/s`, `count`, …).
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric; a non-finite value (an empty ratio) reads 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        Self { name: name.into(), value, unit, samples }
    }
}

/// The `q`-quantile (0 < q ≤ 1) by nearest rank; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The tail percentile a sample of `n` supports: p99 from 1000 samples,
/// otherwise the highest whole percentile with at least ten samples
/// beyond it. `None` below 20 samples, where no tail above the median
/// qualifies.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n >= 1000 {
        return Some(99);
    }
    if n < 20 {
        return None;
    }
    Some((100 * (n - 10) / n) as u32)
}

/// `<prefix>_p50` and the supported tail `<prefix>_p<q>` of `samples`.
pub fn median_and_tail(prefix: &str, samples: &[f64], unit: &'static str) -> Vec<Metric> {
    let mut out = vec![Metric::new(format!("{prefix}_p50"), median(samples), unit, samples.len())];
    if let Some(q) = tail_percentile(samples.len()) {
        out.push(Metric::new(
            format!("{prefix}_p{q}"),
            quantile(samples, f64::from(q) / 100.0),
            unit,
            samples.len(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tails_keep_ten_samples_beyond() {
        assert_eq!(tail_percentile(5000), Some(99));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(27), Some(62));
        assert_eq!(tail_percentile(19), None);
    }
}
